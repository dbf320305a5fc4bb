"""Digest of every CLI job of the chart workloads, for byte-identity checks.

    python3 tools/cli_digest.py SRC [--cycles N] [--seed S]

Imports tensorcalc from SRC (the src directory of a checkout) and runs
in process every job of N cycles (default 3) of the grid-spherical and
table-chart workloads in perfbench/workloads.py. Each christoffel and
field-op job runs once with CSV and once with JSON output; audit has one
format. One line per run: workload, cycle, job, format, exit code, and the
sha256 digests of stdout and stderr. The jobs depend only on the seed and
come from this checkout's perfbench, so two source trees print the same
lines exactly when their CLI output is the same byte for byte:

    diff <(python3 tools/cli_digest.py ../parent/src) <(python3 tools/cli_digest.py src)

tools/cli_drift.py runs the same jobs (runs() below) and says by how much
the printed values differ.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-spherical", "table-chart")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def runs(src: str, cycles: int, seed: int):
    """Every run of the chart workloads' jobs with tensorcalc from src, in
    a fixed order: tuples (workload, cycle, job number, job kind, format,
    exit code, stdout, stderr)."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import numpy as np
    from tensorcalc import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported tensorcalc from {cli.__file__}")
    import workloads

    for name in WORKLOADS:
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as workdir:
            workload = workloads.ChartWorkload(name, workdir)
            for cycle in range(cycles):
                jobs, _ = workload.cycle(rng)
                for n, job in enumerate(jobs):
                    formats = {"csv": job.argv}
                    if not isinstance(job, workloads.AuditJob):  # audit has no --format
                        formats["json"] = job.argv + ["--format", "json"]
                    for fmt, argv in formats.items():
                        yield (name, cycle, n, job.kind, fmt) + _run(cli, argv)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the tensorcalc package")
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for name, cycle, n, _, fmt, code, out, err in runs(args.src, args.cycles, args.seed):
        print(f"{name} {cycle} {n} {fmt} exit={code} out={_digest(out)} err={_digest(err)}",
              flush=True)


if __name__ == "__main__":
    main()
