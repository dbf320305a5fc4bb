"""How far the CLI output of two source trees drifts apart, per job kind.

    python3 tools/cli_drift.py PARENT_SRC HEAD_SRC [--cycles N] [--seed S]

Runs the jobs of tools/cli_digest.py (N cycles of the grid-spherical and
table-chart workloads, CSV and JSON output) once with tensorcalc from each
tree, each tree in its own child process, and compares the two outputs of
every run. Per workload and job kind it prints one line: "identical" when
every run of the kind printed the same bytes, else the largest
|a - b| / (1 + |b|) over the printed numbers (a from HEAD_SRC, b from
PARENT_SRC), plus the runs whose exit code or stderr changed. Output
whose text outside the numbers differs (a row skipped in one tree only)
is counted as a layout change, with no drift figure. A deliberate
last-digit change in an operator then shows its size:

    python3 tools/cli_drift.py ../parent/src src
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# a printed float or int: repr of a Python float, or a JSON number
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _dump(src: str, cycles: int, seed: int):
    sys.path.insert(0, HERE)
    import cli_digest

    for name, _, _, kind, _, code, out, err in cli_digest.runs(src, cycles, seed):
        print(json.dumps([name, kind, code, out, err]), flush=True)


def _drift(head: str, parent: str):
    """Largest |a - b| / (1 + |b|) over the numbers of two outputs, or None
    when their text outside the numbers differs."""
    a, b = NUMBER.findall(head), NUMBER.findall(parent)
    if len(a) != len(b) or NUMBER.sub("", head) != NUMBER.sub("", parent):
        return None
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / (1.0 + abs(y)))
    return worst


def _compare(parent, head) -> dict:
    """Per (workload, kind): [runs, identical runs, worst drift, layout
    changes, exit code changes, stderr changes] over the two children's
    runs, read in step."""
    kinds = {}
    for line_b, line_a in zip(parent.stdout, head.stdout):
        name, kind, code_b, out_b, err_b = json.loads(line_b)
        name_a, kind_a, code_a, out_a, err_a = json.loads(line_a)
        if (name_a, kind_a) != (name, kind):
            raise SystemExit(f"error: the trees ran different jobs ({kind} / {kind_a})")
        stats = kinds.setdefault((name, kind), [0, 0, 0.0, 0, 0, 0])
        stats[0] += 1
        stats[4] += code_a != code_b
        stats[5] += err_a != err_b
        if out_a == out_b:
            stats[1] += 1
            continue
        drift = _drift(out_a, out_b)
        if drift is None:
            stats[3] += 1
        else:
            stats[2] = max(stats[2], drift)
    return kinds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="src directory of the reference tree")
    parser.add_argument("head", nargs="?", help="src directory of the changed tree")
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:  # child: one JSON line per run of tensorcalc from SRC
        return _dump(args.dump, args.cycles, args.seed)
    if not args.head:
        parser.error("give PARENT_SRC and HEAD_SRC")

    def child(src):
        return subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--dump", src,
             "--cycles", str(args.cycles), "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True)

    with child(args.parent) as parent, child(args.head) as head:
        kinds = _compare(parent, head)
        if parent.wait() or head.wait():
            raise SystemExit("error: a child run failed")
    for (name, kind), (count, same, worst, layout, exits, errs) in kinds.items():
        if same == count and not (exits or errs):
            print(f"{name} {kind}: identical ({count} runs)")
            continue
        text = f"{name} {kind}: max drift {worst:.3g} ({count - same} of {count} runs differ)"
        for what, n in (("layout changed", layout), ("exit code changed", exits),
                        ("stderr changed", errs)):
            if n:
                text += f"; {what} in {n}"
        print(text)


if __name__ == "__main__":
    main()
