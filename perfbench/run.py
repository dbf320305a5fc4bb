"""Benchmark entry point: one workload, one process, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program under test is the tensorcalc
package in ./src, driven through its public functions and its CLI in a
closed loop: one client, the next job starts when the last one ends.

--trace 0 prints the end-to-end metrics: set-up time, items per second,
job latency p50/p90 and peak RSS. Times are taken at a reference speed
(see calibrate.py): each job's wall time is scaled by the calibration
unit's time measured around it. --trace 1 spends half the time untraced
and up to 8 s traced, and prints the per-layer metrics plus the tracing
overhead; spans go to .perfbench_out/. The last stdout line is the JSON
result; per-kind job latencies go to stderr.
"""

import os

# numpy reads these at import: keep BLAS single-threaded, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
from array import array
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 100          # p90 needs ten jobs beyond it
SETUP_REPEATS = 9       # set-up probes per run, spread over it; the median is reported
CAL_WINDOW = 2          # calibrations on each side of a job whose median gives its speed
TRACED_SECONDS = 8      # cap on the traced half: spans take ~30 bytes each
PROBLEMS_SHOWN = 5


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "tensorcalc", "__init__.py")):
        raise SystemExit(f"error: no tensorcalc package under {SRC}")
    sys.path.insert(0, SRC)
    import tensorcalc
    from tensorcalc import cli, curvilinear, fields, frames, metric, notation, tensors  # noqa: F401
    if not os.path.abspath(tensorcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported tensorcalc from {tensorcalc.__file__}")
    return tensorcalc


class Pass:
    """Closed-loop pass over whole cycles; every job is checked."""

    def __init__(self):
        self.items = self.jobs = self.failed = self.skipped = self.out_bytes = 0
        self.kinds = []               # kind names; jobs refer to them by index
        # per job, in order; typed arrays keep the bookkeeping's memory flat
        self.job_kind, self.job_items = array("i"), array("i")
        self.job_start, self.job_time = array("d"), array("d")
        self.cal_start, self.cal_time = array("d"), array("d")
        self.problems = []

    def _calibrate(self):
        self.cal_start.append(time.perf_counter())
        self.cal_time.append(calibrate.unit())

    def run(self, workload, rng, seconds, tc, tracer=None, between=None):
        begin = time.perf_counter()
        kind_index = {}
        self._calibrate()
        while True:
            jobs, _ = workload.cycle(rng)
            for job in jobs:
                self._calibrate()
                error = None
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = job.run(tc)
                    else:
                        result = tracer.run_job(self.jobs, job.run, tc)
                except Exception as exc:  # a job that raises is a failed job
                    error = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                outcome = self.judge(job, result if error is None else None, error)
                if job.kind not in kind_index:
                    kind_index[job.kind] = len(self.kinds)
                    self.kinds.append(job.kind)
                self.jobs += 1
                self.job_kind.append(kind_index[job.kind])
                self.job_start.append(t0)
                self.job_time.append(elapsed)
                self.job_items.append(outcome.items)
                self.items += outcome.items
                self.skipped += outcome.skipped
                self.out_bytes += outcome.out_bytes
                if outcome.problem:
                    self.failed += 1
                    self.problems.append(f"{job.kind}: {outcome.problem}")
            elapsed = time.perf_counter() - begin
            if between is not None:
                between(elapsed)
            if elapsed >= seconds and self.jobs >= MIN_JOBS:
                self._calibrate()
                return self

    @staticmethod
    def judge(job, result, error):
        if error is not None:
            return workloads.Outcome(problem=error)
        try:
            return job.check(result)
        except Exception as exc:  # an output the check cannot read is wrong
            return workloads.Outcome(problem=f"check raised {type(exc).__name__}: {exc}")

    def job_cost(self):
        """Each job's time at the reference speed, in seconds.

        A calibration unit runs before every job. A job's speed is the
        median time of the CAL_WINDOW units before it and the CAL_WINDOW
        after it, which run within milliseconds of it for short jobs.
        """
        cal = np.frombuffer(self.cal_time, dtype=float)
        before = np.searchsorted(np.frombuffer(self.cal_start, dtype=float),
                                 np.frombuffer(self.job_start, dtype=float), side="right")
        speed = np.array([np.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW])
                          for i in range(len(cal) + 1)])
        times = np.frombuffer(self.job_time, dtype=float)
        return times * calibrate.REFERENCE_S / speed[before]

    def items_per_s(self):
        return self.items / float(self.job_cost().sum())

    def percentile_ms(self, q):
        return float(np.percentile(self.job_cost(), q)) * 1e3

    def report_kinds(self, stream):
        kinds = np.frombuffer(self.job_kind, dtype=np.int32)
        raw = np.frombuffer(self.job_time, dtype=float)
        cost = self.job_cost()
        total = cost.sum()
        for k in sorted(range(len(self.kinds)), key=lambda k: -cost[kinds == k].sum()):
            ts, rs = cost[kinds == k], raw[kinds == k]
            stream.write(f"latency: {self.kinds[k]:<36} n={len(ts):<5} median "
                         f"{np.median(ts) * 1e3:9.3f} ms (wall {np.median(rs) * 1e3:9.3f} ms)"
                         f"  share of time {ts.sum() / total:6.1%}\n")
        cal = np.frombuffer(self.cal_time, dtype=float) * 1e3
        stream.write(f"latency: raw: items/s of wall time {self.items / raw.sum():.6g}, job p50 "
                     f"{np.percentile(raw, 50) * 1e3:.6g} ms, p90 {np.percentile(raw, 90) * 1e3:.6g} ms;"
                     f" calibration unit n={len(cal)} median {np.median(cal):.4g} ms,"
                     f" 5-95% {np.percentile(cal, 5):.4g}-{np.percentile(cal, 95):.4g} ms\n")


class SetupProbes:
    """Fresh-process set-ups, spread evenly over a pass.

    Each probe is the time from spawning a process to its first runnable
    job: interpreter start, ``import tensorcalc`` and loading the
    workload's charts, fields and bindings. Set-up is mostly process start,
    file reads and extension loading, which slow less than the calibration
    unit when the host slows (1.3x against 1.75x). So each probe is scaled
    instead by a reference start timed just before and just after it: a
    fresh interpreter that imports numpy, which the program does not
    change. SETUP_REFERENCE_S is that reference start at the reference
    speed.
    """

    REFERENCE = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
    SETUP_REFERENCE_S = 0.1

    def __init__(self, specs, workdir, seconds):
        self.manifest = os.path.join(workdir, "setup.json")
        with open(self.manifest, "w", encoding="utf-8") as fh:
            json.dump(specs, fh)
        self.seconds = seconds
        self.times = []

    @staticmethod
    def _spawn(cmd):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout.strip().splitlines()[-1]) - t0

    def probe(self):
        before = self._spawn(self.REFERENCE)
        setup = self._spawn([sys.executable, os.path.join(HERE, "setup_probe.py"),
                             SRC, self.manifest])
        after = self._spawn(self.REFERENCE)
        self.times.append(setup * self.SETUP_REFERENCE_S / ((before + after) / 2))

    def between(self, elapsed):
        while (len(self.times) < SETUP_REPEATS
               and elapsed >= len(self.times) * self.seconds / SETUP_REPEATS):
            self.probe()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tc = _load_program()
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.make(args.workload, workdir, tc)
        if args.trace:
            metrics, passes = traced_run(args, workload, tc)
        else:
            _, specs = workload.cycle(np.random.default_rng(args.seed))
            probes = SetupProbes(specs, workdir, args.seconds)
            timed = Pass().run(workload, np.random.default_rng(args.seed), args.seconds, tc,
                               between=probes.between)
            setup_s = probes.median()
            passes = [timed]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_s": (timed.items_per_s(), "1/s"),
                "job_p50_ms": (timed.percentile_ms(50), "ms"),
                "job_p90_ms": (timed.percentile_ms(90), "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.jobs for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        p.report_kinds(sys.stderr)
        for problem in p.problems[:PROBLEMS_SHOWN]:
            sys.stderr.write(f"FAILED {problem}\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(args, workload, tc):
    import spans

    plain = Pass().run(workload, np.random.default_rng(args.seed), args.seconds / 2, tc)
    tracer = spans.Tracer(tc)
    try:
        tracer.install()
    except spans.TraceError as exc:
        raise SystemExit(f"error: cannot trace this version of tensorcalc: {exc}")
    try:
        traced = Pass().run(workload, np.random.default_rng(args.seed),
                            min(args.seconds / 2, TRACED_SECONDS), tc, tracer)
    finally:
        tracer.restore()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    totals, drawn = tracer.totals()
    spans.report_kinds(tracer, traced, sys.stderr)
    metrics = spans.layer_metrics(totals, drawn, tracer.sampled, traced.items,
                                  traced.jobs, traced.out_bytes, traced.skipped)
    untraced = plain.items_per_s()
    overhead = 1.0 - traced.items_per_s() / untraced if untraced else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
