"""One command for every metric, and a steadiness check.

    python3 perfbench/report.py [--workloads a,b]
    python3 perfbench/report.py --steady [--workloads a,b]

The first form runs the self-test, then each workload once untraced and
once traced (seed 1, run_seconds from BENCHMARK.json), and prints every
end-to-end and per-layer metric by name with its unit, the failed
fraction, the per-kind job times and work counts; then the baseline rows
of ``baseline.py``.

The second form runs two sets of ten runs of the same code per workload,
each run on its own seed, and reports per end-to-end metric the median and
quartile spread of each set and whether the sets agree within the bounds
in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 900
SEED = 1                # the seed of the first form
RUNS, SETS = 10, 2      # the steadiness check: two sets of ten seeds

STATISTIC = """\
Statistics. Each run is one closed-loop pass of whole job cycles. The
host's speed switches between levels about 1.7x apart for seconds to
minutes at a time, while CPU time stays equal to wall time, so raw job
times of the same code spread by 30-45 % across runs. A fixed calibration
unit (calibrate.py) runs before every job; each job's time is scaled to
the reference speed by the median time of the 2 units before it and the 2
after it. Per run, over these reference-speed job times:
  items_per_s  = items / sum of job times
  job_pXX_ms   = percentile XX over all jobs of the run
  setup_s      = median of 9 fresh-process set-ups spread over the run,
                 each scaled by a reference start (python + import numpy)
                 timed just before and just after it
  peak_rss_mb  = high-water RSS of the run's process
Across runs: spread = (Q3 - Q1) / median with statistics.quantiles(values,
n=4); drift = (median2 - median1) / median1. Two sets agree on a metric
when both spreads and |drift| stay within the metric's bound."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        raise SystemExit(f"error: {workload} reported {sorted(result['metrics'])}, "
                         f"BENCHMARK.json lists {sorted(wanted)}")
    return result, done.stderr


def show_metrics(spec, workloads):
    done = subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    print(done.stdout.strip().splitlines()[-1] if done.stdout else "selftest: no output")
    if done.returncode != 0:
        print(done.stdout + done.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    for workload in workloads:
        print(f"\n== {workload} (seed {SEED}, {seconds} s per run)")
        for trace in (0, 1):
            result, stderr = run_once(spec, workload, SEED, seconds, trace)
            frac = result["failed"] / result["attempted"]
            print(f"  -- {'per-layer (traced run)' if trace else 'end-to-end (untraced run)'}: "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"failed_frac {frac:.4g}, correct {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<52} {m['value']:>14.6g} {units.get(name, m['unit'])}")
            if trace:
                print("  -- work counts per item, by job kind (traced run)")
                print("\n".join("  " + line[len("counts: "):] for line in stderr.splitlines()
                                if line.startswith("counts: ")))
            else:
                print("  -- job kinds by share of job time (untraced run)")
                print("\n".join("  " + line[len("latency: "):] for line in stderr.splitlines()
                                if line.startswith("latency: ")))
    print("\n== baseline rows (one fresh process)")
    done = subprocess.run([sys.executable, os.path.join(HERE, "baseline.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    print(done.stdout + (done.stderr if done.returncode else ""))


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def steady(spec, workloads):
    print(STATISTIC)
    metrics = spec["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for n in range(RUNS):
                seed = 1000 * (s + 1) + n
                t0 = time.time()
                result, _ = run_once(spec, workload, seed, spec["run_seconds"], 0)
                if not result["correct"]:
                    ok = False
                    print(f"  {workload} seed {seed}: {result['failed']} failed jobs")
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"  {workload} set {s + 1} run {n + 1} seed {seed}: "
                      + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
                      + f" ({time.time() - t0:.0f} s)", flush=True)
            sets.append(values)
        print(f"\n== {workload}: {SETS} sets x {RUNS} runs")
        print(f"  {'metric':<14} {'bound':>6} " + " ".join(
            f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}" for s in range(SETS))
              + f" {'drift':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = [statistics.median(v[name]) for v in sets]
            spr = [spread(v[name]) for v in sets]
            drift = max(abs(x - med[0]) / med[0] for x in med[1:])
            agree = drift <= bound and all(x <= bound for x in spr)
            target = all(x < bound / 3 for x in spr)
            ok = ok and agree
            print(f"  {name:<14} {bound:>6.2f} " + " ".join(
                f"{a:>11.5g} {b:>8.4f}" for a, b in zip(med, spr))
                  + f" {drift:>8.4f}  {'agree' if agree else 'DISAGREE'}"
                  + ("" if target else "  (spread above bound/3)"))
    print("\nsteadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--steady", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        raise SystemExit(f"error: unknown workloads {unknown}; choose from {names}")
    if args.steady:
        return steady(spec, workloads)
    show_metrics(spec, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
