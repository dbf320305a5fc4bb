"""Layer-by-layer baseline rows, timed directly in one fresh process.

    python3 perfbench/baseline.py

Reproduces the ROADMAP baseline table: chart-point cost of ``jacobians``,
``christoffel`` and ``laplacian_in_chart`` on the spherical chart,
``DenseTensor(2,2).transform``, ``parse``/``evaluate`` of a two-term
expression, CLI ``field-op laplace`` on 10^3 and 20^3 grids, ``christoffel``
on a 20^3 grid, ``audit`` at 100 points, and ``import tensorcalc``. Each row
is the median of several repeats, with the minimum and the repeat count.
"""

import run  # first: it pins BLAS to one thread before numpy loads

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times), repeats


def import_time(repeats):
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tensorcalc; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code, run.SRC], check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(repeats)]
    return statistics.median(times), min(times), repeats


def main():
    tc = run._load_program()

    workdir = os.path.join(run.ROOT, ".perfbench_work", f"baseline-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rows = []
    try:
        rng = np.random.default_rng(0)
        sph = tc.builtin_chart("spherical")
        pts = [sph.sample_points(1, rng)[0] for _ in range(200)]
        calls = []

        def r_squared(y):
            calls.append(1)
            return y[0] ** 2

        lap = tc.laplacian_in_chart(sph, tc.TensorField.scalar(r_squared))
        per_pt = len(pts) / 1e6

        def over_points(fn):
            return lambda: [fn(y) for y in pts]

        for label, fn in (("jacobians (spherical)", lambda y: tc.jacobians(sph, y)),
                          ("christoffel (spherical)", lambda y: tc.christoffel(sph, y)),
                          ("laplacian_in_chart on r^2", lambda y: lap.evaluate(y))):
            med, low, n = timed(over_points(fn), 5)
            rows.append(("chart point" if "lap" not in label else "operator", label,
                         med / per_pt, low / per_pt, n, "us/pt"))
        per_point_calls = len(calls) / (5 * len(pts))
        rows.append(("operator", "laplacian_in_chart field calls", per_point_calls,
                     per_point_calls, 5, "calls/pt"))

        S = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))
        pair = tc.TransitionPair(S, np.linalg.inv(S))
        x22 = tc.DenseTensor((2, 2), 3, rng.uniform(-1, 1, (3,) * 4))
        med, low, n = timed(lambda: [x22.transform(pair) for _ in range(100)], 7)
        rows.append(("kernel", "DenseTensor(2,2).transform", med * 1e4, low * 1e4, n, "us"))

        text = "y^i = F^i_j x^j + 2 G^i_k x^k"
        expr = tc.parse(text)
        bind = {"F": tc.DenseTensor((1, 1), 3, rng.uniform(-1, 1, (3, 3))),
                "G": tc.DenseTensor((1, 1), 3, rng.uniform(-1, 1, (3, 3))),
                "x": tc.DenseTensor((1, 0), 3, rng.uniform(-1, 1, 3))}
        med, low, n = timed(lambda: [tc.parse(text) for _ in range(100)], 7)
        rows.append(("front end", "parse (2-term)", med * 1e4, low * 1e4, n, "us"))
        med, low, n = timed(lambda: [tc.evaluate(expr, bind) for _ in range(100)], 7)
        rows.append(("kernel", "evaluate (2-term)", med * 1e4, low * 1e4, n, "us"))

        field = os.path.join(workdir, "r2.json")
        with open(field, "w", encoding="utf-8") as fh:
            json.dump({"r": 0, "s": 0, "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]]}, fh)

        def cli(argv):
            def call():
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = tc.cli.main(argv)
                if code != 0:
                    raise SystemExit(f"error: {' '.join(argv)} exited {code}")
            return call

        def grid(n):
            return [f"--grid=y1=0.5:3:{n}", f"--grid=y2=0.3:{math.pi - 0.3!r}:{n}",
                    f"--grid=y3=-3:3:{n}"]

        for n in (10, 20):
            med, low, k = timed(cli(["field-op", "laplace", "--chart", "spherical",
                                     "--field", field] + grid(n)), 3 if n == 10 else 2)
            rows.append(("end to end", f"field-op laplace spherical {n}^3", med, low, k, "s"))
        med, low, k = timed(cli(["christoffel", "--chart", "spherical"] + grid(20)), 3)
        rows.append(("end to end", "christoffel spherical 20^3", med, low, k, "s"))
        med, low, k = timed(cli(["audit", "--chart", "spherical", "--points", "100"]), 5)
        rows.append(("end to end", "audit spherical (100 pts)", med, low, k, "s"))
        med, low, k = import_time(5)
        rows.append(("end to end", "import tensorcalc", med, low, k, "s"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'layer':<12} {'case':<36} {'median':>12} {'min':>12} {'n':>3}  unit")
    for layer, case, med, low, n, unit in rows:
        print(f"{layer:<12} {case:<36} {med:>12.4g} {low:>12.4g} {n:>3}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
