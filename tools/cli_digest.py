"""Digest of every CLI job of the benchmark workloads, for byte-identity checks.

    python3 tools/cli_digest.py SRC [--cycles N] [--seed S]

Imports tensorcalc from SRC (the src directory of a checkout) and runs
in process every job of N cycles (default 3) of the grid-spherical and
table-chart workloads in perfbench/workloads.py, the CLI jobs (check
--explicit and eval, which build and print dense tensors) of one cycle
of the notation-algebra workload, then a fixed set of
jobs that those workloads never reach (FIXED_JOBS): christoffel, and
field-op grad, div, rot and laplace on inline JSON fields, on the
built-in identity and cylindrical charts (the identity chart is the flat
chart of the Cartesian operators); and christoffel and field-op laplace
and div on a table chart whose tables hold a constant term, a fourth
power and a zero frequency, with fields that include a 1e308 cubic term,
so that every branch of the table differentiation runs, the overflowing
multiplier kept as a trailing factor among them; and christoffel at one
point next to the spherical pole and one next to the cylindrical axis,
where the inverse Jacobian overflows; then christoffel at spherical
[2, 1e-9, 1] and field-op laplace of r^2 at cylindrical [1e-9, 0.3, 1] and
[1e-8, 0.3, 1], where the transition stage's T S = I test decides whether
the point is skipped and which T it keeps; christoffel and field-op grad,
div, rot and laplace at exact angles of the spherical and cylindrical
charts (theta = pi/2, phi = +-0 and +-pi; theta = +-0 and +-pi), where
the maps' entries include signed zeros; field-op grad, div, rot and
laplace at the spherical pole [1, 0, 0.3], where every row fails the
domain stage (exit 4), div with --slot 2 on a vector field, and laplace with
--step, which field-op does not take (exit 2); and christoffel on a table
chart whose Christoffel symbols overflow (the point is skipped, exit 4);
and christoffel and field-op grad on spherical --point rows (one printed,
two skipped) before a grid, once a grid through the poles whose axis
starts at -0.0, so skipped pole rows fall between printed rows, and once
a grid with a count-1 axis, for the CSV row prefixes of both sources;
and christoffel with the y1 axis given twice in --grid (exit 2).
Then come fixed notation jobs (NOTATION_JOBS): check --explicit on one
input per ParseError branch of the tokenizer and the parser, and on
expressions written with tabs, newlines, U+00A0, the typographic minus and
no spaces, then one eval of such an expression, so that every tokenizer
branch and offset reaches the output, and check --explicit with --dim 0
(exit 2). Last come fixed audit jobs (AUDIT_JOBS): a table chart whose
metric overflows in central4's stencil, so the concordance residual is
NaN (BREACH, exit 5), and --points 0 (exit 2). The three exit-2 jobs are
usage errors, appended to their lists so that every earlier line keeps
its number. Each christoffel and
field-op job runs once with CSV and once with JSON output; audit, check
and eval have one format. One line per run:
workload, cycle, job, format, exit code, and the sha256 digests of stdout
and stderr. The jobs depend only on the seed and come from this
checkout's perfbench and FIXED_JOBS, so two source trees print the same
lines exactly when their CLI output is the same byte for byte:

    diff <(python3 tools/cli_digest.py ../parent/src) <(python3 tools/cli_digest.py src)

tools/cli_drift.py runs the same jobs (runs() below) and says by how much
the printed values differ.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-spherical", "table-chart")

# a scalar 1.3 y1^2 sin(2 y2) - 0.4 y1 y3 + 0.7 y3^3 and a vector
# (1.3 y1^2, 0.5 y1 cos y2, 0.2 y2 y3), as inline field specs
_SCALAR = ('{"r": 0, "s": 0, "components": [[{"coeff": 1.3, "powers": [2, 0, 0], '
           '"trig": [null, {"fn": "sin", "freq": 2.0}, null]}, '
           '{"coeff": -0.4, "powers": [1, 0, 1]}, {"coeff": 0.7, "powers": [0, 0, 3]}]]}')
_VECTOR = ('{"r": 1, "s": 0, "components": [[{"coeff": 1.3, "powers": [2, 0, 0]}], '
           '[{"coeff": 0.5, "powers": [1, 0, 0], '
           '"trig": [null, {"fn": "cos", "freq": 1.0}, null]}], '
           '[{"coeff": 0.2, "powers": [0, 1, 1]}]]}')
_GRID = ["--grid", "y1=0.5:2:4", "--grid", "y2=-3:3:5", "--grid", "y3=-1:1:3"]
FIXED_JOBS = [(f"{command} {chart}", [*command.split(), "--chart", chart, *field, *_GRID])
              for chart in ("identity", "cylindrical")
              for command, field in (("christoffel", []),
                                     ("field-op grad", ["--field", _SCALAR]),
                                     ("field-op div", ["--field", _VECTOR]),
                                     ("field-op rot", ["--field", _VECTOR]),
                                     ("field-op laplace", ["--field", _SCALAR]))]


def _table(*terms):
    return [{"coeff": c, "powers": p, **({"trig": t} if t else {})} for c, p, t in terms]


# x = (y1 + 0.5, y2 + 0.1 y1^4, y3 + 0.3 y2 cos(0 y1)) and its exact inverse
# y = (x1 - 0.5, x2 - 0.1 (x1 - 0.5)^4, x3 - 0.3 y2(x)), expanded
_ZERO_FREQUENCY = [{"fn": "cos", "freq": 0.0}, None, None]
_QUARTIC = [(1.0, [4, 0, 0]), (-2.0, [3, 0, 0]), (1.5, [2, 0, 0]), (-0.5, [1, 0, 0]),
            (0.0625, [0, 0, 0])]
_TABLE_CHART = json.dumps({
    "name": "quartic",
    "forward": [_table((1.0, [1, 0, 0], None), (0.5, [0, 0, 0], None)),
                _table((1.0, [0, 1, 0], None), (0.1, [4, 0, 0], None)),
                _table((1.0, [0, 0, 1], None), (0.3, [0, 1, 0], _ZERO_FREQUENCY))],
    "inverse": [_table((1.0, [1, 0, 0], None), (-0.5, [0, 0, 0], None)),
                _table((1.0, [0, 1, 0], None), *((-0.1 * c, p, None) for c, p in _QUARTIC)),
                _table((1.0, [0, 0, 1], None), (-0.3, [0, 1, 0], None),
                       *((0.03 * c, p, None) for c, p in _QUARTIC))],
})
# 1e308 y1^3: its partials overflow the coefficient unless y1 is small
_HUGE_SCALAR = json.dumps({"r": 0, "s": 0, "components": [
    _table((1e308, [3, 0, 0], None), (0.5, [0, 2, 0], _ZERO_FREQUENCY))]})
_HUGE_VECTOR = json.dumps({"r": 1, "s": 0, "components": [
    _table((1e308, [3, 0, 0], None)), _table((0.5, [0, 1, 0], None)), []]})
_SMALL = ["--grid", "y1=0.02:0.1:3", "--grid", "y2=-1:1:3", "--grid", "y3=-1:1:3"]
FIXED_JOBS += [(f"{command} quartic", [*command.split(), "--chart-file", _TABLE_CHART, *rest])
               for command, rest in (("christoffel", _GRID),
                                     ("field-op laplace", ["--field", _SCALAR, *_GRID]),
                                     ("field-op div", ["--field", _VECTOR, *_GRID]),
                                     ("field-op laplace", ["--field", _HUGE_SCALAR, *_SMALL]),
                                     ("field-op div", ["--field", _HUGE_VECTOR, *_SMALL]))]
# points next to the spherical pole and the cylindrical axis, where the
# inverse Jacobian overflows: each is skipped, and stderr holds no numpy warning
FIXED_JOBS += [(f"christoffel {chart} edge", ["christoffel", "--chart", chart, "--point", point])
               for chart, point in (("spherical", "1,5e-324,0"), ("cylindrical", "5e-324,1,0"))]
# points nearer the pole and the axis, where T re-inverted from S may fail
# the T S = I test of TransitionPair (then the point is skipped) and where
# a T that passes it is kept as the chart gives it
_RADIUS_SQUARED = '{"r": 0, "s": 0, "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]]}'
FIXED_JOBS += [("christoffel spherical near pole",
                ["christoffel", "--chart", "spherical", "--point", "2,1e-9,1"])]
FIXED_JOBS += [("field-op laplace cylindrical near axis",
                ["field-op", "laplace", "--chart", "cylindrical", "--field", _RADIUS_SQUARED,
                 "--point", point]) for point in ("1e-9,0.3,1", "1e-8,0.3,1")]
# every row outside the domain; a slot beyond the upper slots; --step
FIXED_JOBS += [(f"field-op {op} spherical pole",
                ["field-op", op, "--chart", "spherical", "--field", field, "--point", "1,0,0.3"])
               for op, field in (("grad", _SCALAR), ("div", _VECTOR), ("rot", _VECTOR),
                                 ("laplace", _SCALAR))]
# exact angles, where sines and cosines are 0, -0, +-1 or a last-bit
# remainder and the maps' entries include signed zeros. The operators' sums
# absorb a zero's sign before output, so the maps' own bits, signed zeros
# among them, are pinned by tests/test_curvilinear.py; these jobs pin the
# printed results at those points
_EXACT_POINTS = {"spherical": [f"1.5,{math.pi / 2!r},{phi!r}"
                               for phi in (0.0, -0.0, math.pi, -math.pi)],
                 "cylindrical": [f"1,{theta!r},{z!r}"
                                 for theta, z in ((0.0, 0.0), (-0.0, -0.0), (math.pi, 0.0),
                                                  (-math.pi, 1.0))]}
FIXED_JOBS += [(f"{command} {chart} exact angles",
                [*command.split(), "--chart", chart, *field,
                 *[arg for point in points for arg in ("--point", point)]])
               for chart, points in _EXACT_POINTS.items()
               for command, field in (("christoffel", []),
                                      ("field-op grad", ["--field", _SCALAR]),
                                      ("field-op div", ["--field", _VECTOR]),
                                      ("field-op rot", ["--field", _VECTOR]),
                                      ("field-op laplace", ["--field", _SCALAR]))]
FIXED_JOBS += [("field-op div slot 2", ["field-op", "div", "--chart", "cylindrical",
                                        "--field", _VECTOR, "--slot", "2", *_GRID]),
               ("field-op laplace step", ["field-op", "laplace", "--chart", "cylindrical",
                                          "--field", _SCALAR, "--step", "0.1", *_GRID])]
# x1 = y1 + 1e308 y2^2 and its exact inverse: S and T are finite, but the
# second partial 2e308 overflows, so the Christoffel symbols are not finite
# and the point is skipped (exit 4)
_STEEP_CHART = json.dumps({
    "name": "steep",
    "forward": [_table((1.0, [1, 0, 0], None), (1e308, [0, 2, 0], None)),
                _table((1.0, [0, 1, 0], None)), _table((1.0, [0, 0, 1], None))],
    "inverse": [_table((1.0, [1, 0, 0], None), (-1e308, [0, 2, 0], None)),
                _table((1.0, [0, 1, 0], None)), _table((1.0, [0, 0, 1], None))]})
FIXED_JOBS += [("christoffel steep", ["christoffel", "--chart-file", _STEEP_CHART,
                                      "--point", "0.1,0.5,0.2"])]
# --point rows before a grid, whose CSV row prefixes come from two places:
# a point inside the domain, one at r < 0 and one on the pole (both
# skipped), then a grid whose theta axis runs from pole to pole over two
# radii, so pole rows are skipped between printed rows, and whose phi axis
# starts at -0.0 (linspace gives 0.0 there); then a grid with a count-1
# axis and an axis from -0.0 to -0.0 (linspace gives 0.0, -0.0)
_POINTS = ["--point", "1.5,0.7,-0.3", "--point", "-1,0.5,0.5", "--point", "2,0,1"]
_POLE_GRID = ["--grid", "y1=1:2:2", "--grid", f"y2=0:{math.pi!r}:4", "--grid", "y3=-0.0:1:3"]
_THIN_GRID = ["--grid", "y1=1.5:1.5:1", "--grid", "y2=0.5:1:2", "--grid", "y3=-0.0:-0.0:2"]
FIXED_JOBS += [(f"{command} spherical {what}",
                [*command.split(), "--chart", "spherical", *field, *_POINTS, *grid])
               for what, grid in (("points then pole grid", _POLE_GRID),
                                  ("points then count-1 axis", _THIN_GRID))
               for command, field in (("christoffel", []),
                                      ("field-op grad", ["--field", _SCALAR]))]
# a grid axis given twice is a usage error that names it (exit 2)
FIXED_JOBS += [("christoffel grid axis twice",
                ["christoffel", "--chart", "spherical", "--grid", "y1=1:2:2",
                 "--grid", "y1=5:6:1", "--grid", "y2=1:2:1", "--grid", "y3=0:1:1"])]
# x1 = 5.5e153 y1: the chart metric g11 ~ 3e307 is finite, but central4's
# stencil weight 8 overflows it in the concordance check, whose NaN
# residual is a BREACH (exit 5). audit has no --format: AUDIT_JOBS run once
_STRETCH_CHART = json.dumps({
    "name": "stretch",
    "forward": [_table((5.5e153, [1, 0, 0], None)),
                _table((1.0, [0, 1, 0], None)), _table((1.0, [0, 0, 1], None))],
    "inverse": [_table((1.818181818181818e-154, [1, 0, 0], None)),
                _table((1.0, [0, 1, 0], None)), _table((1.0, [0, 0, 1], None))]})
AUDIT_JOBS = [("audit stretch central4", ["audit", "--chart-file", _STRETCH_CHART,
                                          "--points", "5", "--scheme", "central4"]),
              ("audit no points", ["audit", "--chart", "spherical", "--points", "0"])]


# one input per ParseError branch, in the order the parser raises them,
# then inputs that reach some of them at other offsets
_PARSE_ERRORS = ["y%i = 2", "y^i", "A^{i = x", "A = 1e999 B", "y^i = = x",
                 "A^i_j = F_j^i", "A^{i1} = x", "A^{} = x", "A^ij = x", "A^ = x",
                 "y^i z = x^i", "3 = x", "-y^i = x^i", "y^i = x^i = z^i", "y = x }",
                 "   ", "w^i = a^i \u2212 b^i ?", "y^i\t=\u00a0x^i\n$", "y=x^i_j^k"]
# expressions written with tabs, newlines, U+00A0, the typographic minus
# and no spaces; each reaches the tokenizer's offsets past such characters
_WRITTEN = ["y^i\t=\tF^i_j\tx^j", "y^i =\nF^i_j x^j\n",
            "T^{ij}\u00a0=\u00a0A^i B^j\u00a0\u2212\u00a0B^j A^i",
            "c=2.5e-1x^{i}y_{i}\u2212.5z", "y^i = F^i_j x^j \t\u00a0\n",
            "\u2212c\t= x^i\u00a0y^i", "c\t= x^i\u00a0y^i", "y^i\n=\n3x^i\u2212F^i_{j}x^j"]
_EVAL = "T_{ij}\t=\u00a0g_{ik}\nM^k_j\u22122h_{ij}"
_BINDINGS = {"g": {"r": 0, "s": 2, "dim": 3, "components": [2, 1, 0, 1, 3, 1, 0, 1, 4]},
             "M": {"r": 1, "s": 1, "dim": 3,
                   "components": [k / 7 for k in range(-4, 5)]},
             "h": {"r": 0, "s": 2, "dim": 3, "components": [0.1 * k for k in range(9)]}}
NOTATION_JOBS = [("check", ["check", text, "--explicit"])
                 for text in _PARSE_ERRORS + _WRITTEN]
NOTATION_JOBS.append(("eval", ["eval", _EVAL, "--bindings", json.dumps(_BINDINGS)]))
NOTATION_JOBS.append(("check dim 0", ["check", "T^i = A^i_j B^j", "--dim", "0", "--explicit"]))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def runs(src: str, cycles: int, seed: int):
    """Every run of the chart workloads' jobs, then of the notation-algebra
    CLI jobs (cycle 0, format "text"), then of FIXED_JOBS (workload
    "builtin", cycle 0), then of NOTATION_JOBS (workload "notation", cycle
    0, format "text"), then of AUDIT_JOBS (workload "audit", cycle 0,
    format "text"), with tensorcalc from src, in a fixed order: tuples
    (workload, cycle, job number, job kind, format, exit code, stdout,
    stderr)."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import numpy as np
    import tensorcalc
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
    with tempfile.TemporaryDirectory() as workdir:  # eval reads its bindings here
        jobs, _ = workloads.NotationWorkload(workdir, tensorcalc).cycle(
            np.random.default_rng(seed))
        for n, job in enumerate(jobs):
            if isinstance(job, workloads.CliJob):
                yield ("notation-algebra", 0, n, job.kind, "text") + _run(cli, job.argv)
    for n, (kind, argv) in enumerate(FIXED_JOBS):
        for fmt in ("csv", "json"):
            yield ("builtin", 0, n, kind, fmt) + _run(cli, argv + ["--format", fmt])
    for n, (kind, argv) in enumerate(NOTATION_JOBS):
        yield ("notation", 0, n, kind, "text") + _run(cli, argv)
    for n, (kind, argv) in enumerate(AUDIT_JOBS):
        yield ("audit", 0, n, kind, "text") + _run(cli, argv)


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
