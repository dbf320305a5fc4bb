"""Command-line surface for the tensor kernel.

Subcommands:

    check        validate an index-notation expression, print the report JSON
    eval         evaluate an expression against a bindings file
    christoffel  tabulate nonzero Christoffel symbols on points or a grid
    field-op     sample grad/div/rot/laplace of a field over a chart
    audit        run chart invariant checks at random domain points

Exit codes: 0 success; 1 invalid expression (check); 2 parse/usage errors;
3 binding or shape errors (eval); 4 every sample point failed (christoffel,
field-op); 5 audit tolerance breach.

christoffel and field-op evaluate all their sample points as one array
through the chart layer (curvilinear.ChartPoints, TensorField.evaluate_batch);
a point that fails is skipped with a warning on stderr, in sampling order.
Output is deterministic: floats use the shortest round-trip representation,
JSON keys are sorted, and rows follow the sampling order. The --seed flag
(default 42) pins the audit's random points.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import curvilinear, notation
from .errors import (
    BindingError,
    DegenerateMetric,
    DegenerateTransition,
    DomainError,
    ParameterError,
    ParseError,
    ShapeError,
    TensorCalcError,
    ValidationError,
)
from .fields import DifferentiationScheme, TensorField, _batched, _map_rows, _raise_first
from .tensors import DenseTensor, Valency

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BINDING = 3
EXIT_DOMAIN = 4
EXIT_AUDIT = 5

_AXIS_NAMES = {"y1": 0, "y2": 1, "y3": 2, "x1": 0, "x2": 1, "x3": 2,
               "1": 0, "2": 1, "3": 2}


def _fmt(value: float) -> str:
    return repr(float(value))


def _scheme(ns: argparse.Namespace) -> DifferentiationScheme:
    return DifferentiationScheme(4 if ns.scheme == "central4" else 2, ns.step)


def _chart(ns: argparse.Namespace) -> curvilinear.Chart:
    if ns.chart_file:
        return curvilinear.load_chart(ns.chart_file)
    if ns.chart:
        return curvilinear.builtin_chart(ns.chart)
    raise ParameterError("no chart given; pass --chart or --chart-file")


def _sample_points(ns: argparse.Namespace) -> np.ndarray:
    """(N, 3) points: --point flags, then the --grid product in row-major order."""
    pts = [np.reshape(ns.point, (-1, 3))]
    if ns.grid:
        missing = sorted(set(range(3)) - set(ns.grid))
        if missing:
            raise ParameterError(
                f"grid is missing axis {missing[0] + 1}; give all three axes")
        axes = [np.linspace(*ns.grid[a]) for a in range(3)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts.append(np.stack([m.ravel() for m in mesh], axis=1))
    pts = np.concatenate(pts)
    if not len(pts):
        raise ParameterError("no evaluation points; pass --point or --grid")
    return pts


def _parse_grid_spec(text: str):
    """axis=min:max:count, e.g. y1=0.5:3:5."""
    try:
        axis_text, span = text.split("=", 1)
        lo_text, hi_text, count_text = span.split(":")
        axis = _AXIS_NAMES[axis_text.strip()]
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
    except (ValueError, KeyError) as exc:
        raise ParameterError(
            f"bad grid spec {text!r}; expected axis=min:max:count") from exc
    if count < 1:
        raise ParameterError(f"grid count must be at least 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("grid range must be finite")
    return axis, (lo, hi, count)


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad point {text!r}; expected three numbers") from exc
    if len(values) != 3:
        raise ParameterError(f"bad point {text!r}; expected three numbers")
    return np.array(values)


def _emit(ns: argparse.Namespace, text: str):
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- field specs -----------------------------------------------------------------


def load_field(source) -> TensorField:
    """TensorField from a JSON spec of component coefficient tables.

    {"r": 1, "s": 0, "components": [terms, terms, terms]} with one term list
    per component in row-major slot order (a scalar field has exactly one).
    Terms follow the chart-config grammar: {"coeff": c, "powers": [p1,p2,p3],
    "trig": [null | {"fn": "sin"|"cos", "freq": f}, ...]}.
    """
    if isinstance(source, dict):
        spec = source
    else:
        with open(str(source), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    try:
        r, s = int(spec["r"]), int(spec["s"])
        component_tables = spec["components"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed field spec: {exc}") from exc
    valency = Valency(r, s)
    count = 3 ** valency.order
    if not isinstance(component_tables, list) or len(component_tables) != count:
        raise ParameterError(
            f"field spec needs {count} component term lists for valency ({r},{s})")
    components = [
        curvilinear._compile_component(table, f"component {n}")
        for n, table in enumerate(component_tables)
    ]
    shape = (3,) * valency.order

    @_batched
    def func(points):
        values = np.empty((len(points), count))
        for n, component in enumerate(components):
            values[:, n] = component(points)
        return values.reshape((len(points),) + shape), {}

    return TensorField(valency, func, 3)


def _component_paths(valency: Valency) -> list:
    """Component path strings in row-major slot order."""
    shape = (3,) * valency.order
    if not shape:
        return ["scalar"]
    out = []
    for flat in range(3 ** valency.order):
        idx = np.unravel_index(flat, shape)
        upper = idx[:valency.r]
        lower = idx[valency.r:]
        path = ""
        if upper:
            path += "^" + ".".join(str(i + 1) for i in upper)
        if lower:
            path += "_" + ".".join(str(j + 1) for j in lower)
        out.append(path)
    return out


def _report_failures(points: np.ndarray, failures: dict) -> bool:
    """Warn about each failed point in sampling order; True if all failed."""
    for row, exc in sorted(failures.items()):
        sys.stderr.write(f"warning: skipping {points[row].tolist()}: {exc}\n")
    if len(failures) == len(points):
        sys.stderr.write("error: every sample point failed\n")
        return True
    return False


def _csv(header: str, points: np.ndarray, table: np.ndarray, keep: np.ndarray,
         labels: list) -> str:
    """CSV text with a row per point n and column c where keep[n, c],
    holding the point's coordinates, labels[c] and table[n, c]."""
    # {x!r} is _fmt(x) inlined: this formats every row of a large table
    prefixes = [f"{a!r},{b!r},{c!r}," for a, b, c in points.tolist()]
    rows, cols = np.nonzero(keep)
    lines = [header]
    lines += [f"{prefixes[n]}{labels[c]}{value!r}"
              for n, c, value in zip(rows.tolist(), cols.tolist(),
                                     table[rows, cols].tolist())]
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------------


def cmd_check(ns: argparse.Namespace) -> int:
    try:
        expression = notation.parse(ns.expr)
    except ParseError as exc:
        _emit(ns, _dump_json({
            "verdict": "parse-error",
            "message": str(exc),
            "position": exc.position,
        }))
        return EXIT_PARSE
    report = notation.validate(expression)
    text = _dump_json(report.as_dict())
    if ns.explicit and report.is_valid:
        text += notation.explicit_form(expression, ns.dim) + "\n"
    _emit(ns, text)
    return EXIT_OK if report.is_valid else EXIT_INVALID


def cmd_eval(ns: argparse.Namespace) -> int:
    try:
        expression = notation.parse(ns.expr)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    try:
        with open(ns.bindings, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        bindings = {name: DenseTensor.from_dict(record)
                    for name, record in raw.items()}
        result = notation.evaluate(expression, bindings, ns.dim)
    except (BindingError, ShapeError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BINDING
    _emit(ns, _dump_json(result.as_dict()))
    return EXIT_OK


def cmd_christoffel(ns: argparse.Namespace) -> int:
    chart = _chart(ns)
    points = _sample_points(ns)
    state = curvilinear.ChartPoints(chart, points, christoffel=True)
    if _report_failures(points, state.failures):
        return EXIT_DOMAIN
    gamma = state.gamma.reshape(len(state.index), 27)
    nonzero = np.abs(gamma) > 1e-12
    kij = [(k, i, j) for k in (1, 2, 3) for i in (1, 2, 3) for j in (1, 2, 3)]
    if ns.format == "json":
        rows, cols = np.nonzero(nonzero)
        ys = state.points.tolist()
        payload = [
            {"y": ys[n], "k": kij[c][0], "i": kij[c][1], "j": kij[c][2], "gamma": value}
            for n, c, value in zip(rows.tolist(), cols.tolist(),
                                   gamma[rows, cols].tolist())
        ]
        _emit(ns, _dump_json(payload))
    else:
        labels = ["%d,%d,%d," % idx for idx in kij]
        _emit(ns, _csv("y1,y2,y3,k,i,j,gamma", state.points, gamma, nonzero,
                           labels))
    return EXIT_OK


_FIELD_OPS = ("grad", "div", "rot", "laplace")


def _build_operator(op: str, chart, field_input: TensorField, slot: int,
                    scheme: DifferentiationScheme) -> TensorField:
    if op == "grad":
        return curvilinear.gradient_vector_in_chart(chart, field_input, scheme)
    if op == "div":
        return curvilinear.divergence_in_chart(chart, field_input, slot, scheme)
    if op == "rot":
        return curvilinear.rotor_in_chart(chart, field_input, scheme)
    if op == "laplace":
        return curvilinear.laplacian_in_chart(chart, field_input, scheme)
    raise ParameterError(f"unknown operator {op!r}; choose from {_FIELD_OPS}")


def cmd_field_op(ns: argparse.Namespace) -> int:
    chart = _chart(ns)
    field_input = load_field(ns.field)
    result = _build_operator(ns.op, chart, field_input, ns.slot, _scheme(ns))
    points = _sample_points(ns)
    values, failures = result.evaluate_batch(points)
    if _report_failures(points, failures):
        return EXIT_DOMAIN
    ok = np.ones(len(points), dtype=bool)
    ok[list(failures)] = False
    points, values = points[ok], values[ok]
    if not np.all(np.isfinite(values)):
        raise ShapeError("tensor components must all be finite")
    valency = result.valency
    if ns.format == "json":
        payload = [
            {"point": point, "tensor": {"r": valency.r, "s": valency.s, "dim": 3,
                                        "components": components}}
            for point, components in zip(points.tolist(),
                                         values.reshape(len(values), -1).tolist())
        ]
        _emit(ns, _dump_json(payload))
    else:
        paths = [path + "," for path in _component_paths(valency)]
        table = values.reshape(len(values), -1)
        _emit(ns, _csv("x1,x2,x3,component-path,value", points, table,
                           np.ones(table.shape, dtype=bool), paths))
    return EXIT_OK


def _audit_checks(chart, points, scheme) -> list:
    """(name, residual, tolerance) triples for one chart.

    The first point that fails a check raises its error, which aborts the
    audit.
    """
    analytic = chart.analytic
    jac_tol = 1e-6 if analytic else 1e-4
    sym_tol = 1e-9 if analytic else 1e-5
    conc_tol = 1e-6 if analytic else 1e-4

    x, failures = _map_rows(chart.forward, points, (chart.dim,), "forward")
    _raise_first(failures)
    back, failures = _map_rows(chart.inverse, x, (chart.dim,), "inverse")
    _raise_first(failures)
    roundtrip = float(np.max(np.abs(back - points), initial=0.0))
    state = curvilinear.ChartPoints(chart, points, christoffel=True)
    _raise_first(state.failures)
    jacobian = float(np.max(state.residual, initial=0.0))
    symmetry = float(np.max(np.abs(state.gamma - np.swapaxes(state.gamma, 2, 3)),
                            initial=0.0))

    nabla_g = curvilinear.covariant_derivative(
        chart, curvilinear.metric_field(chart), scheme)
    values, failures = nabla_g.evaluate_batch(points)
    _raise_first(failures)
    concordance = float(np.max(np.abs(values), initial=0.0))

    return [
        ("inverse-roundtrip", roundtrip, 1e-9),
        ("jacobian-inverse", jacobian, jac_tol),
        ("christoffel-symmetry", symmetry, sym_tol),
        ("concordance", concordance, conc_tol),
    ]


def cmd_audit(ns: argparse.Namespace) -> int:
    chart = _chart(ns)
    rng = np.random.default_rng(ns.seed)
    lines = [f"audit of chart '{chart.name}' at {ns.points} points (seed {ns.seed})"]
    breached = False
    try:
        points = chart.sample_points(ns.points, rng)
        checks = _audit_checks(chart, points, _scheme(ns))
    except (DomainError, DegenerateTransition, DegenerateMetric, ShapeError) as exc:
        lines.append(f"check aborted: {exc}")
        lines.append("verdict: FAIL")
        _emit(ns, "\n".join(lines) + "\n")
        return EXIT_AUDIT
    for name, residual, tolerance in checks:
        status = "ok" if residual <= tolerance else "BREACH"
        breached = breached or residual > tolerance
        lines.append(f"{name}: max residual {_fmt(residual)} "
                     f"(tolerance {_fmt(tolerance)}) {status}")
    lines.append("verdict: " + ("FAIL" if breached else "PASS"))
    _emit(ns, "\n".join(lines) + "\n")
    return EXIT_AUDIT if breached else EXIT_OK


# -- argument parsing --------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorcalc",
        description="Tensor calculus toolkit: index notation, Christoffel "
                    "tables, field operators, chart audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chart_flags(p):
        p.add_argument("--chart", help="built-in chart name "
                       "(cylindrical, spherical, identity)")
        p.add_argument("--chart-file", help="custom chart config JSON")

    def add_sampling_flags(p):
        p.add_argument("--grid", action="append", default=[],
                       metavar="axis=min:max:count",
                       help="grid spec per axis, repeatable")
        p.add_argument("--point", action="append", default=[],
                       metavar="a,b,c", help="single point, repeatable")

    def add_output_flags(p):
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_scheme_flags(p):
        p.add_argument("--scheme", choices=("central2", "central4"),
                       default="central2")
        p.add_argument("--step", type=float, default=None,
                       help="fixed finite-difference step")

    p_check = sub.add_parser("check", help="validate an index expression")
    p_check.add_argument("expr")
    p_check.add_argument("--dim", type=int, default=3)
    p_check.add_argument("--explicit", action="store_true",
                         help="also print the explicit-summation form")
    p_check.add_argument("--out")

    p_eval = sub.add_parser("eval", help="evaluate an index expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--bindings", required=True,
                        help="JSON file mapping symbol names to tensors")
    p_eval.add_argument("--dim", type=int, default=3)
    p_eval.add_argument("--out")

    p_chr = sub.add_parser("christoffel", help="tabulate Christoffel symbols")
    add_chart_flags(p_chr)
    add_sampling_flags(p_chr)
    add_output_flags(p_chr)

    p_fop = sub.add_parser("field-op", help="sample a field operator")
    p_fop.add_argument("op", choices=_FIELD_OPS)
    add_chart_flags(p_fop)
    p_fop.add_argument("--field", required=True, help="field spec JSON")
    p_fop.add_argument("--slot", type=int, default=1,
                       help="upper slot for div on multi-index fields")
    add_sampling_flags(p_fop)
    add_scheme_flags(p_fop)
    add_output_flags(p_fop)

    p_audit = sub.add_parser("audit", help="run chart invariant checks")
    add_chart_flags(p_audit)
    p_audit.add_argument("--points", type=int, default=100)
    p_audit.add_argument("--seed", type=int, default=42)
    add_scheme_flags(p_audit)
    p_audit.add_argument("--out")

    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep the int contract
        return int(exc.code) if exc.code else 0
    handlers = {
        "check": cmd_check,
        "eval": cmd_eval,
        "christoffel": cmd_christoffel,
        "field-op": cmd_field_op,
        "audit": cmd_audit,
    }
    try:
        if "grid" in ns:  # sampling specs are checked before any other work
            ns.grid = dict(_parse_grid_spec(spec) for spec in ns.grid)
            ns.point = [_parse_point(text) for text in ns.point]
        return handlers[ns.command](ns)
    except (TensorCalcError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
