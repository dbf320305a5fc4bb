"""Command-line surface for the tensor kernel.

Subcommands:

    check        validate an index-notation expression, print the report JSON
    eval         evaluate an expression against a bindings file
    christoffel  tabulate nonzero Christoffel symbols on points or a grid
    field-op     sample grad/div/rot/laplace of a field over a chart
    audit        run chart invariant checks at random domain points

Exit codes: 0 success; 1 invalid expression (check); 2 parse/usage errors;
3 binding or shape errors (eval), and a BindingError from any command; 4
every sample point failed (christoffel, field-op), and a DomainError,
DegenerateTransition or DegenerateMetric from any command; 5 audit
tolerance breach.

A --point value may start with a minus sign (--point -1.5,0.2,0.3): main
attaches such a value to its flag before argparse, which would otherwise
read it as an option. main then parses argv once, with the parser of the
command argv[0] names; only a non-command or an argument that parser does
not know goes to the top-level parser, whose messages users see.

A process loads only what its command uses: check and eval import notation
when they run, and the chart commands never load notation or frames.

--field (curvilinear.load_field, also bound here as cli.load_field),
--chart-file and --bindings each take a path or a JSON text, read by
curvilinear._read_json: an unreadable or non-JSON input is an error that
names it (exit 2).

christoffel and field-op evaluate all their sample points as one array
through the chart layer (curvilinear.ChartPoints, TensorField.evaluate_batch),
which fails a point whose Christoffel symbols or operator value are not
finite. A failed point is skipped with a warning on stderr, in sampling
order; no numpy warning reaches stderr. Every field-op operator checks the
chart's T against S first, so a singular frame or a broken inverse map
fails a point with DegenerateTransition (exit 4 when every point fails);
when no point failed, field-op writes its values without filtering them.
Output is deterministic: floats use the shortest round-trip representation,
JSON keys are sorted, and rows follow the sampling order. The --seed flag
(default 42) pins the audit's random points.

Both commands write CSV through _csv, which runs no Python per grid row.
Coordinates are formatted where the points are made: _sample_points
returns each row's CSV prefix "\\na,b,c," with the points, calling repr
once per --point coordinate and once per grid axis value (a grid of n^3
points has 3n), and builds a grid's prefixes as the row-major product of
its axes' texts. A command drops a skipped row's prefix with its point.
Christoffel symbols and operator values repeat along coordinates they do
not depend on, so _csv sorts the printed values by bit pattern and calls
repr once per distinct pattern (0.0 and -0.0 differ in bits, so each
keeps its sign). christoffel drops its chart state (S, T, residual)
before it calls _csv and hands _csv the only references to the
Christoffel table and its mask, which _csv frees before its join, so that
memory is free when the ~5 MB text of a 20^3 table is allocated. With
the state or the table alive, a process that runs many such tables
in-process ended some runs 15-20 MB higher in peak RSS than others,
depending on where the allocator had put each text.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import curvilinear
from .curvilinear import load_field
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
from .fields import (DifferentiationScheme, TensorField, _map_rows, _raise_first, _reprs,
                     _row_texts)
from .tensors import DenseTensor, Valency

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BINDING = 3
EXIT_DOMAIN = 4
EXIT_AUDIT = 5

# exit code of an error that reaches main; any other error exits EXIT_PARSE
_EXIT_CODES = ((BindingError, EXIT_BINDING),
               ((DomainError, DegenerateTransition, DegenerateMetric), EXIT_DOMAIN))

_AXIS_NAMES = {"y1": 0, "y2": 1, "y3": 2, "x1": 0, "x2": 1, "x3": 2,
               "1": 0, "2": 1, "3": 2}


def _fmt(value: float) -> str:
    return repr(float(value))


def _chart(ns: argparse.Namespace) -> curvilinear.Chart:
    if ns.chart_file:
        return curvilinear.load_chart(ns.chart_file)
    if ns.chart:
        return curvilinear.builtin_chart(ns.chart)
    raise ParameterError("no chart given; pass --chart or --chart-file")


def _point_prefixes(points: np.ndarray) -> np.ndarray:
    """The CSV row prefix "\\na,b,c," of each of the (N, 3) points, as an
    object array, with one repr per coordinate."""
    return np.array([f"\n{a!r},{b!r},{c!r}," for a, b, c in points.tolist()], dtype=object)


def _sample_points(ns: argparse.Namespace) -> tuple:
    """(N, 3) points, the --point flags then the --grid product in row-major
    order, and the CSV row prefix of each (see _csv). A grid's prefixes are
    the row-major product of its axes' texts, one repr per axis value, built
    once the points exist; a grid numpy cannot allocate is a ParameterError."""
    points = np.reshape(ns.point, (-1, 3))
    prefixes = _point_prefixes(points)
    if ns.grid:
        missing = sorted(set(range(3)) - set(ns.grid))
        if missing:
            raise ParameterError(
                f"grid is missing axis {missing[0] + 1}; give all three axes")
        axes = [np.linspace(*ns.grid[a]) for a in range(3)]
        try:
            grid = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)
        except MemoryError:
            count = math.prod(len(axis) for axis in axes)
            raise ParameterError(f"grid of {count} points does not fit in memory") from None
        texts = [np.array([repr(v) + "," for v in axis.tolist()], dtype=object)
                 for axis in axes]
        grid_prefixes = np.add.outer(np.add.outer("\n" + texts[0], texts[1]), texts[2])
        points = np.concatenate((points, grid.reshape(-1, 3)))
        prefixes = np.concatenate((prefixes, grid_prefixes.ravel()))
    if not len(points):
        raise ParameterError("no evaluation points; pass --point or --grid")
    return points, prefixes


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


def _component_paths(valency: Valency) -> list:
    """Component path strings in row-major slot order: ^1.2_3 for [0, 1, 2]
    of a (2,1) tensor."""
    if not valency.order:
        return ["scalar"]
    r, s = valency.r, valency.s
    upper = ["^" + ".".join(idx) for idx in itertools.product("123", repeat=r)] if r else [""]
    lower = ["_" + ".".join(idx) for idx in itertools.product("123", repeat=s)] if s else [""]
    return [u + v for u in upper for v in lower]


def _report_failures(points: np.ndarray, failures: dict) -> bool:
    """Warn about each failed point in sampling order; True if all failed."""
    if not failures:
        return False
    rows = sorted(failures)
    text = "".join(f"warning: skipping {point}: {failures[row]}\n"
                   for row, point in zip(rows, _row_texts(points[rows])))
    every = len(failures) == len(points)
    if every:
        text += "error: every sample point failed\n"
    sys.stderr.write(text)
    return every


def _csv(header: str, prefixes: np.ndarray, table: np.ndarray, keep: np.ndarray,
         labels: list) -> str:
    """CSV text with a row per table row n and column c where keep[n, c],
    holding prefixes[n] (the point's "\\na,b,c,", see _sample_points),
    labels[c] and table[n, c].

    The prefix, label and value texts of every row go into one list,
    allocated before the gathers that fill it. The gathers, and _csv's
    references to prefixes, table and keep, are freed before the list is
    joined in C; a caller that passes its only references (CPython 3.11+
    moves call arguments into the callee) has those arrays freed before the
    join too."""
    parts = [None] * (3 * np.count_nonzero(keep) + 1)
    parts[-1] = "\n"
    rows, cols = keep.nonzero()
    texts = _reprs(table[rows, cols])
    parts[0:-1:3] = prefixes[rows].tolist()
    parts[1:-1:3] = np.asarray(labels, dtype=object)[cols].tolist()
    parts[2:-1:3] = texts.tolist()
    del rows, cols, texts, prefixes, table, keep
    return header + "".join(parts)


# -- subcommands -----------------------------------------------------------------


def cmd_check(ns: argparse.Namespace) -> int:
    from . import notation

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
    from . import notation

    try:
        expression = notation.parse(ns.expr)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    try:
        raw = curvilinear._read_json(ns.bindings, "bindings file")
        if not isinstance(raw, dict):
            raise BindingError("bindings file must hold a JSON object")
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
    points, prefixes = _sample_points(ns)
    state = curvilinear.ChartPoints(chart, points, christoffel=True)
    if _report_failures(points, state.failures):
        return EXIT_DOMAIN
    points, prefixes = state.points, prefixes[state.index]
    gamma = state.gamma.reshape(len(state.index), 27)
    del state  # free S, T and the residual before the output is built
    nonzero = np.abs(gamma) > 1e-12
    kij = [(k, i, j) for k in (1, 2, 3) for i in (1, 2, 3) for j in (1, 2, 3)]
    if ns.format == "json":
        rows, cols = np.nonzero(nonzero)
        ys = points.tolist()
        payload = [
            {"y": ys[n], "k": kij[c][0], "i": kij[c][1], "j": kij[c][2], "gamma": value}
            for n, c, value in zip(rows.tolist(), cols.tolist(),
                                   gamma[rows, cols].tolist())
        ]
        _emit(ns, _dump_json(payload))
    else:
        labels = ["%d,%d,%d," % idx for idx in kij]
        owned = [gamma, nonzero]  # _csv gets the only references and frees them
        del gamma, nonzero
        _emit(ns, _csv("y1,y2,y3,k,i,j,gamma", prefixes, owned.pop(0), owned.pop(), labels))
    return EXIT_OK


_FIELD_OPS = ("grad", "div", "rot", "laplace")


def _build_operator(op: str, chart, field_input: TensorField, slot: int) -> TensorField:
    if op == "grad":
        return curvilinear.gradient_vector_in_chart(chart, field_input)
    if op == "div":
        return curvilinear.divergence_in_chart(chart, field_input, slot)
    if op == "rot":
        return curvilinear.rotor_in_chart(chart, field_input)
    if op == "laplace":
        return curvilinear.laplacian_in_chart(chart, field_input)


def cmd_field_op(ns: argparse.Namespace) -> int:
    chart = _chart(ns)
    field_input = load_field(ns.field)
    result = _build_operator(ns.op, chart, field_input, ns.slot)
    points, prefixes = _sample_points(ns)
    values, failures = result.evaluate_batch(points)
    if _report_failures(points, failures):
        return EXIT_DOMAIN
    if failures:
        points, prefixes, values = (np.delete(a, list(failures), axis=0)
                                    for a in (points, prefixes, values))
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
        _emit(ns, _csv("x1,x2,x3,component-path,value", prefixes, table,
                           np.ones(table.shape, dtype=bool), paths))
    return EXIT_OK


def _audit_checks(chart, points, scheme) -> list:
    """(name, residual, tolerance) triples for one chart.

    The first point that fails a check raises its error, which aborts the
    audit.
    """
    analytic = chart.analytic
    tol = curvilinear.ANALYTIC_CONSISTENCY_TOL if analytic else curvilinear.FD_CONSISTENCY_TOL
    sym_tol = 1e-9 if analytic else 1e-5

    x, failures = _map_rows(chart.forward, points, (chart.dim,), "forward")
    _raise_first(failures)
    back, failures = _map_rows(chart.inverse, x, (chart.dim,), "inverse")
    _raise_first(failures)
    roundtrip = float(np.max(np.abs(back - points) / np.maximum(1.0, np.abs(points)),
                             initial=0.0))
    state = curvilinear.ChartPoints(chart, points, christoffel=True)
    _raise_first(state.failures)
    jacobian = float(np.max(state.residual, initial=0.0))
    symmetry = float(np.max(np.abs(state.gamma - np.swapaxes(state.gamma, 2, 3)),
                            initial=0.0))

    nabla_g, failures = curvilinear._covariant(
        state, curvilinear.metric_field(chart), None, scheme)
    _raise_first(failures)
    concordance = float(np.max(np.abs(nabla_g), initial=0.0))

    return [
        ("inverse-roundtrip", roundtrip, 1e-9),
        ("jacobian-inverse", jacobian, tol),
        ("christoffel-symmetry", symmetry, sym_tol),
        ("concordance", concordance, tol),
    ]


def cmd_audit(ns: argparse.Namespace) -> int:
    chart = _chart(ns)
    rng = np.random.default_rng(ns.seed)
    lines = [f"audit of chart '{chart.name}' at {ns.points} points (seed {ns.seed})"]
    breached = False
    try:
        points = chart.sample_points(ns.points, rng)
        scheme = DifferentiationScheme(4 if ns.scheme == "central4" else 2, ns.step)
        checks = _audit_checks(chart, points, scheme)
    except (DomainError, DegenerateTransition, DegenerateMetric, ShapeError) as exc:
        lines.append(f"check aborted: {exc}")
        lines.append("verdict: FAIL")
        _emit(ns, "\n".join(lines) + "\n")
        return EXIT_AUDIT
    for name, residual, tolerance in checks:
        ok = residual <= tolerance  # False for a NaN residual
        breached = breached or not ok
        lines.append(f"{name}: max residual {_fmt(residual)} "
                     f"(tolerance {_fmt(tolerance)}) {'ok' if ok else 'BREACH'}")
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
    parser.commands = sub.choices  # command name -> its parser, for main

    def add_chart_flags(p):
        p.add_argument("--chart", help="built-in chart name "
                       "(cylindrical, spherical, identity)")
        p.add_argument("--chart-file", help="custom chart config JSON")

    def add_sampling_flags(p):
        p.add_argument("--grid", action="append", default=[],
                       metavar="axis=min:max:count",
                       help="grid spec per axis, repeatable")
        p.add_argument("--point", action="append", default=[],
                       metavar="a,b,c", help="single point, repeatable; "
                       "may be negative (--point -1,0,0)")

    def add_output_flags(p):
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

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
    p_fop.add_argument("--scheme", choices=("central2", "central4"),
                       help="ignored: table fields take no finite differences")
    add_output_flags(p_fop)

    p_audit = sub.add_parser("audit", help="run chart invariant checks")
    add_chart_flags(p_audit)
    p_audit.add_argument("--points", type=int, default=100)
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument("--scheme", choices=("central2", "central4"),
                         default="central2")
    p_audit.add_argument("--step", type=float, default=None,
                         help="fixed finite-difference step")
    p_audit.add_argument("--out")

    return parser


def _is_number_list(text: str) -> bool:
    try:
        [float(v) for v in text.split(",")]
    except ValueError:
        return False
    return True


def _attach_points(argv: list) -> list:
    """argv with each ``--point -a,b,c`` pair written as ``--point=-a,b,c``.

    argparse takes a value that starts with "-" for an option unless it is
    one plain negative number, so a point with a negative first coordinate
    would be a usage error. Only values that parse as numbers are attached;
    anything else reaches argparse as it was given.
    """
    out = []
    for arg in argv:
        if (out and out[-1] == "--point" and arg.startswith("-")
                and _is_number_list(arg)):
            out[-1] = "--point=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_points(sys.argv[1:] if argv is None else list(argv))
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is not None:
            ns, unknown = command.parse_known_args(argv[1:])
            ns.command = argv[0]
        if command is None or unknown:  # argparse's messages name the top-level usage
            ns = parser.parse_args(argv)
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
        with np.errstate(all="ignore"):  # audit differences outside the chart layer
            return handlers[ns.command](ns)
    except (TensorCalcError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)),
                    EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
