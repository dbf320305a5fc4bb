"""Coefficient-table fields: analytic first and second partials.

cli.load_field differentiates a field's component tables term by term, as
load_chart does for chart maps, so the chart operators take no finite
differences of a table field. These tests pin the partials to closed forms
and to the central-difference engine on random tables, check that field-op
on a table field neither runs the FD engine nor depends on --scheme, and
that every operator row of a batch equals that point evaluated alone.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensorcalc import (
    DifferentiationScheme,
    TensorField,
    builtin_chart,
    curvilinear,
    derivative_table,
    divergence_in_chart,
    fields,
    gradient_vector_in_chart,
    laplacian_in_chart,
    load_chart,
    rotor_in_chart,
)
from tensorcalc.cli import load_field, main
from tensorcalc.curvilinear import FD_CONSISTENCY_TOL
from tensorcalc.fields import _partials

from test_batched import CHARTS, TABLE_CONFIG, point_batches
from test_table_charts import _close, _term

SPHERICAL = builtin_chart("spherical")
R_SQUARED = {"r": 0, "s": 0, "components": [[{"coeff": 1.0, "powers": [2, 0, 0]}]]}
RADIAL = {"r": 1, "s": 0, "components": [[{"coeff": 1.0, "powers": [1, 0, 0]}], [], []]}
SCALAR_SPEC = {"r": 0, "s": 0, "components": [[
    {"coeff": 1.3, "powers": [2, 0, 1], "trig": [None, {"fn": "sin", "freq": 2.0}, None]},
    {"coeff": -0.4, "powers": [1, 1, 0], "trig": [None, None, {"fn": "cos", "freq": 0.5}]},
]]}
VECTOR_SPEC = {"r": 1, "s": 0, "components": [
    [{"coeff": 1.3, "powers": [2, 1, 0]}],
    [{"coeff": 0.5, "powers": [1, 0, 0], "trig": [None, {"fn": "cos", "freq": 1.0}, None]},
     {"coeff": -0.7, "powers": [0, 0, 2]}],
    [{"coeff": 0.2, "powers": [0, 1, 1], "trig": [{"fn": "sin", "freq": 1.5}, None, None]}],
]}
OPERATORS = {
    "grad": lambda chart, f: gradient_vector_in_chart(chart, f),
    "div": lambda chart, f: divergence_in_chart(chart, f),
    "rot": lambda chart, f: rotor_in_chart(chart, f),
    "laplace": lambda chart, f: laplacian_in_chart(chart, f),
}
FIELD_OF = {"grad": SCALAR_SPEC, "laplace": SCALAR_SPEC, "div": VECTOR_SPEC,
            "rot": VECTOR_SPEC}
SAMPLES = {"spherical": ["--point", "1.3,1.1,0.7", "--grid", "1=0.6:2:3",
                         "--grid", "2=0.3:2.8:3", "--grid", "3=-2:2:3"],
           "table": ["--point", "0.4,0.9,-0.6", "--grid", "1=-1.5:1.5:3",
                     "--grid", "2=-2:2:3", "--grid", "3=-1:1:3"]}


def _chart_argv(name, tmp_path):
    if name == "spherical":
        return ["--chart", "spherical"]
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(TABLE_CONFIG))
    return ["--chart-file", str(path)]


def _field_op(capsys, tmp_path, op, chart, *extra):
    path = tmp_path / f"{op}.json"
    path.write_text(json.dumps(FIELD_OF[op]))
    code = main(["field-op", op, *_chart_argv(chart, tmp_path), "--field", str(path),
                 *SAMPLES[chart], *extra])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _no_finite_differences(*args, **kwargs):
    raise AssertionError("a table field was differenced")


# -- field-op on a table field ---------------------------------------------------

@pytest.mark.parametrize("chart", ["spherical", "table"])
@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_field_op_runs_no_finite_differences(capsys, tmp_path, monkeypatch, op, chart):
    monkeypatch.setattr(fields, "_differences", _no_finite_differences)
    monkeypatch.setattr(curvilinear, "_differences", _no_finite_differences)
    assert _field_op(capsys, tmp_path, op, chart).count("\n") > 27


@pytest.mark.parametrize("chart", ["spherical", "table"])
@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_scheme_and_step_do_not_change_a_table_field(capsys, tmp_path, op, chart):
    want = _field_op(capsys, tmp_path, op, chart, "--scheme", "central2")
    assert _field_op(capsys, tmp_path, op, chart, "--scheme", "central4") == want
    # field-op has no --step: a table field takes no finite differences
    assert main(["field-op", op, *_chart_argv(chart, tmp_path), "--field",
                 str(tmp_path / f"{op}.json"), *SAMPLES[chart], "--step", "0.1"]) == 2
    assert "unrecognized arguments: --step" in capsys.readouterr().err


# -- closed forms ------------------------------------------------------------------

def _rel(got, want):
    return np.max(np.abs(got - want) / (1.0 + np.abs(want)))


def test_spherical_closed_forms(rng):
    y = SPHERICAL.sample_points(200, rng)
    r_squared, radial = load_field(R_SQUARED), load_field(RADIAL)
    lap, failures = laplacian_in_chart(SPHERICAL, r_squared).evaluate_batch(y)
    assert not failures and _rel(lap, 6.0) < 1e-12
    div, failures = divergence_in_chart(SPHERICAL, radial).evaluate_batch(y)
    assert not failures and _rel(div, 3.0) < 1e-12
    grad, failures = gradient_vector_in_chart(SPHERICAL, r_squared).evaluate_batch(y)
    want = np.zeros_like(grad)
    want[:, 0] = 2.0 * y[:, 0]
    assert not failures and _rel(grad, want) < 1e-12


def test_partials_of_a_vector_field_in_slot_order():
    y = np.array([[0.7, -1.1, 0.4]])
    y1, y2, y3 = y[0]
    field = load_field(VECTOR_SPEC)
    d1 = field._partials(y)[0]        # [q, k]: d X^k / d y^q
    want = np.array([
        [2.6 * y1 * y2, 0.5 * np.cos(y2), 0.3 * np.cos(1.5 * y1) * y2 * y3],
        [1.3 * y1 ** 2, -0.5 * y1 * np.sin(y2), 0.2 * np.sin(1.5 * y1) * y3],
        [0.0, -1.4 * y3, 0.2 * np.sin(1.5 * y1) * y2],
    ])
    assert np.allclose(d1, want, rtol=1e-14, atol=1e-15)
    d2 = field._second_partials(y)[0]  # [i, j, k]
    assert d2[0, 1, 0] == d2[1, 0, 0] == pytest.approx(2.6 * y1)
    assert d2[2, 2, 1] == pytest.approx(-1.4)
    assert d2[0, 0, 2] == pytest.approx(-0.45 * np.sin(1.5 * y1) * y2 * y3)


# -- random tables -------------------------------------------------------------------

_fields = st.one_of(
    st.lists(_term, min_size=1, max_size=3).map(
        lambda terms: {"r": 0, "s": 0, "components": [terms]}),
    st.lists(st.lists(_term, max_size=3), min_size=3, max_size=3).map(
        lambda comps: {"r": 1, "s": 0, "components": comps}))
_points = st.lists(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
                   min_size=1, max_size=5).map(np.array)


@settings(max_examples=60, deadline=None)
@given(_fields, _points)
def test_analytic_partials_match_finite_differences(spec, y):
    field = load_field(spec)
    plain = TensorField(field.valency, field._func, 3)
    d1, d2, failures = _partials(field, y, None, DifferentiationScheme(4), second=True)
    fd1, fd2, fd_failures = _partials(plain, y, None, DifferentiationScheme(4), second=True)
    assert not failures and not fd_failures
    assert _close(d1, fd1, 1e-6)
    assert _close(d2, fd2, FD_CONSISTENCY_TOL)


@settings(max_examples=60, deadline=None)
@given(_fields, _points)
def test_second_partials_are_exactly_symmetric(spec, y):
    d2 = load_field(spec)._second_partials(y)
    assert np.array_equal(d2, np.swapaxes(d2, 1, 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(_term, min_size=1, max_size=3),
       st.lists(st.lists(_term, max_size=3), min_size=3, max_size=3),
       point_batches(), st.sampled_from(["spherical", "table"]),
       st.sampled_from(sorted(OPERATORS)))
def test_operator_rows_equal_single_points(scalar, vector, points, chart, op):
    spec = ({"r": 0, "s": 0, "components": [scalar]} if op in ("grad", "laplace")
            else {"r": 1, "s": 0, "components": vector})
    result = OPERATORS[op](CHARTS[chart], load_field(spec))
    values, failures = result.evaluate_batch(points)
    for n in range(len(points)):
        alone, alone_failures = result.evaluate_batch(points[n:n + 1])
        assert np.array_equal(values[n], alone[0], equal_nan=True), (op, n)
        assert (n in failures) == bool(alone_failures)


# -- derivative multipliers that overflow the coefficient -----------------------------

CUBE = [{"coeff": 1e308, "powers": [3, 0, 0]}]


def test_overflowing_multiplier_leaves_a_table_field_finite():
    field = load_field({"r": 0, "s": 0, "components": [CUBE]})
    d1 = derivative_table(field, [0.5, 0.0, 0.0])
    assert np.isfinite(d1).all()
    assert d1[0] == pytest.approx(7.5e307, rel=1e-15)
    d2 = field._second_partials(np.array([[0.1, 0.0, 0.0]]))[0]
    assert d2[0, 0] == pytest.approx(6e307, rel=1e-15)


def test_overflowing_multiplier_leaves_a_table_chart_finite():
    identity = [[{"coeff": 1.0, "powers": [1, 0, 0]}], [{"coeff": 1.0, "powers": [0, 1, 0]}],
                [{"coeff": 1.0, "powers": [0, 0, 1]}]]
    chart = load_chart({"name": "cube", "forward": [CUBE] + identity[1:], "inverse": identity})
    S = chart.jac_forward(np.array([[0.5, 0.0, 0.0]]))[0]
    assert np.isfinite(S).all()
    assert S[0, 0] == pytest.approx(7.5e307, rel=1e-15)
    dS = chart.jac_forward_partials(np.array([[0.1, 0.0, 0.0]]))[0]
    assert dS[0, 0, 0] == pytest.approx(6e307, rel=1e-15)


# -- the one-pass differentiation against the per-axis reference ---------------------


def _scaled(coeff, multiplier, factors):
    product = multiplier * coeff
    if math.isfinite(product):
        return product, factors
    return coeff, factors + (("mul", None, multiplier),)


def _derivative(terms, b):
    """d/dy_b of parsed terms, one axis per pass over them: the reference
    for curvilinear._differentiate, as it was first written."""
    out = []
    for coeff, factors in terms:
        for k, (fn, a, param) in enumerate(factors):
            if a != b:
                continue
            if fn == "pow":
                lowered = (("pow", b, param - 1),) if param > 1 else ()
                out.append(_scaled(coeff, param, factors[:k] + lowered + factors[k + 1:]))
            elif param:
                turned = ("cos" if fn == "sin" else "sin", b, param)
                out.append(_scaled(coeff, param if fn == "sin" else -param,
                                   factors[:k] + (turned,) + factors[k + 1:]))
    return out


def _values(tables, y):
    """Tables at y (N, 3) summed term by term into zeros, each factor
    computed as _evaluate computes it: the reference for _evaluate."""
    coords = y[:, 0], y[:, 1], y[:, 2]
    out = np.zeros((len(y), len(tables)))
    for e, terms in enumerate(tables):
        total = out[:, e]
        for value, factors in terms:
            for fn, a, param in factors:
                if fn == "mul":
                    value = value * param
                elif fn == "pow":
                    value = value * (coords[a] if param == 1 else coords[a] ** param)
                else:
                    value = value * {"sin": np.sin, "cos": np.cos}[fn](param * coords[a])
            total += value
    return out


# powers 0-4, zero frequencies, and coefficients and frequencies up to 1e308,
# whose derivative multipliers overflow into trailing ("mul", None, m) factors
_huge = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1e308, -1e308]),
                  st.floats(-1e308, 1e308))
_wide_term = st.fixed_dictionaries({
    "coeff": _huge,
    "powers": st.lists(st.integers(0, 4), min_size=3, max_size=3),
    "trig": st.lists(st.one_of(st.none(), st.fixed_dictionaries(
        {"fn": st.sampled_from(["sin", "cos"]), "freq": _huge})), min_size=3, max_size=3),
})
_UPPER = [(i, j) for i in range(3) for j in range(i, 3)]
_READS = [_UPPER.index((min(i, j), max(i, j))) for i in range(3) for j in range(3)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_wide_term, max_size=4), min_size=1, max_size=3),
       arrays(np.float64, (50, 3), elements=st.floats(-3.0, 3.0)))
@example([[{"coeff": 1e308, "powers": [3, 0, 0],
            "trig": [None, {"fn": "sin", "freq": 0.0}, {"fn": "cos", "freq": 2.0}]}]],
         np.full((50, 3), 0.1))
def test_one_pass_partials_equal_the_per_axis_reference(raw, y):
    tables = [curvilinear._compile_component(terms, "t") for terms in raw]
    built = curvilinear._Tables(tables)
    first = [_derivative(terms, q) for terms in tables for q in range(3)]
    second = [_derivative(first[3 * e + i], j) for e in range(len(tables)) for i, j in _UPPER]
    assert repr(built.first_tables()) == repr(first)
    assert repr(built.second_tables()) == repr(second)
    n = len(tables)
    with np.errstate(all="ignore"):
        for points in (y, y[:1]):
            want_first = _values(first, points).reshape(len(points), n, 3)
            want_second = _values(second, points).reshape(len(points), n, 6)[
                ..., _READS].reshape(len(points), n, 3, 3)
            assert built.values(points).tobytes() == _values(tables, points).tobytes()
            assert built.first(points).tobytes() == want_first.tobytes()
            assert built.second(points).tobytes() == want_second.tobytes()
