"""Coefficient-table charts: analytic Jacobians and second partials.

load_chart differentiates its tables term by term (power rule, sin' = cos,
cos' = -sin). These tests pin the derivatives to closed forms, to the
central-difference engine on random tables, and the Christoffel symbols to
the derivative-of-T route on random invertible table charts. The map values
themselves must equal a term-by-term evaluation bit for bit, and every
table callable must give a row of a batch what it gives that row alone.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc import (
    ChartPoints,
    ParameterError,
    christoffel,
    christoffel_alt,
    curvilinear,
    jacobian_derivative,
    jacobian_direct,
    jacobian_inverse,
    load_chart,
)
from tensorcalc.cli import main
from tensorcalc.curvilinear import FD_CONSISTENCY_TOL, _compile_map, _fd_jacobian

from test_batched import A, B, TABLE_CONFIG
from test_cli import SHEAR_CONFIG

TABLE = load_chart(TABLE_CONFIG)


def _closed_forms(y):
    """S, T, dS and Gamma of x = (y1 + A sin y2, y2, y3 + B y1^2) at rows y."""
    y1, y2 = y[:, 0], y[:, 1]
    n = len(y)
    S = np.zeros((n, 3, 3))
    S[:, 0, 0] = S[:, 1, 1] = S[:, 2, 2] = 1.0
    S[:, 0, 1] = A * np.cos(y2)
    S[:, 2, 0] = 2.0 * B * y1
    T = np.zeros((n, 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = T[:, 2, 2] = 1.0
    T[:, 0, 1] = -A * np.cos(y2)
    T[:, 2, 0] = -2.0 * B * y1
    T[:, 2, 1] = 2.0 * A * B * y1 * np.cos(y2)
    dS = np.zeros((n, 3, 3, 3))
    dS[:, 0, 1, 1] = -A * np.sin(y2)
    dS[:, 2, 0, 0] = 2.0 * B
    gamma = np.zeros((n, 3, 3, 3))
    gamma[:, 0, 1, 1] = -A * np.sin(y2)
    gamma[:, 2, 0, 0] = 2.0 * B
    gamma[:, 2, 1, 1] = 2.0 * A * B * y1 * np.sin(y2)
    return S, T, dS, gamma


class TestClosedForms:
    def test_table_chart_is_analytic(self):
        assert TABLE.analytic
        assert TABLE.jac_forward_partials is not None

    def test_batch_matches_closed_forms(self, rng):
        y = TABLE.sample_points(50, rng)
        state = ChartPoints(TABLE, y, christoffel=True)
        assert not state.failures
        for got, want in zip((state.S, state.T, TABLE.jac_forward_partials(y), state.gamma),
                             _closed_forms(y)):
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(state.residual) < 1e-12

    def test_single_points_match_closed_forms(self, rng):
        for y in TABLE.sample_points(10, rng):
            S, T, dS, gamma = (a[0] for a in _closed_forms(y[None]))
            assert np.max(np.abs(jacobian_direct(TABLE, y) - S)) < 1e-12
            assert np.max(np.abs(jacobian_inverse(TABLE, y) - T)) < 1e-12
            assert np.max(np.abs(jacobian_derivative(TABLE, y) - dS)) < 1e-12
            assert np.max(np.abs(christoffel(TABLE, y).values - gamma)) < 1e-12

    def test_second_partials_are_exactly_symmetric(self, rng):
        dS = TABLE.jac_forward_partials(TABLE.sample_points(20, rng))
        assert np.array_equal(dS, np.swapaxes(dS, 2, 3))


# -- random tables -------------------------------------------------------------

_coeffs = st.floats(-2.0, 2.0, allow_nan=False)
_trig = st.one_of(st.none(), st.fixed_dictionaries(
    {"fn": st.sampled_from(["sin", "cos"]), "freq": _coeffs}))
_term = st.fixed_dictionaries({
    "coeff": _coeffs,
    "powers": st.lists(st.integers(0, 3), min_size=3, max_size=3),
    "trig": st.lists(_trig, min_size=3, max_size=3),
})
_map = st.lists(st.lists(_term, max_size=3), min_size=3, max_size=3)
_points = st.lists(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
                   min_size=1, max_size=5).map(np.array)


def _term_by_term(spec, y):
    """The map of a table spec evaluated one term at a time, one factor after
    another, summed from zero in table order."""
    out = np.empty(y.shape)
    for i, terms in enumerate(spec):
        total = np.zeros(len(y))
        for term in terms:
            value = term["coeff"]
            for a in range(3):
                if term["powers"][a]:
                    value = value * y[:, a] ** term["powers"][a]
                spec_a = term["trig"][a]
                if spec_a is not None:
                    fn = {"sin": np.sin, "cos": np.cos}[spec_a["fn"]]
                    value = value * fn(spec_a["freq"] * y[:, a])
            total = total + value
        out[:, i] = total
    return out


def _close(got, want, tol):
    scale = 1.0 + np.max(np.abs(want), initial=0.0)
    return np.max(np.abs(got - want), initial=0.0) <= tol * scale


@settings(max_examples=60, deadline=None)
@given(_map, _points)
def test_values_equal_a_term_by_term_evaluation(spec, y):
    mapping, _, _ = _compile_map(spec, "random")
    assert np.array_equal(mapping(y), _term_by_term(spec, y))


@settings(max_examples=60, deadline=None)
@given(_map, _points)
def test_analytic_derivatives_match_finite_differences(spec, y):
    mapping, jacobian, partials = _compile_map(spec, "random")
    want, failures = _fd_jacobian(mapping, y)
    assert not failures
    assert _close(jacobian(y), want, 1e-6)
    want, failures = _fd_jacobian(mapping, y, second=True)
    assert not failures
    assert _close(partials(y), want, FD_CONSISTENCY_TOL)


@settings(max_examples=30, deadline=None)
@given(_map, _map, _points)
def test_inverse_jacobian_is_the_inverse_table_differentiated_at_x(forward, inverse, y):
    # any two tables make a config; T never comes from inverting S
    chart = load_chart({"name": "pair", "forward": forward, "inverse": inverse})
    want, failures = _fd_jacobian(chart.inverse, chart.forward(y))
    assert not failures
    assert _close(chart.jac_inverse(y), want, 1e-6)


# -- one rounding rule: a batch gives each row what the row gives alone --------

_TABLE_MAPS = ("forward", "jac_forward", "jac_inverse", "jac_forward_partials")
_batches = st.lists(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
                    min_size=1, max_size=60).map(np.array)


def _assert_rows_alone(chart, y, rows):
    """Each map of the chart at y[n] alone equals row n of the whole batch."""
    for name in _TABLE_MAPS:
        batch = getattr(chart, name)(y)
        for n in rows:
            alone = getattr(chart, name)(y[n:n + 1])[0]
            assert np.array_equal(batch[n], alone), (name, n)


def test_table_chart_rows_do_not_depend_on_the_batch(rng):
    y = TABLE.sample_points(2000, rng)
    _assert_rows_alone(TABLE, y, rng.choice(len(y), 300, replace=False))


@settings(max_examples=60, deadline=None)
@given(_map, _map, _batches)
def test_random_table_rows_do_not_depend_on_the_batch(forward, inverse, y):
    chart = load_chart({"name": "pair", "forward": forward, "inverse": inverse})
    _assert_rows_alone(chart, y, range(len(y)))


# -- random invertible table charts -------------------------------------------

_y3_term = st.tuples(st.floats(-1.0, 1.0), st.integers(0, 2),
                     st.sampled_from([None, "sin", "cos"]), st.floats(-2.0, 2.0))


def _y3_terms(terms, coeff_scale, s3):
    """Table terms of coeff_scale * sum k y3^p trig(w y3), written in x3 = s3 y3."""
    out = []
    for k, p, fn, w in terms:
        trig = None if fn is None else {"fn": fn, "freq": w / s3}
        out.append({"coeff": coeff_scale * k / s3 ** p, "powers": [0, 0, p],
                    "trig": [None, None, trig]})
    return out


@st.composite
def triangular_charts(draw):
    """x = (s1 y1 + c y2 + f(y3), s2 y2 + g(y3), s3 y3) with f, g sums of
    grammar terms in y3, and its exact inverse
    y = (x1/s1 - c (x2 - g(u))/(s1 s2) - f(u)/s1, (x2 - g(u))/s2, u), u = x3/s3.
    det S = s1 s2 s3 >= 1/8."""
    s1, s2, s3 = (draw(st.floats(0.5, 2.0)) for _ in range(3))
    c = draw(st.floats(-1.0, 1.0))
    f = draw(st.lists(_y3_term, max_size=3))
    g = draw(st.lists(_y3_term, max_size=3))

    def in_y3(terms):
        return [{"coeff": k, "powers": [0, 0, p],
                 "trig": [None, None, None if fn is None else {"fn": fn, "freq": w}]}
                for k, p, fn, w in terms]

    forward = [
        [{"coeff": s1, "powers": [1, 0, 0]}, {"coeff": c, "powers": [0, 1, 0]}] + in_y3(f),
        [{"coeff": s2, "powers": [0, 1, 0]}] + in_y3(g),
        [{"coeff": s3, "powers": [0, 0, 1]}],
    ]
    inverse = [
        [{"coeff": 1.0 / s1, "powers": [1, 0, 0]},
         {"coeff": -c / (s1 * s2), "powers": [0, 1, 0]}]
        + _y3_terms(g, c / (s1 * s2), s3) + _y3_terms(f, -1.0 / s1, s3),
        [{"coeff": 1.0 / s2, "powers": [0, 1, 0]}] + _y3_terms(g, -1.0 / s2, s3),
        [{"coeff": 1.0 / s3, "powers": [0, 0, 1]}],
    ]
    return load_chart({"name": "triangular", "forward": forward, "inverse": inverse,
                       "bounds": {"min": [-1.5] * 3, "max": [1.5] * 3}})


@settings(max_examples=40, deadline=None)
@given(triangular_charts(), st.integers(0, 2 ** 32 - 1))
def test_christoffel_agrees_with_the_derivative_of_t_route(chart, seed):
    for y in chart.sample_points(3, np.random.default_rng(seed)):
        state = ChartPoints(chart, y[None], christoffel=True)
        assert not state.failures
        assert state.residual[0] < 1e-12
        got = christoffel(chart, y).values
        assert _close(christoffel_alt(chart, y), got, 1e-5)


# -- laziness and the CLI audit --------------------------------------------------


def test_derivative_tables_are_built_on_first_use(monkeypatch):
    """Loading differentiates nothing; the first Jacobian differentiates
    each forward table once, along all three axes in one pass (low axis 0),
    and the first second partials each first-partial table along y_i once,
    from axis i on; later calls build nothing."""
    calls = []
    differentiate = curvilinear._differentiate
    monkeypatch.setattr(curvilinear, "_differentiate",
                        lambda terms, low=0: calls.append(low) or differentiate(terms, low))
    chart = load_chart(TABLE_CONFIG)
    assert calls == []
    y = np.array([[0.3, 0.4, 0.5]])
    chart.jac_forward(y)
    assert calls == [0, 0, 0]
    chart.jac_forward(y)
    chart.forward(y)
    assert calls == [0, 0, 0]
    chart.jac_forward_partials(y)
    assert calls == [0, 0, 0] + [0, 1, 2] * 3
    chart.jac_forward_partials(y)
    chart.jac_forward(y)
    assert len(calls) == 12


def _audit(capsys, tmp_path, config):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(config))
    code = main(["audit", "--chart-file", str(path), "--points", "20"])
    return code, capsys.readouterr().out


def _no_finite_differences(*args, **kwargs):
    raise AssertionError("a table chart took a finite-difference Jacobian")


def test_table_chart_audit_uses_analytic_tolerances(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(curvilinear, "_fd_jacobian", _no_finite_differences)
    code, out = _audit(capsys, tmp_path, SHEAR_CONFIG)
    assert code == 0
    assert "(tolerance 1e-06) ok" in out
    assert "christoffel-symmetry: max residual 0.0 (tolerance 1e-09) ok" in out


def test_broken_inverse_exits_five_through_the_analytic_path(capsys, tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(curvilinear, "_fd_jacobian", _no_finite_differences)
    config = json.loads(json.dumps(SHEAR_CONFIG))
    config["inverse"][0] = [{"coeff": 1.0, "powers": [1, 0, 0]}]
    code, out = _audit(capsys, tmp_path, config)
    assert code == 5
    assert "are not mutually inverse (residual 0.5)" in out
    assert out.endswith("verdict: FAIL\n")


@pytest.mark.parametrize("bounds", [{"min": ["a", None, None]}, {"max": [1, 2]}, [0, 1]])
def test_malformed_bounds_raise_parameter_error(bounds):
    config = dict(SHEAR_CONFIG, bounds=bounds)
    with pytest.raises(ParameterError):
        load_chart(config)


def test_a_one_sided_bound_inside_the_default_keeps_the_default_box():
    chart = load_chart(dict(SHEAR_CONFIG, bounds={"min": [0.5, None, None]}))
    assert chart.sample_bounds == ((0.55, 0.95), (-0.8, 0.8), (-0.8, 0.8))


@pytest.mark.parametrize("bounds, box", [
    ({"min": [5, None, None]}, (5.2, 6.8)),
    ({"min": [1, None, None]}, (1.2, 2.8)),
    ({"max": [-3, None, None]}, (-4.8, -3.2)),
])
def test_a_one_sided_bound_beyond_the_default_loads_and_samples_its_domain(bounds, box):
    chart = load_chart(dict(SHEAR_CONFIG, bounds=bounds))
    assert chart.sample_bounds[0] == pytest.approx(box, rel=1e-15)
    points = chart.sample_points(200, np.random.default_rng(0))
    assert len(points) == 200
    assert chart.domain(points).all()


_IDENTITY_TABLES = [[{"coeff": 1.0, "powers": p}] for p in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]


@pytest.mark.parametrize("bound, box", [(1e300, (-1e300 + 0.1 * 2e300, 1e300 - 0.1 * 2e300)),
                                        (1e308, (-8e307, 8e307))])
def test_bounds_wider_than_the_largest_float_sample_and_audit(capsys, tmp_path, bound, box):
    # max - min overflows at 1e308: the box is then 0.9 min + 0.1 max to 0.1 min + 0.9 max
    config = {"name": "wide", "forward": _IDENTITY_TABLES, "inverse": _IDENTITY_TABLES,
              "bounds": {"min": [-bound] * 3, "max": [bound] * 3}}
    assert load_chart(config).sample_bounds == (pytest.approx(box, rel=1e-15),) * 3
    code, out = _audit(capsys, tmp_path, config)
    assert code == 0
    assert out.endswith("verdict: PASS\n")


def test_integral_float_powers_count_and_fractional_ones_fail():
    config = json.loads(json.dumps(SHEAR_CONFIG))
    config["forward"][2] = [{"coeff": 1.0, "powers": [0, 0, 2.0]}]
    chart = load_chart(config)
    assert chart.forward([0.0, 0.0, 1.5])[2] == 2.25
    assert chart.jac_forward([0.0, 0.0, 1.5])[2, 2] == 3.0
    config["forward"][2] = [{"coeff": 1.0, "powers": [0, 0, 1.5]}]
    with pytest.raises(ParameterError, match=r"forward\[2\]: term 0 powers"):
        load_chart(config)
