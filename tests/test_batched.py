"""Batched chart evaluation: point arrays against single points.

Every point-dependent computation of the chart path takes an (N, 3) array;
the single-point API is the N = 1 case of the same code. These properties
pin that a batch gives each point what a single call gives it, that a point
which fails fails alone with the single call's exception, and that the
batched Christoffel symbols and sampling match closed forms and the
one-point-at-a-time rejection loop.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorcalc as tc
from tensorcalc import (
    Chart,
    ChartPoints,
    DegenerateMetric,
    DegenerateTransition,
    DifferentiationScheme,
    DomainError,
    TensorField,
    builtin_chart,
    covariant_derivative,
    divergence_in_chart,
    gradient_vector_in_chart,
    laplacian_in_chart,
    load_chart,
    metric_field,
    metric_in_chart,
    rotor_in_chart,
)
from tensorcalc.cli import load_field
from tensorcalc.metric import _dual_gram, _gram

# x = (y1 + a sin y2, y2, y3 + b y1^2); the inverse is exact in the grammar
# because sin^2 u = (1 - cos 2u) / 2
A, B = 0.3, 0.2
TABLE_CONFIG = {
    "name": "table",
    "forward": [
        [{"coeff": 1.0, "powers": [1, 0, 0]},
         {"coeff": A, "powers": [0, 0, 0], "trig": [None, {"fn": "sin", "freq": 1.0}, None]}],
        [{"coeff": 1.0, "powers": [0, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 0, 1]}, {"coeff": B, "powers": [2, 0, 0]}],
    ],
    "inverse": [
        [{"coeff": 1.0, "powers": [1, 0, 0]},
         {"coeff": -A, "powers": [0, 0, 0], "trig": [None, {"fn": "sin", "freq": 1.0}, None]}],
        [{"coeff": 1.0, "powers": [0, 1, 0]}],
        [{"coeff": 1.0, "powers": [0, 0, 1]},
         {"coeff": -B, "powers": [2, 0, 0]},
         {"coeff": 2 * A * B, "powers": [1, 0, 0], "trig": [None, {"fn": "sin", "freq": 1.0}, None]},
         {"coeff": -A * A * B / 2, "powers": [0, 0, 0]},
         {"coeff": A * A * B / 2, "powers": [0, 0, 0], "trig": [None, {"fn": "cos", "freq": 2.0}, None]}],
    ],
    "bounds": {"min": [-2, None, None], "max": [2, None, None]},
}


def _degenerate_chart():
    """Plain Python callables for x = (y1, y2, y1 y3), singular at y1 = 0.

    There S is singular and T is infinite, so the point fails the
    transition stage with DegenerateTransition under every chart operator.
    """
    def jac_forward(y):
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [y[2], 0.0, y[0]]])

    def jac_inverse(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [-y[2] / y[0], 0.0, 1.0 / y[0]]])

    def jac_forward_partials(y):
        dS = np.zeros((3, 3, 3))
        dS[2, 0, 2] = dS[2, 2, 0] = 1.0
        return dS

    return Chart("degenerate", forward=lambda y: np.array([y[0], y[1], y[0] * y[2]]),
                 inverse=lambda x: np.array([x[0], x[1], x[2] / x[0]]),
                 jac_forward=jac_forward, jac_inverse=jac_inverse,
                 jac_forward_partials=jac_forward_partials,
                 domain=lambda y: abs(y[0]) < 2.0,
                 sample_bounds=((0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)))


CHARTS = {name: builtin_chart(name) for name in ("cylindrical", "spherical", "identity")}
CHARTS["table"] = load_chart(TABLE_CONFIG)
CHARTS["degenerate"] = _degenerate_chart()

SCALAR = load_field({"r": 0, "s": 0, "components": [[
    {"coeff": 1.3, "powers": [2, 0, 0], "trig": [None, {"fn": "sin", "freq": 2.0}, None]},
    {"coeff": -0.4, "powers": [1, 0, 1]},
]]})
VECTOR = load_field({"r": 1, "s": 0, "components": [
    [{"coeff": 1.3, "powers": [2, 0, 0]}],
    [{"coeff": 0.5, "powers": [1, 0, 0], "trig": [None, {"fn": "cos", "freq": 1.0}, None]}],
    [{"coeff": 0.2, "powers": [0, 1, 1]}],
]})
# the same scalar as a plain callable: called once per point
PLAIN_SCALAR = TensorField.scalar(lambda y: 1.3 * y[0] ** 2 * math.sin(2.0 * y[1])
                                  - 0.4 * y[0] * y[2])

OPERATORS = {
    "laplace": lambda chart, scheme: laplacian_in_chart(chart, SCALAR, scheme),
    "laplace-plain": lambda chart, scheme: laplacian_in_chart(chart, PLAIN_SCALAR, scheme),
    "grad": lambda chart, scheme: gradient_vector_in_chart(chart, SCALAR, scheme),
    "div": lambda chart, scheme: divergence_in_chart(chart, VECTOR, 1, scheme),
    "rot": lambda chart, scheme: rotor_in_chart(chart, VECTOR, scheme),
    "nabla": lambda chart, scheme: covariant_derivative(chart, VECTOR, scheme),
    "nabla-g": lambda chart, scheme: covariant_derivative(chart, metric_field(chart), scheme),
}
# the Cartesian operators take no chart: the one drawn is not used
SKEW = tc.Metric([[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.2]])
OPERATORS.update({
    "cartesian-laplace": lambda chart, scheme: tc.laplacian(SKEW, SCALAR, scheme),
    "cartesian-laplace-plain": lambda chart, scheme: tc.laplacian(SKEW, PLAIN_SCALAR, scheme),
    "cartesian-grad": lambda chart, scheme: tc.gradient_vector(SKEW, SCALAR, scheme),
    "cartesian-div": lambda chart, scheme: tc.divergence(VECTOR, 1, scheme),
    "cartesian-rot": lambda chart, scheme: tc.rotor(SKEW, VECTOR, scheme),
    "cartesian-nabla": lambda chart, scheme: tc.nabla(VECTOR, scheme),
    "cartesian-dalembert": lambda chart, scheme: tc.dalembert(1.5, PLAIN_SCALAR, scheme),
})
SCHEMES = [DifferentiationScheme(2), DifferentiationScheme(4),
           DifferentiationScheme(2, step=1e-4)]

# points off the domain of some chart: poles, axis, origin, bounds, NaN;
# then points next to the spherical pole and the cylindrical axis, where a
# T re-inverted from S can fail TransitionPair's test
SPECIAL = [(1.0, 0.0, 0.3), (0.0, 1.0, 1.0), (-1.0, 1.0, 0.5), (2.5, 0.4, 0.0),
           (0.0, 0.2, 0.1), (math.nan, 1.0, 1.0), (1.0, math.pi, 0.2),
           (2.0, 1e-9, 1.0), (1e-9, 0.3, 1.0)]


@st.composite
def point_batches(draw):
    """Up to six points: mostly inside a box every chart accepts, some special."""
    regular = st.tuples(st.floats(0.4, 1.9), st.floats(0.3, 2.8), st.floats(-1.5, 1.5))
    point = st.one_of(regular, regular, st.sampled_from(SPECIAL))
    return np.array(draw(st.lists(point, min_size=1, max_size=6)), dtype=float)


def _single(fn, y):
    """(value, None) or (None, exception) of one single-point call."""
    try:
        return fn(y), None
    except (DomainError, DegenerateTransition, DegenerateMetric) as exc:
        return None, exc


def _assert_same_failure(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


def _assert_close(got, want):
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(points=point_batches(), chart=st.sampled_from(sorted(CHARTS)),
       op=st.sampled_from(sorted(OPERATORS)), scheme=st.sampled_from(SCHEMES))
def test_operator_batch_equals_single_points(points, chart, op, scheme):
    field = OPERATORS[op](CHARTS[chart], scheme)
    values, failures = field.evaluate_batch(points)
    assert values.shape == (len(points),) + (3,) * field.valency.order
    for n, y in enumerate(points):
        want, error = _single(field.evaluate_array, y)
        if error is None:
            assert n not in failures
            _assert_close(values[n], want)
        else:
            _assert_same_failure(failures[n], error)
            assert np.all(np.isnan(values[n]))
    assert sorted(failures) == list(failures)


@settings(max_examples=40, deadline=None)
@given(points=point_batches(), chart=st.sampled_from(sorted(CHARTS)))
def test_chart_state_equals_single_points(points, chart):
    chart = CHARTS[chart]
    state = ChartPoints(chart, points, christoffel=True)
    assert sorted(list(state.failures) + state.index.tolist()) == list(range(len(points)))
    rows = {n: k for k, n in enumerate(state.index.tolist())}
    g, dual = _gram(state.S), _dual_gram(state.T)
    single = {DomainError: tc.christoffel, DegenerateMetric: metric_in_chart,
              DegenerateTransition: tc.jacobians}
    for n, y in enumerate(points):
        if n in rows:
            k = rows[n]
            pair = tc.jacobians(chart, y)
            _assert_close(state.S[k], pair.S)
            _assert_close(state.T[k], pair.T)
            _assert_close(g[k], metric_in_chart(chart, y).matrix)
            _assert_close(dual[k], metric_in_chart(chart, y).dual)
            _assert_close(state.gamma[k], tc.christoffel(chart, y).values)
        else:
            failure = state.failures[n]
            _, error = _single(lambda y: single[type(failure)](chart, y), y)
            _assert_same_failure(failure, error)


def test_degenerate_points_fail_alone_with_their_own_error():
    chart = CHARTS["degenerate"]
    points = np.array([[0.5, 0.1, 0.2], [0.0, 0.1, 0.2], [3.0, 0.0, 0.0],
                       [-0.7, 0.3, 0.1]])
    lap, failures = laplacian_in_chart(chart, SCALAR).evaluate_batch(points)
    assert sorted(failures) == [1, 2]
    assert isinstance(failures[1], DegenerateTransition)
    assert isinstance(failures[2], DomainError)
    assert np.all(np.isfinite(lap[[0, 3]]))
    _, failures = divergence_in_chart(chart, VECTOR).evaluate_batch(points)
    assert isinstance(failures[1], DegenerateTransition)
    with pytest.raises(DegenerateTransition, match="not mutually inverse"):
        tc.christoffel(chart, points[1])


def test_failing_probe_fails_only_its_point():
    def log_radius(y):
        if y[0] <= 0:
            raise ValueError("outside")
        return math.log(y[0])

    field = laplacian_in_chart(CHARTS["identity"], TensorField.scalar(log_radius))
    points = np.array([[1.0, 0.0, 0.0], [1e-12, 0.0, 0.0], [2.0, 1.0, 0.0]])
    values, failures = field.evaluate_batch(points)
    assert list(failures) == [1]
    with pytest.raises(DomainError) as single:
        field.evaluate_array(points[1])
    _assert_same_failure(failures[1], single.value)
    assert "field evaluation failed" in str(failures[1])
    assert abs(values[0] + 1.0) < 1e-4 and abs(values[2] + 0.25) < 1e-4


def _one_sided_chart():
    """Identity maps as plain callables; the inverse rejects x1 <= 0.

    Only the finite-difference probes of the inverse cross x1 = 0 at a
    point just right of it, so that point fails and its neighbours do not.
    """
    def inverse(x):
        if x[0] <= 0.0:
            raise DomainError(f"x1 = {x[0]!r} is not positive")
        return x

    return Chart("one-sided", lambda y: y, inverse)


def test_failing_chart_callable_fails_only_its_point():
    chart = _one_sided_chart()
    points = np.array([[1.0, 0.0, 0.0], [1e-9, 0.0, 0.0], [0.5, 0.3, -0.2],
                       [-1.0, 0.2, 0.0]])
    state = ChartPoints(chart, points, christoffel=True)
    assert sorted(state.failures) == [1, 3]
    assert state.index.tolist() == [0, 2]
    laplace = laplacian_in_chart(chart, PLAIN_SCALAR)
    values, failures = laplace.evaluate_batch(points)
    assert list(failures) == [1, 3]
    for n, y in enumerate(points):
        gamma, error = _single(lambda p: tc.christoffel(chart, p).values, y)
        want, lap_error = _single(laplace.evaluate_array, y)
        if error is None:
            k = state.index.tolist().index(n)
            _assert_close(state.gamma[k], gamma)
            _assert_close(values[n], want)
        else:
            _assert_same_failure(state.failures[n], error)
            _assert_same_failure(failures[n], lap_error)
            assert np.isnan(values[n])


def _fails_alone(field, points, bad, t=None):
    """Row ``bad`` of the batch is NaN with the single-point call's error;
    every other row has the bits of a batch without it."""
    values, failures = field.evaluate_batch(points, t)
    assert list(failures) == [bad]
    with pytest.raises(DomainError) as single:
        field.evaluate_array(points[bad], t)
    _assert_same_failure(failures[bad], single.value)
    assert np.all(np.isnan(values[bad]))
    rest = np.delete(np.arange(len(points)), bad)
    alone, none = field.evaluate_batch(points[rest], t)
    assert none == {}
    assert np.array_equal(values[rest], alone)


def _negative_y1(y):
    if y[0] < 0.0:
        raise DomainError("no value at negative y1")


def test_row_whose_values_fail_fails_alone_under_analytic_partials():
    def func(y):
        _negative_y1(y)
        return np.array([y[0] * y[1], y[2], 1.0])

    def partials(y):  # [q, k]: d X^k / d y^q, defined everywhere
        return np.array([[y[1], 0.0, 0.0], [y[0], 0.0, 0.0], [0.0, 1.0, 0.0]])

    field = TensorField.vector(func, partials=partials)
    points = np.array([[0.5, 0.2, 1.0], [-0.5, 0.3, 0.1], [1.5, -0.4, 2.0]])
    _fails_alone(covariant_derivative(CHARTS["table"], field), points, 1)


def test_row_that_fails_in_time_fails_alone_under_dalembert():
    def func(y, t):
        _negative_y1(y)
        return math.sin(y[0] - 2.0 * t) * y[1]

    field = TensorField.scalar(func, has_parameter=True)
    points = np.array([[0.5, 0.2, 1.0], [1.5, -0.4, 2.0], [-0.5, 0.3, 0.1]])
    _fails_alone(tc.dalembert(2.0, field), points, 2, t=0.3)


def _closed_form(name, y):
    r, th = y[0], y[1]
    gamma = np.zeros((3, 3, 3))
    if name in ("cylindrical", "spherical"):
        gamma[0, 1, 1] = -r
        gamma[1, 0, 1] = gamma[1, 1, 0] = 1.0 / r
    if name == "spherical":
        gamma[0, 2, 2] = -r * math.sin(th) ** 2
        gamma[1, 2, 2] = -math.sin(th) * math.cos(th)
        gamma[2, 0, 2] = gamma[2, 2, 0] = 1.0 / r
        gamma[2, 1, 2] = gamma[2, 2, 1] = math.cos(th) / math.sin(th)
    return gamma


@settings(max_examples=40, deadline=None)
@given(points=point_batches(),
       name=st.sampled_from(["cylindrical", "spherical", "identity"]))
def test_batched_christoffel_matches_closed_forms(points, name):
    state = ChartPoints(CHARTS[name], points, christoffel=True)
    for k, y in enumerate(state.points):
        want = _closed_form(name, y)
        assert np.all(np.abs(state.gamma[k] - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_laplacian_probes_each_distinct_point_once():
    calls = []

    def r_squared(y):
        calls.append(tuple(y))
        return y[0] ** 2

    phi = TensorField.scalar(r_squared)
    y = np.array([1.2, 0.9, 0.4])
    for scheme, count in ((DifferentiationScheme(2), 25), (DifferentiationScheme(4), 73),
                          (DifferentiationScheme(2, step=1e-4), 19)):
        calls.clear()
        value = laplacian_in_chart(CHARTS["spherical"], phi, scheme).evaluate_array(y)
        assert len(calls) == len(set(calls)) == count
        assert abs(value - 6.0) < 1e-4


def test_library_fields_are_called_once_per_batch_even_when_wrapped():
    calls = []

    def traced(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            calls.append(len(args[0]))
            return fn(*args)
        return wrapper

    phi = TensorField(SCALAR.valency, traced(SCALAR._func), 3)
    points = CHARTS["spherical"].sample_points(10, np.random.default_rng(1))
    values, failures = laplacian_in_chart(CHARTS["spherical"], phi).evaluate_batch(points)
    assert not failures
    assert calls == [10 * 25]
    # SCALAR carries analytic partials; the reference is the same function
    # without them, differenced like the wrapped copy
    plain = TensorField(SCALAR.valency, SCALAR._func, 3)
    want, _ = laplacian_in_chart(CHARTS["spherical"], plain).evaluate_batch(points)
    assert np.array_equal(values, want)


def _rejection_loop(chart, n, rng):
    """Chart.sample_points as one candidate at a time."""
    lo = np.array([b[0] for b in chart.sample_bounds])
    hi = np.array([b[1] for b in chart.sample_bounds])
    pts = []
    attempts = 0
    while len(pts) < n:
        y = lo + (hi - lo) * rng.random(chart.dim)
        attempts += 1
        if chart.contains(y):
            pts.append(y)
        if attempts > 100 * max(n, 10):
            raise DomainError(f"could not sample {n} points inside chart {chart.name!r}")
    return np.array(pts)


@pytest.mark.parametrize("name", sorted(CHARTS))
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_sample_points_match_the_rejection_loop(name, seed):
    chart = CHARTS[name]
    # a narrow domain makes most candidates miss
    lo, hi = chart.sample_bounds[2]
    narrow = Chart("narrow", chart.forward, chart.inverse,
                   domain=lambda y: y[2] > lo + 0.7 * (hi - lo),
                   sample_bounds=chart.sample_bounds)
    for subject in (chart, narrow):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = subject.sample_points(37, got_rng)
        want = _rejection_loop(subject, 37, want_rng)
        assert np.array_equal(got, want)
        # the generator is left where the loop leaves it
        assert got_rng.random() == want_rng.random()


def test_sample_points_in_a_box_wider_than_the_largest_float_are_finite():
    wide = Chart("wide", lambda y: y, lambda x: x, sample_bounds=[(-1e308, 1e308)] * 3)
    points = wide.sample_points(50, np.random.default_rng(0))
    assert points.shape == (50, 3)
    assert np.isfinite(points).all() and (np.abs(points) <= 1e308).all()


def test_sample_points_gives_up_like_the_rejection_loop():
    never = Chart("never", lambda y: y, lambda x: x, domain=lambda y: False)
    with pytest.raises(DomainError, match="could not sample 3 points"):
        never.sample_points(3, np.random.default_rng(0))


def test_spherical_grid_rows_equal_single_points_bit_for_bit():
    chart = CHARTS["spherical"]
    axes = [np.linspace(0.5, 3.0, 6), np.linspace(0.2, 2.9, 6), np.linspace(-3.0, 3.0, 6)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for op in ("laplace", "grad", "div", "rot"):
        field = OPERATORS[op](chart, SCHEMES[0])
        values, failures = field.evaluate_batch(points)
        assert not failures
        for n, y in enumerate(points):
            assert np.array_equal(values[n], field.evaluate_array(y)), (op, n)


@st.composite
def regular_points(draw):
    """1 to 40 points inside a box the cylindrical, spherical and identity
    charts all accept."""
    point = st.tuples(st.floats(0.4, 1.9), st.floats(0.3, 2.8), st.floats(-1.5, 1.5))
    return np.array(draw(st.lists(point, min_size=1, max_size=40)), dtype=float)


@settings(max_examples=30, deadline=None)
@given(points=regular_points(),
       chart=st.sampled_from(["cylindrical", "spherical", "identity"]),
       scheme=st.sampled_from(SCHEMES[:2]))
def test_operator_rows_equal_single_points_bit_for_bit(points, chart, scheme):
    for op in ("laplace", "grad", "div", "rot"):
        field = OPERATORS[op](CHARTS[chart], scheme)
        values, failures = field.evaluate_batch(points)
        assert not failures
        for n, y in enumerate(points):
            assert np.array_equal(values[n], field.evaluate_array(y)), (op, n)


def _scaled_inverse_chart(factor):
    """The cylindrical chart with its analytic T scaled by factor, so that
    |T S - I| reads factor - 1 at every point."""
    base = CHARTS["cylindrical"]

    @functools.wraps(base.jac_inverse)  # keeps the batch mark
    def jac_inverse(y):
        return base.jac_inverse(y) * factor

    return Chart("scaled", base.forward, base.inverse, base.jac_forward, jac_inverse,
                 base.jac_forward_partials, domain=base.domain,
                 sample_bounds=base.sample_bounds)


class TestTransitionReinversion:
    """A T within the transition tolerance but failing TransitionPair's
    T S = I test (off by more than 1e-9) is replaced by the inverse of S;
    one off by more than the tolerance fails."""

    POINTS = CHARTS["cylindrical"].sample_points(40, np.random.default_rng(3))

    def test_inexact_inverse_jacobian_is_reinverted_from_s(self):
        chart = _scaled_inverse_chart(1 + 1e-8)
        state = ChartPoints(chart, self.POINTS, transition=True)
        assert not state.failures
        assert np.all((5e-9 < state.residual) & (state.residual < 2e-8))
        assert np.abs(state.T @ state.S - np.eye(3)).max() < 1e-15
        for n, y in enumerate(self.POINTS):
            single = ChartPoints(chart, y[None], transition=True)
            assert np.array_equal(single.T[0], state.T[n]), n
            assert np.array_equal(tc.jacobians(chart, y).T, state.T[n]), n

    def test_inverse_jacobian_beyond_tolerance_fails_every_row(self):
        state = ChartPoints(_scaled_inverse_chart(1 + 1e-5), self.POINTS, transition=True)
        assert len(state.index) == 0
        assert sorted(state.failures) == list(range(len(self.POINTS)))
        assert all(isinstance(exc, DegenerateTransition) and "not mutually inverse" in str(exc)
                   for exc in state.failures.values())


# -- one T S = I rule at every entry point ----------------------------------------

NEAR_EDGE = ([("spherical", (2.0, h, 1.0)) for h in (1e-10, 1e-9, 1e-8, 1e-7)]
             + [("cylindrical", (h, 0.3, 1.0)) for h in (1e-10, 1e-9, 1e-8, 1e-7)])


def _outcome(fn, y):
    """("ok", value) or (exception class, message) of one single-point call."""
    try:
        return "ok", fn(y)
    except (DomainError, DegenerateTransition, DegenerateMetric) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chart, y", NEAR_EDGE)
def test_every_entry_point_applies_the_one_transition_rule(chart, y):
    chart = CHARTS[chart]
    calls = {"jacobians": lambda y: tc.jacobians(chart, y),
             "metric_in_chart": lambda y: metric_in_chart(chart, y),
             "christoffel": lambda y: tc.christoffel(chart, y),
             "transform": tc.chart_to_chart_transform(VECTOR, CHARTS["identity"], chart).evaluate}
    # not nabla-g: the probes of its field, the chart metric, cross the pole and the axis
    calls.update((op, OPERATORS[op](chart, DifferentiationScheme(2)).evaluate)
                 for op in OPERATORS if not op.startswith(("cartesian", "nabla-g")))
    outcomes = {name: _outcome(fn, y) for name, fn in calls.items()}
    state = ChartPoints(chart, [y], christoffel=True)
    if state.failures:
        outcomes["ChartPoints"] = type(state.failures[0]), str(state.failures[0])
        assert len(set(outcomes.values())) == 1, outcomes
    else:
        assert all(kind == "ok" for kind, _ in outcomes.values()), outcomes
        assert np.array_equal(state.T[0], outcomes["jacobians"][1].T)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chart, y", [("spherical", (1.0, 5e-324, 0.3)),
                                      ("cylindrical", (5e-324, 0.3, 1.0))])
def test_chart_stages_fail_a_row_without_a_numpy_warning(chart, y):
    # T = S^-1 overflows at the smallest float: the row fails, nothing warns
    chart = CHARTS[chart]
    for stages in ({"transition": True}, {"christoffel": True}):
        state = ChartPoints(chart, [y], **stages)
        assert isinstance(state.failures[0], DegenerateTransition)
    # the source chart's transition stage in chart_to_chart_transform
    move = tc.chart_to_chart_transform(VECTOR, CHARTS["cylindrical"], CHARTS["identity"])
    _, failures = move.evaluate_batch([[5e-324, 0.0, 1.0]])
    assert isinstance(failures[0], DegenerateTransition)
