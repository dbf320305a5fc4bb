"""The chart metric stage: g^-1 from the dual frame, sqrt(g) from the frame.

ChartPoints(metric=True) takes g = S^T S and its inverse as T T^T, the Gram
matrix of the dual frame, after the transition stage has checked T against
S; the rotor takes sqrt(det g) as |det S|. These tests pin the dual against
closed forms down to the spherical poles, its layout and its bits, the
volume against r^2 sin(theta), and the stage contract: metric_field never
evaluates T, and every chart operator fails a singular S in the transition
stage.
"""

import math

import numpy as np
import pytest

from tensorcalc import (
    Chart,
    ChartPoints,
    DegenerateTransition,
    DifferentiationScheme,
    Metric,
    builtin_chart,
    covariant_derivative,
    divergence_in_chart,
    gradient_vector_in_chart,
    laplacian_in_chart,
    load_chart,
    metric_field,
    rotor_in_chart,
)
from tensorcalc.curvilinear import _flat_chart, _frame_volume
from tensorcalc.fields import _batched, _partials

from test_batched import CHARTS, SCALAR, TABLE_CONFIG, VECTOR

SPH = builtin_chart("spherical")
CYL = builtin_chart("cylindrical")
SKEW_METRIC = Metric([[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.2]])
SKEW = _flat_chart(SKEW_METRIC)


def _points(rng, n, theta_lo=1e-3, r_hi=3.0):
    """n points with r in [0.05, r_hi], theta in [theta_lo, pi - theta_lo]
    (both ends included) and any third coordinate."""
    r = rng.uniform(0.05, r_hi, n)
    theta = rng.uniform(theta_lo, math.pi - theta_lo, n)
    theta[:2] = theta_lo, math.pi - theta_lo
    return np.stack([r, theta, rng.uniform(-math.pi, math.pi, n)], axis=1)


def _assert_close_to_largest(got, want, tol):
    """|got - want| <= tol * the largest |entry| of want, point by point."""
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - want) <= tol * scale)


def test_spherical_dual_matches_its_closed_form_down_to_the_poles():
    points = _points(np.random.default_rng(3), 2000)
    state = ChartPoints(SPH, points, metric=True)
    assert not state.failures
    r, theta = points[:, 0], points[:, 1]
    want = np.zeros((len(points), 3, 3))
    want[:, 0, 0] = 1.0
    want[:, 1, 1] = 1.0 / r ** 2
    want[:, 2, 2] = 1.0 / (r * np.sin(theta)) ** 2
    _assert_close_to_largest(state.dual, want, 1e-13)
    g = np.zeros_like(want)
    g[:, 0, 0], g[:, 1, 1], g[:, 2, 2] = 1.0, r ** 2, (r * np.sin(theta)) ** 2
    _assert_close_to_largest(state.g, g, 1e-13)


def test_cylindrical_dual_matches_its_closed_form():
    points = _points(np.random.default_rng(4), 2000)
    state = ChartPoints(CYL, points, metric=True)
    assert not state.failures
    want = np.zeros((len(points), 3, 3))
    want[:, 0, 0] = want[:, 2, 2] = 1.0
    want[:, 1, 1] = 1.0 / points[:, 0] ** 2
    _assert_close_to_largest(state.dual, want, 1e-13)


def test_frame_volume_is_r_squared_sin_theta():
    points = _points(np.random.default_rng(5), 2000)
    state = ChartPoints(SPH, points, transition=True)
    r, theta = points[:, 0], points[:, 1]
    want = r ** 2 * np.sin(theta)
    assert np.all(np.abs(_frame_volume(state.S) - want) <= 1e-14 * want)


def test_frame_volume_of_a_flat_chart_is_the_metric_volume():
    want = SKEW_METRIC.sqrt_det
    volume = _frame_volume(SKEW.jac_forward(np.zeros((4, 3))))
    assert np.all(np.abs(volume - want) <= 1e-15 * want)


# every point of _points(..., r_hi=1.9) lies inside each of these charts
LAYOUT_CHARTS = {"spherical": SPH, "cylindrical": CYL, "skew": SKEW,
                 "table": load_chart(TABLE_CONFIG)}


@pytest.mark.parametrize("name", sorted(LAYOUT_CHARTS))
def test_dual_is_exactly_symmetric_and_c_contiguous(name):
    points = _points(np.random.default_rng(6), 500, theta_lo=0.3, r_hi=1.9)
    state = ChartPoints(LAYOUT_CHARTS[name], points, metric=True)
    assert len(state.index) == len(points)
    assert state.dual.flags.c_contiguous
    assert np.array_equal(state.dual, np.swapaxes(state.dual, 1, 2))


@pytest.mark.parametrize("name", sorted(LAYOUT_CHARTS))
@pytest.mark.parametrize("n", [2, 7, 1000])
def test_one_point_dual_equals_its_row_in_a_batch(name, n):
    points = _points(np.random.default_rng(n), n, theta_lo=0.3, r_hi=1.9)
    batch = ChartPoints(LAYOUT_CHARTS[name], points, metric=True)
    for k in range(0, n, max(1, n // 25)):
        alone = ChartPoints(LAYOUT_CHARTS[name], points[k:k + 1], metric=True)
        assert np.array_equal(alone.dual[0], batch.dual[k])
        assert np.array_equal(alone.g[0], batch.g[k])


def _counting(chart: Chart, counter: list) -> Chart:
    """chart with jac_inverse wrapped to count its calls in counter."""
    @_batched
    def jac_inverse(y):
        counter.append(np.shape(y))
        return chart.jac_inverse(y)

    return Chart(chart.name, chart.forward, chart.inverse, chart.jac_forward, jac_inverse,
                 chart.jac_forward_partials, chart.domain, chart.sample_bounds)


@pytest.mark.parametrize("name", ["spherical", "table"])
def test_metric_field_never_calls_jac_inverse(name):
    calls = []
    chart = _counting(LAYOUT_CHARTS[name], calls)
    points = _points(np.random.default_rng(8), 20, theta_lo=0.3, r_hi=1.9)
    field = metric_field(chart)
    values, failures = field.evaluate_batch(points)
    assert not failures and values.shape == (20, 3, 3)
    for scheme in (DifferentiationScheme(2), DifferentiationScheme(4)):
        _partials(field, points, None, scheme, second=True)   # the audit's FD probes
    assert calls == []
    ChartPoints(chart, points, metric=True)   # the counter does count
    assert calls == [(20, 3)]


OPERATORS = {
    "grad": lambda chart: gradient_vector_in_chart(chart, SCALAR),
    "div": lambda chart: divergence_in_chart(chart, VECTOR),
    "rot": lambda chart: rotor_in_chart(chart, VECTOR),
    "laplace": lambda chart: laplacian_in_chart(chart, SCALAR),
    "nabla": lambda chart: covariant_derivative(chart, VECTOR),
    "nabla-g": lambda chart: covariant_derivative(chart, metric_field(chart)),
}


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_every_operator_fails_a_singular_frame_in_the_transition_stage(op):
    field = OPERATORS[op](CHARTS["degenerate"])
    singular = np.array([0.0, 0.1, 0.2])
    _, failures = field.evaluate_batch(np.array([[0.5, 0.1, 0.2], singular]))
    assert list(failures) == [1]
    assert isinstance(failures[1], DegenerateTransition)
    with pytest.raises(DegenerateTransition, match="are not mutually inverse"):
        field.evaluate_array(singular)
