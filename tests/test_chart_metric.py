"""The chart metric: g^-1 from the dual frame, sqrt(g) from the frame.

The chart operators take g = S^T S and its inverse as T T^T, the Gram
matrix of the dual frame (metric._gram, _dual_gram), from the S and T that
ChartPoints' transition stage has checked against each other; the rotor
takes sqrt(det g) as |det S|. These tests pin the dual against closed forms down to the spherical poles, its layout and its bits, the
volume against r^2 sin(theta), and the stage contract: metric_field never
evaluates T, and every chart operator fails a singular S in the transition
stage. metric_in_chart is Metric.from_frame of the checked pair at one
point: it fails where jacobians does and equals the ChartPoints rows bit
for bit. The Cartesian operators on flat charts are pinned bit for bit.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tensorcalc as tc
from tensorcalc import (
    Chart,
    ChartPoints,
    DegenerateMetric,
    DegenerateTransition,
    DifferentiationScheme,
    Metric,
    builtin_chart,
    covariant_derivative,
    divergence,
    divergence_in_chart,
    gradient_vector,
    gradient_vector_in_chart,
    laplacian,
    laplacian_in_chart,
    load_chart,
    metric_field,
    metric_in_chart,
    nabla,
    rotor,
    rotor_in_chart,
)
from tensorcalc.curvilinear import _flat_chart, _frame_volume
from tensorcalc.fields import _batched, _partials
from tensorcalc.metric import _LAST, _NEXT, _dual_gram, _gram

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
    state = ChartPoints(SPH, points, transition=True)
    assert not state.failures
    r, theta = points[:, 0], points[:, 1]
    want = np.zeros((len(points), 3, 3))
    want[:, 0, 0] = 1.0
    want[:, 1, 1] = 1.0 / r ** 2
    want[:, 2, 2] = 1.0 / (r * np.sin(theta)) ** 2
    _assert_close_to_largest(_dual_gram(state.T), want, 1e-13)
    g = np.zeros_like(want)
    g[:, 0, 0], g[:, 1, 1], g[:, 2, 2] = 1.0, r ** 2, (r * np.sin(theta)) ** 2
    _assert_close_to_largest(_gram(state.S), g, 1e-13)


def test_cylindrical_dual_matches_its_closed_form():
    points = _points(np.random.default_rng(4), 2000)
    state = ChartPoints(CYL, points, transition=True)
    assert not state.failures
    want = np.zeros((len(points), 3, 3))
    want[:, 0, 0] = want[:, 2, 2] = 1.0
    want[:, 1, 1] = 1.0 / points[:, 0] ** 2
    _assert_close_to_largest(_dual_gram(state.T), want, 1e-13)


def test_frame_volume_is_r_squared_sin_theta():
    points = _points(np.random.default_rng(5), 2000)
    state = ChartPoints(SPH, points, transition=True)
    r, theta = points[:, 0], points[:, 1]
    want = r ** 2 * np.sin(theta)
    assert np.all(np.abs(_frame_volume(state.S) - want) <= 1e-14 * want)


def _triple_product_by_reduce(S):
    """|E_1 . (E_2 x E_3)| with four gathers and a generator reduce: the
    form _frame_volume had before it gathered its operands at once."""
    cross = S[..., _NEXT, 1] * S[..., _LAST, 2] - S[..., _LAST, 1] * S[..., _NEXT, 2]
    return np.abs(functools.reduce(np.add, (S[..., i, 0] * cross[..., i] for i in range(3))))


# any finite entry, zeros of both signs and subnormals among them; products
# of the largest overflow, so inf and nan results are covered too
_entries = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 1000]).flatmap(
    lambda n: arrays(np.float64, (n, 3, 3), elements=_entries)))
def test_frame_volume_keeps_the_bits_of_the_reduce_form(S):
    with np.errstate(all="ignore"):
        got, want = _frame_volume(S), _triple_product_by_reduce(S)
        alone = [_frame_volume(frame) for frame in S[:3]]
    assert got.shape == want.shape == (len(S),)
    assert got.tobytes() == want.tobytes()
    assert all(a.tobytes() == w.tobytes() for a, w in zip(alone, want))


def test_flat_chart_frame_is_the_lapack_cholesky_factor_and_its_inverse():
    points = np.zeros((3, 3))
    S = np.linalg.cholesky(SKEW_METRIC.matrix).T
    assert np.array_equal(SKEW.jac_forward(points), np.broadcast_to(S, (3, 3, 3)))
    assert np.array_equal(SKEW.jac_inverse(points),
                          np.broadcast_to(np.linalg.inv(S), (3, 3, 3)))


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
    state = ChartPoints(LAYOUT_CHARTS[name], points, transition=True)
    assert len(state.index) == len(points)
    dual = _dual_gram(state.T)
    assert dual.flags.c_contiguous
    assert np.array_equal(dual, np.swapaxes(dual, 1, 2))


@pytest.mark.parametrize("name", sorted(LAYOUT_CHARTS))
@pytest.mark.parametrize("n", [2, 7, 1000])
def test_one_point_dual_equals_its_row_in_a_batch(name, n):
    points = _points(np.random.default_rng(n), n, theta_lo=0.3, r_hi=1.9)
    batch = ChartPoints(LAYOUT_CHARTS[name], points, transition=True)
    dual, g = _dual_gram(batch.T), _gram(batch.S)
    for k in range(0, n, max(1, n // 25)):
        alone = ChartPoints(LAYOUT_CHARTS[name], points[k:k + 1], transition=True)
        assert np.array_equal(_dual_gram(alone.T)[0], dual[k])
        assert np.array_equal(_gram(alone.S)[0], g[k])


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
    ChartPoints(chart, points, transition=True)   # the counter does count
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


# The Cartesian operators at three fixed points, as float.hex of their
# components in row-major order: laplacian, rotor and gradient_vector over
# SKEW_METRIC's flat chart, divergence and nabla over the identity's. Both
# fields have analytic partials, so no finite difference enters.
CARTESIAN_POINTS = np.array([[0.4, -0.7, 1.1], [-1.3, 0.25, 0.6], [2.0, 1.5, -0.9]])
CARTESIAN_BITS = {
    "laplacian": ["-0x1.e6f4385a3aff4p-1", "-0x1.f7b1dee7af9e8p-1", "0x1.90da161a3e4a0p-1"],
    "rotor": ["0x1.b2b2cfef4df68p-3", "0x1.84966356c3c16p-5", "0x1.049c6e751fb0bp-1",
              "0x1.b8ae267a51819p-4", "-0x1.01561185e2fadp-1", "-0x1.6c8639d453cd1p-3",
              "-0x1.adf939e7f6eaep-2", "0x1.1a82fdcb8a6d6p-1", "0x1.1268ad6b2816ap+0"],
    "gradient_vector": ["-0x1.a1ded9e00216dp-1", "0x1.3d29853ef0876p-2", "-0x1.7d8b52e82ebd6p-2",
                        "-0x1.7a703b5a09e28p+0", "0x1.8bb03ea6643aap+1", "-0x1.afdd341e00666p-1",
                        "0x1.f44f2f2782edap+0", "-0x1.f738532c2be8bp+2", "0x1.23d6d0b612d99p+1"],
    "divergence": ["0x1.07624a4209c2dp+0", "-0x1.95a7eeffd2a2cp+1", "0x1.20290ac9a724fp+2"],
    "nabla": ["0x1.0a3d70a3d70a4p+0", "0x0.0p+0", "0x0.0p+0",
              "0x1.87996529f9d93p-2", "0x1.07df1edd1ae2dp-3", "0x0.0p+0",
              "0x0.0p+0", "0x1.c28f5c28f5c2ap-3", "-0x1.1eb851eb851ebp-3",
              "-0x1.b0a3d70a3d70bp+1", "0x0.0p+0", "0x0.0p+0",
              "0x1.f01549f7deea1p-2", "0x1.49581a404678ep-3", "0x0.0p+0",
              "0x0.0p+0", "0x1.eb851eb851eb8p-4", "0x1.999999999999ap-5",
              "0x1.4cccccccccccdp+2", "0x0.0p+0", "0x0.0p+0",
              "0x1.21bd54fc5f9a7p-5", "-0x1.feb7a9b2c6d8bp-1", "0x0.0p+0",
              "0x0.0p+0", "-0x1.70a3d70a3d70bp-3", "0x1.3333333333334p-2"],
}
CARTESIAN = {
    "laplacian": lambda: laplacian(SKEW_METRIC, SCALAR),
    "rotor": lambda: rotor(SKEW_METRIC, VECTOR),
    "gradient_vector": lambda: gradient_vector(SKEW_METRIC, SCALAR),
    "divergence": lambda: divergence(VECTOR),
    "nabla": lambda: nabla(VECTOR),
}


@pytest.mark.parametrize("op", sorted(CARTESIAN))
def test_cartesian_operators_keep_their_bits(op):
    values, failures = CARTESIAN[op]().evaluate_batch(CARTESIAN_POINTS)
    assert not failures
    assert [float(v).hex() for v in values.ravel()] == CARTESIAN_BITS[op]


def test_metric_in_chart_fails_a_singular_frame_as_jacobians_does():
    # x = (y1^3, y2, y3) through plain callables: at y1 = 0 the FD frame is
    # near singular (g_11 ~ 1e-21) and the FD inverse Jacobian blows up
    cube = Chart("cube", forward=lambda y: np.array([y[0] ** 3, y[1], y[2]]),
                 inverse=lambda x: np.array([np.cbrt(x[0]), x[1], x[2]]))
    y = [0.0, 0.3, 0.4]
    with pytest.raises(DegenerateTransition) as want:
        tc.jacobians(cube, y)
    with pytest.raises(DegenerateTransition) as got:
        metric_in_chart(cube, y)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(LAYOUT_CHARTS))
def test_metric_in_chart_is_the_chart_points_metric_bit_for_bit(name):
    chart = LAYOUT_CHARTS[name]
    points = _points(np.random.default_rng(9), 400, theta_lo=0.3, r_hi=1.9)
    state = ChartPoints(chart, points, transition=True)
    assert len(state.index) == len(points)
    g, dual, volume = _gram(state.S), _dual_gram(state.T), _frame_volume(state.S)
    for k, y in enumerate(points):
        metric = metric_in_chart(chart, y)
        assert np.array_equal(metric.matrix, g[k])
        assert np.array_equal(metric.dual, dual[k])
        assert metric.sqrt_det == volume[k]


def test_from_frame_is_the_gram_matrix_of_the_frame():
    rng = np.random.default_rng(10)
    for dim in (1, 2, 3, 4):
        S = rng.uniform(-1.0, 1.0, (dim, dim)) + 2.0 * np.eye(dim)
        pair = tc.TransitionPair.from_direct(S)
        metric = Metric.from_frame(pair)
        assert metric.dim == dim
        assert np.array_equal(metric.matrix, np.ascontiguousarray(S.T) @ S)
        assert np.array_equal(metric.dual, pair.T @ np.ascontiguousarray(pair.T.T))
        assert metric.S is pair.S and metric.T is pair.T
        det = abs(np.linalg.det(S))
        assert abs(metric.sqrt_det - det) <= 1e-14 * det


# x1 = 1e200 y1: S and T are finite and mutually inverse, but g11 = 1e400
# overflows. Tier-1 turns a RuntimeWarning into an error, so these tests
# also check that no numpy warning leaves the library
HUGE = load_chart({"name": "huge",
                   "forward": [[{"coeff": 1e200, "powers": [1, 0, 0]}],
                               [{"coeff": 1.0, "powers": [0, 1, 0]}],
                               [{"coeff": 1.0, "powers": [0, 0, 1]}]],
                   "inverse": [[{"coeff": 1e-200, "powers": [1, 0, 0]}],
                               [{"coeff": 1.0, "powers": [0, 1, 0]}],
                               [{"coeff": 1.0, "powers": [0, 0, 1]}]]})


def test_metric_field_fails_a_row_whose_metric_overflows():
    values, failures = metric_field(HUGE).evaluate_batch([[0.5, 0.1, 0.2], [0.5, 0.1, 0.3]])
    assert list(failures) == [0, 1]
    assert {str(exc) for exc in failures.values()} == {"tensor components must all be finite"}
    assert np.isnan(values).all()


def test_metric_in_chart_fails_an_overflowing_metric_as_metric_does():
    with pytest.raises(DegenerateMetric, match="^metric is not positive definite$"):
        metric_in_chart(HUGE, [0.5, 0.1, 0.2])
    with pytest.raises(DegenerateMetric, match="^metric is not positive definite$"):
        Metric.from_frame(tc.TransitionPair(np.diag([1e200, 1.0, 1.0]),
                                            np.diag([1e-200, 1.0, 1.0])))
    with pytest.raises(DegenerateMetric, match="^metric is not positive definite$"):
        Metric(np.diag([np.inf, 1.0, 1.0]))


def test_a_metric_frame_is_read_only():
    metric = SKEW_METRIC
    assert np.abs(metric.S.T @ metric.S - metric.matrix).max() <= 1e-14
    assert np.abs(metric.T @ metric.S - np.eye(3)).max() <= 1e-14
    for name in ("matrix", "dual", "S", "T"):
        with pytest.raises(ValueError):
            getattr(metric, name)[0, 0] = 1.0
        with pytest.raises(AttributeError):
            setattr(metric, name, None)
    with pytest.raises(AttributeError):
        metric.sqrt_det = 1.0
