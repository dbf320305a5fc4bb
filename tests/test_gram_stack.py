"""The metric kernel: one Cholesky over a stack of Gram matrices.

metric._gram_stack factors every matrix of a stack at once, g = L L^T, and
takes the positive-definite test, sqrt(det g) and the dual g^-1 = L^-T L^-1
from the same factor. These tests pin, for dimensions 1 to 4, that the dual
inverts g, that it is exactly symmetric, that a matrix gets the same bits
alone, inside any stack and through Metric, and that asymmetric and
indefinite matrices fail alone with the messages Metric raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc import DegenerateMetric, Metric
from tensorcalc.metric import _gram_stack


def _spd_stack(seed, dim, count):
    """count random symmetric positive definite matrices, condition <= ~5 dim."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, (count, dim, dim))
    return np.swapaxes(b, 1, 2) @ b + dim * np.eye(dim)


stacks = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(spec=stacks)
def test_dual_inverts_the_metric(spec):
    g = _spd_stack(*spec)
    sym, dual, sqrt_det, failures = _gram_stack(g)
    assert failures == {}
    assert np.array_equal(sym, g)
    eye = np.eye(g.shape[-1])
    assert np.abs(dual @ g - eye).max() <= 1e-12
    assert np.abs(g @ dual - eye).max() <= 1e-12
    det = np.linalg.det(g)
    assert np.all(np.abs(sqrt_det ** 2 - det) <= 1e-12 * det)


@settings(max_examples=60, deadline=None)
@given(spec=stacks)
def test_dual_is_exactly_symmetric_and_c_contiguous(spec):
    _, dual, _, _ = _gram_stack(_spd_stack(*spec))
    assert np.array_equal(dual, np.swapaxes(dual, 1, 2))
    assert dual.flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(spec=stacks)
def test_rows_equal_the_matrices_computed_alone(spec):
    g = _spd_stack(*spec)
    sym, dual, sqrt_det, _ = _gram_stack(g)
    for n in range(len(g)):
        for alone in (_gram_stack(g[n:n + 1]), _gram_stack(g[n])):
            assert np.array_equal(alone[0].reshape(sym[n].shape), sym[n])
            assert np.array_equal(alone[1].reshape(dual[n].shape), dual[n])
            assert np.array_equal(np.reshape(alone[2], ()), sqrt_det[n])
        metric = Metric(g[n])
        assert np.array_equal(metric.dual, dual[n])
        assert metric.sqrt_det == sqrt_det[n]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bad_rows_fail_alone_with_the_metric_messages(dim):
    g = _spd_stack(dim, dim, 6)
    good = _gram_stack(g)
    bad = g.copy()
    bad[3, -1, -1] = -bad[3, -1, -1]      # the last pivot is < 0
    bad[4, 0, 0] = np.nan                 # no pivot is > 0
    messages = {3: "metric is not positive definite",
                4: "metric is not positive definite"}
    if dim > 1:
        bad[1, 0, -1] += 1e-6
        deviation = float(abs(bad[1, 0, -1] - bad[1, -1, 0]))
        messages[1] = f"metric is not symmetric (deviation {deviation!r})"
    sym, dual, sqrt_det, failures = _gram_stack(bad)
    assert {n: str(exc) for n, exc in failures.items()} == messages
    for n in messages:
        with pytest.raises(DegenerateMetric, match=r"^metric is not") as single:
            Metric(bad[n])
        assert str(single.value) == messages[n]
        assert np.array_equal(sym[n], np.eye(dim))
        assert np.array_equal(dual[n], np.eye(dim))
        assert sqrt_det[n] == 1.0
    for n in sorted(set(range(6)) - set(messages)):
        assert np.array_equal(dual[n], good[1][n])
        assert sqrt_det[n] == good[2][n]


def test_symmetry_tolerance_scales_with_the_entries():
    g = 1e6 * np.eye(3)
    g[0, 1] += 1e-7     # deviation 1e-7 <= 1e-12 * 1e6: symmetrised, accepted
    metric = Metric(g)
    assert metric.matrix[0, 1] == metric.matrix[1, 0] == 0.5e-7


def test_positive_pivots_pass_even_when_their_product_underflows():
    sym, dual, sqrt_det, failures = _gram_stack(1e-200 * np.eye(4)[None])
    assert failures == {}
    assert sqrt_det[0] == 0.0
    assert np.allclose(dual[0], 1e200 * np.eye(4), rtol=1e-15, atol=0.0)
