"""The metric kernel: one Cholesky per Gram matrix.

Metric factors g = S^T S with LAPACK and takes the positive-definite test,
sqrt(det g) and the dual g^-1 = T T^T (T = S^-1) from the same factor.
These tests pin, for dimensions 1 to 4, that the dual inverts g, that it
is exactly symmetric and C-contiguous, that asymmetric, indefinite and
non-finite matrices fail with their messages, and the symmetry tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc import DegenerateMetric, Metric


def _spd_stack(seed, dim, count):
    """count random symmetric positive definite matrices, condition <= ~5 dim."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, (count, dim, dim))
    return np.swapaxes(b, 1, 2) @ b + dim * np.eye(dim)


stacks = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(spec=stacks)
def test_dual_inverts_the_metric(spec):
    for g in _spd_stack(*spec):
        metric = Metric(g)
        assert np.array_equal(metric.matrix, g)
        eye = np.eye(len(g))
        assert np.abs(metric.dual @ g - eye).max() <= 1e-12
        assert np.abs(g @ metric.dual - eye).max() <= 1e-12
        det = np.linalg.det(g)
        assert abs(metric.sqrt_det ** 2 - det) <= 1e-12 * det


@settings(max_examples=60, deadline=None)
@given(spec=stacks)
def test_dual_is_exactly_symmetric_and_c_contiguous(spec):
    for g in _spd_stack(*spec):
        dual = Metric(g).dual
        assert np.array_equal(dual, dual.T)
        assert dual.flags.c_contiguous


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bad_rows_fail_alone_with_the_metric_messages(dim):
    g = _spd_stack(dim, dim, 6)
    bad = g.copy()
    bad[3, -1, -1] = -bad[3, -1, -1]      # the last pivot is < 0
    bad[4, 0, 0] = np.nan                 # not finite
    messages = {3: "metric is not positive definite",
                4: "metric is not positive definite"}
    if dim > 1:
        bad[1, 0, -1] += 1e-6
        deviation = float(abs(bad[1, 0, -1] - bad[1, -1, 0]))
        messages[1] = f"metric is not symmetric (deviation {deviation!r})"
    for n, row in enumerate(bad):
        if n in messages:
            with pytest.raises(DegenerateMetric) as single:
                Metric(row)
            assert str(single.value) == messages[n]
        else:
            Metric(row)                   # the good matrices are accepted


@pytest.mark.parametrize("dim, where", [
    (dim, where) for dim in (1, 2, 3, 4)
    for where in ("diagonal", "off-diagonal", "both-off-diagonal")
    if dim > 1 or where == "diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_not_positive_definite(dim, where, value):
    g = _spd_stack(dim, dim, 1)[0]
    if where == "diagonal":
        g[-1, -1] = value
    else:
        g[0, -1] = value
        if where == "both-off-diagonal":
            g[-1, 0] = value
    with pytest.raises(DegenerateMetric) as caught:
        Metric(g)
    assert str(caught.value) == "metric is not positive definite"


def test_symmetry_tolerance_scales_with_the_entries():
    g = 1e6 * np.eye(3)
    g[0, 1] += 1e-7     # deviation 1e-7 <= 1e-12 * 1e6: symmetrised, accepted
    metric = Metric(g)
    assert metric.matrix[0, 1] == metric.matrix[1, 0] == 0.5e-7
    g[0, 1] += 1e-6     # deviation 1.1e-6 > 1e-12 * 1e6
    with pytest.raises(DegenerateMetric, match=r"^metric is not symmetric"):
        Metric(g)


def test_positive_pivots_pass_even_when_their_product_underflows():
    metric = Metric(1e-200 * np.eye(4))
    assert metric.sqrt_det == 0.0
    assert np.allclose(metric.dual, 1e200 * np.eye(4), rtol=1e-15, atol=0.0)
