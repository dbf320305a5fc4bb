"""Metric tensor, index raising/lowering, volume tensors, cross product."""

import numpy as np
import pytest

import tensorcalc as tc
from tensorcalc import (
    OLD_TO_NEW,
    Basis,
    DegenerateMetric,
    DenseTensor,
    Metric,
    ShapeError,
    TensorIndexError,
    TransitionPair,
    UnsupportedDimension,
    Valency,
    cross_product,
    dual_volume_tensor,
    gram_from_basis,
    kronecker,
    levi_civita,
    lower_index,
    raise_index,
    volume_tensor,
)
from conftest import random_invertible, random_oriented, random_pair


def random_metric(rng, dim=3):
    b = random_invertible(rng, dim)
    return Metric(b.T @ b)


class TestMetric:
    def test_asymmetric_matrix_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(DegenerateMetric):
            Metric(m)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(DegenerateMetric):
            Metric(np.diag([1.0, -1.0, 1.0]))

    def test_dual_is_inverse(self, rng):
        g = random_metric(rng)
        assert np.max(np.abs(g.matrix @ g.dual - np.eye(3))) < 1e-9

    def test_json_round_trip(self, rng):
        g = random_metric(rng)
        back = Metric.from_dict(g.as_dict())
        assert np.allclose(back.matrix, g.matrix)

    @pytest.mark.parametrize("record", [
        {"dim": 3},
        {"matrix": [["a", 0.0], [0.0, 1.0]]},
        {"matrix": [[1.0, 0.0], [0.0]]},
    ], ids=["no-matrix", "non-numeric", "ragged"])
    def test_malformed_record_raises_shape_error(self, record):
        with pytest.raises(ShapeError, match=r"^malformed metric record: "):
            Metric.from_dict(record)

    def test_dual_transforms_contravariantly(self, rng):
        # inverse of the transformed matrix equals the (2,0)-transformed inverse
        for _ in range(5):
            g = random_metric(rng)
            pair = random_pair(rng)
            moved = tc.transform_bilinear(g.matrix, pair)
            dual_then_move = DenseTensor.from_array(g.dual, 2, 0).transform(
                pair).array
            assert np.max(np.abs(np.linalg.inv(moved) - dual_then_move)) < 1e-9


class TestGram:
    def test_orthonormal_basis_gives_identity(self):
        assert np.array_equal(gram_from_basis(Basis.standard()).matrix,
                              np.eye(3))

    def test_scaled_basis(self):
        b = Basis(2.0 * np.eye(3))
        assert np.allclose(gram_from_basis(b).matrix, 4.0 * np.eye(3))

    def test_skew_basis_pairwise_dots(self):
        b = Basis.from_vectors([1, 0, 0], [1, 1, 0], [0, 0, 1])
        want = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(gram_from_basis(b).matrix, want)

    def test_gram_transforms_as_bilinear_form(self, rng):
        old = Basis(random_invertible(rng))
        new = Basis(random_invertible(rng))
        pair = tc.transition_between(old, new)
        moved = tc.transform_bilinear(gram_from_basis(old).matrix, pair,
                                      OLD_TO_NEW)
        assert np.max(np.abs(moved - gram_from_basis(new).matrix)) < 1e-9


class TestDot:
    def test_orthogonal_vectors(self):
        g = Metric.euclidean()
        assert g.dot([1, 0, 0], [0, 1, 0]) == 0.0

    def test_squared_length(self):
        assert Metric.euclidean().dot([1, 2, 3], [1, 2, 3]) == 14.0

    def test_symmetry(self, rng):
        g = random_metric(rng)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert g.dot(x, y) == pytest.approx(g.dot(y, x), abs=1e-12)

    def test_positivity_on_gram_metrics(self, rng):
        for _ in range(10):
            g = gram_from_basis(Basis(random_invertible(rng)))
            x = rng.normal(size=3)
            assert g.dot(x, x) > 0
        assert abs(g.dot(np.zeros(3), np.zeros(3))) < 1e-12


class TestRaiseLower:
    def test_euclidean_raising_is_component_identity(self, rng):
        g = Metric.euclidean()
        t = DenseTensor.from_array(rng.normal(size=(3, 3)), 0, 2)
        assert np.allclose(raise_index(g, t, 1).array, t.array)

    def test_lower_then_raise_round_trips(self, rng):
        g = random_metric(rng)
        t = DenseTensor.from_array(rng.normal(size=(3, 3, 3)), 2, 1)
        for m in (1, 2):
            back = raise_index(g, lower_index(g, t, m), 1)
            # lowered slot lands first among lower slots, raising it again
            # restores it as the first upper slot
            want = np.moveaxis(t.array, m - 1, 0)
            assert np.max(np.abs(back.array - want)) < 1e-12

    def test_lower_kronecker_gives_metric_matrix(self, rng):
        g = random_metric(rng)
        got = lower_index(g, kronecker(3), 1)
        assert got.valency == Valency(0, 2)
        assert np.max(np.abs(got.array - g.matrix)) < 1e-12

    def test_raise_on_covector_uses_dual(self, rng):
        g = random_metric(rng)
        a = rng.normal(size=3)
        got = raise_index(g, DenseTensor.from_array(a, 0, 1), 1)
        assert np.allclose(got.array, g.dual @ a, atol=1e-12)

    def test_slot_out_of_range(self, rng):
        g = Metric.euclidean()
        t = DenseTensor.from_array(rng.normal(size=3), 1, 0)
        with pytest.raises(TensorIndexError):
            raise_index(g, t, 1)
        with pytest.raises(TensorIndexError):
            lower_index(g, t, 2)


class TestKronecker:
    def test_unit_matrix_components(self):
        d = kronecker(3)
        assert d.valency == Valency(1, 1)
        assert np.array_equal(d.array, np.eye(3))

    def test_invariant_under_any_basis_change(self, rng):
        d = kronecker(3)
        for _ in range(10):
            assert d.transform(random_pair(rng)).allclose(d, tol=1e-12)

    def test_contracts_to_dim(self):
        assert kronecker(3).contract(1, 1).item() == 3.0

    def test_acts_as_identity_operator(self, rng):
        x = rng.normal(size=3)
        assert np.allclose(tc.apply_operator(kronecker(3).array, x), x)

    def test_two_upper_variant_not_invariant(self):
        # a shear is non-orthogonal, so the raw two-upper unit array moves
        s = np.eye(3)
        s[0, 1] = 1.0
        pair = TransitionPair.from_direct(s)
        moved = DenseTensor.from_array(tc.kronecker_upper(3), 2, 0).transform(
            pair)
        assert not np.allclose(moved.array, np.eye(3), atol=1e-12)

    def test_two_lower_variant_not_invariant(self):
        s = np.eye(3)
        s[1, 0] = 0.5
        pair = TransitionPair.from_direct(s)
        moved = DenseTensor.from_array(tc.kronecker_lower(3), 0, 2).transform(
            pair)
        assert not np.allclose(moved.array, np.eye(3), atol=1e-12)


class TestLeviCivita:
    def test_even_odd_and_repeated(self):
        e = levi_civita()
        assert e[0, 1, 2] == 1.0
        assert e[1, 0, 2] == -1.0
        assert e[0, 0, 1] == 0.0

    def test_total_antisymmetry(self):
        e = levi_civita()
        assert np.array_equal(e, -np.swapaxes(e, 0, 1))
        assert np.array_equal(e, -np.swapaxes(e, 1, 2))

    def test_other_dimensions_rejected(self):
        with pytest.raises(UnsupportedDimension):
            levi_civita(2)
        with pytest.raises(UnsupportedDimension):
            levi_civita(4)


class TestVolume:
    def test_euclidean_volume_is_permutation_symbol(self):
        w = volume_tensor(Metric.euclidean())
        assert w.valency == Valency(0, 3)
        assert np.array_equal(w.array, levi_civita())

    def test_scaled_metric_scales_volume(self):
        w = volume_tensor(Metric(4.0 * np.eye(3)))
        assert w.get((), (1, 2, 3)) == pytest.approx(8.0, abs=1e-12)

    def test_dual_volume_uses_inverse_determinant(self):
        w = dual_volume_tensor(Metric(4.0 * np.eye(3)))
        assert w.valency == Valency(3, 0)
        assert w.get((1, 2, 3), ()) == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_volume_transforms_as_tensor_under_oriented_change(self, rng):
        for _ in range(5):
            g = random_metric(rng)
            s = random_oriented(rng)
            pair = TransitionPair.from_direct(s)
            moved_val = volume_tensor(g).transform(pair, OLD_TO_NEW)
            g_new = Metric(tc.transform_bilinear(g.matrix, pair, OLD_TO_NEW))
            rebuilt = volume_tensor(g_new)
            assert np.max(np.abs(moved_val.array - rebuilt.array)) < 1e-9


class TestCrossProduct:
    def test_right_hand_rule(self):
        g = Metric.euclidean()
        assert np.allclose(cross_product(g, [1, 0, 0], [0, 1, 0]), [0, 0, 1])

    def test_self_product_vanishes(self, rng):
        g = random_metric(rng)
        x = rng.normal(size=3)
        assert np.max(np.abs(cross_product(g, x, x))) < 1e-12

    def test_antisymmetry(self, rng):
        g = random_metric(rng)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(cross_product(g, x, y), -cross_product(g, y, x),
                           atol=1e-12)

    def test_result_orthogonal_to_both_factors(self, rng):
        for _ in range(10):
            g = random_metric(rng)
            x, y = rng.normal(size=3), rng.normal(size=3)
            z = cross_product(g, x, y)
            assert abs(g.dot(z, x)) < 1e-9
            assert abs(g.dot(z, y)) < 1e-9

    def test_skew_basis_result_maps_to_standard_cross(self, rng):
        # components computed in a positively-oriented skew basis, carried
        # back to the orthonormal basis, must match numpy's cross product
        for _ in range(10):
            s = random_oriented(rng)
            pair = TransitionPair.from_direct(s)
            g = gram_from_basis(Basis(s))
            xo, yo = rng.normal(size=3), rng.normal(size=3)
            x = tc.transform_vector(xo, pair, OLD_TO_NEW)
            y = tc.transform_vector(yo, pair, OLD_TO_NEW)
            z = cross_product(g, x, y)
            back = tc.transform_vector(z, pair, "new->old")
            assert np.max(np.abs(back - np.cross(xo, yo))) < 1e-9
