"""Bases, transition matrices, and the specialized transformation laws."""

import numpy as np
import pytest

import tensorcalc as tc
from tensorcalc import (
    NEW_TO_OLD,
    OLD_TO_NEW,
    Basis,
    BilinearForm,
    CartesianSystem,
    DegenerateTransition,
    DenseTensor,
    ParameterError,
    TransitionPair,
    change_point_coordinates,
    compose_transitions,
    transition_between,
)
from conftest import random_invertible, random_pair


class TestBasis:
    def test_standard_is_identity_columns(self):
        assert np.array_equal(Basis.standard().columns, np.eye(3))

    def test_from_vectors_places_columns(self):
        b = Basis.from_vectors([1, 0, 0], [1, 1, 0], [0, 0, 1])
        assert np.array_equal(b.vector(2), [1.0, 1.0, 0.0])

    def test_coplanar_triple_rejected(self):
        with pytest.raises(DegenerateTransition):
            Basis.from_vectors([1, 0, 0], [0, 1, 0], [1, 1, 0])

    def test_dict_round_trip(self):
        b = Basis.from_vectors([1, 0, 0], [1, 1, 0], [0, 0, 1])
        d = b.as_dict()
        assert d["columns"] == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert np.array_equal(Basis.from_dict(d).columns, b.columns)


class TestTransitionBetween:
    def test_same_basis_gives_identity_pair(self):
        b = Basis.from_vectors([2, 0, 0], [0, 3, 0], [1, 0, 1])
        p = transition_between(b, b)
        assert np.allclose(p.S, np.eye(3), atol=1e-15)
        assert np.allclose(p.T, np.eye(3), atol=1e-15)

    def test_cyclic_permutation_columns(self):
        old = Basis.standard()
        new = Basis.from_vectors([0, 0, 1], [1, 0, 0], [0, 1, 0])
        p = transition_between(old, new)
        want = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert np.allclose(p.S, want, atol=1e-15)

    def test_degenerate_target_rejected(self):
        old = Basis.standard()
        with pytest.raises(DegenerateTransition):
            # e1-e2, e2-e3, e3-e1 sum to zero, hence coplanar
            cols = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)
            transition_between(old, Basis(cols))

    def test_three_bases_compose(self, rng):
        for _ in range(5):
            b1 = Basis(random_invertible(rng))
            b2 = Basis(random_invertible(rng))
            b3 = Basis(random_invertible(rng))
            direct = transition_between(b1, b3)
            chained = compose_transitions(
                transition_between(b1, b2), transition_between(b2, b3))
            assert np.max(np.abs(direct.S - chained.S)) < 1e-9


class TestSpecializedLaws:
    def test_identity_pair_fixes_everything(self, rng):
        ident = TransitionPair.from_direct(np.eye(3))
        x = rng.normal(size=3)
        f = rng.normal(size=(3, 3))
        assert np.allclose(tc.transform_vector(x, ident), x)
        assert np.allclose(tc.transform_covector(x, ident), x)
        assert np.allclose(tc.transform_operator(f, ident), f)
        assert np.allclose(tc.transform_bilinear(f, ident), f)

    def test_matrix_shortcuts_match_generic_transform(self, rng):
        pair = random_pair(rng)
        x = rng.normal(size=3)
        a = rng.normal(size=3)
        f = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        for direction in (OLD_TO_NEW, NEW_TO_OLD):
            assert np.allclose(
                tc.transform_vector(x, pair, direction),
                DenseTensor.from_array(x, 1, 0).transform(pair, direction).array,
                atol=1e-12)
            assert np.allclose(
                tc.transform_covector(a, pair, direction),
                DenseTensor.from_array(a, 0, 1).transform(pair, direction).array,
                atol=1e-12)
            assert np.allclose(
                tc.transform_operator(f, pair, direction),
                DenseTensor.from_array(f, 1, 1).transform(pair, direction).array,
                atol=1e-12)
            assert np.allclose(
                tc.transform_bilinear(b, pair, direction),
                DenseTensor.from_array(b, 0, 2).transform(pair, direction).array,
                atol=1e-12)

    def test_unknown_direction_rejected(self, rng):
        # as DenseTensor.transform does
        pair = random_pair(rng)
        for transform, arg in ((tc.transform_vector, np.ones(3)),
                               (tc.transform_covector, np.ones(3)),
                               (tc.transform_operator, np.eye(3)),
                               (tc.transform_bilinear, np.eye(3))):
            with pytest.raises(ParameterError):
                transform(arg, pair, "sideways")

    def test_operator_determinant_invariant(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            f = rng.normal(size=(3, 3))
            d0 = np.linalg.det(f)
            d1 = np.linalg.det(tc.transform_operator(f, pair))
            assert abs(d1 - d0) <= 1e-9 * max(1.0, abs(d0))

    def test_unit_operator_stays_unit(self, rng):
        pair = random_pair(rng)
        assert np.allclose(tc.transform_operator(np.eye(3), pair), np.eye(3),
                           atol=1e-12)

    def test_vector_under_cyclic_permutation(self):
        s = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        pair = TransitionPair(s, s.T)
        assert np.allclose(
            tc.transform_vector([1.0, 2.0, 3.0], pair), [3.0, 1.0, 2.0])


class TestPairingAndOperators:
    def test_pairing_value(self):
        assert tc.pair_covector_vector([1, 2, 3], [4, 5, 6]) == 32.0

    def test_zero_covector_pairs_to_zero(self, rng):
        assert tc.pair_covector_vector(np.zeros(3), rng.normal(size=3)) == 0.0

    def test_pairing_invariant_under_basis_change(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            a, x = rng.normal(size=3), rng.normal(size=3)
            before = tc.pair_covector_vector(a, x)
            after = tc.pair_covector_vector(
                tc.transform_covector(a, pair), tc.transform_vector(x, pair))
            assert abs(after - before) < 1e-12

    def test_identity_operator_application(self, rng):
        x = rng.normal(size=3)
        assert np.allclose(tc.apply_operator(np.eye(3), x), x)

    def test_diagonal_operator_application(self):
        got = tc.apply_operator(np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0])
        assert np.allclose(got, [1.0, 2.0, 3.0])

    def test_operator_on_basis_vector_reads_column(self, rng):
        f = rng.normal(size=(3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            assert np.allclose(tc.apply_operator(f, e), f[:, j])

    def test_composition_is_matrix_product(self, rng):
        f = np.diag([1.0, 2.0, 3.0])
        h = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        fh = tc.compose_operators(f, h)
        assert np.allclose(fh, f @ h)
        x = rng.normal(size=3)
        assert np.allclose(tc.apply_operator(fh, x),
                           tc.apply_operator(f, tc.apply_operator(h, x)),
                           atol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        f = random_invertible(rng)
        assert np.allclose(tc.compose_operators(f, np.linalg.inv(f)),
                           np.eye(3), atol=1e-9)


class TestBilinear:
    def test_zero_form_evaluates_to_zero(self, rng):
        assert tc.evaluate_bilinear(np.zeros((3, 3)), rng.normal(size=3),
                                    rng.normal(size=3)) == 0.0

    def test_identity_form_value(self):
        assert tc.evaluate_bilinear(np.eye(3), [1, 2, 3], [1, 1, 1]) == 6.0

    def test_evaluation_invariant_under_basis_change(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            a = rng.normal(size=(3, 3))
            x, y = rng.normal(size=3), rng.normal(size=3)
            before = tc.evaluate_bilinear(a, x, y)
            after = tc.evaluate_bilinear(
                tc.transform_bilinear(a, pair),
                tc.transform_vector(x, pair), tc.transform_vector(y, pair))
            assert abs(after - before) < 1e-12

    def test_symmetrize_averages_offdiagonal(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        s = tc.symmetrize(a)
        assert s[0, 1] == 0.5 and s[1, 0] == 0.5

    def test_quadratic_of_identity(self):
        assert tc.quadratic(np.eye(3), [1.0, 2.0, 3.0]) == 14.0

    def test_recovery_round_trips_symmetric_part(self, rng):
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            rebuilt = tc.recover_bilinear(lambda x: tc.quadratic(a, x))
            assert np.max(np.abs(rebuilt - tc.symmetrize(a))) < 1e-12

    def test_form_object_wraps_the_helpers(self, rng):
        a = rng.normal(size=(3, 3))
        form = BilinearForm(a)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert form.evaluate(x, y) == pytest.approx(
            tc.evaluate_bilinear(a, x, y), abs=1e-15)
        assert form.quadratic(x) == pytest.approx(tc.quadratic(a, x), abs=1e-15)
        assert np.allclose(form.symmetrized().matrix, tc.symmetrize(a))
        assert form.as_tensor().valency == tc.Valency(0, 2)
        back = BilinearForm.recover(form.quadratic)
        assert np.max(np.abs(back.matrix - tc.symmetrize(a))) < 1e-12


class TestPointCoordinates:
    def test_same_system_is_identity(self, rng):
        sys0 = CartesianSystem(Basis(random_invertible(rng)), rng.normal(size=3))
        p = rng.normal(size=3)
        assert np.allclose(change_point_coordinates(p, sys0, sys0), p,
                           atol=1e-12)

    def test_pure_translation(self):
        old = CartesianSystem.standard()
        new = CartesianSystem(Basis.standard(), np.array([1.0, 0.0, 0.0]))
        got = change_point_coordinates(np.zeros(3), old, new)
        assert np.allclose(got, [-1.0, 0.0, 0.0])

    def test_round_trip(self, rng):
        for _ in range(5):
            old = CartesianSystem(Basis(random_invertible(rng)),
                                  rng.normal(size=3))
            new = CartesianSystem(Basis(random_invertible(rng)),
                                  rng.normal(size=3))
            p = rng.normal(size=3)
            there = change_point_coordinates(p, old, new)
            back = change_point_coordinates(there, new, old)
            assert np.allclose(back, p, atol=1e-12)

    def test_explicit_pair_must_match_bases(self, rng):
        old = CartesianSystem.standard()
        new = CartesianSystem(Basis(random_invertible(rng)), np.zeros(3))
        pair = transition_between(old.basis, new.basis)
        direct = change_point_coordinates([1.0, 2.0, 3.0], old, new, pair)
        auto = change_point_coordinates([1.0, 2.0, 3.0], old, new)
        assert np.allclose(direct, auto, atol=1e-14)
