"""Bases, transition matrices, and the specialized transformation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ShapeError,
    TransitionPair,
    change_point_coordinates,
    compose_transitions,
    transition_between,
)
from tensorcalc.tensors import _apply_to_axis
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

    def test_cartesian_system_dict_round_trip(self):
        system = CartesianSystem(Basis.from_vectors([1, 0, 0], [1, 1, 0], [0, 0, 1]),
                                 [1.0, -2.0, 0.5])
        d = system.as_dict()
        assert d["origin"] == [1.0, -2.0, 0.5]
        back = CartesianSystem.from_dict(d)
        assert np.array_equal(back.basis.columns, system.basis.columns)
        assert np.array_equal(back.origin, system.origin)

    def test_cartesian_system_takes_a_raw_matrix_as_its_basis(self):
        columns = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        system = CartesianSystem(columns)
        assert isinstance(system.basis, Basis)
        assert np.array_equal(system.basis.columns, columns)
        assert np.array_equal(system.origin, np.zeros(3))


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


# -- the one direction rule ------------------------------------------------------
#
# The formulas below are the laws as each was written out before they read
# tensors._slot_matrices; the new code must give their bits.


def _law_reference(law, m, pair, direction):
    S, T = pair.S, pair.T
    if direction == OLD_TO_NEW:
        return {"vector": lambda: T @ m, "covector": lambda: S.T @ m,
                "operator": lambda: T @ m @ S, "bilinear": lambda: S.T @ m @ S}[law]()
    return {"vector": lambda: S @ m, "covector": lambda: T.T @ m,
            "operator": lambda: S @ m @ T, "bilinear": lambda: T.T @ m @ T}[law]()


def _transform_reference(tensor, pair, direction):
    if direction == OLD_TO_NEW:
        up, low = pair.T, pair.S.T
    else:
        up, low = pair.S, pair.T.T
    array = tensor.array
    r, s = tensor.valency.r, tensor.valency.s
    for axis in range(r):
        array = _apply_to_axis(up, array, axis)
    for axis in range(r, r + s):
        array = _apply_to_axis(low, array, axis)
    return array


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 2), s=st.integers(0, 2), dim=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e4]),
       direction=st.sampled_from([OLD_TO_NEW, NEW_TO_OLD]))
def test_laws_keep_the_bits_of_their_written_out_formulas(r, s, dim, seed, scale, direction):
    rng = np.random.default_rng(seed)
    old = Basis(random_invertible(rng, dim))
    new = Basis(random_invertible(rng, dim))
    pair = transition_between(old, new)
    S = np.linalg.solve(old.columns, new.columns)
    assert np.array_equal(pair.S, S) and np.array_equal(pair.T, tc.invert_matrix(S))
    x = scale * rng.uniform(-1.0, 1.0, (dim,) * (r + s))
    tensor = DenseTensor((r, s), dim, x)
    assert np.array_equal(tensor.transform(pair, direction).array,
                          _transform_reference(tensor, pair, direction))
    for law, shape in (("vector", (dim,)), ("covector", (dim,)),
                       ("operator", (dim, dim)), ("bilinear", (dim, dim))):
        m = scale * rng.uniform(-1.0, 1.0, shape)
        got = getattr(tc, "transform_" + law)(m, pair, direction)
        assert np.array_equal(got, _law_reference(law, m, pair, direction))


@pytest.mark.parametrize("direction", ["sideways", "old->New", None])
def test_every_entry_point_rejects_a_bad_direction_alike(direction, rng):
    pair = random_pair(rng)
    message = f"direction must be 'old->new' or 'new->old', got {direction!r}"
    calls = [lambda: DenseTensor.from_array(np.ones((3, 3)), 2, 0).transform(pair, direction)]
    calls += [lambda law=law, arg=arg: getattr(tc, "transform_" + law)(arg, pair, direction)
              for law, arg in (("vector", np.ones(3)), ("covector", np.ones(3)),
                               ("operator", np.eye(3)), ("bilinear", np.eye(3)))]
    for call in calls:
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: Basis(np.zeros((2, 3))), "basis needs a square matrix, got shape (2, 3)"),
    (lambda: Basis.standard().vector(4), "basis has no vector 4"),
    (lambda: Basis.from_dict({}), "malformed basis record: 'columns'"),
    (lambda: CartesianSystem(Basis.standard(), [0.0, 0.0]),
     "origin shape (2,) does not match dim 3"),
    (lambda: transition_between(Basis.standard(3), Basis.standard(2)),
     "bases live in different dimensions"),
    (lambda: tc.transform_vector([1.0, 0.0], TransitionPair(np.eye(3), np.eye(3))),
     "expected a vector of length 3, got shape (2,)"),
    (lambda: tc.transform_operator(np.zeros((2, 3)), TransitionPair(np.eye(3), np.eye(3))),
     "expected a square matrix, got shape (2, 3)"),
    (lambda: BilinearForm(np.diag([np.nan, 1.0, 1.0])), "bilinear form entries must be finite"),
    (lambda: change_point_coordinates([0.0, 0.0, 0.0], CartesianSystem.standard(3),
                                      CartesianSystem.standard(2)),
     "systems live in different dimensions"),
], ids=["basis-non-square", "basis-vector-index", "basis-record", "origin-shape",
        "transition-dims", "vector-length", "operator-non-square", "bilinear-non-finite",
        "systems-dims"])
def test_rejected_input_names_the_fault(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == message
