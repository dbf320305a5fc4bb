"""Dense tensor storage, algebra, and the basis-change transformation law."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorcalc as tc
from tensorcalc import (
    NEW_TO_OLD,
    OLD_TO_NEW,
    CapacityError,
    DenseTensor,
    DegenerateTransition,
    ShapeError,
    TensorIndexError,
    TransitionPair,
    Valency,
    compose_transitions,
)
from conftest import random_invertible, random_pair


class TestConstruction:
    def test_zeros_vector(self):
        t = tc.zeros(Valency(1, 0), 3)
        assert t.valency == Valency(1, 0)
        assert t.dim == 3
        assert np.array_equal(t.components, np.zeros(3))

    def test_zeros_scalar_holds_single_entry(self):
        t = tc.zeros(Valency(0, 0), 3)
        assert t.components.shape == (1,)
        assert t.item() == 0.0

    def test_zeros_mixed_valency_length(self):
        t = tc.zeros(Valency(1, 1), 3)
        assert t.components.shape == (9,)

    def test_order_over_maximum_rejected(self):
        with pytest.raises(CapacityError):
            tc.zeros(Valency(5, 4), 3)

    def test_scalar_constructor(self):
        t = DenseTensor.scalar(2.5)
        assert t.item() == 2.5
        assert t.valency == Valency(0, 0)

    def test_from_array_shape_checked(self):
        with pytest.raises(ShapeError):
            DenseTensor.from_array(np.zeros((3, 4)), 1, 1)

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ShapeError):
            DenseTensor.from_array(np.array([1.0, np.nan, 0.0]), 1, 0)

    def test_components_are_immutable(self):
        t = DenseTensor.from_array(np.array([1.0, 2.0, 3.0]), 1, 0)
        with pytest.raises(ValueError):
            t.array[0] = 9.0


def _nested():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    return rows, lambda: rows[1].__setitem__(2, -1)


def _flat():
    values = list(range(1, 10))
    return values, lambda: values.__setitem__(0, -1)


def _array(make):
    """components made by make(base) from a writable base, and a scribble
    over that base."""
    def build():
        base = np.arange(1.0, 10.0).reshape(3, 3)
        return make(base), lambda: base.fill(-1.0)
    return build


def _own(make):
    """components make() builds, and a scribble over them."""
    def build():
        components = make()
        return components, lambda: components.fill(-1)
    return build


def _read_only(base):
    view = base[:]
    view.flags.writeable = False
    return view


class TestConstructorContract:
    """Whatever the components' type, layout or ownership, the stored array
    is a private read-only float64 C-ordered copy of them."""

    CASES = {
        "list": ((0, 2), _nested),
        "flat list": ((1, 1), _flat),
        "int array": ((0, 2), _own(lambda: np.arange(1, 10).reshape(3, 3))),
        "C array": ((1, 1), _array(lambda base: base)),
        "F array": ((1, 1), _array(np.asfortranarray)),
        "transposed view": ((2, 0), _array(lambda base: base.T)),
        "negative strides": ((0, 2), _array(lambda base: base[::-1, ::-1])),
        "read-only": ((1, 1), _array(_read_only)),
        "0-d array": ((0, 0), _own(lambda: np.array(2.5))),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_stored_array_is_a_private_frozen_c_copy(self, case):
        valency, build = self.CASES[case]
        components, scribble = build()
        order = sum(valency)
        want = np.array(components, dtype=float).reshape((3,) * order)
        t = DenseTensor(valency, 3, components)
        stored = t.array
        assert stored.dtype == np.float64
        assert stored.shape == (3,) * order
        assert stored.flags.c_contiguous and stored.flags.owndata
        assert not stored.flags.writeable
        assert np.array_equal(stored, want)
        scribble()
        assert np.array_equal(t.array, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3, 3), (9,), ()])
    def test_non_finite_components_are_refused(self, bad, shape):
        components = np.ones(shape)
        components[(0,) * len(shape)] = bad
        valency = (1, 1) if shape else (0, 0)
        for given in (components, components.tolist()):
            with pytest.raises(ShapeError, match="^tensor components must all be finite$"):
                DenseTensor(valency, 3, given)


class TestGetSet:
    def test_set_then_get_round_trips(self):
        t = tc.zeros(Valency(1, 1), 3)
        t2 = t.set((1,), (2,), 7.5)
        assert t2.get((1,), (2,)) == 7.5

    def test_set_returns_new_value_leaves_original(self):
        t = tc.zeros(Valency(1, 0), 3)
        t2 = t.set((2,), (), 4.0)
        assert t.get((2,)) == 0.0
        assert t2.get((2,)) == 4.0

    def test_zero_index_rejected(self):
        t = tc.zeros(Valency(1, 0), 3)
        with pytest.raises(TensorIndexError):
            t.get((0,))

    def test_index_past_dim_rejected(self):
        t = tc.zeros(Valency(1, 0), 3)
        with pytest.raises(TensorIndexError):
            t.get((4,))

    def test_wrong_arity_rejected(self):
        t = tc.zeros(Valency(1, 1), 3)
        with pytest.raises(TensorIndexError):
            t.get((1,), ())

    def test_index_error_is_catchable_as_builtin(self):
        t = tc.zeros(Valency(1, 0), 3)
        with pytest.raises(IndexError):
            t.get((0,))

    def test_row_major_layout_upper_first(self):
        # flat slot 1*3+2 (0-based) holds the upper=2, lower=3 entry
        t = tc.zeros(Valency(1, 1), 3).set((2,), (3,), 5.0)
        assert t.components[1 * 3 + 2] == 5.0


class TestAlgebra:
    def test_scale_by_zero_gives_zero_tensor(self):
        t = DenseTensor.from_array(np.arange(9.0).reshape(3, 3), 1, 1)
        assert t.scale(0.0).allclose(tc.zeros(Valency(1, 1), 3))

    def test_scale_by_one_is_identity(self):
        t = DenseTensor.from_array(np.arange(3.0), 1, 0)
        assert t.scale(1.0).allclose(t)

    def test_scale_by_minus_one_twice_restores(self):
        t = DenseTensor.from_array(np.arange(3.0), 0, 1)
        assert t.scale(-1.0).scale(-1.0).allclose(t)

    def test_add_zero_is_identity(self):
        t = DenseTensor.from_array(np.arange(3.0), 1, 0)
        assert t.add(tc.zeros(Valency(1, 0), 3)).allclose(t)

    def test_add_negation_gives_zero(self):
        t = DenseTensor.from_array(np.arange(3.0), 1, 0)
        assert t.add(t.scale(-1.0)).allclose(tc.zeros(Valency(1, 0), 3))

    def test_add_valency_mismatch_rejected(self):
        a = tc.zeros(Valency(1, 0), 3)
        b = tc.zeros(Valency(0, 1), 3)
        with pytest.raises(ShapeError):
            a.add(b)

    def test_operator_sugar_matches_methods(self):
        a = DenseTensor.from_array(np.arange(3.0), 1, 0)
        b = DenseTensor.from_array(np.ones(3), 1, 0)
        assert (a + b).allclose(a.add(b))
        assert (a - b).allclose(a.add(b.scale(-1.0)))
        assert (2.0 * a).allclose(a.scale(2.0))
        assert (-a).allclose(a.scale(-1.0))


class TestTensorProduct:
    def test_basis_vector_times_basis_covector(self):
        x = DenseTensor.from_array(np.array([1.0, 0.0, 0.0]), 1, 0)
        a = DenseTensor.from_array(np.array([0.0, 1.0, 0.0]), 0, 1)
        p = x.tensor_product(a)
        assert p.valency == Valency(1, 1)
        assert p.get((1,), (2,)) == 1.0
        assert np.count_nonzero(p.components) == 1

    def test_product_is_not_commutative(self):
        x = DenseTensor.from_array(np.array([1.0, 0.0, 0.0]), 1, 0)
        y = DenseTensor.from_array(np.array([0.0, 1.0, 0.0]), 1, 0)
        assert not x.tensor_product(y).allclose(y.tensor_product(x))

    def test_scalar_product_is_scaling(self):
        t = DenseTensor.from_array(np.arange(9.0).reshape(3, 3), 1, 1)
        two = DenseTensor.scalar(2.0)
        assert two.tensor_product(t).allclose(t.scale(2.0))
        assert t.tensor_product(two).allclose(t.scale(2.0))

    def test_combined_order_over_maximum_rejected(self):
        a = tc.zeros(Valency(2, 2), 2)
        b = tc.zeros(Valency(3, 2), 2)
        with pytest.raises(CapacityError):
            a.tensor_product(b)

    def test_upper_slots_collect_before_lower(self):
        # (1,1) x (1,0): upper slots are (first factor upper, second factor
        # upper) and the lone lower slot comes from the first factor
        a = tc.zeros(Valency(1, 1), 2).set((1,), (2,), 3.0)
        v = tc.zeros(Valency(1, 0), 2).set((2,), (), 5.0)
        p = a.tensor_product(v)
        assert p.valency == Valency(2, 1)
        assert p.get((1, 2), (2,)) == 15.0


class TestContraction:
    def test_kronecker_trace_is_dim(self):
        assert tc.kronecker(3).contract(1, 1).item() == 3.0

    def test_pairing_via_product_and_contraction(self):
        a = DenseTensor.from_array(np.array([1.0, 2.0, 3.0]), 0, 1)
        x = DenseTensor.from_array(np.array([4.0, 5.0, 6.0]), 1, 0)
        paired = x.tensor_product(a).contract(1, 1)
        assert paired.item() == pytest.approx(32.0, abs=1e-15)

    def test_matrix_trace(self):
        t = DenseTensor.from_array(np.diag([1.0, 2.0, 3.0]), 1, 1)
        assert t.contract(1, 1).item() == 6.0

    def test_contract_reduces_valency(self):
        t = tc.zeros(Valency(2, 2), 3)
        assert t.contract(2, 1).valency == Valency(1, 1)

    def test_slot_out_of_range_rejected(self):
        t = tc.zeros(Valency(1, 1), 3)
        with pytest.raises(TensorIndexError):
            t.contract(2, 1)
        with pytest.raises(TensorIndexError):
            t.contract(0, 1)

    def test_contract_needs_both_kinds_of_slots(self):
        t = tc.zeros(Valency(2, 0), 3)
        with pytest.raises(TensorIndexError):
            t.contract(1, 1)

    def test_remaining_slots_keep_their_order(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(3, 3, 3, 3))
        t = DenseTensor.from_array(arr, 2, 2)
        got = t.contract(1, 2)
        expect = np.einsum("aibi->ab", np.moveaxis(arr, 0, 1))
        # summing upper slot 1 against lower slot 2 leaves (upper2, lower1)
        assert np.allclose(got.array, np.einsum("iaji->aj", arr), atol=1e-15)
        del expect


class TestTransitionPair:
    def test_inverse_invariant_enforced(self):
        with pytest.raises(DegenerateTransition):
            TransitionPair(np.eye(3), 2 * np.eye(3))

    def test_singular_direct_matrix_rejected(self):
        s = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
        # columns sum to zero, determinant 0
        with pytest.raises(DegenerateTransition):
            TransitionPair.from_direct(s)

    def test_tiny_but_wellscaled_matrix_accepted(self):
        TransitionPair.from_direct(1e-8 * np.eye(3))

    def test_swapped_exchanges_roles(self, rng):
        p = random_pair(rng)
        q = p.swapped()
        assert np.array_equal(q.S, p.T)
        assert np.array_equal(q.T, p.S)

    def test_compose_with_identity(self, rng):
        p = random_pair(rng)
        ident = TransitionPair.from_direct(np.eye(3))
        c = compose_transitions(p, ident)
        assert np.allclose(c.S, p.S, atol=1e-15)
        assert np.allclose(c.T, p.T, atol=1e-15)

    def test_compose_with_own_inverse_is_identity(self, rng):
        p = random_pair(rng)
        c = compose_transitions(p, p.swapped())
        assert np.allclose(c.S, np.eye(3), atol=1e-12)

    def test_composed_matrices_stay_mutually_inverse(self, rng):
        for _ in range(5):
            c = compose_transitions(random_pair(rng), random_pair(rng))
            assert np.max(np.abs(c.T @ c.S - np.eye(3))) < 1e-9


def _regular(matrix) -> bool:
    try:
        tc.invert_matrix(matrix)
    except DegenerateTransition:
        return False
    return True


def _entries():
    """Matrix entries that no scaling by 2^+-500 overflows or underflows."""
    return st.one_of(st.just(0.0), st.floats(1e-100, 1.0), st.floats(-1.0, -1e-100))


class TestSingularityTest:
    """The Hadamard ratio |det| / prod of row norms, at any finite scale."""

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1e-170, 1e-300])
    def test_a_scaled_regular_matrix_is_regular_and_raises_no_warning(self, scale):
        matrix = np.diag([scale, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(tc.invert_matrix(matrix), np.diag([1.0 / scale, 1.0, 1.0]))
            assert np.array_equal(tc.Basis(matrix).columns, matrix)
            assert np.array_equal(TransitionPair.from_direct(matrix).S, matrix)

    @pytest.mark.parametrize("bad, det", [(np.nan, "nan"), (np.inf, "inf")])
    def test_a_matrix_with_a_non_finite_entry_is_singular(self, bad, det):
        matrix = np.diag([bad, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTransition, match=f"det={det}"):
                tc.invert_matrix(matrix)
            with pytest.raises(DegenerateTransition, match=f"det={det}"):
                TransitionPair.from_direct(matrix)
            with pytest.raises(DegenerateTransition, match="do not form a basis"):
                tc.Basis(matrix)
            matrix[0, 1] = bad  # a NaN det
            with pytest.raises(DegenerateTransition, match="det=nan"):
                tc.invert_matrix(matrix)

    def test_the_message_gives_the_matrix_own_det(self):
        matrix = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0], [0.0, 0.0, 1.0]])
        for scaled in (matrix, 2.0 ** 500 * matrix):
            with pytest.raises(DegenerateTransition) as info:
                tc.invert_matrix(scaled)
            with np.errstate(over="ignore"):  # 2^1500 det(matrix) is inf
                det = float(np.linalg.det(scaled))
            assert str(info.value) == f"matrix is singular within tolerance (det={det!r})"

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(_entries(), min_size=9, max_size=9),
           row=st.sampled_from([None, 0, 1, 2]), power=st.sampled_from([-500, 500]))
    def test_scaling_the_matrix_or_a_row_never_changes_the_verdict(self, entries, row,
                                                                   power):
        matrix = np.array(entries).reshape(3, 3)
        scaled = matrix.copy()
        if row is None:
            scaled *= 2.0 ** power
        else:
            scaled[row] *= 2.0 ** power
        assert _regular(scaled) == _regular(matrix)
        if np.linalg.cond(matrix) <= 20.0:
            assert _regular(scaled)


class TestTransform:
    def test_identity_pair_fixes_all_valencies(self, rng):
        ident = TransitionPair.from_direct(np.eye(3))
        for r in range(3):
            for s in range(3):
                arr = rng.normal(size=(3,) * (r + s))
                t = DenseTensor.from_array(arr, r, s)
                assert t.transform(ident, OLD_TO_NEW).allclose(t)

    def test_vector_under_cyclic_permutation(self):
        # new basis vectors: first = old third, second = old first,
        # third = old second; columns of S hold the new vectors
        s = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        pair = TransitionPair(s, s.T)
        x = DenseTensor.from_array(np.array([1.0, 2.0, 3.0]), 1, 0)
        got = x.transform(pair, OLD_TO_NEW)
        assert np.allclose(got.components, [3.0, 1.0, 2.0], atol=1e-15)

    def test_round_trip_restores_components(self, rng):
        for _ in range(10):
            pair = random_pair(rng)
            arr = rng.normal(size=(3, 3, 3))
            t = DenseTensor.from_array(arr, 2, 1)
            back = t.transform(pair, OLD_TO_NEW).transform(pair, NEW_TO_OLD)
            assert back.allclose(t, tol=1e-12)

    def test_two_steps_equal_composition(self, rng):
        for _ in range(10):
            p12, p23 = random_pair(rng), random_pair(rng)
            arr = rng.normal(size=(3, 3, 3, 3))
            t = DenseTensor.from_array(arr, 2, 2)
            stepped = t.transform(p12, OLD_TO_NEW).transform(p23, OLD_TO_NEW)
            oneshot = t.transform(compose_transitions(p12, p23), OLD_TO_NEW)
            assert stepped.allclose(oneshot, tol=1e-12)

    def test_transform_is_linear(self, rng):
        pair = random_pair(rng)
        a = DenseTensor.from_array(rng.normal(size=(3, 3)), 1, 1)
        b = DenseTensor.from_array(rng.normal(size=(3, 3)), 1, 1)
        left = a.add(b).transform(pair)
        right = a.transform(pair).add(b.transform(pair))
        assert left.allclose(right, tol=1e-12)
        assert a.scale(2.5).transform(pair).allclose(
            a.transform(pair).scale(2.5), tol=1e-12)

    def test_transform_commutes_with_tensor_product(self, rng):
        pair = random_pair(rng)
        x = DenseTensor.from_array(rng.normal(size=3), 1, 0)
        a = DenseTensor.from_array(rng.normal(size=(3, 3)), 0, 2)
        left = x.tensor_product(a).transform(pair)
        right = x.transform(pair).tensor_product(a.transform(pair))
        assert left.allclose(right, tol=1e-12)

    def test_transform_commutes_with_contraction(self, rng):
        pair = random_pair(rng)
        t = DenseTensor.from_array(rng.normal(size=(3, 3, 3)), 2, 1)
        left = t.contract(1, 1).transform(pair)
        right = t.transform(pair).contract(1, 1)
        assert left.allclose(right, tol=1e-12)

    def test_unknown_direction_rejected(self, rng):
        t = tc.zeros(Valency(1, 0), 3)
        with pytest.raises(tc.ParameterError):
            t.transform(random_pair(rng), "sideways")


class TestInterchange:
    def test_json_round_trip(self):
        t = DenseTensor.from_array(np.arange(9.0).reshape(3, 3), 1, 1)
        back = DenseTensor.from_json(t.to_json())
        assert back.allclose(t)
        assert back.valency == t.valency

    def test_dict_layout_is_flat_row_major(self):
        t = tc.zeros(Valency(1, 1), 2).set((1,), (2,), 7.0)
        d = t.as_dict()
        assert d["r"] == 1 and d["s"] == 1 and d["dim"] == 2
        assert d["components"] == [0.0, 7.0, 0.0, 0.0]

    def test_json_keys_are_stable(self):
        d = json.loads(tc.zeros(Valency(0, 1), 2).to_json())
        assert set(d) == {"r", "s", "dim", "components"}


def _read_only_instances():
    chart = tc.builtin_chart("cylindrical")
    basis = tc.Basis.standard()
    return [
        (chart, "name"),
        (tc.christoffel(chart, [1.0, 0.2, 0.0]), "values"),
        (tc.DifferentiationScheme(), "order"),
        (tc.TensorField.scalar(lambda y: 0.0), "dim"),
        (basis, "columns"),
        (tc.CartesianSystem(basis), "origin"),
        (tc.Metric.euclidean(), "matrix"),
        (DenseTensor.zeros((1, 0)), "valency"),
        (TransitionPair(np.eye(3), np.eye(3)), "S"),
    ]


@pytest.mark.parametrize("obj, attr", _read_only_instances(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_every_kernel_class_is_read_only(obj, attr):
    message = f"^{type(obj).__name__} is immutable$"
    before = getattr(obj, attr)
    for name in (attr, "extra"):
        with pytest.raises(AttributeError, match=message):
            setattr(obj, name, None)
    assert getattr(obj, attr) is before
    assert not hasattr(obj, "__dict__")


_V3 = DenseTensor.from_array([1.0, 0.0, 0.0], 1, 0)
_PAIR2 = TransitionPair(np.eye(2), np.eye(2))


@pytest.mark.parametrize("call, message", [
    (lambda: Valency(-1, 0), "valency must be non-negative, got (-1, 0)"),
    (lambda: DenseTensor((1, 0), 0), "dimension must be positive, got 0"),
    (lambda: DenseTensor.from_array(np.zeros((3, 3)), 1, 0),
     "array with 2 axes cannot hold a (1,0) tensor"),
    (lambda: _V3.item(), "item() is only defined for (0,0) tensors"),
    (lambda: _V3.add(1.0), "can only add another DenseTensor"),
    (lambda: _V3.tensor_product(1.0), "tensor_product needs another DenseTensor"),
    (lambda: _V3.tensor_product(DenseTensor.zeros((1, 0), 2)),
     "tensor_product operands must share the dimension"),
    (lambda: _V3.transform(_PAIR2, OLD_TO_NEW),
     "transition pair dimension does not match tensor"),
    (lambda: tc.invert_matrix(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: TransitionPair(np.zeros((2, 3)), np.zeros((2, 3))),
     "S must be square, got shape (2, 3)"),
    (lambda: TransitionPair(np.eye(3), np.eye(2)), "T shape (2, 2) does not match S shape (3, 3)"),
    (lambda: compose_transitions(TransitionPair(np.eye(3), np.eye(3)), _PAIR2),
     "cannot compose transitions of different dimensions"),
], ids=["negative-valency", "zero-dim", "from-array-axes", "item-of-vector", "add-non-tensor",
        "product-non-tensor", "product-dims", "transform-dims", "invert-non-square",
        "pair-non-square", "pair-shapes", "compose-dims"])
def test_rejected_input_names_the_fault(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == message
