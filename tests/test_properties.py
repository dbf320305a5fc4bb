"""Property tests of identities the paper states for the algebra and notation."""

import math
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorcalc import (
    MAX_ORDER,
    NEW_TO_OLD,
    OLD_TO_NEW,
    DenseTensor,
    Metric,
    TensorField,
    TransitionPair,
    builtin_chart,
    chart_to_chart_transform,
    cross_product,
    jacobians,
    lower_index,
    notation,
    raise_index,
    volume_tensor,
)
from tensorcalc.errors import ParseError, ShapeError, TensorCalcError


@st.composite
def _valencies(draw):
    r = draw(st.integers(0, MAX_ORDER))
    return r, draw(st.integers(0, MAX_ORDER - r))


@settings(max_examples=60, deadline=None)
@given(valency=_valencies(), dim=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_transform_there_and_back_is_identity(valency, dim, seed, scale):
    """S = I + 0.4 U with the spectral norm of U at most 1, so the singular
    values of S lie in [0.6, 1.4]."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, (dim, dim))
    u /= max(1.0, np.linalg.norm(u, 2))
    pair = TransitionPair.from_direct(np.eye(dim) + 0.4 * u)
    x = DenseTensor(valency, dim,
                    scale * rng.uniform(-1.0, 1.0, (dim,) * sum(valency)))
    back = x.transform(pair, OLD_TO_NEW).transform(pair, NEW_TO_OLD)
    assert back.valency == x.valency
    err = np.max(np.abs(back.components - x.components), initial=0.0)
    assert err <= 1e-10 * (1.0 + np.max(np.abs(x.components), initial=0.0))


def _pair(rng, dim):
    """S = I + 0.4 U with the spectral norm of U at most 1, so the singular
    values of S lie in [0.6, 1.4]."""
    u = rng.uniform(-1.0, 1.0, (dim, dim))
    u /= max(1.0, np.linalg.norm(u, 2))
    return TransitionPair.from_direct(np.eye(dim) + 0.4 * u)


def _tensor(rng, valency, dim):
    return DenseTensor(valency, dim, rng.uniform(-1.0, 1.0, (dim,) * sum(valency)))


def _spd_metric(rng, dim, scale):
    """Q diag(lam) Q^T with eigenvalues lam in scale * [0.1, 10], so the
    condition number is at most 100."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    g = (q * (scale * 10.0 ** rng.uniform(-1.0, 1.0, dim))) @ q.T
    return Metric((g + g.T) / 2.0)


def _raise_after_lower_error(valency, slot, dim, seed, scale) -> float:
    """max |raise(lower(X)) - X| / max |X| for X of the valency, lowered at
    upper slot `slot` and raised back at lower slot 1 (where lowering puts
    the new slot), with the raised slot moved back to its place."""
    rng = np.random.default_rng(seed)
    metric = _spd_metric(rng, dim, scale)
    x = _tensor(rng, valency, dim)
    back = raise_index(metric, lower_index(metric, x, slot), 1)
    assert back.valency == x.valency
    return float(np.max(np.abs(np.moveaxis(back.array, 0, slot - 1) - x.array))
                 / np.max(np.abs(x.array)))


def _contract_error(valency, slots, dim, seed, direction) -> float:
    """max |contract(transform(X)) - transform(contract(X))| / max |X|."""
    rng = np.random.default_rng(seed)
    pair = _pair(rng, dim)
    x = _tensor(rng, valency, dim)
    first = x.transform(pair, direction).contract(*slots)
    last = x.contract(*slots).transform(pair, direction)
    assert first.valency == last.valency
    return float(np.max(np.abs(first.array - last.array)) / np.max(np.abs(x.array)))


def _product_error(valencies, dim, seed, direction) -> float:
    """max |transform(X) (x) transform(Y) - transform(X (x) Y)| / (max |X| max |Y|)."""
    rng = np.random.default_rng(seed)
    pair = _pair(rng, dim)
    x, y = (_tensor(rng, valency, dim) for valency in valencies)
    first = x.transform(pair, direction).tensor_product(y.transform(pair, direction))
    last = x.tensor_product(y).transform(pair, direction)
    assert first.valency == last.valency
    return float(np.max(np.abs(first.array - last.array))
                 / (np.max(np.abs(x.array)) * np.max(np.abs(y.array))))


@st.composite
def _lowering_cases(draw):
    """A valency with an upper slot and that slot."""
    r = draw(st.integers(1, MAX_ORDER))
    valency = (r, draw(st.integers(0, MAX_ORDER - r)))
    return valency, draw(st.integers(1, r))


@st.composite
def _contraction_cases(draw):
    """A valency with an upper and a lower slot, and those slots."""
    r = draw(st.integers(1, MAX_ORDER - 1))
    s = draw(st.integers(1, MAX_ORDER - r))
    return (r, s), (draw(st.integers(1, r)), draw(st.integers(1, s)))


@st.composite
def _product_cases(draw):
    """Two valencies whose orders add up to at most MAX_ORDER."""
    first = draw(_valencies())
    room = MAX_ORDER - sum(first)
    r = draw(st.integers(0, room))
    return first, (r, draw(st.integers(0, room - r)))


# 50-100x the worst normalised error seen over 43,000 random cases of each
# property (uniform valencies, slots, dims and seeds; numpy 2.4.6): 2.3e-14
# raising after lowering, 1.4e-14 contraction, 2.3e-14 tensor product
RAISE_LOWER_TOL = 2e-12
CONTRACTION_TOL = 1e-12
PRODUCT_TOL = 2e-12

_SEEDS = st.integers(0, 2**32 - 1)
_DIRECTIONS = st.sampled_from([OLD_TO_NEW, NEW_TO_OLD])


@settings(max_examples=60, deadline=None)
@given(case=_lowering_cases(), dim=st.sampled_from([2, 3]), seed=_SEEDS,
       scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_raising_after_lowering_is_the_identity(case, dim, seed, scale):
    valency, slot = case
    assert _raise_after_lower_error(valency, slot, dim, seed, scale) <= RAISE_LOWER_TOL


@settings(max_examples=60, deadline=None)
@given(case=_contraction_cases(), dim=st.sampled_from([2, 3]), seed=_SEEDS,
       direction=_DIRECTIONS)
def test_contraction_commutes_with_a_basis_change(case, dim, seed, direction):
    valency, slots = case
    assert _contract_error(valency, slots, dim, seed, direction) <= CONTRACTION_TOL


@settings(max_examples=60, deadline=None)
@given(valencies=_product_cases(), dim=st.sampled_from([2, 3]), seed=_SEEDS,
       direction=_DIRECTIONS)
def test_tensor_product_commutes_with_a_basis_change(valencies, dim, seed, direction):
    assert _product_error(valencies, dim, seed, direction) <= PRODUCT_TOL


def _vectors(rng, count):
    """Vectors of 3 components in [-1, 1], each scaled by 10^[-3, 3]."""
    return [rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(count)]


def _oriented_pair(rng):
    """S = Q1 diag(sigma) Q2 with singular values sigma in [0.1, 10] and
    det S > 0."""
    q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    S = (q1 * 10.0 ** rng.uniform(-1.0, 1.0, 3)) @ q2
    if np.linalg.det(S) < 0:
        S[:, 0] = -S[:, 0]
    return TransitionPair.from_direct(S)


def _cross_product_errors(seed, scale) -> dict:
    """Each cross-product identity's residual under a random SPD metric,
    over the g-norms of its factors: a x b orthogonal to a and b, Lagrange's
    identity |a x b|^2 = |a|^2 |b|^2 - (a.b)^2, a x (b x c) = b (a.c) - c
    (a.b), and g(a x b, c) = omega(a, b, c)."""
    rng = np.random.default_rng(seed)
    metric = _spd_metric(rng, 3, scale)
    a, b, c = _vectors(rng, 3)
    dot, norm = metric.dot, metric.norm
    ab = cross_product(metric, a, b)
    bac = cross_product(metric, a, cross_product(metric, b, c)) - (b * dot(a, c) - c * dot(a, b))
    triple = np.einsum("ijk,i,j,k->", volume_tensor(metric).array, a, b, c)
    return {
        "orthogonal": max(abs(dot(ab, a)) / norm(a), abs(dot(ab, b)) / norm(b))
        / (norm(a) * norm(b)),
        "lagrange": abs(dot(ab, ab) - (dot(a, a) * dot(b, b) - dot(a, b) ** 2))
        / (norm(a) * norm(b)) ** 2,
        "bac-cab": norm(bac) / (norm(a) * norm(b) * norm(c)),
        "triple": abs(dot(ab, c) - triple) / (norm(a) * norm(b) * norm(c)),
    }


def _volume_law_error(seed, scale) -> float:
    """max |omega(g') - S^T omega(g) S| / max |S^T omega(g) S| / cond(S),
    with g' = S^T g S the metric moved as a (0, 2) tensor and omega the
    volume tensor, moved as a (0, 3) tensor."""
    rng = np.random.default_rng(seed)
    metric = _spd_metric(rng, 3, scale)
    pair = _oriented_pair(rng)
    moved = DenseTensor((0, 2), 3, metric.matrix).transform(pair, OLD_TO_NEW).array
    want = volume_tensor(metric).transform(pair, OLD_TO_NEW).array
    got = volume_tensor(Metric((moved + moved.T) / 2.0)).array
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)) / np.linalg.cond(pair.S))


# 50-100x the worst normalised error seen over 60,000 random cases (20,000
# seeds at each metric scale; numpy 2.4.6): 5.2e-15 orthogonality, 1.2e-14
# Lagrange, 8.8e-15 BAC-CAB, 6.1e-15 triple product, and 1.9e-13 times
# cond(S) for the volume law
CROSS_PRODUCT_TOL = {"orthogonal": 5e-13, "lagrange": 1e-12, "bac-cab": 5e-13,
                     "triple": 5e-13}
VOLUME_LAW_TOL = 1e-11
_SCALES = st.sampled_from([1e-3, 1.0, 1e4])


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, scale=_SCALES)
def test_cross_product_identities(seed, scale):
    errors = _cross_product_errors(seed, scale)
    assert {name: error for name, error in errors.items()
            if not error <= CROSS_PRODUCT_TOL[name]} == {}


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, scale=_SCALES)
def test_volume_tensor_moves_as_a_0_3_tensor_under_an_oriented_change(seed, scale):
    assert _volume_law_error(seed, scale) <= VOLUME_LAW_TOL


_LETTERS = st.sampled_from(string.ascii_letters)
_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True)


def _group(letters):
    if len(letters) == 1:
        return letters[0]
    return "{" + "".join(letters) + "}"


@st.composite
def _symbol_factor_texts(draw):
    text = draw(_NAMES)
    upper = draw(st.lists(_LETTERS, max_size=4))
    lower = draw(st.lists(_LETTERS, max_size=4))
    if upper:
        text += "^" + _group(upper)
    if lower:
        text += "_" + _group(lower)
    return text


_NUMBER_TEXTS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"\d{1,4}(\.\d{0,4})?([eE][+-]?\d{1,3})?", fullmatch=True),
    st.from_regex(r"\.\d{1,4}([eE][+-]?\d{1,3})?", fullmatch=True),
)


def _factor(text):
    return notation.parse("Z = " + text).rhs[0].factors[0]


def _summary(factor):
    return (factor.name, factor.value,
            [(o.letter, o.level) for o in factor.indices])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_symbol_factor_texts(), _NUMBER_TEXTS))
@example(text="1e999")
def test_rendered_factor_reparses_to_the_same_factor(text):
    try:
        factor = _factor(text)
    except ParseError:
        # the grammar admits literals beyond the float range; parse refuses them
        assert not math.isfinite(float(text))
        return
    assert _summary(_factor(notation._render_factor(factor))) == _summary(factor)


def test_overflowing_number_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="number '1e999' is out of range") as info:
        notation.parse("A = 1e999 B")
    assert info.value.position == 4


# -- chart_to_chart_transform on the built-in charts ------------------------------

_CHARTS = {name: builtin_chart(name) for name in ("cylindrical", "spherical", "identity")}


def _chart_field(valency):
    """A smooth field of the valency, called once per point."""
    order = sum(valency)
    k = np.arange(3 ** order, dtype=float).reshape((3,) * order)

    def func(y):
        return np.sin(y[0] + 0.7 * k) * y[1] + np.cos(0.3 * k * y[2])

    return TensorField(valency, func)


@st.composite
def _chart_cases(draw, valencies=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1),
                                                  (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)])):
    """(source, target, valency, points): target points inside the target's
    sampling box, a coordinate sometimes 0.0 (the cylindrical axis, the
    spherical pole and origin, points the charts do not share)."""
    source, target = (draw(st.sampled_from(sorted(_CHARTS))) for _ in range(2))
    coordinate = [st.one_of(st.floats(lo, hi), st.just(0.0))
                  for lo, hi in _CHARTS[target].sample_bounds]
    points = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=6))
    return _CHARTS[source], _CHARTS[target], draw(valencies), np.array(points)


def _single(moved, y):
    """(values, None) of one point evaluated alone, or (None, its error)."""
    try:
        return moved.evaluate_array(y), None
    except TensorCalcError as exc:
        return None, exc


def _source_point(source, target, y):
    return source.inverse(target.forward(y))


@settings(max_examples=60, deadline=None)
@given(case=_chart_cases())
def test_chart_transform_rows_are_the_points_alone_and_the_jacobian_walk(case):
    """Each row of a batch has the bits of its point evaluated alone, and
    those of the walk through jacobians and DenseTensor.transform; a failing
    row fails with the single point's error. Next to the cylindrical axis T
    can be huge and the components overflow: the row fails, as the walk's
    DenseTensor refuses them."""
    source, target, valency, points = case
    field = _chart_field(valency)
    moved = chart_to_chart_transform(field, source, target)
    values, failures = moved.evaluate_batch(points)
    for n, y in enumerate(points):
        want, error = _single(moved, y)

        def walk():
            y_source = _source_point(source, target, y)
            return (field.evaluate(y_source).transform(jacobians(source, y_source), NEW_TO_OLD)
                    .transform(jacobians(target, y), OLD_TO_NEW).array)

        if error is not None:
            assert (type(failures[n]), str(failures[n])) == (type(error), str(error))
            assert np.all(np.isnan(values[n]))
            if str(error) == "tensor components must all be finite":
                with pytest.raises(ShapeError, match="must all be finite"):
                    walk()
            continue
        assert n not in failures
        assert np.array_equal(values[n], want)
        assert np.array_equal(values[n], walk())


@settings(max_examples=40, deadline=None)
@given(case=_chart_cases(valencies=st.just((0, 0))))
def test_chart_transform_keeps_scalars_invariant(case):
    source, target, valency, points = case
    field = _chart_field(valency)
    values, failures = chart_to_chart_transform(field, source, target).evaluate_batch(points)
    for n, y in enumerate(points):
        if n not in failures:
            assert values[n] == field.evaluate_array(_source_point(source, target, y))


@settings(max_examples=40, deadline=None)
@given(case=_chart_cases(valencies=st.just((1, 0))))
def test_chart_transform_moves_vectors_by_the_jacobians(case):
    """v' = T(target) S(source) v, up to rounding of the two products."""
    source, target, valency, points = case
    field = _chart_field(valency)
    values, failures = chart_to_chart_transform(field, source, target).evaluate_batch(points)
    for n, y in enumerate(points):
        if n in failures:
            continue
        y_source = _source_point(source, target, y)
        S, T = jacobians(source, y_source).S, jacobians(target, y).T
        v = field.evaluate_array(y_source)
        bound = 1e-14 * (np.abs(T) @ np.abs(S) @ np.abs(v))
        assert np.all(np.abs(values[n] - T @ (S @ v)) <= bound)
