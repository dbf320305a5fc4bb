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
    TransitionPair,
    notation,
)
from tensorcalc.errors import ParseError


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
