"""Dense tensors of fixed valency and the transition machinery between bases.

A tensor of valency (r, s) on a dim-dimensional space is stored as a dense
ndarray with r + s axes, each of length dim. Axis order is all upper
(contravariant) slots first, then all lower (covariant) slots, row-major.
Public component access is 1-based, matching the classical index convention;
internals are plain 0-based numpy.

Nothing here mutates: tensors expose a read-only array, and every operation
returns a fresh object. ``set`` therefore hands back a new tensor with one
component replaced.

Basis changes are driven by a pair of mutually inverse matrices (S, T).
Columns of S are the coordinates of the new basis vectors in the old basis;
T = S^-1. The one transformation law, old basis -> new, applies T to every
upper slot and S^T to every lower slot; new -> old applies S and T^T. Its
direction rule is _slot_matrices, read by the frames module's vector,
covector, operator and bilinear-form laws and by the one slot loop,
_transform_slots, that DenseTensor.transform runs on a tensor and
chart_to_chart_transform on a stack of tensors with one (S, T) per row.
Chaining two changes of basis agrees with the composed transition pair. The
one T.S = I test, _pair_test, takes a stack of pairs: one in TransitionPair,
one per point in the transition stage of curvilinear.ChartPoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateTransition,
    ParameterError,
    ShapeError,
    TensorIndexError,
)

__all__ = [
    "DEFAULT_DIM", "MAX_ORDER", "NEW_TO_OLD", "OLD_TO_NEW", "Valency",
    "DenseTensor", "TransitionPair", "compose_transitions", "invert_matrix",
]

MAX_ORDER = 8
DEFAULT_DIM = 3

OLD_TO_NEW = "old->new"
NEW_TO_OLD = "new->old"

# |det| <= SINGULAR_REL * (product of row norms) counts as singular.
SINGULAR_REL = 1e-12
INVERSE_TOL = 1e-9


@dataclass(frozen=True)
class Valency:
    """Number of upper (contravariant) and lower (covariant) slots."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ShapeError(f"valency must be non-negative, got ({self.r}, {self.s})")
        if self.order > MAX_ORDER:
            raise CapacityError(
                f"tensor order {self.order} exceeds the supported maximum {MAX_ORDER}"
            )

    @property
    def order(self) -> int:
        return self.r + self.s


def _as_valency(valency) -> Valency:
    if isinstance(valency, Valency):
        return valency
    r, s = valency
    return Valency(int(r), int(s))


class _Frozen:
    """Base of the read-only classes: a constructor sets each attribute once
    through object.__setattr__, and assignment afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _slot_matrices(pair, direction: str):
    """(matrix for every upper slot, matrix for every lower slot): (T, S^T)
    for old->new, (S, T^T) for new->old; S and T may be stacks (ChartPoints)."""
    if direction == OLD_TO_NEW:
        return pair.T, pair.S.swapaxes(-1, -2)
    if direction == NEW_TO_OLD:
        return pair.S, pair.T.swapaxes(-1, -2)
    raise ParameterError(
        f"direction must be {OLD_TO_NEW!r} or {NEW_TO_OLD!r}, got {direction!r}")


def _check_slot(level: str, slot: int, count: int):
    if not 1 <= slot <= count:
        raise TensorIndexError(f"{level} slot {slot} out of range 1..{count}")


def _check_slot_indices(name: str, idx: Sequence[int], count: int, dim: int):
    if len(idx) != count:
        raise TensorIndexError(
            f"expected {count} {name} indices, got {len(idx)}"
        )
    for i in idx:
        if not 1 <= i <= dim:
            raise TensorIndexError(
                f"{name} index {i} out of range 1..{dim}"
            )


class DenseTensor(_Frozen):
    """Immutable dense tensor with upper slots first and 1-based access.

    Parameters
    ----------
    valency : Valency or (r, s) pair
        Slot counts. Order r + s is capped at 8.
    dim : int
        Dimension of the underlying space, default 3.
    components : array-like, optional
        Either an ndarray of shape (dim,) * (r + s) or a flat sequence of
        length dim ** (r + s) in row-major order. Defaults to zeros.
    """

    __slots__ = ("valency", "dim", "_array")

    def __init__(self, valency, dim: int = DEFAULT_DIM, components=None):
        valency = _as_valency(valency)
        if dim < 1:
            raise ShapeError(f"dimension must be positive, got {dim}")
        shape = (dim,) * valency.order
        if components is None:
            array = np.zeros(shape)
        else:
            # np.array always copies, so the caller's buffer is never shared
            array = np.array(components, dtype=float)
            if array.shape != shape:
                if array.ndim == 1 and array.size == dim ** valency.order:
                    array = array.reshape(shape)
                else:
                    raise ShapeError(
                        f"components of shape {array.shape} do not fit a "
                        f"({valency.r},{valency.s}) tensor over dim {dim}"
                    )
        if np.count_nonzero(np.isfinite(array)) != array.size:
            raise ShapeError("tensor components must all be finite")
        # np.array keeps the order of an F-ordered input and reshape returns a
        # view; only those are copied again, so the stored array is C-ordered
        # and owns its data (ndarray.copy keeps a 0-d array 0-d)
        if array.base is not None or not array.flags.c_contiguous:
            array = array.copy()
        array.setflags(write=False)  # half the time of flags.writeable = False
        object.__setattr__(self, "valency", valency)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_array", array)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, valency, dim: int = DEFAULT_DIM) -> "DenseTensor":
        return cls(valency, dim)

    @classmethod
    def from_array(cls, array, r: int, s: int) -> "DenseTensor":
        array = np.asarray(array, dtype=float)
        if array.ndim != r + s:
            raise ShapeError(
                f"array with {array.ndim} axes cannot hold a ({r},{s}) tensor"
            )
        dim = array.shape[0] if array.ndim else DEFAULT_DIM
        return cls(Valency(r, s), dim, array)

    @classmethod
    def scalar(cls, value: float, dim: int = DEFAULT_DIM) -> "DenseTensor":
        return cls(Valency(0, 0), dim, np.asarray(float(value)))

    # -- basic access ----------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the components."""
        return self._array

    @property
    def components(self) -> np.ndarray:
        """Flat copy of the components in row-major slot order."""
        return self._array.reshape(-1).copy()

    def item(self) -> float:
        if self.valency.order != 0:
            raise ShapeError("item() is only defined for (0,0) tensors")
        return float(self._array)

    def _position(self, upper: Sequence[int], lower: Sequence[int]) -> tuple:
        """0-based array position of 1-based upper and lower index tuples."""
        upper, lower = tuple(upper), tuple(lower)
        _check_slot_indices("upper", upper, self.valency.r, self.dim)
        _check_slot_indices("lower", lower, self.valency.s, self.dim)
        return tuple(i - 1 for i in upper + lower)

    def get(self, upper: Sequence[int] = (), lower: Sequence[int] = ()) -> float:
        """Component at 1-based upper and lower index tuples."""
        return float(self._array[self._position(upper, lower)])

    def set(self, upper: Sequence[int], lower: Sequence[int], value: float) -> "DenseTensor":
        """New tensor with the addressed component replaced by ``value``."""
        array = self._array.copy()
        array[self._position(upper, lower)] = float(value)
        return DenseTensor(self.valency, self.dim, array)

    # -- algebra ---------------------------------------------------------------

    def scale(self, alpha: float) -> "DenseTensor":
        return DenseTensor(self.valency, self.dim, self._array * float(alpha))

    def add(self, other: "DenseTensor") -> "DenseTensor":
        if not isinstance(other, DenseTensor):
            raise ShapeError("can only add another DenseTensor")
        if other.valency != self.valency or other.dim != self.dim:
            raise ShapeError(
                f"cannot add ({other.valency.r},{other.valency.s}) over dim "
                f"{other.dim} to ({self.valency.r},{self.valency.s}) over dim {self.dim}"
            )
        return DenseTensor(self.valency, self.dim, self._array + other._array)

    def tensor_product(self, other: "DenseTensor") -> "DenseTensor":
        """Outer product; upper slots of both factors come before lower slots.

        Slot order of the result is (self upper, other upper, self lower,
        other lower), so the product of a vector and a covector lands in the
        operator layout.
        """
        if not isinstance(other, DenseTensor):
            raise ShapeError("tensor_product needs another DenseTensor")
        if other.dim != self.dim:
            raise ShapeError("tensor_product operands must share the dimension")
        valency = Valency(self.valency.r + other.valency.r,
                          self.valency.s + other.valency.s)
        raw = np.multiply.outer(self._array, other._array)
        # raw axes: (self.upper, self.lower, other.upper, other.lower);
        # move other's upper block in front of self's lower block.
        r1, s1 = self.valency.r, self.valency.s
        r2 = other.valency.r
        src = list(range(r1 + s1, r1 + s1 + r2))
        dst = list(range(r1, r1 + r2))
        raw = np.moveaxis(raw, src, dst)
        return DenseTensor(valency, self.dim, raw)

    def contract(self, upper_slot: int, lower_slot: int) -> "DenseTensor":
        """Sum over one upper and one lower slot (1-based slot numbers)."""
        r, s = self.valency.r, self.valency.s
        _check_slot("upper", upper_slot, r)
        _check_slot("lower", lower_slot, s)
        array = np.trace(self._array, axis1=upper_slot - 1, axis2=r + lower_slot - 1)
        return DenseTensor(Valency(r - 1, s - 1), self.dim, array)

    def transform(self, pair: "TransitionPair", direction: str = OLD_TO_NEW) -> "DenseTensor":
        """Components of the same tensor in the other basis: ``old->new``
        applies T to every upper slot and S^T to every lower slot, ``new->old``
        S and T^T (_slot_matrices), one slot at a time (_transform_slots)."""
        if pair.dim != self.dim:
            raise ShapeError("transition pair dimension does not match tensor")
        return DenseTensor(self.valency, self.dim,
                           _transform_slots(self._array, self.valency, pair, direction))

    # -- sugar -----------------------------------------------------------------

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __mul__(self, alpha):
        return self.scale(alpha)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    def allclose(self, other: "DenseTensor", tol: float = 1e-12) -> bool:
        return (self.valency == other.valency and self.dim == other.dim
                and bool(np.allclose(self._array, other._array, rtol=0.0, atol=tol)))

    def __repr__(self):
        return (f"DenseTensor(r={self.valency.r}, s={self.valency.s}, "
                f"dim={self.dim})")

    # -- interchange -----------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "r": self.valency.r,
            "s": self.valency.s,
            "dim": self.dim,
            "components": self.components.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DenseTensor":
        try:
            r, s, dim = int(data["r"]), int(data["s"]), int(data["dim"])
            if data["components"] is None:  # np.asarray would make it a NaN scalar
                raise ValueError("components is null")
            components = np.asarray(data["components"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeError(f"malformed tensor record: {exc}") from exc
        return cls(Valency(r, s), dim, components)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DenseTensor":
        return cls.from_dict(json.loads(text))


def _transform_slots(array: np.ndarray, valency: Valency, pair, direction: str) -> np.ndarray:
    """_slot_matrices(pair, direction) applied slot by slot in slot order; for
    stacks of S and T, array has a leading row axis and row n moves by pair n."""
    up, low = _slot_matrices(pair, direction)
    first = up.ndim - 2  # 1 past a leading row axis
    r = first + valency.r
    for axis in range(first, r):
        array = _apply_to_axis(up, array, axis)
    for axis in range(r, r + valency.s):
        array = _apply_to_axis(low, array, axis)
    return array


def _apply_to_axis(matrix: np.ndarray, array: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``matrix``'s second index against one axis of ``array``.

    Result keeps the axis in place: out[..., i, ...] = sum_h M[i, h] a[..., h, ...].
    Viewing ``array`` as (lead, dim, rest) puts that axis in the middle, where
    one broadcast matmul contracts it without moving any axis. A stack of N
    matrices applies matrix n to row n, as matrix n alone would.
    """
    shape = array.shape
    if matrix.ndim == 2:
        lead = math.prod(shape[:axis])
        return np.matmul(matrix, array.reshape(lead, shape[axis], -1)).reshape(shape)
    rows = (len(array), math.prod(shape[1:axis]), shape[axis], math.prod(shape[axis + 1:]))
    return np.matmul(matrix[:, None], array.reshape(rows)).reshape(shape)


def _invert_stack(matrices: np.ndarray):
    """Inverses of a stack of square matrices, with invert_matrix's test.

    Returns ``(inverses, failures)``; failures maps the index of every
    singular matrix to its DegenerateTransition, and its inverse is left NaN.
    """
    # on rows divided by their largest |entry| no norm overflows or underflows;
    # a non-finite entry makes its row NaN, and so its matrix singular
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.abs(matrices).max(axis=2, keepdims=True)
        unit = matrices / np.where(top > 0.0, top, 1.0)
        scale = np.multiply.reduce(np.sqrt(np.add.reduce(unit * unit, axis=2)), axis=1)
        singular = ~(np.abs(np.linalg.det(unit)) > SINGULAR_REL * scale)
        # the message gives the matrix's own det, inf or NaN included
        det = np.linalg.det(matrices[singular]).tolist() if singular.any() else []
    failures = {n: DegenerateTransition(f"matrix is singular within tolerance (det={d!r})")
                for n, d in zip(np.flatnonzero(singular).tolist(), det)}
    inverses = np.full_like(matrices, np.nan)
    inverses[~singular] = np.linalg.inv(matrices[~singular])
    return inverses, failures


def _pair_test(S: np.ndarray, T: np.ndarray):
    """T S = I within INVERSE_TOL for a stack of pairs: ``(residual,
    failures)``, residual[n] = max |T S - I| of pair n; failures maps every
    pair above the tolerance or not finite to its DegenerateTransition."""
    residual = np.abs(T @ S - np.eye(S.shape[-1])).max(axis=(1, 2))
    if residual.max(initial=0.0) <= INVERSE_TOL:  # every pair passes (NaN does not)
        return residual, {}
    bad = np.flatnonzero(~(residual <= INVERSE_TOL))
    return residual, {n: DegenerateTransition(
        f"T.S deviates from identity by {value!r} (tolerance {INVERSE_TOL})")
        for n, value in zip(bad.tolist(), residual[bad].tolist())}


def invert_matrix(matrix: np.ndarray) -> np.ndarray:
    """Inverse with an explicit scale-aware singularity check.

    Raises DegenerateTransition when |det| falls below 1e-12 of the Hadamard
    bound (product of the row norms), which makes the test invariant under
    rescaling the matrix or any of its rows, at any finite scale. A matrix
    with a non-finite entry is singular.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {matrix.shape}")
    inverses, failures = _invert_stack(matrix[None])
    if failures:
        raise failures[0]
    return inverses[0]


class TransitionPair(_Frozen):
    """Mutually inverse direct/inverse transition matrices (S, T).

    S's columns hold the new basis vectors' coordinates in the old basis;
    T = S^-1 recovers old-basis coordinates of the old vectors in the new
    basis. The constructor verifies T.S = I within 1e-9 (inf norm).
    """

    __slots__ = ("S", "T", "dim")

    def __init__(self, S, T):
        S = np.asarray(S, dtype=float)
        T = np.asarray(T, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ShapeError(f"S must be square, got shape {S.shape}")
        if T.shape != S.shape:
            raise ShapeError(f"T shape {T.shape} does not match S shape {S.shape}")
        failures = _pair_test(S[None], T[None])[1]
        if failures:
            raise failures[0]
        S = S.copy()
        T = T.copy()
        S.flags.writeable = False
        T.flags.writeable = False
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "dim", S.shape[0])

    @classmethod
    def from_direct(cls, S) -> "TransitionPair":
        """Build the pair from S alone, inverting for T."""
        S = np.asarray(S, dtype=float)
        return cls(S, invert_matrix(S))

    def swapped(self) -> "TransitionPair":
        """Pair for the reverse change of basis (new system viewed as old)."""
        return TransitionPair(self.T, self.S)

    def __repr__(self):
        return f"TransitionPair(dim={self.dim})"


def compose_transitions(first: TransitionPair, second: TransitionPair) -> TransitionPair:
    """Pair for the one-shot change basis1 -> basis3 given 1->2 and 2->3.

    Direct matrices compose as S13 = S12.S23; inverse ones in the opposite
    order, T13 = T23.T12.
    """
    if first.dim != second.dim:
        raise ShapeError("cannot compose transitions of different dimensions")
    return TransitionPair(first.S @ second.S, second.T @ first.T)
