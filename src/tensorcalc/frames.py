"""Bases, Cartesian systems, and the concrete transformation laws.

A basis is a square matrix whose columns are the basis vectors, written in
the ambient orthonormal frame. A Cartesian system adds an origin. The
transition pair between two bases solves old . S = new, so S's columns are
the new vectors expressed in the old basis and T = S^-1.

The specialized laws for the low valencies are spelled out as matrix
formulas (old basis -> new basis):

    vector      x~ = T x
    covector    a~ = S^T a
    operator    F~ = T F S
    bilinear    a~ = S^T a S

Each is the generic slot-by-slot tensor transform of its valency, with its
matrices from the one direction rule (tensors._slot_matrices); the tests
pin that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateTransition, ShapeError
from .tensors import (
    DEFAULT_DIM,
    OLD_TO_NEW,
    DenseTensor,
    TransitionPair,
    Valency,
    _Frozen,
    _slot_matrices,
    invert_matrix,
)

__all__ = [
    "Basis", "CartesianSystem", "BilinearForm",
    "transition_between",
    "transform_vector", "transform_covector", "transform_operator",
    "transform_bilinear", "pair_covector_vector", "apply_operator",
    "compose_operators", "evaluate_bilinear", "symmetrize", "quadratic",
    "recover_bilinear", "change_point_coordinates",
]


class Basis(_Frozen):
    """Ordered basis, stored as the matrix of column vectors."""

    __slots__ = ("columns", "dim")

    def __init__(self, columns):
        columns = np.asarray(columns, dtype=float)
        if columns.ndim != 2 or columns.shape[0] != columns.shape[1]:
            raise ShapeError(f"basis needs a square matrix, got shape {columns.shape}")
        # reuse the scale-aware singularity test; a degenerate column set
        # is not a basis
        try:
            invert_matrix(columns)
        except DegenerateTransition:
            raise DegenerateTransition("column vectors do not form a basis")
        columns = columns.copy()
        columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "dim", columns.shape[0])

    @classmethod
    def standard(cls, dim: int = DEFAULT_DIM) -> "Basis":
        return cls(np.eye(dim))

    @classmethod
    def from_vectors(cls, *vectors) -> "Basis":
        return cls(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))

    def vector(self, j: int) -> np.ndarray:
        """The j-th basis vector (1-based) in ambient coordinates."""
        if not 1 <= j <= self.dim:
            raise ShapeError(f"basis has no vector {j}")
        return self.columns[:, j - 1].copy()

    def as_dict(self) -> dict:
        return {"columns": [self.columns[:, j].tolist() for j in range(self.dim)]}

    @classmethod
    def from_dict(cls, data: dict) -> "Basis":
        try:
            cols = data["columns"]
        except (KeyError, TypeError) as exc:
            raise ShapeError(f"malformed basis record: {exc}") from exc
        return cls(np.column_stack([np.asarray(c, dtype=float) for c in cols]))

    def __repr__(self):
        return f"Basis(dim={self.dim})"


class CartesianSystem(_Frozen):
    """A basis together with an origin point."""

    __slots__ = ("basis", "origin")

    def __init__(self, basis: Basis, origin=None):
        if not isinstance(basis, Basis):
            basis = Basis(basis)
        origin = (np.zeros(basis.dim) if origin is None
                  else np.asarray(origin, dtype=float))
        if origin.shape != (basis.dim,):
            raise ShapeError(
                f"origin shape {origin.shape} does not match dim {basis.dim}"
            )
        origin = origin.copy()
        origin.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "origin", origin)

    @classmethod
    def standard(cls, dim: int = DEFAULT_DIM) -> "CartesianSystem":
        return cls(Basis.standard(dim))

    def as_dict(self) -> dict:
        data = self.basis.as_dict()
        data["origin"] = self.origin.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CartesianSystem":
        basis = Basis.from_dict(data)
        origin = data.get("origin")
        return cls(basis, origin)

    def __repr__(self):
        return f"CartesianSystem(dim={self.basis.dim}, origin={self.origin.tolist()})"


def transition_between(old: Basis, new: Basis) -> TransitionPair:
    """Transition pair carrying old-basis coordinates to new-basis ones.

    Solves old.columns . S = new.columns, so column j of S holds the
    coordinates of the j-th new vector in the old basis.
    """
    if old.dim != new.dim:
        raise ShapeError("bases live in different dimensions")
    return TransitionPair.from_direct(np.linalg.solve(old.columns, new.columns))


# -- specialized transformation laws ------------------------------------------


def _vec(x, dim=None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or (dim is not None and x.shape[0] != dim):
        raise ShapeError(f"expected a vector{'' if dim is None else f' of length {dim}'}, got shape {x.shape}")
    return x


def _mat(a, dim=None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or (dim is not None and a.shape[0] != dim):
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def transform_vector(x, pair: TransitionPair, direction: str = OLD_TO_NEW) -> np.ndarray:
    """x~ = T x for old->new, x = S x~ back."""
    x = _vec(x, pair.dim)
    return _slot_matrices(pair, direction)[0] @ x


def transform_covector(a, pair: TransitionPair, direction: str = OLD_TO_NEW) -> np.ndarray:
    """a~_j = sum_i S^i_j a_i for old->new; T takes that back."""
    a = _vec(a, pair.dim)
    return _slot_matrices(pair, direction)[1] @ a


def transform_operator(F, pair: TransitionPair, direction: str = OLD_TO_NEW) -> np.ndarray:
    """F~ = T F S for old->new; determinant and trace are unchanged."""
    F = _mat(F, pair.dim)
    up, low = _slot_matrices(pair, direction)
    return up @ F @ low.T


def transform_bilinear(a, pair: TransitionPair, direction: str = OLD_TO_NEW) -> np.ndarray:
    """a~ = S^T a S for old->new."""
    a = _mat(a, pair.dim)
    _, low = _slot_matrices(pair, direction)
    return low @ a @ low.T


# -- scalar-valued pairings and operator algebra -------------------------------


def pair_covector_vector(a, x) -> float:
    """The invariant pairing sum_i a_i x^i."""
    a = _vec(a)
    x = _vec(x, a.shape[0])
    return float(a @ x)


def apply_operator(F, x) -> np.ndarray:
    """y^i = sum_j F^i_j x^j."""
    F = _mat(F)
    x = _vec(x, F.shape[0])
    return F @ x


def compose_operators(F, H) -> np.ndarray:
    """Composition acts left to right on vectors: (F.H) x = F(H x)."""
    F = _mat(F)
    H = _mat(H, F.shape[0])
    return F @ H


def evaluate_bilinear(a, x, y) -> float:
    """a(x, y) = sum_ij a_ij x^i y^j."""
    a = _mat(a)
    x = _vec(x, a.shape[0])
    y = _vec(y, a.shape[0])
    return float(x @ a @ y)


def symmetrize(a) -> np.ndarray:
    """(a + a^T) / 2, the symmetric part feeding the quadratic form."""
    a = _mat(a)
    return (a + a.T) / 2.0


def quadratic(a, x) -> float:
    """f(x) = a(x, x)."""
    return evaluate_bilinear(a, x, x)


def recover_bilinear(f: Callable[[np.ndarray], float], dim: int = DEFAULT_DIM) -> np.ndarray:
    """Symmetric matrix behind a quadratic form.

    Polarization: a(x, y) = (f(x + y) - f(x) - f(y)) / 2, evaluated on the
    standard coordinate vectors.
    """
    a = np.zeros((dim, dim))
    e = np.eye(dim)
    fe = [float(f(e[i])) for i in range(dim)]
    for i in range(dim):
        a[i, i] = fe[i]
        for j in range(i + 1, dim):
            a[i, j] = a[j, i] = (float(f(e[i] + e[j])) - fe[i] - fe[j]) / 2.0
    return a


@dataclass(frozen=True)
class BilinearForm:
    """Thin wrapper for a (0,2) matrix with the form-specific operations."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _mat(self.matrix)
        if not np.all(np.isfinite(m)):
            raise ShapeError("bilinear form entries must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, x, y) -> float:
        return evaluate_bilinear(self.matrix, x, y)

    def quadratic(self, x) -> float:
        return quadratic(self.matrix, x)

    def symmetrized(self) -> "BilinearForm":
        return BilinearForm(symmetrize(self.matrix))

    def as_tensor(self) -> DenseTensor:
        return DenseTensor(Valency(0, 2), self.dim, self.matrix)

    @classmethod
    def recover(cls, f: Callable[[np.ndarray], float], dim: int = DEFAULT_DIM) -> "BilinearForm":
        return cls(recover_bilinear(f, dim))


# -- points --------------------------------------------------------------------


def change_point_coordinates(point, old: CartesianSystem, new: CartesianSystem,
                             pair: Optional[TransitionPair] = None) -> np.ndarray:
    """Coordinates in ``new`` of the point with coordinates ``point`` in ``old``.

    With a the old-basis coordinates of the vector from old origin to new
    origin: x~ = a~ + T x where a~ = -T a. A pure translation by a therefore
    shifts coordinates by -a.
    """
    point = _vec(point, old.basis.dim)
    if old.basis.dim != new.basis.dim:
        raise ShapeError("systems live in different dimensions")
    if pair is None:
        pair = transition_between(old.basis, new.basis)
    shift = np.linalg.solve(old.basis.columns, new.origin - old.origin)
    return pair.T @ (point - shift)
