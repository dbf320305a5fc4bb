"""Metric machinery: Gram matrices, index raising/lowering, volumes, cross products.

The metric of a frame S (its columns the basis vectors) is its Gram matrix
g = S^T S, the pairwise scalar products g_ij = (E_i, E_j) of the basis
vectors; its inverse g^ij (the dual metric) is the Gram matrix T T^T of the
dual frame T = S^-1, and sqrt(det g) = |det S| is the frame's volume. This
module is the one place those three are formed: _gram, _dual_gram and
_frame_volume take one frame or a stack of frames, and both Metric and the
chart layer (curvilinear.ChartPoints, rotor_in_chart) call them.

g^ij raises indices; g_ij lowers them. The raised slot becomes the FIRST
upper slot of the result and the lowered slot the FIRST lower slot; round
trips on first slots are exact inverses and other slots come back
reordered in that convention.

Orientation machinery (Levi-Civita symbol, volume tensor, cross product) is
implemented for dimension 3 only; other dimensions raise
UnsupportedDimension rather than guessing a convention.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateMetric, ShapeError, UnsupportedDimension
from .tensors import DEFAULT_DIM, DenseTensor, TransitionPair, Valency, _Frozen, _check_slot

if TYPE_CHECKING:  # frames loads on first use (see the package docstring)
    from .frames import Basis

__all__ = [
    "Metric", "gram_from_basis", "raise_index", "lower_index", "kronecker",
    "kronecker_upper", "kronecker_lower", "levi_civita", "volume_tensor",
    "dual_volume_tensor", "cross_product",
]

SYMMETRY_TOL = 1e-12

# epsilon_ijk is +1 for (i, _NEXT[i], _LAST[i]) and -1 with the last two swapped
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _gram(S: np.ndarray) -> np.ndarray:
    """g = S^T S of a frame or of every frame in a stack. S^T is multiplied
    as a C-contiguous copy: the same bits as the transposed view, and
    1.4-2.5x faster at N >= 1000."""
    return np.ascontiguousarray(np.swapaxes(S, -1, -2)) @ S


def _dual_gram(T: np.ndarray) -> np.ndarray:
    """g^-1 = T T^T of a dual frame or of every one in a stack, on
    C-contiguous operands: exactly symmetric and C-contiguous, and a frame
    gets the same bits alone as in any stack."""
    T = np.ascontiguousarray(T)
    return T @ np.ascontiguousarray(np.swapaxes(T, -1, -2))


# (row, column) of S[_NEXT, 1], S[_LAST, 2], S[_LAST, 1], S[_NEXT, 2] and S[:, 0]
_TRIPLE = (np.array([_NEXT, _LAST, _LAST, _NEXT, [0, 1, 2]]), np.array([[1], [2], [1], [2], [0]]))


def _frame_volume(S: np.ndarray) -> np.ndarray:
    """sqrt(det g) = |det S| of a frame or of every frame in a stack. In
    3-D it is the triple product E_1 . (E_2 x E_3) of the columns, summed
    in index order, so a frame gets the same bits alone as in any stack;
    in other dimensions it is LAPACK's determinant."""
    if S.shape[-1] != 3:
        return np.abs(np.linalg.det(S))
    entries = S[..., _TRIPLE[0], _TRIPLE[1]]
    cross = entries[..., 0, :] * entries[..., 1, :] - entries[..., 2, :] * entries[..., 3, :]
    terms = entries[..., 4, :] * cross
    return np.abs(terms[..., 0] + terms[..., 1] + terms[..., 2])


class Metric(_Frozen):
    """Symmetric positive definite matrix g, the Gram matrix of its frame.

    S (its columns the basis vectors) and the dual frame T = S^-1 are
    read-only attributes with g = S^T S, the dual g^-1 = T T^T (_dual_gram,
    exactly symmetric) and sqrt_det = sqrt(det g) = |det S|
    (_frame_volume, computed on first read). Metric(g) takes S as the
    transposed LAPACK Cholesky factor of g, so det S > 0, and S is then
    the frame of g's flat chart x = S y. A matrix with a non-finite entry,
    or not symmetric within SYMMETRY_TOL relative to its largest entry (at
    least 1), or not positive definite, raises DegenerateMetric.
    Metric.from_frame(pair) is the metric of a given frame.
    """

    __slots__ = ("matrix", "dual", "dim", "S", "T", "_sqrt_det")

    def __init__(self, matrix):
        g = np.asarray(matrix, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeError(f"metric must be a square matrix, got shape {g.shape}")
        if not np.isfinite(g).all():  # LAPACK would return NaN or inf, not fail
            raise DegenerateMetric("metric is not positive definite")
        asym = float(np.abs(g - g.T).max(initial=0.0))
        if asym > SYMMETRY_TOL * max(1.0, np.abs(g).max(initial=0.0)):
            raise DegenerateMetric(f"metric is not symmetric (deviation {asym!r})")
        g = (g + g.T) / 2.0 if asym else g.copy()
        try:
            S = np.linalg.cholesky(g).T
        except np.linalg.LinAlgError:
            raise DegenerateMetric("metric is not positive definite") from None
        T = np.linalg.inv(S)
        S.flags.writeable = T.flags.writeable = False
        self._set(g, S, T)

    @classmethod
    def from_frame(cls, pair: TransitionPair) -> "Metric":
        """The metric of the frame pair.S, with T = pair.T its checked
        inverse: g = S^T S and g^-1 = T T^T. A g that overflows raises
        DegenerateMetric, as Metric(g) does for a non-finite g."""
        with np.errstate(all="ignore"):
            g = _gram(pair.S)
        if not np.isfinite(g).all():
            raise DegenerateMetric("metric is not positive definite")
        metric = object.__new__(cls)
        metric._set(g, pair.S, pair.T)
        return metric

    def _set(self, g, S, T):
        dual = _dual_gram(T)
        g.flags.writeable = dual.flags.writeable = False
        for name, value in (("matrix", g), ("dual", dual), ("dim", g.shape[0]),
                            ("S", S), ("T", T), ("_sqrt_det", None)):
            object.__setattr__(self, name, value)

    @property
    def sqrt_det(self) -> float:
        """sqrt(det g) = |det S|, the volume of the frame."""
        if self._sqrt_det is None:
            object.__setattr__(self, "_sqrt_det", float(_frame_volume(self.S)))
        return self._sqrt_det

    @classmethod
    def euclidean(cls, dim: int = DEFAULT_DIM) -> "Metric":
        return cls(np.eye(dim))

    def dot(self, x, y) -> float:
        """Scalar product (x, y) = sum_ij g_ij x^i y^j."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ShapeError("dot expects two vectors matching the metric dimension")
        return float(x @ self.matrix @ y)

    def norm(self, x) -> float:
        return math.sqrt(self.dot(x, x))

    def as_dict(self) -> dict:
        return {"matrix": self.matrix.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Metric":
        try:
            if isinstance(data, dict):
                data = data["matrix"]
            matrix = np.asarray(data, dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeError(f"malformed metric record: {exc}") from exc
        return cls(matrix)

    def __repr__(self):
        return f"Metric(dim={self.dim})"


def gram_from_basis(basis: Basis) -> Metric:
    """Metric whose entries are the ambient dot products of the basis vectors."""
    return Metric(_gram(basis.columns))


def raise_index(metric: Metric, tensor: DenseTensor, lower_slot: int) -> DenseTensor:
    """Contract g^ps against one lower slot; the new slot leads the uppers.

    X^{p ...} = sum_s g^{ps} X_{... s ...}, valency (r, s) -> (r+1, s-1).
    """
    r, s = tensor.valency.r, tensor.valency.s
    _check_slot("lower", lower_slot, s)
    if metric.dim != tensor.dim:
        raise ShapeError("metric dimension does not match tensor")
    axis = r + lower_slot - 1
    array = np.tensordot(metric.dual, tensor.array, axes=([1], [axis]))
    # tensordot leaves the new upper axis in front, exactly where it belongs
    return DenseTensor(Valency(r + 1, s - 1), tensor.dim, array)


def lower_index(metric: Metric, tensor: DenseTensor, upper_slot: int) -> DenseTensor:
    """Contract g_ps against one upper slot; the new slot leads the lowers.

    X_{p ...} = sum_s g_{ps} X^{... s ...}, valency (r, s) -> (r-1, s+1).
    """
    r, s = tensor.valency.r, tensor.valency.s
    _check_slot("upper", upper_slot, r)
    if metric.dim != tensor.dim:
        raise ShapeError("metric dimension does not match tensor")
    axis = upper_slot - 1
    array = np.tensordot(metric.matrix, tensor.array, axes=([1], [axis]))
    # new covariant axis sits in front; move it behind the remaining uppers
    array = np.moveaxis(array, 0, r - 1)
    return DenseTensor(Valency(r - 1, s + 1), tensor.dim, array)


def kronecker(dim: int = DEFAULT_DIM) -> DenseTensor:
    """The (1,1) unit tensor delta^i_j; its components survive any basis change."""
    return DenseTensor(Valency(1, 1), dim, np.eye(dim))


def kronecker_upper(dim: int = DEFAULT_DIM) -> np.ndarray:
    """Raw delta^{ij} value table.

    Deliberately NOT a DenseTensor: read as a (2,0) tensor these components
    are not basis-invariant (only orthonormal changes preserve them).
    """
    return np.eye(dim)


def kronecker_lower(dim: int = DEFAULT_DIM) -> np.ndarray:
    """Raw delta_{ij} value table; same caveat as kronecker_upper."""
    return np.eye(dim)


def levi_civita(dim: int = 3) -> np.ndarray:
    """Completely antisymmetric symbol as a raw 3-index array.

    Only defined here for dim 3. It is a symbol, not a tensor: the same
    value table is used in every basis, which is exactly why the volume
    tensor needs the sqrt(det g) factor.
    """
    if dim != 3:
        raise UnsupportedDimension(f"Levi-Civita symbol is provided for dim 3, not {dim}")
    eps = np.zeros((3, 3, 3))
    eps[range(3), _NEXT, _LAST] = 1.0
    eps[range(3), _LAST, _NEXT] = -1.0
    return eps


def volume_tensor(metric: Metric) -> DenseTensor:
    """omega_ijk = sqrt(det g) * epsilon_ijk as a (0,3) tensor."""
    if metric.dim != 3:
        raise UnsupportedDimension("volume tensor needs dimension 3")
    return DenseTensor(Valency(0, 3), 3, metric.sqrt_det * levi_civita())


def dual_volume_tensor(metric: Metric) -> DenseTensor:
    """omega^ijk = sqrt(det g^..) * epsilon^ijk = epsilon^ijk / sqrt(det g),
    a (3,0) tensor."""
    if metric.dim != 3:
        raise UnsupportedDimension("volume tensor needs dimension 3")
    return DenseTensor(Valency(3, 0), 3, levi_civita() / metric.sqrt_det)


def cross_product(metric: Metric, x, y) -> np.ndarray:
    """Vector product in a skew basis: a^r = sum g^{ri} omega_ijk x^j y^k.

    In an orthonormal basis this reduces to the familiar determinant rule;
    in any positively oriented basis it represents the same geometric
    vector.
    """
    if metric.dim != 3:
        raise UnsupportedDimension("cross product needs dimension 3")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (3,) or y.shape != (3,):
        raise ShapeError("cross product expects two 3-vectors")
    omega = volume_tensor(metric).array
    return np.einsum("ri,ijk,j,k->r", metric.dual, omega, x, y)
