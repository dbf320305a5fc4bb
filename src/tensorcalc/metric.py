"""Metric machinery: Gram matrices, index raising/lowering, volumes, cross products.

The metric of a basis is its Gram matrix g_ij, the pairwise scalar products
of the basis vectors. Its inverse g^ij (the dual metric) raises indices;
g_ij lowers them. The raised slot becomes the FIRST upper slot of the
result and the lowered slot the FIRST lower slot; round trips on first
slots are exact inverses and other slots come back reordered in that
convention.

Orientation machinery (Levi-Civita symbol, volume tensor, cross product) is
implemented for dimension 3 only; other dimensions raise
UnsupportedDimension rather than guessing a convention.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateMetric, ShapeError, TensorIndexError, UnsupportedDimension
from .tensors import DEFAULT_DIM, DenseTensor, Valency

if TYPE_CHECKING:  # frames loads on first use (see the package docstring)
    from .frames import Basis

__all__ = [
    "Metric", "gram_from_basis", "raise_index", "lower_index", "kronecker",
    "kronecker_upper", "kronecker_lower", "levi_civita", "volume_tensor",
    "dual_volume_tensor", "cross_product",
]

SYMMETRY_TOL = 1e-12


class Metric:
    """Symmetric positive definite matrix g with its cached inverse.

    Built by _gram_stack on the one matrix: one Cholesky factorization
    g = L L^T, written over the matrix entries, tests positive definiteness
    (every pivot > 0) and gives sqrt(det g) as the product of the L_jj and
    the inverse as L^-T L^-1, exactly symmetric. A metric gets the same bits
    as the same matrix inside any stack of ChartPoints.
    """

    __slots__ = ("matrix", "dual", "dim", "_sqrt_det")

    def __init__(self, matrix):
        g = np.asarray(matrix, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeError(f"metric must be a square matrix, got shape {g.shape}")
        g, dual, sqrt_det, failures = _gram_stack(g)
        if failures:
            raise failures[0]
        g.flags.writeable = False
        dual.flags.writeable = False
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "dim", g.shape[0])
        object.__setattr__(self, "_sqrt_det", float(sqrt_det))

    def __setattr__(self, name, value):
        raise AttributeError("Metric is immutable")

    @classmethod
    def euclidean(cls, dim: int = DEFAULT_DIM) -> "Metric":
        return cls(np.eye(dim))

    @property
    def sqrt_det(self) -> float:
        return self._sqrt_det

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
        if isinstance(data, dict):
            data = data.get("matrix", data)
        return cls(np.asarray(data, dtype=float))

    def __repr__(self):
        return f"Metric(dim={self.dim})"


def _gram_stack(g: np.ndarray):
    """Metric data for one square matrix g, or for a stack g[n] of them.

    Returns ``(g, dual, sqrt_det, failures)``: each matrix symmetrised, its
    inverse and sqrt(det g), and failures mapping the index of every matrix
    that is not symmetric positive definite to its DegenerateMetric (index
    0 for a single matrix). A failed matrix is replaced by the identity so
    that the others go on.

    A matrix that is not symmetric within SYMMETRY_TOL (relative to its
    largest entry, at least 1) fails. The others are factored by
    _cholesky_dual with every entry g_ij as one operand: a float for one
    matrix, a contiguous (n,) array for a stack, so one numpy operation
    serves the whole stack and a matrix gets the same bits alone as in any
    stack. A matrix is positive definite when every pivot L_jj^2 is > 0;
    sqrt(det g) is the product of the L_jj.
    """
    failures = {}
    d = g.shape[-1]
    gt = np.swapaxes(g, -1, -2)
    if np.count_nonzero(g != gt):
        asym = np.abs(g - gt).max(axis=(-2, -1), initial=0.0)
        scale = np.abs(g).max(axis=(-2, -1), initial=0.0)
        g = (g + gt) / 2.0
        asymmetric = asym > SYMMETRY_TOL * np.maximum(1.0, scale)
        for k in np.flatnonzero(asymmetric):
            failures[int(k)] = DegenerateMetric(
                f"metric is not symmetric (deviation {float(asym.flat[k])!r})")
        g[asymmetric] = np.eye(d)
    else:
        g = g.copy()
    axes = tuple(range(g.ndim))
    entry = np.ascontiguousarray(g.transpose(axes[-2:] + axes[:-2]))  # [i, j, ...]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        root, dual = _cholesky_dual(entry)
        sqrt_det = np.ones(g.shape[:-2])
        for r in root:
            sqrt_det = sqrt_det * r
    dual = np.array(dual).reshape(g.shape[-2:] + g.shape[:-2])
    dual = np.ascontiguousarray(dual.transpose(axes[2:] + axes[:2]))
    definite = sqrt_det > 0
    if not definite.all():
        # judge the pivots themselves: their product can underflow
        definite = np.logical_and.reduce([r > 0 for r in root])
        for k in np.flatnonzero(~definite):
            failures[int(k)] = DegenerateMetric("metric is not positive definite")
        g[~definite] = dual[~definite] = np.eye(d)
        sqrt_det = np.where(definite, sqrt_det, 1.0)
    return g, dual, sqrt_det, failures


def _cholesky_dual(entry):
    """Cholesky factor and inverse of g from its entries g_ij = entry[i, j].

    g = L L^T (Golub & Van Loan, Matrix Computations, 4.2) and g^-1 = M^T M
    with M = L^-1. Returns the diagonal L_jj as a list and the d * d entries
    of g^-1 in row-major order, the same object at [i, j] and [j, i], so the
    dual is exactly symmetric. Every sum runs in index order, one operation
    per term.
    """
    d = len(entry)
    L = [[] for _ in range(d)]   # L[i][j], j < i
    root, inv = [], []           # L_jj and 1 / L_jj
    for j in range(d):
        Lj = L[j]
        for i in range(j, d):
            Li = L[i]
            s = entry[i, j]
            if j:
                dot = Li[0] * Lj[0]
                for k in range(1, j):
                    dot = dot + Li[k] * Lj[k]
                s = s - dot
            if i == j:
                root.append(np.sqrt(s))
                inv.append(1.0 / root[j])
            else:
                Li.append(s * inv[j])
    M = [[] for _ in range(d)]   # M[i][j], j <= i: M_ij = -(sum_{j<=k<i} L_ik M_kj) / L_ii
    for i in range(d):
        Li, Mi = L[i], M[i]
        if i:
            neg = -inv[i]
        for j in range(i):
            s = Li[j] * inv[j]
            for k in range(j + 1, i):
                s = s + Li[k] * M[k][j]
            Mi.append(s * neg)
        Mi.append(inv[i])
    dual = [None] * (d * d)      # dual_ij = sum_{k >= j} M_ki M_kj for i <= j
    for i in range(d):
        for j in range(i, d):
            s = M[j][i] * M[j][j]
            for k in range(j + 1, d):
                s = s + M[k][i] * M[k][j]
            dual[i * d + j] = dual[j * d + i] = s
    return root, dual


def gram_from_basis(basis: Basis) -> Metric:
    """Metric whose entries are the ambient dot products of the basis vectors."""
    cols = basis.columns
    return Metric(cols.T @ cols)


def raise_index(metric: Metric, tensor: DenseTensor, lower_slot: int) -> DenseTensor:
    """Contract g^ps against one lower slot; the new slot leads the uppers.

    X^{p ...} = sum_s g^{ps} X_{... s ...}, valency (r, s) -> (r+1, s-1).
    """
    r, s = tensor.valency.r, tensor.valency.s
    if not 1 <= lower_slot <= s:
        raise TensorIndexError(f"lower slot {lower_slot} out of range 1..{s}")
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
    if not 1 <= upper_slot <= r:
        raise TensorIndexError(f"upper slot {upper_slot} out of range 1..{r}")
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
    for i, j, k, sign in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                          (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)):
        eps[i, j, k] = sign
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
