"""Curvilinear charts: Jacobi matrices, moving frames, Christoffel symbols,
covariant derivatives, and the chart versions of the vector-calculus
operators.

A chart is an invertible differentiable map between curvilinear coordinates
y and ambient Cartesian coordinates x. Its Jacobi matrices

    S^i_j = dx^i/dy^j        T^i_j = dy^i/dx^j (taken at x(y))

are mutually inverse wherever the chart is regular. Columns of S form the
moving frame, the pointwise basis tangent to the coordinate lines; its Gram
matrix is the metric in the chart. Christoffel symbols are assembled from
the frame derivatives, and the covariant derivative corrects the plain
partial derivative with one Gamma term per slot, keeping tensor character.

Built-in charts (identity, cylindrical, spherical) carry analytic Jacobians
and analytic Jacobian derivatives, and so do charts loaded from JSON
coefficient tables: their Jacobians and second partials are the tables
differentiated term by term. Fields loaded from such tables (load_field)
carry their first and second partials the same way; both loaders take a
dict, a JSON text or a path. Each built-in chart is one frozen Chart per
process; its maps compute every distinct product of a point once and leave
structural zeros unwritten (_stack). These maps and domain predicates
broadcast over leading axes, so one call covers an (N, 3) array of points;
other Python callables given to Chart are called once per point. A chart built
from Python callables may supply only the forward/inverse maps; everything
else then falls back to central finite differences, taken for a whole
point array at once. Singular points (cylindrical axis, spherical poles)
are excluded by domain predicates and fail fast with DomainError.

ChartPoints computes S, T and the Christoffel symbols of a point array
once. The metric is arithmetic on S and T that fails no point: the Gram
matrix S^T S of the moving frame and its inverse the Gram matrix T T^T of
the dual frame, both formed by the metric module, as is the volume |det S|
(metric._gram, _dual_gram, _frame_volume). The chart operators,
chart_to_chart_transform among them, evaluate a point array in one pass
through it (TensorField.evaluate_batch); a point that fails, outside the
domain, at a degenerate transition (a singular S among them), or in a
chart callable (see fields._map_rows), fails alone, with the exception
the single-point call raises.

The Cartesian operators (nabla, gradient_covector, gradient_vector,
divergence, laplacian, rotor, dalembert) are the chart operators on the
flat chart x = L y of a constant metric g = L^T L, where Gamma = 0; the
identity chart is the flat chart of the Euclidean metric (L = I).

Dimension: Chart, ChartPoints and the chart operators work in any
dimension. ChristoffelArray, the coefficient-table charts and fields, and
the volume tensor of the rotor (Levi-Civita symbol) are 3-D only.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateTransition,
    DomainError,
    ParameterError,
    ShapeError,
    TensorIndexError,
)
from .fields import (
    DEFAULT_SCHEME,
    DifferentiationScheme,
    TensorField,
    _batched,
    _differences,
    _first_row,
    _map_rows,
    _parameter_partial,
    _partials,
    _point,
    _points,
    _raise_first,
    _row_texts,
)
from .metric import _LAST, _NEXT, Metric, _dual_gram, _frame_volume, _gram
from .tensors import (
    NEW_TO_OLD,
    OLD_TO_NEW,
    TransitionPair,
    Valency,
    _Frozen,
    _check_slot,
    _invert_stack,
    _pair_test,
    _transform_slots,
)

if TYPE_CHECKING:
    from .frames import Basis

__all__ = [
    "Chart", "ChartPoints", "ChristoffelArray", "builtin_chart", "load_chart",
    "load_field", "jacobians", "jacobian_direct", "jacobian_inverse", "jacobian_derivative",
    "moving_frame", "metric_in_chart", "metric_field", "christoffel",
    "christoffel_alt", "covariant_derivative", "chart_to_chart_transform",
    "coordinate_line", "gradient_covector_in_chart", "gradient_vector_in_chart",
    "divergence_in_chart", "laplacian_in_chart", "rotor_in_chart",
    "nabla", "gradient_covector", "gradient_vector", "divergence", "laplacian",
    "dalembert", "rotor",
]

FD_CONSISTENCY_TOL = 1e-4
ANALYTIC_CONSISTENCY_TOL = 1e-6


class Chart(_Frozen):
    """Coordinate chart with optional analytic Jacobian data.

    Parameters
    ----------
    name : str
    forward : callable y -> x (ambient Cartesian coordinates)
    inverse : callable x -> y
    jac_forward : callable y -> S matrix, optional
    jac_inverse : callable y -> T matrix (at x(y)), optional
    jac_forward_partials : callable y -> array dS with dS[q, i, j] =
        d S^q_i / d y^j, optional
    domain : callable y -> bool, optional (default: everywhere)
    sample_bounds : three (lo, hi) pairs used when drawing random domain
        points for audits and demos, optional
    """

    __slots__ = ("name", "forward", "inverse", "jac_forward", "jac_inverse",
                 "jac_forward_partials", "domain", "sample_bounds", "dim")

    def __init__(self, name: str, forward: Callable, inverse: Callable,
                 jac_forward: Optional[Callable] = None,
                 jac_inverse: Optional[Callable] = None,
                 jac_forward_partials: Optional[Callable] = None,
                 domain: Optional[Callable] = None,
                 sample_bounds: Optional[Sequence] = None,
                 dim: int = 3):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "jac_forward", jac_forward)
        object.__setattr__(self, "jac_inverse", jac_inverse)
        object.__setattr__(self, "jac_forward_partials", jac_forward_partials)
        object.__setattr__(self, "domain", domain)
        if sample_bounds is None:
            sample_bounds = ((-1.0, 1.0),) * dim
        object.__setattr__(self, "sample_bounds",
                           tuple((float(lo), float(hi)) for lo, hi in sample_bounds))
        object.__setattr__(self, "dim", dim)

    @property
    def analytic(self) -> bool:
        return self.jac_forward is not None and self.jac_inverse is not None

    def _inside(self, points: np.ndarray) -> np.ndarray:
        """Domain mask of an (N, dim) array: finite and inside the domain."""
        inside = np.isfinite(points).all(axis=1)
        if self.domain is not None and inside.any():
            inside[inside] = _map_rows(self.domain, points[inside], (), "domain",
                                       dtype=bool)[0]
        return inside

    def contains(self, y) -> bool:
        return bool(self._inside(_point(y, self.dim)[None])[0])

    def sample_points(self, n: int, rng) -> np.ndarray:
        """n random domain points inside the chart's sampling box.

        Candidates are drawn uniformly, never more than the points still
        missing at a time, so the generator ends where drawing one point
        at a time would leave it. Fails after 100 * max(n, 10) candidates.
        """
        lo = np.array([b[0] for b in self.sample_bounds])
        hi = np.array([b[1] for b in self.sample_bounds])
        limit = 100 * max(n, 10)
        pts = np.empty((0, self.dim))
        attempts = 0
        while len(pts) < n:
            block = min(n - len(pts), limit - attempts)
            if block <= 0:
                raise DomainError(
                    f"could not sample {n} points inside chart {self.name!r}")
            u = rng.random((block, self.dim))
            with np.errstate(over="ignore", invalid="ignore"):  # where hi - lo overflows,
                candidates = lo + (hi - lo) * u  # lo (1 - u) + hi u does not
                candidates = np.where(np.isfinite(candidates), candidates, lo * (1 - u) + hi * u)
            attempts += block
            pts = np.concatenate([pts, candidates[self._inside(candidates)]])
        return pts

    def __repr__(self):
        return f"Chart({self.name!r})"


class ChristoffelArray(_Frozen):
    """Christoffel symbols at one point: values[k, i, j] holds the symbol
    with upper index k and lower indices i, j."""

    __slots__ = ("values", "point")

    def __init__(self, values, point):
        values = np.asarray(values, dtype=float)
        if values.shape != (3, 3, 3):
            raise ShapeError(f"expected a 3x3x3 array, got {values.shape}")
        values = values.copy()
        values.flags.writeable = False
        point = np.asarray(point, dtype=float).copy()
        point.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "point", point)

    def get(self, k: int, i: int, j: int) -> float:
        """Symbol with 1-based indices."""
        if not all(1 <= a <= 3 for a in (k, i, j)):
            raise TensorIndexError("Christoffel indices run from 1 to 3")
        return float(self.values[k - 1, i - 1, j - 1])

    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.values - np.swapaxes(self.values, 1, 2))))

    def __repr__(self):
        return f"ChristoffelArray(point={self.point.tolist()})"


# -- built-in charts -----------------------------------------------------------


def _coords(y) -> tuple:
    """The three coordinates of a point or of an (..., 3) point array."""
    y = np.asarray(y, dtype=float)
    return y[..., 0], y[..., 1], y[..., 2]


def _stack(entries, like: np.ndarray, shape: tuple) -> np.ndarray:
    """like.shape + shape array from row-major entries: arrays like ``like``,
    scalars, or None for a structural zero, which is left unwritten as the
    exact +0.0 of the zeroed array. The result is C-contiguous."""
    out = np.zeros(like.shape + (len(entries),))
    for k, entry in enumerate(entries):
        if entry is not None:
            out[..., k] = entry
    return out.reshape(like.shape + shape)


# Each map below computes every distinct product once and builds each entry
# from them in the operation order of its formula: -r*s*c reads
# ((-r)*s)*c, and (-r)*s is -(r*s) bit for bit, so it is taken as nrs*c.


def _cylindrical() -> Chart:
    @_batched
    def forward(y):
        r, th, z = _coords(y)
        return _stack([r * np.cos(th), r * np.sin(th), z], r, (3,))

    @_batched
    def inverse(x):
        x1, x2, x3 = _coords(x)
        return _stack([np.hypot(x1, x2), np.arctan2(x2, x1), x3], x1, (3,))

    @_batched
    def jac_forward(y):
        r, th, _ = _coords(y)
        c, s = np.cos(th), np.sin(th)
        return _stack([c, -r * s, None,
                       s, r * c, None,
                       None, None, 1.0], r, (3, 3))

    @_batched
    def jac_inverse(y):
        r, th, _ = _coords(y)
        c, s = np.cos(th), np.sin(th)
        return _stack([c, s, None,
                       -s / r, c / r, None,
                       None, None, 1.0], r, (3, 3))

    @_batched
    def jac_forward_partials(y):
        r, th, _ = _coords(y)
        c, s = np.cos(th), np.sin(th)
        ns, nr = -s, -r
        # dS[q, i, j] with the derivative index j last; d/dz is zero
        return _stack([None, ns, None,      ns, nr * c, None,      None, None, None,
                       None, c, None,       c, nr * s, None,       None, None, None,
                       None, None, None,    None, None, None,      None, None, None],
                      r, (3, 3, 3))

    @_batched
    def domain(y):
        return _coords(y)[0] > 0.0

    return Chart(
        "cylindrical", forward, inverse, jac_forward, jac_inverse,
        jac_forward_partials, domain=domain,
        sample_bounds=((0.5, 3.0), (-math.pi, math.pi), (-2.0, 2.0)),
    )


def _spherical() -> Chart:
    # theta is the polar angle measured from the +z axis, phi the azimuth
    def angles(y):
        r, th, ph = _coords(y)
        return r, np.sin(th), np.cos(th), np.cos(ph), np.sin(ph)

    @_batched
    def forward(y):
        r, st, ct, cp, sp = angles(y)
        rs = r * st
        return _stack([rs * cp, rs * sp, r * ct], r, (3,))

    @_batched
    def inverse(x):
        r = np.linalg.norm(x, axis=-1)
        if np.any(r == 0.0):
            raise DomainError("origin has no spherical coordinates")
        x1, x2, x3 = _coords(x)
        return _stack([r, np.arccos(np.clip(x3 / r, -1.0, 1.0)), np.arctan2(x2, x1)],
                      r, (3,))

    @_batched
    def jac_forward(y):
        r, st, ct, cp, sp = angles(y)
        rs, rc = r * st, r * ct
        nrs = -rs
        return _stack([st * cp, rc * cp, nrs * sp,
                       st * sp, rc * sp, rs * cp,
                       ct, nrs, None], r, (3, 3))

    @_batched
    def jac_inverse(y):
        r, st, ct, cp, sp = angles(y)
        rs = r * st
        return _stack([st * cp, st * sp, ct,
                       ct * cp / r, ct * sp / r, -st / r,
                       -sp / rs, cp / rs, None], r, (3, 3))

    @_batched
    def jac_forward_partials(y):
        r, st, ct, cp, sp = angles(y)
        rc = r * ct
        nst, nrs, nrc = -st, -(r * st), -rc
        ctcp, ctsp, stcp, nstsp = ct * cp, ct * sp, st * cp, nst * sp
        nrscp, nrssp, nrcsp, rccp = nrs * cp, nrs * sp, nrc * sp, rc * cp
        # dS[q, i, j] with the derivative index j last (r, theta, phi)
        return _stack([None, ctcp, nstsp,   ctcp, nrscp, nrcsp,    nstsp, nrcsp, nrscp,
                       None, ctsp, stcp,    ctsp, nrssp, rccp,     stcp, rccp, nrssp,
                       None, nst, None,     nst, nrc, None,        None, None, None],
                      r, (3, 3, 3))

    @_batched
    def domain(y):
        r, th, _ = _coords(y)
        return (r > 0.0) & (0.0 < th) & (th < math.pi)

    return Chart(
        "spherical", forward, inverse, jac_forward, jac_inverse,
        jac_forward_partials, domain=domain,
        sample_bounds=((0.5, 3.0), (0.3, math.pi - 0.3), (-math.pi, math.pi)),
    )


def _flat_chart(g: Metric, name: str = "cartesian",
                sample_bounds: Optional[Sequence] = None) -> Chart:
    """Affine chart x = S y with S^T S = g, so that g is its metric.

    S and T = S^-1 are the metric's frame g.S and g.T: for Metric(g), S is
    the transposed Cholesky factor of g, so det S > 0 and the chart's
    sqrt(det g) epsilon is volume_tensor(g). The Jacobians are these
    constants, the second partials and the Christoffel symbols vanish,
    and there is no domain.
    """
    S, T = g.S, g.T

    def constant(value):
        @_batched
        def at(y):
            return np.broadcast_to(value, np.shape(y)[:-1] + value.shape).copy()
        return at

    @_batched
    def forward(y):
        return np.asarray(y, dtype=float) @ S.T

    @_batched
    def inverse(x):
        return np.asarray(x, dtype=float) @ T.T

    return Chart(name, forward, inverse, constant(S), constant(T),
                 constant(np.zeros((g.dim,) * 3)), sample_bounds=sample_bounds,
                 dim=g.dim)


# each built-in chart is immutable, so one instance serves every caller
_BUILTIN = {chart.name: chart for chart in (
    _cylindrical(), _spherical(),
    _flat_chart(Metric.euclidean(3), "identity", ((-2.0, 2.0),) * 3))}


def builtin_chart(name: str) -> Chart:
    """Named chart with analytic Jacobians: cylindrical, spherical, identity.

    Every call with the same name returns the same frozen Chart, built once
    when the module is imported.
    """
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ParameterError(
            f"unknown chart {name!r}; choose from {sorted(_BUILTIN)}")


# -- Jacobi matrices at a point array --------------------------------------------


def _fd_jacobian(mapping: Callable, points: np.ndarray, shape: tuple | None = None,
                 what: str = "chart map", second: bool = False):
    """Central-difference derivatives of a map at every row of points.

    Returns ``(values, failures)``, the derivative index last: values[n,
    ..., j] = d mapping(p)[...] / d p^j. mapping returns ``shape`` values
    per point, by default a vector of the point's dimension, so that [n, i,
    j] is the Jacobian. When second, values[n, q, i, j] = d^2 mapping(p)[q]
    / d p^i d p^j of a vector map. The scheme is DEFAULT_SCHEME (see
    DifferentiationScheme). A point fails at its first failing probe.
    """
    shape = points.shape[1:] if shape is None else shape

    def rows(probes):
        return _map_rows(mapping, probes, shape, what, probing=True)

    d1, d2, failures = _differences(rows, points, DEFAULT_SCHEME, not second, second)
    if second:  # contiguous: the Christoffel einsum is several times slower on a view
        return np.ascontiguousarray(np.moveaxis(d2, -1, 1)), failures
    return np.moveaxis(d1, 1, -1), failures


def _direct(chart: Chart, y: np.ndarray):
    """S at every row, ``(values, failures)``: analytic when the chart has
    it, else central FD."""
    if chart.jac_forward is not None:
        return _map_rows(chart.jac_forward, y, (chart.dim,) * 2, "jac_forward")
    return _fd_jacobian(chart.forward, y)


def _inverse(chart: Chart, y: np.ndarray):
    """T at every row, ``(values, failures)``: analytic, else central FD on
    inverse at x(y)."""
    if chart.jac_inverse is not None:
        return _map_rows(chart.jac_inverse, y, (chart.dim,) * 2, "jac_inverse")
    x, failures = _map_rows(chart.forward, y, (chart.dim,), "forward")
    T, more = _fd_jacobian(chart.inverse, x)
    return T, {**more, **failures}


def _second_partials(chart: Chart, y: np.ndarray):
    """dS[n, q, i, j] at every row, ``(values, failures)``; see
    jacobian_derivative."""
    dim = chart.dim
    if chart.jac_forward_partials is not None:
        return _map_rows(chart.jac_forward_partials, y, (dim,) * 3, "jac_forward_partials")
    if chart.jac_forward is not None:  # symmetrised in (i, j), as _partials does
        dS, failures = _fd_jacobian(chart.jac_forward, y, (dim, dim), "jac_forward")
        return (dS + np.swapaxes(dS, 2, 3)) / 2.0, failures
    return _fd_jacobian(chart.forward, y, what="forward", second=True)


class ChartPoints:
    """Chart quantities at an (N, dim) array of points, each computed once.

    The stages are the steps that can fail a row. Those asked for run in a
    fixed order (domain, transition, Christoffel symbols), each on the rows
    that passed the ones before it; the Christoffel symbols imply the
    transition stage. A row that fails a stage is dropped, and
    ``failures`` maps its row number to the exception the single-point
    functions raise there, with the same message: DomainError outside the
    domain or where a Christoffel symbol is not finite, DegenerateTransition
    where S and T are not mutually inverse (a singular S among them); finish
    fails a row whose value is not finite. ``index`` holds the rows that
    passed and ``points`` their coordinates; the arrays below have one
    entry per such row and are None for stages not asked for.

    S, T, residual (transition): Jacobi matrices, and max |T S - I| from T
        as the chart gives it; T is kept where it passes _pair_test, fails
        above the chart tolerance, else is S^-1, held to _pair_test
    gamma (christoffel): gamma[n, k, i, j] with upper index k and lower
        indices i, j

    The metric g = S^T S and its inverse T T^T are metric._gram(S) and
    metric._dual_gram(T), which fail no row. gamma is one stacked matmul on
    C-contiguous operands, so a row gets the same bits alone as in any
    batch.
    """

    _ROWS = ("index", "points", "S", "T", "residual", "gamma")
    S = T = residual = gamma = None

    def __init__(self, chart: Chart, points, transition: bool = False,
                 christoffel: bool = False):
        points = _points(points, chart.dim)
        self.chart = chart
        self.count = len(points)
        self.failures = {}
        self.index = np.arange(len(points))
        self.points = points
        outside = ~chart._inside(points)
        if outside.any():
            outside = outside.nonzero()[0]
            self._drop({k: DomainError(f"point {y} outside domain of chart {chart.name!r}")
                        for k, y in zip(outside.tolist(), _row_texts(points[outside]))})
        if not (transition or christoffel):
            return
        with np.errstate(all="ignore"):  # a non-finite entry fails its row, not a warning
            self._transition()
            if christoffel:
                dS, failures = _second_partials(chart, self.points)
                n, d = dS.shape[:2]
                T = np.ascontiguousarray(self.T)
                # one (d, d) @ (d, d*d) product per point
                self.gamma = (T @ dS.reshape(n, d, d * d)).reshape(dS.shape)
                self._drop(failures)
                if not np.isfinite(self.gamma).all():
                    bad = np.flatnonzero(~np.isfinite(self.gamma).all(axis=(1, 2, 3)))
                    self._drop({k: DomainError(f"Christoffel symbols of chart {chart.name!r} "
                                               f"at {y} are not finite")
                                for k, y in zip(bad.tolist(), _row_texts(self.points[bad]))})

    def _drop(self, errors: dict):
        """Record errors[k] for every row k listed and drop those rows."""
        if not errors:
            return
        rows = np.fromiter(errors, dtype=np.intp, count=len(errors))
        self.failures.update(zip(self.index[rows].tolist(), errors.values()))
        keep = np.ones(len(self.index), dtype=bool)
        keep[rows] = False
        for name in self._ROWS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])

    def _frame(self) -> np.ndarray:
        if self.S is None:
            self.S, failures = _direct(self.chart, self.points)
            self._drop(failures)
        return self.S

    def _transition(self):
        chart = self.chart
        self._frame()
        self.T, failures = _inverse(chart, self.points)
        self._drop(failures)
        self.residual, failures = _pair_test(self.S, self.T)
        if not failures:  # every T as the chart gives it
            return
        tol = ANALYTIC_CONSISTENCY_TOL if chart.analytic else FD_CONSISTENCY_TOL
        redo = np.fromiter(failures, dtype=np.intp, count=len(failures))
        far = ~(self.residual[redo] <= tol)
        bad, redo = redo[far], redo[~far]
        failures = {k: DegenerateTransition(
            f"Jacobi matrices of chart {chart.name!r} at {y} "
            f"are not mutually inverse (residual {value!r})")
            for k, y, value in zip(bad.tolist(), _row_texts(self.points[bad]),
                                   self.residual[bad].tolist())}
        self.T[redo], singular = _invert_stack(self.S[redo])  # held to the same test
        more = {**_pair_test(self.S[redo], self.T[redo])[1], **singular}
        self._drop({**failures, **{redo[p]: exc for p, exc in more.items()}})

    def finish(self, values: np.ndarray, failures: dict = None):
        """Values and failures for every input row.

        values has one entry per row that passed the chart stages; failures
        maps positions among those rows to later errors (field probes), and
        a row not failed there whose values are not finite fails with
        DomainError. Returns ``(values, failures)`` over all N rows, failed
        rows NaN, as TensorField.evaluate_batch does.
        """
        out = np.full((self.count,) + values.shape[1:], np.nan)
        out[self.index] = values
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1))
            failures = {**{k: DomainError("tensor components must all be finite")
                           for k in bad.tolist()}, **(failures or {})}
        merged = dict(self.failures)
        if failures:
            rows = self.index[np.fromiter(failures, dtype=np.intp, count=len(failures))]
            out[rows] = np.nan
            merged.update(zip(rows.tolist(), failures.values()))
        return out, dict(sorted(merged.items()))


def _at(chart: Chart, y, **stages) -> ChartPoints:
    """ChartPoints of a single point; raises that point's failure."""
    state = ChartPoints(chart, _point(y, chart.dim)[None], **stages)
    _raise_first(state.failures)
    return state


def jacobian_direct(chart: Chart, y) -> np.ndarray:
    """S at y: analytic when the chart has it, else central FD on forward."""
    return _first_row(*_direct(chart, _at(chart, y).points))


def jacobian_inverse(chart: Chart, y) -> np.ndarray:
    """T at the same point: analytic, else central FD on inverse at x(y)."""
    return _first_row(*_inverse(chart, _at(chart, y).points))


def jacobians(chart: Chart, y) -> TransitionPair:
    """Transition pair (S, T) of the chart at y.

    S comes from the forward map and T from the inverse map; their product
    is checked against the identity (1e-6 when both are analytic, 1e-4 for
    FD) so a broken inverse map surfaces as DegenerateTransition. The pair
    is the ChartPoints transition row at y (T, or S^-1 where T fails
    TransitionPair's test), and it fails where every chart operator does.
    """
    state = _at(chart, y, transition=True)
    return TransitionPair(state.S[0], state.T[0])


def jacobian_derivative(chart: Chart, y) -> np.ndarray:
    """dS[q, i, j] = second partial d^2 x^q / dy^i dy^j of the forward map.

    Uses analytic second partials when supplied; otherwise central FD on
    the analytic Jacobian, symmetrised in (i, j); otherwise central second
    differences of the forward map. Both FD routes use DEFAULT_SCHEME (see
    DifferentiationScheme) and give a dS exactly symmetric in (i, j).
    """
    return _first_row(*_second_partials(chart, _at(chart, y).points))


# -- frame, metric, Christoffel -------------------------------------------------


def moving_frame(chart: Chart, y) -> Basis:
    """Basis of tangent vectors to the coordinate lines (columns of S)."""
    from .frames import Basis  # loads on first use (see the package docstring)

    return Basis(jacobian_direct(chart, y))


def metric_in_chart(chart: Chart, y) -> Metric:
    """Gram matrix of the moving frame: g_ij = (E_i, E_j) = (S^T S)_ij.

    Metric.from_frame(jacobians(chart, y)): it fails where jacobians does
    (DegenerateTransition at a singular frame) and where S^T S is not
    finite (DegenerateMetric), and its matrix, dual and
    sqrt_det are _gram(S), _dual_gram(T) and |det S| of the ChartPoints
    transition stage at y, bit for bit.
    """
    return Metric.from_frame(jacobians(chart, y))


def metric_field(chart: Chart) -> TensorField:
    """The chart metric g_ij = (S^T S)_ij as a (0, 2) field over chart
    coordinates.

    Only S is evaluated: the field needs neither T nor the metric's
    inverse, so its finite-difference probes (the audit's concordance
    check) never call jac_inverse. A point outside the domain or where S
    fails fails alone, and so does a point whose g is not finite.
    """

    @_batched
    def func(points):
        with np.errstate(all="ignore"):  # a non-finite g fails its row in finish
            state = ChartPoints(chart, points)
            return state.finish(_gram(state._frame()))

    return TensorField(Valency(0, 2), func, chart.dim)


def christoffel(chart: Chart, y) -> ChristoffelArray:
    """Gamma^k_ij = sum_q T^k_q dS^q_i/dy^j at y."""
    state = _at(chart, y, christoffel=True)
    return ChristoffelArray(state.gamma[0], state.points[0])


def christoffel_alt(chart: Chart, y) -> np.ndarray:
    """Alternative route: Gamma^k_ij = -sum_q S^q_i dT^k_q/dy^j.

    dT/dy is taken by central FD on the inverse Jacobian with
    DEFAULT_SCHEME (see DifferentiationScheme); kept as a raw array for
    cross-checking the main construction.
    """
    y = _at(chart, y).points
    dim = chart.dim
    dT = _first_row(*_fd_jacobian(_batched(lambda p: _inverse(chart, p)), y, (dim, dim),
                                  "jac_inverse"))
    return -np.einsum("qi,kqj->kij", _first_row(*_direct(chart, y)), dT)


# -- covariant derivative --------------------------------------------------------


def _gamma_corrections(gamma: np.ndarray, arr: np.ndarray, r: int, s: int) -> np.ndarray:
    """Sum of the Gamma terms of nabla_p X at every row: [n, p, slots...].

    Each upper slot adds Gamma^a_pm X^..m.., each lower slot subtracts
    Gamma^m_pa X_..m.. (the slot's index replaced by the summed m).
    """
    slots = "ABCDEFGHIJKL"[:r + s]
    total = 0.0
    for a, letter in enumerate(slots):
        moved = slots[:a] + "m" + slots[a + 1:]
        if a < r:
            total = total + np.einsum(f"n{letter}pm,n{moved}->np{slots}", gamma, arr)
        else:
            total = total - np.einsum(f"nmp{letter},n{moved}->np{slots}", gamma, arr)
    return total


def _covariant(state: ChartPoints, field: TensorField, t,
               scheme: DifferentiationScheme | None):
    """nabla_p X at the rows of a ChartPoints: ``([n, p, slots...], failures)``.

    The state needs the Christoffel symbols unless the field is a scalar.
    """
    r, s = field.valency.r, field.valency.s
    table, _, failures = _partials(field, state.points, t, scheme)
    if r + s:
        arr, more = field.evaluate_batch(state.points, t)
        table = table + _gamma_corrections(state.gamma, arr, r, s)
        for row, exc in more.items():
            failures.setdefault(row, exc)
    return table, failures


def _chart_field(chart: Chart, field: TensorField, valency: Valency, body: Callable,
                 **stages) -> TensorField:
    """The chart operator field of ``valency`` over ``field``: state =
    ChartPoints(chart, points, **stages), body(state, t) giving ``(values,
    failures)`` at its rows and state.finish, all with numpy warnings off."""
    if field.dim != chart.dim:
        raise ShapeError(f"field of dimension {field.dim} on chart {chart.name!r} "
                         f"of dimension {chart.dim}")

    @_batched
    def func(points, t=None):
        with np.errstate(all="ignore"):
            state = ChartPoints(chart, points, **stages)
            return state.finish(*body(state, t))

    return TensorField(valency, func, field.dim, has_parameter=field.has_parameter)


def covariant_derivative(chart: Chart, field: TensorField,
                         scheme: DifferentiationScheme | None = None) -> TensorField:
    """Gamma-corrected derivative of a field given in chart coordinates.

    Valency (r, s) -> (r, s+1) with the new covariant slot first among the
    lower slots. Each upper slot contributes +Gamma X, each lower slot
    -Gamma X; on a flat chart all corrections vanish, leaving the plain
    partial derivative (nabla).
    """
    r, s = field.valency.r, field.valency.s

    def body(state, t):
        table, failures = _covariant(state, field, t, scheme)
        return np.moveaxis(table, 1, 1 + r), failures

    return _chart_field(chart, field, Valency(r, s + 1), body, christoffel=r + s > 0)


def chart_to_chart_transform(field: TensorField, source: Chart,
                             target: Chart) -> TensorField:
    """The same tensor field, re-expressed in another chart's frame.

    Evaluation at target coordinates walks through the ambient Cartesian
    point: frame components at the matching source point are pushed to the
    ambient basis with the source Jacobians and pulled back with the
    target's, as stacks. A point fails alone, at the first of: the target's
    domain and transition (the ChartPoints stages), its forward map, the source's
    inverse map and domain ("charts do not overlap here"), the source's
    transition, the field. Each domain is checked once per point.
    """

    def body(there, t):
        x, failures = _map_rows(target.forward, there.points, (target.dim,), "forward")
        y, more = _map_rows(source.inverse, x, (source.dim,), "inverse")
        here = ChartPoints(source, y)
        rows = list(here.failures)
        here.failures = {k: failures.get(k) or more.get(k) or DomainError(
            f"point {text} is outside chart {source.name!r}; charts do not overlap here")
            for k, text in zip(rows, _row_texts(x[rows]))}
        here._transition()
        values, failures = field.evaluate_batch(here.points, t)
        values = _transform_slots(values, field.valency, here, NEW_TO_OLD)
        values, failures = here.finish(values, failures)
        return _transform_slots(values, field.valency, there, OLD_TO_NEW), failures

    return _chart_field(target, field, field.valency, body, transition=True)


def coordinate_line(chart: Chart, y0, axis: int, values) -> np.ndarray:
    """Ambient points traced by varying one chart coordinate.

    axis is 1-based; values are the parameter samples substituted into that
    coordinate slot.
    """
    y0 = _at(chart, y0).points[0]
    if not 1 <= axis <= chart.dim:
        raise ShapeError(f"axis {axis} out of range 1..{chart.dim}")
    values = np.asarray(values, dtype=float).ravel()
    ys = np.repeat(y0[None], len(values), axis=0)
    ys[:, axis - 1] = values
    _raise_first(ChartPoints(chart, ys).failures)
    values, failures = _map_rows(chart.forward, ys, (chart.dim,), "forward")
    _raise_first(failures)
    return values


# -- vector calculus in a chart ---------------------------------------------------


def gradient_covector_in_chart(chart: Chart, phi: TensorField,
                               scheme: DifferentiationScheme | None = None) -> TensorField:
    """Covariant gradient of a scalar; for scalars just the y-partials."""
    if phi.valency.order != 0:
        raise ShapeError("gradient needs a scalar field")
    return covariant_derivative(chart, phi, scheme)


def gradient_vector_in_chart(chart: Chart, phi: TensorField,
                             scheme: DifferentiationScheme | None = None) -> TensorField:
    """Gradient with the index raised by the chart metric."""
    if phi.valency.order != 0:
        raise ShapeError("gradient needs a scalar field")

    def body(state, t):
        covector, failures = _covariant(state, phi, t, scheme)
        # elementwise, then summed along each row: einsum's last bits vary with N
        return np.sum(_dual_gram(state.T) * covector[:, None, :], axis=2), failures

    return _chart_field(chart, phi, Valency(1, 0), body, transition=True)


def divergence_in_chart(chart: Chart, field: TensorField, slot: int = 1,
                        scheme: DifferentiationScheme | None = None) -> TensorField:
    """Contraction of the covariant derivative with an upper slot."""
    r = field.valency.r
    if r < 1:
        raise ShapeError("divergence needs at least one upper slot")
    _check_slot("upper", slot, r)

    def body(state, t):
        table, failures = _covariant(state, field, t, scheme)  # [n, p, slots...]
        return np.trace(table, axis1=1, axis2=1 + slot), failures

    return _chart_field(chart, field, Valency(r - 1, field.valency.s), body,
                        christoffel=True)


def laplacian_in_chart(chart: Chart, phi: TensorField,
                       scheme: DifferentiationScheme | None = None) -> TensorField:
    """sum_ij g^ij (d_i d_j phi - Gamma^n_ij d_n phi) over the chart metric.

    For a scalar the second covariant derivative expands into the Hessian
    minus a single Gamma correction, so no nested differencing is needed.
    """
    if phi.valency.order != 0:
        raise ShapeError("laplacian needs a scalar field")

    def body(state, t):
        first, hess, failures = _partials(phi, state.points, t, scheme, second=True)
        second = hess - np.einsum("nkij,nk->nij", state.gamma, first)
        return np.sum(_dual_gram(state.T) * second, axis=(1, 2)), failures

    return _chart_field(chart, phi, Valency(0, 0), body, christoffel=True)


def rotor_in_chart(chart: Chart, field: TensorField,
                   scheme: DifferentiationScheme | None = None) -> TensorField:
    """Curl against the chart metric and its volume tensor.

    The volume factor sqrt(det g) is |det S| (_frame_volume); the
    transition stage has already failed every point where S is singular.
    """
    if field.valency != Valency(1, 0):
        raise ShapeError("rotor needs a vector field")
    if field.dim != 3:
        raise ShapeError("rotor is defined for dimension 3")

    def body(state, t):
        table, failures = _covariant(state, field, t, scheme)  # [n, m, k] = nabla_m X^k
        # rot^r = sqrt(det g) g^ri epsilon_ijk g^jm nabla_m X^k; products taken
        # elementwise and summed in index order, so no row depends on the
        # batch or on the operands' memory layout
        dual = _dual_gram(state.T)
        up = functools.reduce(np.add, (dual[:, :, m, None] * table[:, None, m, :]
                                       for m in range(3)))   # [n, j, k]
        low = up[:, _NEXT, _LAST] - up[:, _LAST, _NEXT]      # epsilon_ijk up[j, k]
        rot = _frame_volume(state.S)[:, None] * functools.reduce(
            np.add, (dual[:, :, i] * low[:, i, None] for i in range(3)))
        return rot, failures

    return _chart_field(chart, field, Valency(1, 0), body, christoffel=True)


# -- Cartesian operators: the chart operators on a flat chart ----------------------


def nabla(field: TensorField, scheme: DifferentiationScheme | None = None) -> TensorField:
    """Derivative field: valency (r, s+1), new covariant slot first lower.

    Component [i..., q, j...] holds the coordinate derivative along x^q of
    component [i..., j...]: the covariant derivative on a flat chart.
    """
    return covariant_derivative(_flat_chart(Metric.euclidean(field.dim)), field, scheme)


def gradient_covector(phi: TensorField,
                      scheme: DifferentiationScheme | None = None) -> TensorField:
    """a_q = derivative of the scalar along x^q, as a covector field."""
    return gradient_covector_in_chart(_flat_chart(Metric.euclidean(phi.dim)), phi, scheme)


def gradient_vector(g: Metric, phi: TensorField,
                    scheme: DifferentiationScheme | None = None) -> TensorField:
    """Index-raised gradient: component q is sum_i g^{qi} a_i."""
    return gradient_vector_in_chart(_flat_chart(g), phi, scheme)


def divergence(field: TensorField, slot: int = 1,
               scheme: DifferentiationScheme | None = None) -> TensorField:
    """Contraction of the derivative slot with the chosen upper slot."""
    return divergence_in_chart(_flat_chart(Metric.euclidean(field.dim)), field, slot,
                               scheme)


def laplacian(g: Metric, phi: TensorField,
              scheme: DifferentiationScheme | None = None) -> TensorField:
    """Scalar field sum_ij g^{ij} (second partial i j of phi)."""
    return laplacian_in_chart(_flat_chart(g), phi, scheme)


def rotor(g: Metric, field: TensorField,
          scheme: DifferentiationScheme | None = None) -> TensorField:
    """Curl of a vector field: component r is sum g^{ri} w_ijk g^{jm} d_m X^k.

    With the identity metric this is the familiar determinant rule; the
    volume tensor w keeps it meaningful in any positively oriented skew
    basis.
    """
    return rotor_in_chart(_flat_chart(g), field, scheme)


def dalembert(c: float, phi: TensorField,
              scheme: DifferentiationScheme | None = None) -> TensorField:
    """(1/c^2) d2(phi)/dt2 minus the Euclidean laplacian of phi.

    t is the external parameter, not a fourth coordinate. Static fields
    have zero time derivative, so the operator degenerates to -laplacian.
    """
    if not c > 0:
        raise ParameterError(f"wave speed must be positive, got {c}")
    spatial = laplacian(Metric.euclidean(phi.dim), phi, scheme)

    @_batched
    def func(points, t=None):
        lap, failures = spatial.evaluate_batch(points, t)
        if not phi.has_parameter:
            return -lap, failures
        ptt, more = _parameter_partial(phi, points, t, scheme, second=True)
        for row, exc in more.items():
            failures.setdefault(row, exc)
        return ptt / (c * c) - lap, dict(sorted(failures.items()))

    return TensorField(Valency(0, 0), func, phi.dim,
                       has_parameter=phi.has_parameter)


# -- coefficient tables: custom charts and fields ----------------------------------
#
# A parsed term is (coeff, factors): the value coeff * prod(factors) with
# factors ("pow", a, p) = y_a**p (p >= 1), ("sin", a, f) = sin(f y_a) and
# ("cos", a, f) = cos(f y_a), in axis order and each power before the trig
# factor of its axis. The grammar is closed under d/dy_b (power rule,
# sin' = cos, cos' = -sin), so the partials of a table are tables of the
# same grammar: a chart's Jacobian and second partials, and a field's first
# and second partials. A derivative multiplies a term by a power or a
# frequency, folded into the coefficient unless that product overflows; it
# is then a trailing factor ("mul", None, m), applied after the others.
# A loaded map or field builds its partial tables on first use (_Tables):
# one pass over a table gives its partials along all three axes, one more
# pass over its partial along y_i its second partials (i, j), j >= i.

_TRIG = {"sin": np.sin, "cos": np.cos}
_NO_POWERS = (0, 0, 0)
_NO_TRIG = (None, None, None)
_MAX = sys.float_info.max
# second partial (i, j), row-major, reads (min, max) of the six built with i <= j
_SYMMETRIC = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _finite(value) -> bool:
    """Is value a finite real number (not a bool)?"""
    if type(value) not in (float, int) and (
            not isinstance(value, numbers.Real) or isinstance(value, (bool, np.bool_))):
        return False
    return abs(value) <= _MAX


def _count(value) -> bool:
    """Is value a non-negative integer (an integral float counts)?"""
    if type(value) is int:
        return value >= 0
    return _finite(value) and value >= 0 and float(value).is_integer()


def _compile_component(terms, where: str) -> list:
    """The parsed terms of one coordinate map's or field component's
    coefficient table.

    Each term is {"coeff": c, "powers": [p1,p2,p3]} with an optional
    "trig": [spec|null, ...] where spec = {"fn": "sin"|"cos", "freq": f},
    the value c * prod_a y_a**p_a * trig_a(freq_a * y_a). A malformed table
    raises ParameterError naming ``where`` and the term.
    """
    if not isinstance(terms, (list, tuple)):
        raise ParameterError(f"{where}: expected a term list, got {terms!r}")
    parsed = []
    for n, term in enumerate(terms):
        if not isinstance(term, dict) or "coeff" not in term:
            raise ParameterError(f"{where}: term {n} needs a 'coeff'")
        coeff = term["coeff"]
        if not (type(coeff) is float and -_MAX <= coeff <= _MAX or _finite(coeff)):
            raise ParameterError(
                f"{where}: term {n} coeff must be a finite number, got {coeff!r}")
        powers = term.get("powers", _NO_POWERS)
        if powers is not _NO_POWERS and not (
                isinstance(powers, (list, tuple)) and len(powers) == 3
                and all(map(_count, powers))):
            raise ParameterError(
                f"{where}: term {n} powers must be three counts, got {powers!r}")
        trig = term.get("trig")
        if trig is None:
            trig = _NO_TRIG
        elif not isinstance(trig, (list, tuple)) or len(trig) != 3:
            raise ParameterError(f"{where}: term {n} trig must have three entries")
        factors = []
        for a, spec in enumerate(trig):
            if powers[a]:
                factors.append(("pow", a, int(powers[a])))
            if spec is None:
                continue
            if not isinstance(spec, dict):
                raise ParameterError(
                    f"{where}: term {n} trig entries must be null or objects, got {spec!r}")
            if spec.get("fn") not in ("sin", "cos"):
                raise ParameterError(f"{where}: term {n} trig fn must be sin or cos")
            freq = spec.get("freq", 1.0)
            if not (type(freq) is float and -_MAX <= freq <= _MAX or _finite(freq)):
                raise ParameterError(
                    f"{where}: term {n} trig freq must be a finite number, got {freq!r}")
            factors.append((spec["fn"], a, float(freq)))
        parsed.append((float(coeff), tuple(factors)))
    return parsed


def _evaluate(tables: list, y) -> np.ndarray:
    """The values of parsed tables at y (..., 3): (..., len(tables)).

    Each term multiplies its coefficient by its factors in order and the
    terms are added to zero in table order. This is the one rounding rule
    of every table: map, field component and their partials. Every step is
    elementwise, so a point's value does not depend on the batch it is
    evaluated in. Each distinct factor is computed once per call.
    """
    coords = _coords(y)
    out = np.zeros(coords[0].shape + (len(tables),))
    columns = {}
    get = columns.get
    for e, terms in enumerate(tables):
        if not terms:
            continue
        total = 0.0
        for value, factors in terms:
            for factor in factors:
                column = get(factor)
                if column is None:
                    fn, a, param = factor
                    if fn == "pow":
                        column = coords[a] if param == 1 else coords[a] ** param
                    elif fn == "mul":
                        column = param
                    else:
                        column = _TRIG[fn](param * coords[a])
                    columns[factor] = column
                value = value * column
            total = total + value
        out[..., e] = total
    return out


def _differentiate(terms: list, low: int = 0) -> list:
    """[d/dy_b of parsed terms for b in 0, 1, 2], built in one pass over
    them by the product rule, the tables below axis ``low`` left empty.

    Each factor on axis b gives one term of d/dy_b, in term and factor
    order: y**p (dropped at p = 1) times p, sin(f y) turned to cos times f,
    cos to sin times -f, none at f = 0. The multiplier is folded into the
    coefficient unless that product is not finite: it is then a trailing
    factor, so 1e308 y**2 * 2 is still finite at y = 0.5.
    """
    out = ([], [], [])
    for coeff, factors in terms:
        for k, (fn, a, param) in enumerate(factors):
            if a is None or a < low:  # the trailing ("mul", None, m)
                continue
            if fn == "pow":
                multiplier, turned = param, (("pow", a, param - 1),) if param > 1 else ()
            elif param:
                multiplier, turned = ((param, (("cos", a, param),)) if fn == "sin" else
                                      (-param, (("sin", a, param),)))
            else:
                continue
            rest = factors[:k] + turned + factors[k + 1:]
            product = multiplier * coeff
            out[a].append((product, rest) if math.isfinite(product) else
                          (coeff, rest + (("mul", None, multiplier),)))
    return list(out)


class _Tables:
    """Batched evaluators of parsed tables and of their partials.

    values(y)[..., e] is table e, first(y)[..., e, q] its partial along y_q
    and second(y)[..., e, i, j] along y_i and y_j, (j, i) read from (i, j)
    of i <= j so that it is symmetric bit for bit; all summed by _evaluate.
    The partial tables are built on first use and kept: table 3 e + q of
    first_tables() and 6 e + u of second_tables(), u-th pair i <= j.
    """

    __slots__ = ("tables", "_first", "_second")

    def __init__(self, tables: list):
        self.tables, self._first, self._second = tables, None, None

    def first_tables(self) -> list:
        if self._first is None:
            self._first = [table for terms in self.tables for table in _differentiate(terms)]
        return self._first

    def second_tables(self) -> list:
        if self._second is None:
            self._second = [table for k, terms in enumerate(self.first_tables())
                            for table in _differentiate(terms, k % 3)[k % 3:]]
        return self._second

    @_batched
    def values(self, y):
        return _evaluate(self.tables, y)

    @_batched
    def first(self, y):
        out = _evaluate(self.first_tables(), y)
        return out.reshape(out.shape[:-1] + (len(self.tables), 3))

    @_batched
    def second(self, y):
        out = _evaluate(self.second_tables(), y)
        lead = out.shape[:-1]
        return out.reshape(lead + (len(self.tables), 6))[..., _SYMMETRIC].reshape(
            lead + (len(self.tables), 3, 3))


def _compile_map(spec: list, where: str) -> tuple:
    """Compile a map y -> x from its three component tables.

    Returns batched callables ``(mapping, jacobian, partials)`` (_Tables):
    the map, J[..., i, j] = dx^i/dy^j and dJ[..., q, i, j] = d^2 x^q / dy^i dy^j.
    """
    if not isinstance(spec, list) or len(spec) != 3:
        raise ParameterError(f"{where}: expected three component term lists")
    tables = _Tables([_compile_component(spec[i], f"{where}[{i}]") for i in range(3)])
    return tables.values, tables.first, tables.second


def _read_json(source, what: str):
    """The JSON document ``source``: an already-parsed dict, a JSON text
    (one that starts with "{" or "[") or a path.

    A file that cannot be read, bytes that are not UTF-8 and a text that is
    not JSON are each a ParameterError that names ``what`` and the source.
    """
    if isinstance(source, dict):
        return source
    text = str(source)
    try:
        if text.lstrip().startswith(("{", "[")):
            return json.loads(text)
        with open(text, "rb") as fh:  # line ends read as in text mode, for error positions
            document = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(document)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8, a NUL in a path
        raise ParameterError(f"{what} {text!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def _bound(values, name: str, which: str) -> list:
    if not isinstance(values, (list, tuple)) or len(values) != 3:
        raise ParameterError(f"chart {name!r} bounds: {which} needs three entries, "
                             f"got {values!r}")
    for a, v in enumerate(values):
        if v is not None and not _finite(v):
            raise ParameterError(f"chart {name!r} bounds: axis {a + 1} {which} must be "
                                 f"a finite number or null, got {v!r}")
    return [None if v is None else float(v) for v in values]


def load_chart(source) -> Chart:
    """Chart from a JSON config: coefficient tables for forward and inverse.

    ``source`` may be a path, a JSON string, or an already-parsed dict. The
    config must define "forward" and "inverse" as three term lists each;
    optional "bounds" {"min": [...], "max": [...]} (null entries mean
    unbounded) both restrict the domain and set the sampling box, which
    takes -1 or 1 for a null entry, or 2 beyond the other bound of its
    axis when that lies at or beyond -1 or 1. The
    chart is analytic: S and the second partials are the differentiated
    forward tables, and T is the differentiated inverse table taken at
    x(y), never the inverse of S, so the transition check still compares
    two independent maps.
    """
    config = _read_json(source, "chart config")
    if not isinstance(config, dict) or "forward" not in config or "inverse" not in config:
        raise ParameterError("chart config needs 'forward' and 'inverse' maps")
    name = str(config.get("name", "custom"))
    forward, jac_forward, jac_forward_partials = _compile_map(
        config["forward"], f"chart {name!r} forward")
    inverse, jac_inverse_at_x, _ = _compile_map(config["inverse"], f"chart {name!r} inverse")

    @_batched
    def jac_inverse(y):
        return jac_inverse_at_x(forward(y))

    bounds = config.get("bounds") or {}
    if not isinstance(bounds, dict):
        raise ParameterError(f"chart {name!r} bounds: expected an object with 'min' "
                             f"and 'max' lists, got {bounds!r}")
    lo = _bound(bounds.get("min", [None, None, None]), name, "min")
    hi = _bound(bounds.get("max", [None, None, None]), name, "max")

    @_batched
    def domain(y):
        coords = _coords(y)
        inside = np.ones(coords[0].shape, dtype=bool)
        for a in range(3):
            if lo[a] is not None:
                inside &= coords[a] > lo[a]
            if hi[a] is not None:
                inside &= coords[a] < hi[a]
        return inside

    sample = []
    for a in range(3):
        a_lo, a_hi = lo[a], hi[a]
        if a_lo is None:
            a_lo = -1.0 if a_hi is None or a_hi > -1.0 else a_hi - 2.0
        if a_hi is None:
            a_hi = 1.0 if a_lo < 1.0 else a_lo + 2.0
        span = a_hi - a_lo
        if not span > 0:
            raise ParameterError(f"chart {name!r} bounds: axis {a + 1} min {a_lo!r} "
                                 f"is not below max {a_hi!r}")
        sample.append((a_lo + 0.1 * span, a_hi - 0.1 * span) if span < math.inf
                      else (0.9 * a_lo + 0.1 * a_hi, 0.1 * a_lo + 0.9 * a_hi))  # no overflow

    has_domain = any(b is not None for b in lo + hi)
    return Chart(name, forward, inverse, jac_forward, jac_inverse, jac_forward_partials,
                 domain=domain if has_domain else None, sample_bounds=sample)


def load_field(source) -> TensorField:
    """TensorField from a JSON spec of component coefficient tables.

    ``source`` may be a path, a JSON string, or an already-parsed dict:
    {"r": 1, "s": 0, "components": [terms, terms, terms]}, where r and s
    count the upper and lower slots and there is one term list per
    component in row-major slot order (a scalar field has exactly one).
    Terms follow the chart-config grammar (_compile_component). The
    field's first partials [n, q, slots...] and second partials [n, i, j,
    slots...] are its tables differentiated term by term (_Tables), so no
    operator takes finite differences of it and a scheme does not change
    its operators' values.
    """
    spec = _read_json(source, "field spec")
    if not isinstance(spec, dict):
        raise ParameterError(f"field spec {str(source)!r}: a field spec must be an object "
                             "with 'r', 's' and 'components'")
    try:
        r, s, component_tables = spec["r"], spec["s"], spec["components"]
    except KeyError as exc:
        raise ParameterError(f"malformed field spec: {exc}") from exc
    if not (_count(r) and _count(s)):
        raise ParameterError(
            f"malformed field spec: r and s must be counts, got {r!r} and {s!r}")
    valency = Valency(int(r), int(s))
    count = 3 ** valency.order
    if not isinstance(component_tables, list) or len(component_tables) != count:
        raise ParameterError(f"field spec needs {count} component term lists "
                             f"for valency ({valency.r},{valency.s})")
    shape = (3,) * valency.order
    tables = _Tables([_compile_component(terms, f"field component {n}")
                      for n, terms in enumerate(component_tables)])

    @_batched
    def func(y):
        return tables.values(y).reshape((len(y),) + shape)

    @_batched
    def partials(y):
        return tables.first(y).swapaxes(1, 2).reshape((len(y), 3) + shape)

    @_batched
    def second_partials(y):
        return tables.second(y).transpose(0, 2, 3, 1).reshape((len(y), 3, 3) + shape)

    return TensorField(valency, func, 3, partials=partials, second_partials=second_partials)
