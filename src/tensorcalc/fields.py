"""Tensor fields and the finite-difference engine.

A TensorField maps a coordinate point (plus an optional external parameter
t) to a DenseTensor of fixed valency. Differentiation is analytic when the
field supplies its partial derivatives and central finite differences
otherwise: one stencil table covers first, pure second and mixed partials,
and a whole point array is differenced with one call of the field.

The vector-calculus operators live in the curvilinear module: the Cartesian
ones (nabla, gradient, divergence, laplacian, rotor, dalembert) are the
chart operators on a flat chart, where the Christoffel symbols vanish.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    DegenerateMetric,
    DegenerateTransition,
    DomainError,
    ParameterError,
    ShapeError,
)
from .tensors import DEFAULT_DIM, DenseTensor, Valency

__all__ = ["DifferentiationScheme", "TensorField", "derivative_table",
           "parameter_derivative"]

_EPS = float(np.finfo(float).eps)
_FIRST_STEP = _EPS ** (1.0 / 3.0)
_SECOND_STEP = _EPS ** 0.25

# Errors that belong to one point: in a batch they fail that point only.
_POINT_ERRORS = (DomainError, DegenerateTransition, DegenerateMetric)
_BATCHED = "_tensorcalc_batched"


def _batched(fn):
    """Mark a callable the library built as taking a whole point array.

    A marked chart map or domain predicate takes an (..., dim) array and
    broadcasts over the leading axes. A marked field function takes an
    (N, dim) array and returns ``(values, failures)`` as
    TensorField.evaluate_batch does. Unmarked callables are called once per
    point. functools.wraps copies the mark onto a wrapper.
    """
    setattr(fn, _BATCHED, True)
    return fn


def _is_batched(fn) -> bool:
    return getattr(fn, _BATCHED, False)


def _raise_first(failures: dict):
    """Raise the failure of the lowest row, if any."""
    if failures:
        raise failures[min(failures)]


def _point(point, dim: int) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (dim,):
        raise ShapeError(f"point shape {point.shape} does not match dim {dim}")
    return point


class DifferentiationScheme:
    """Central finite-difference configuration.

    order 2 uses the two-point central stencils, order 4 the four-point
    ones. When ``step`` is None the step is chosen per coordinate:
    cbrt(eps) * max(1, |x|) for first derivatives and eps**(1/4) *
    max(1, |x|) for second derivatives, the usual truncation/round-off
    compromise.
    """

    __slots__ = ("order", "step")

    def __init__(self, order: int = 2, step: float | None = None):
        if order not in (2, 4):
            raise ParameterError(f"scheme order must be 2 or 4, got {order}")
        if step is not None and not step > 0:
            raise ParameterError(f"step must be positive, got {step}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "step", step)

    def __setattr__(self, name, value):
        raise AttributeError("DifferentiationScheme is immutable")

    def first_step(self, coord):
        """First-derivative step for each coordinate value (scalar or array)."""
        if self.step is not None:
            return np.full(np.shape(coord), self.step)
        return _FIRST_STEP * np.maximum(1.0, np.abs(coord))

    def second_step(self, coord):
        """Second-derivative step for each coordinate value (scalar or array)."""
        if self.step is not None:
            return np.full(np.shape(coord), self.step)
        return _SECOND_STEP * np.maximum(1.0, np.abs(coord))

    def __repr__(self):
        return f"DifferentiationScheme(order={self.order}, step={self.step})"


DEFAULT_SCHEME = DifferentiationScheme()


def _scheme(scheme) -> DifferentiationScheme:
    return DEFAULT_SCHEME if scheme is None else scheme


class TensorField:
    """Field of fixed-valency tensors over a coordinate space.

    Parameters
    ----------
    valency : Valency or (r, s) pair
    func : callable
        ``func(point)`` or, when has_parameter, ``func(point, t)``. May
        return a DenseTensor, an ndarray of the component shape, or a plain
        number for scalar fields.
    dim : int
    partials : callable, optional
        Analytic derivative map with the same signature returning an array
        of shape (dim,) + component shape; entry [q] holds the derivative
        of every component along coordinate q. Used in place of finite
        differences when present.
    has_parameter : bool
        Whether the field depends on the external parameter t.
    """

    __slots__ = ("valency", "dim", "has_parameter", "_func", "_partials")

    def __init__(self, valency, func, dim: int = DEFAULT_DIM,
                 partials=None, has_parameter: bool = False):
        if not isinstance(valency, Valency):
            valency = Valency(*valency)
        object.__setattr__(self, "valency", valency)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "has_parameter", bool(has_parameter))
        object.__setattr__(self, "_func", func)
        object.__setattr__(self, "_partials", partials)

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def scalar(cls, func, dim: int = DEFAULT_DIM, partials=None,
               has_parameter: bool = False) -> "TensorField":
        return cls(Valency(0, 0), func, dim, partials, has_parameter)

    @classmethod
    def vector(cls, func, dim: int = DEFAULT_DIM, partials=None,
               has_parameter: bool = False) -> "TensorField":
        return cls(Valency(1, 0), func, dim, partials, has_parameter)

    @classmethod
    def covector(cls, func, dim: int = DEFAULT_DIM, partials=None,
                 has_parameter: bool = False) -> "TensorField":
        return cls(Valency(0, 1), func, dim, partials, has_parameter)

    @classmethod
    def constant(cls, tensor: DenseTensor) -> "TensorField":
        return cls(tensor.valency, lambda point: tensor, tensor.dim)

    # -- evaluation ------------------------------------------------------------

    @property
    def _shape(self) -> tuple:
        return (self.dim,) * self.valency.order

    def _call(self, func, points: np.ndarray, t):
        if self.has_parameter:
            if t is None:
                raise ParameterError("field depends on t; pass the parameter value")
            return func(points, t)
        return func(points)

    def _rows(self, func, points: np.ndarray, t, shape: tuple, what: str,
              probing: bool = False):
        """func at every row of points: ``(values, failures)``.

        A function the library marked takes the whole array. Any other is
        called once per row; a point error raised there fails that row
        only. When probing (finite differences), an ArithmeticError or
        ValueError fails the row too, as a DomainError naming the probe.
        """
        if _is_batched(func):
            values, failures = self._call(func, points, t)
            values = np.asarray(values, dtype=float)
            if values.shape != (len(points),) + shape:
                raise ShapeError(f"{what} returned shape {values.shape[1:]}, "
                                 f"expected {shape}")
            return values, failures
        values = np.full((len(points),) + shape, np.nan)
        failures = {}
        for n, point in enumerate(points):
            try:
                value = self._call(func, point, t)
            except _POINT_ERRORS as exc:
                failures[n] = exc
                continue
            except (ArithmeticError, ValueError) as exc:
                if not probing:
                    raise
                failures[n] = DomainError(
                    f"field evaluation failed at {point.tolist()}: {exc}")
                continue
            if isinstance(value, DenseTensor):
                if value.valency != self.valency or value.dim != self.dim:
                    raise ShapeError(f"{what} returned a tensor of the wrong valency")
                value = value.array
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ShapeError(f"{what} returned shape {value.shape}, expected {shape}")
            values[n] = value
        return values, failures

    def evaluate_batch(self, points, t: float | None = None):
        """Components at every row of an (N, dim) point array.

        Returns ``(values, failures)``. values[n] holds the components at
        points[n]. failures maps the row of each point whose evaluation
        raised DomainError, DegenerateTransition or DegenerateMetric to
        that exception, with the message the single-point call raises; its
        values row is NaN. Other errors propagate.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ShapeError(f"points shape {points.shape} does not match dim {self.dim}")
        return self._rows(self._func, points, t, self._shape, "field")

    def evaluate_array(self, point, t: float | None = None) -> np.ndarray:
        values, failures = self.evaluate_batch(_point(point, self.dim)[None], t)
        _raise_first(failures)
        return values[0]

    def evaluate(self, point, t: float | None = None) -> DenseTensor:
        return DenseTensor(self.valency, self.dim, self.evaluate_array(point, t))

    def partials_array(self, point, t: float | None = None):
        """Analytic derivative table, or None when the field has none."""
        if self._partials is None:
            return None
        point = np.asarray(point, dtype=float)
        values, failures = self._rows(self._partials, point[None], t,
                                      (self.dim,) + self._shape, "partials")
        _raise_first(failures)
        return values[0]

    def __repr__(self):
        return (f"TensorField(r={self.valency.r}, s={self.valency.s}, "
                f"dim={self.dim}{', t' if self.has_parameter else ''})")


# -- finite differences ------------------------------------------------------------

# Central-difference stencils (Fornberg 1988, Math. Comp. 51) as a
# denominator and (offset in steps, integer weight) pairs: the derivative is
# sum(weight * f(x + offset * h)) / (denominator * h), with h * h for a
# second derivative. A mixed second partial nests two first-derivative
# stencils: the outer along axis i with the second-derivative step, the
# inner along j with the first-derivative step.
_FIRST_STENCIL = {2: (2.0, ((1, 1), (-1, -1))),
                  4: (12.0, ((2, -1), (1, 8), (-1, -8), (-2, 1)))}
_PURE_STENCIL = {2: (1.0, ((1, 1), (0, -2), (-1, 1))),
                 4: (12.0, ((2, -1), (1, 16), (0, -30), (-1, 16), (-2, -1)))}


@functools.lru_cache(maxsize=None)
def _stencil_table(dim: int, order: int, first: bool, second: bool, fixed: bool):
    """Distinct probes and weights for the requested partials.

    Steps live in columns of an (N, 1 + 2 dim) array: column 0 is 1.0, then
    the first-derivative step per axis, then the second-derivative step
    (the same columns when the step is fixed, so shared probes merge).
    Probe p sits at x + mult[p] * steps[:, col[p]]. Derivative d is
    sum_k weight[d, k] * f(probe index[d, k]) / (denom[d] * steps[:, ca[d]]
    * steps[:, cb[d]]), rows padded with zero weights. Derivatives come in
    order: first partials per axis, then second partials for ``pairs``.
    """
    def first_col(a):
        return 1 + a

    def second_col(a):
        return 1 + a if fixed else 1 + dim + a

    probes = {}
    rows = []

    def probe(moves):
        key = tuple(moves.get(a, (0, 0)) for a in range(dim))
        return probes.setdefault(key, len(probes))

    if first:
        denom, stencil = _FIRST_STENCIL[order]
        for a in range(dim):
            rows.append(([(probe({a: (m, first_col(a))}), w) for m, w in stencil],
                          denom, first_col(a), 0))
    pairs = []
    if second:
        pure_denom, pure = _PURE_STENCIL[order]
        denom, stencil = _FIRST_STENCIL[order]
        for i in range(dim):
            for j in range(i, dim):
                pairs.append((i, j))
                if i == j:
                    terms = [(probe({i: (m, second_col(i))} if m else {}), w)
                             for m, w in pure]
                    rows.append((terms, pure_denom, second_col(i), second_col(i)))
                    continue
                terms = [(probe({i: (mi, second_col(i)), j: (mj, first_col(j))}), wi * wj)
                         for mi, wi in stencil for mj, wj in stencil]
                rows.append((terms, denom * denom, second_col(i), first_col(j)))
    keys = list(probes)
    mult = np.array([[m for m, _ in key] for key in keys], dtype=float).reshape(-1, dim)
    col = np.array([[c for _, c in key] for key in keys], dtype=int).reshape(-1, dim)
    width = max(len(terms) for terms, *_ in rows)
    index = np.zeros((len(rows), width), dtype=int)
    weight = np.zeros((len(rows), width))
    for d, (terms, *_) in enumerate(rows):
        index[d, :len(terms)] = [p for p, _ in terms]
        weight[d, :len(terms)] = [w for _, w in terms]
    denom = np.array([row[1] for row in rows])
    ca = np.array([row[2] for row in rows])
    cb = np.array([row[3] for row in rows])
    for array in (mult, col, index, weight, denom, ca, cb):
        array.flags.writeable = False
    return mult, col, index, weight, denom, ca, cb, tuple(pairs)


def _differences(rows, points: np.ndarray, t, scheme: DifferentiationScheme,
                 first: bool = True, second: bool = False):
    """Central-difference partials of a function at every row of points.

    ``rows(probes, t)`` evaluates the function at an (M, dim) array and
    returns ``(values, failures)`` as TensorField.evaluate_batch does; it
    is called once, on every distinct probe of every point. Returns
    ``(d1, d2, failures)``: d1[n, q] the partials along q, d2[n, i, j] the
    second partials (None when not asked for), and failures mapping a
    point's row to the error at its first failing probe.
    """
    n, dim = points.shape
    mult, col, index, weight, denom, ca, cb, pairs = _stencil_table(
        dim, scheme.order, first, second, scheme.step is not None)
    steps = np.concatenate([np.ones((n, 1)), scheme.first_step(points),
                            scheme.second_step(points)], axis=1)
    probes = points[:, None, :] + mult * steps[:, col]
    values, probe_failures = rows(probes.reshape(-1, dim), t)
    shape = values.shape[1:]
    per_point = len(mult)
    values = values.reshape(n, per_point, int(np.prod(shape)))[:, index]  # [n, d, k, c]
    # cumsum adds in order along k, so each point's result is independent of n
    total = np.cumsum(weight[:, :, None] * values, axis=2)[:, :, -1]
    total /= (denom * steps[:, ca] * steps[:, cb])[:, :, None]
    failures = {}
    for row in sorted(probe_failures):
        failures.setdefault(row // per_point, probe_failures[row])
    d1 = total[:, :dim].reshape((n, dim) + shape) if first else None
    d2 = None
    if second:
        d2 = np.empty((n, dim, dim) + shape)
        offset = dim if first else 0
        for d, (i, j) in enumerate(pairs):
            d2[:, i, j] = d2[:, j, i] = total[:, offset + d].reshape((n,) + shape)
    return d1, d2, failures


def _partials(field: TensorField, points: np.ndarray, t, scheme: DifferentiationScheme,
              first: bool = True, second: bool = False):
    """First partials [n, q, ...] and second partials [n, i, j] of a field.

    Analytic when the field carries partials (second partials then
    difference those once and symmetrise), central differences otherwise.
    Returns ``(d1, d2, failures)`` as _differences does.
    """
    shape = field._shape
    if field._partials is None:
        def rows(probes, tau):
            return field._rows(field._func, probes, tau, shape, "field", probing=True)
        return _differences(rows, points, t, scheme, first, second)
    table_shape = (field.dim,) + shape
    d1, d2, failures = None, None, {}
    if first:
        d1, failures = field._rows(field._partials, points, t, table_shape, "partials")
    if second:
        def rows(probes, tau):
            return field._rows(field._partials, probes, tau, table_shape, "partials",
                               probing=True)
        d, _, more = _differences(rows, points, t, scheme)
        d2 = (d + np.swapaxes(d, 1, 2)) / 2.0
        for row, exc in more.items():
            failures.setdefault(row, exc)
    return d1, d2, failures


def derivative_table(field: TensorField, point, t=None,
                     scheme: DifferentiationScheme | None = None) -> np.ndarray:
    """All first partials of the components: entry [q] = d(components)/dx^q.

    Analytic when the field carries partials, otherwise central FD.
    """
    d1, _, failures = _partials(field, _point(point, field.dim)[None], t, _scheme(scheme))
    _raise_first(failures)
    return d1[0]




def _hessian(phi: TensorField, point: np.ndarray, t,
             scheme: DifferentiationScheme) -> np.ndarray:
    """Symmetric table of second partials of a scalar field."""
    _, d2, failures = _partials(phi, _point(point, phi.dim)[None], t, scheme,
                                first=False, second=True)
    _raise_first(failures)
    return d2[0]


def _parameter_partial(field: TensorField, points: np.ndarray, t: float,
                       scheme: DifferentiationScheme, second: bool = False):
    """d/dt of a field (d2/dt2 when second) at t, at every row of points.

    The t value is the one-column point array of _differences; each of its
    probes evaluates the field over all points. Returns ``(values,
    failures)`` as TensorField.evaluate_batch does, a point failing at its
    first failing probe.
    """
    failures = {}

    def rows(taus, _):
        values = []
        for tau in taus[:, 0]:
            value, more = field._rows(field._func, points, tau, field._shape, "field",
                                      probing=True)
            values.append(value)
            for row, exc in more.items():
                failures.setdefault(row, exc)
        return np.stack(values), {}

    d1, d2, _ = _differences(rows, np.array([[float(t)]]), None, scheme,
                             first=not second, second=second)
    return (d2[0, 0, 0] if second else d1[0, 0]), dict(sorted(failures.items()))


def parameter_derivative(field: TensorField, t0: float,
                         scheme: DifferentiationScheme | None = None) -> TensorField:
    """d(field)/dt at t = t0, a parameter-free field of the same valency."""
    scheme = _scheme(scheme)
    if not field.has_parameter:
        zero = DenseTensor.zeros(field.valency, field.dim)
        return TensorField.constant(zero)

    @_batched
    def func(points):
        return _parameter_partial(field, points, t0, scheme)

    return TensorField(field.valency, func, field.dim)
