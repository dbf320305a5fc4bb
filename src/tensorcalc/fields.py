"""Tensor fields and the finite-difference engine.

A TensorField maps a coordinate point (plus an optional external parameter
t) to a DenseTensor of fixed valency. Differentiation is analytic as far as
the field supplies its partial derivatives: first partials, and second
partials with them. Otherwise it takes central finite differences: of the
analytic first partials for second partials, of the field itself when it
has none. One stencil table covers first, pure second and mixed partials,
and a whole point array is differenced with one call of the field; so is
d/dt, with t as a one-column coordinate. DifferentiationScheme states the
steps and the default. Fields built from coefficient tables
(curvilinear.load_field, from a dict, a JSON text or a path) carry both,
so the operators take no finite differences of them.

The vector-calculus operators live in the curvilinear module: the Cartesian
ones (nabla, gradient, divergence, laplacian, rotor, dalembert) are the
chart operators on a flat chart, where the Christoffel symbols vanish.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import _POINT_ERRORS, DomainError, ParameterError, ShapeError
from .tensors import DEFAULT_DIM, DenseTensor, Valency, _Frozen, _as_valency

__all__ = ["DifferentiationScheme", "TensorField", "derivative_table",
           "parameter_derivative"]

_EPS = float(np.finfo(float).eps)
_FIRST_STEP = _EPS ** (1.0 / 3.0)
_SECOND_STEP = _EPS ** 0.25

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


def _first_row(values, failures: dict):
    """Row 0 of a one-point batch, raising its failure if it has one."""
    _raise_first(failures)
    return values[0]


def _map_rows(fn, points: np.ndarray, shape: tuple, what: str, args: tuple = (),
              probing: bool = False, valency=None, dtype=float):
    """fn(point, *args) at every row of an (N, dim) array: ``(values, failures)``.

    values has shape (N,) + shape. A callable the library marked takes the
    whole array and returns its values, or ``(values, failures)`` as
    TensorField.evaluate_batch does; a point error it raises is retried row
    by row. Any other is called once per row: a point error raised there
    fails that row only, and when probing (finite differences) so does an
    ArithmeticError or ValueError, as a DomainError naming the probe. A
    failed row is NaN (False for a bool dtype). A DenseTensor returned for
    a row must have the given valency.
    """
    fill = np.nan if dtype is float else 0
    if _is_batched(fn):
        try:
            values = fn(points, *args)
        except _POINT_ERRORS as exc:
            if len(points) == 1:
                return np.full((1,) + shape, fill, dtype=dtype), {0: exc}
            return _map_rows(lambda point, *args: _first_row(*_map_rows(
                fn, point[None], shape, what, args, dtype=dtype)),
                points, shape, what, args, probing, valency, dtype)
        values, failures = values if isinstance(values, tuple) else (values, {})
        values = np.asarray(values, dtype=dtype)
        if values.shape != (len(points),) + shape:
            raise ShapeError(f"{what} returned shape {values.shape[1:]}, expected {shape}")
        return values, failures
    values = np.full((len(points),) + shape, fill, dtype=dtype)
    failures = {}
    for n, point in enumerate(points):
        try:
            value = fn(point, *args)
        except _POINT_ERRORS as exc:
            failures[n] = exc
            continue
        except (ArithmeticError, ValueError) as exc:
            if not probing:
                raise
            failures[n] = DomainError(f"{what} evaluation failed at {point.tolist()}: {exc}")
            continue
        if isinstance(value, DenseTensor):
            if value.valency != valency or value.dim != len(point):
                raise ShapeError(f"{what} returned a tensor of the wrong valency")
            value = value.array
        value = np.asarray(value, dtype=dtype)
        if value.shape != shape:
            raise ShapeError(f"{what} returned shape {value.shape}, expected {shape}")
        values[n] = value
    return values, failures


def _point(point, dim: int) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (dim,):
        raise ShapeError(f"point shape {point.shape} does not match dim {dim}")
    return point


def _points(points, dim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ShapeError(f"points shape {points.shape} does not match dim {dim}")
    return points


def _reprs(values: np.ndarray) -> np.ndarray:
    """repr(v) for each v of a float64 array, as an object array; repr runs
    once per distinct bit pattern, found by sorting the int64 view."""
    order = values.view(np.int64).argsort()
    ordered = values[order]
    bits = ordered.view(np.int64)
    first = np.empty(len(values), dtype=bool)  # first of a run of equal bits
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    # runs are numbered from 1, so the texts start with a placeholder
    texts = np.array([None] + [repr(v) for v in ordered[first].tolist()], dtype=object)
    out = np.empty(len(values), dtype=object)
    out[order] = texts[np.add.accumulate(first, dtype=np.intp)]
    return out


def _row_texts(points: np.ndarray) -> list:
    """str(row.tolist()) for each row of a 2-D float64 array, the form error
    messages give a point in, with repr run once per distinct coordinate."""
    width = points.shape[1]
    texts = _reprs(points.ravel()).tolist()
    return ["[" + ", ".join(texts[n:n + width]) + "]" for n in range(0, len(texts), width)]


class DifferentiationScheme(_Frozen):
    """Central finite-difference configuration; the one statement of its rules.

    order 2 uses the two-point central stencils, order 4 the four-point
    ones. When ``step`` is None the step is chosen per coordinate, t
    included: cbrt(eps) * max(1, |x|) for first derivatives and eps**(1/4)
    * max(1, |x|) for pure and mixed second ones, the usual
    truncation/round-off compromise. A scheme of None means DEFAULT_SCHEME
    (order 2, automatic steps). Chart maps without analytic Jacobians are
    always differenced with DEFAULT_SCHEME: an operator's scheme applies to
    its field.
    """

    __slots__ = ("order", "step")

    def __init__(self, order: int = 2, step: float | None = None):
        if order not in (2, 4):
            raise ParameterError(f"scheme order must be 2 or 4, got {order}")
        if step is not None and not step > 0:
            raise ParameterError(f"step must be positive, got {step}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "step", step)

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


class TensorField(_Frozen):
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
    second_partials : callable, optional
        Analytic second derivatives, used together with ``partials``: same
        signature, an array of shape (dim, dim) + component shape whose
        entry [i, j] holds the second partial of every component along
        coordinates i and j (symmetric in i, j). Without it, second
        partials are central differences of ``partials``. Given without
        ``partials`` it raises ParameterError: it would never be called.

    _jet is the function a loaded field's func, partials and second_partials
    select from (curvilinear.load_field), else None; TensorField leaves it
    None.
    """

    __slots__ = ("valency", "dim", "has_parameter", "_func", "_partials",
                 "_second_partials", "_jet")

    def __init__(self, valency, func, dim: int = DEFAULT_DIM,
                 partials=None, has_parameter: bool = False, second_partials=None):
        if second_partials is not None and partials is None:
            raise ParameterError("second_partials needs partials")
        object.__setattr__(self, "valency", _as_valency(valency))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "has_parameter", bool(has_parameter))
        object.__setattr__(self, "_func", func)
        object.__setattr__(self, "_partials", partials)
        object.__setattr__(self, "_second_partials", second_partials)
        object.__setattr__(self, "_jet", None)

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

    def _args(self, t) -> tuple:
        """The arguments after the point: (t,) when the field depends on t."""
        if not self.has_parameter:
            return ()
        if t is None:
            raise ParameterError("field depends on t; pass the parameter value")
        return (t,)

    def evaluate_batch(self, points, t: float | None = None):
        """Components at every row of an (N, dim) point array.

        Returns ``(values, failures)``. values[n] holds the components at
        points[n]. failures maps the row of each point whose evaluation
        raised DomainError, DegenerateTransition or DegenerateMetric to
        that exception, with the message the single-point call raises; its
        values row is NaN. Other errors propagate.
        """
        return _map_rows(self._func, _points(points, self.dim), self._shape, "field",
                         self._args(t), valency=self.valency)

    def evaluate_array(self, point, t: float | None = None) -> np.ndarray:
        return _first_row(*self.evaluate_batch(_point(point, self.dim)[None], t))

    def evaluate(self, point, t: float | None = None) -> DenseTensor:
        return DenseTensor(self.valency, self.dim, self.evaluate_array(point, t))

    def __repr__(self):
        return (f"TensorField(r={self.valency.r}, s={self.valency.s}, "
                f"dim={self.dim}{', t' if self.has_parameter else ''})")


# -- finite differences ------------------------------------------------------------

# Central-difference stencils (Fornberg 1988, Math. Comp. 51) as a
# denominator and (offset in steps, integer weight) pairs: the derivative is
# sum(weight * f(x + offset * h)) / (denominator * h), with h * h for a
# second derivative. A mixed second partial nests two first-derivative
# stencils, along i and along j, both with the second-derivative step: its
# round-off eps / (h_i h_j) then stays near sqrt(eps), as for a pure one.
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
    There are ``count`` probes, all at x except for ``moves`` = (probe,
    axis, mult, col): move k shifts probe[k] along axis[k] by mult[k] *
    steps[:, col[k]]. Derivative d is sum_k weight[d, k] * f(probe
    index[d, k]) / (denom[d] * steps[:, ca[d]] * steps[:, cb[d]]), rows
    padded with zero weights. The first partials are derivatives 0..dim-1;
    derivative second[i, j] is the second partial along i and j.
    """
    def first_col(a):
        return 1 + a

    def second_col(a):
        return 1 + a if fixed else 1 + dim + a

    probes = {}
    rows = []

    def probe(offsets):
        key = tuple(offsets.get(a, (0, 0)) for a in range(dim))
        return probes.setdefault(key, len(probes))

    if first:
        denom, stencil = _FIRST_STENCIL[order]
        for a in range(dim):
            rows.append(([(probe({a: (m, first_col(a))}), w) for m, w in stencil],
                          denom, first_col(a), 0))
    second_rows = np.zeros((dim, dim), dtype=int)
    if second:
        pure_denom, pure = _PURE_STENCIL[order]
        denom, stencil = _FIRST_STENCIL[order]
        for i in range(dim):
            for j in range(i, dim):
                second_rows[i, j] = second_rows[j, i] = len(rows)
                if i == j:
                    terms = [(probe({i: (m, second_col(i))} if m else {}), w)
                             for m, w in pure]
                    rows.append((terms, pure_denom, second_col(i), second_col(i)))
                    continue
                terms = [(probe({i: (mi, second_col(i)), j: (mj, second_col(j))}), wi * wj)
                         for mi, wi in stencil for mj, wj in stencil]
                rows.append((terms, denom * denom, second_col(i), second_col(j)))
    moved = [(p, a, m, c) for p, key in enumerate(probes)
             for a, (m, c) in enumerate(key) if m]
    moves = tuple(np.array([move[k] for move in moved], dtype=float if k == 2 else int)
                  for k in range(4))
    width = max(len(terms) for terms, *_ in rows)
    index = np.zeros((len(rows), width), dtype=int)
    weight = np.zeros((len(rows), width))
    for d, (terms, *_) in enumerate(rows):
        index[d, :len(terms)] = [p for p, _ in terms]
        weight[d, :len(terms)] = [w for _, w in terms]
    denom = np.array([row[1] for row in rows])
    ca = np.array([row[2] for row in rows])
    cb = np.array([row[3] for row in rows])
    for array in moves + (index, weight, denom, ca, cb, second_rows):
        array.flags.writeable = False
    return len(probes), moves, index, weight, denom, ca, cb, second_rows


def _differences(rows, points: np.ndarray, scheme: DifferentiationScheme | None,
                 first: bool = True, second: bool = False):
    """Central-difference partials of a function at every row of points.

    ``rows(probes)`` evaluates the function at an (M, dim) array and
    returns ``(values, failures)`` as TensorField.evaluate_batch does; it
    is called once, on every distinct probe of every point, probe-major
    (row p * N + m is probe p of point m). Returns ``(d1, d2, failures)``:
    d1[n, q] the partials along q, d2[n, i, j] the second partials, each
    None when not asked for, and failures mapping a point's row to the
    error at its first failing probe. A scheme of None is DEFAULT_SCHEME.
    """
    scheme = DEFAULT_SCHEME if scheme is None else scheme
    n, dim = points.shape
    count, (probe, axis, mult, col), index, weight, denom, ca, cb, second_rows = (
        _stencil_table(dim, scheme.order, first, second, scheme.step is not None))
    steps = np.concatenate([np.ones((n, 1)), scheme.first_step(points),
                            scheme.second_step(points)], axis=1)
    # every probe coordinate is x + offset * h, offset 0 on the axes it keeps
    probes = np.repeat(points[None] + 0.0, count, axis=0)  # [p, n, dim]
    probes[probe, :, axis] += mult[:, None] * steps[:, col].T
    values, probe_failures = rows(probes.reshape(-1, dim))
    shape = values.shape[1:]
    values = values.reshape(count, n, int(np.prod(shape)))
    # terms are added one at a time in stencil order, so each point's result
    # does not depend on n
    total = weight[:, 0, None, None] * values[index[:, 0]]  # [d, n, c]
    for k in range(1, index.shape[1]):
        total += weight[:, k, None, None] * values[index[:, k]]
    total /= (denom[:, None] * steps[:, ca].T * steps[:, cb].T)[:, :, None]
    failures = {}
    for row in sorted(probe_failures, key=lambda row: (row % n, row)):
        failures.setdefault(row % n, probe_failures[row])
    total = total.swapaxes(0, 1)  # [n, d, c]
    d1 = total[:, :dim].reshape((n, dim) + shape) if first else None
    d2 = total[:, second_rows].reshape((n, dim, dim) + shape) if second else None
    return d1, d2, failures


def _partials(field: TensorField, points: np.ndarray, t,
              scheme: DifferentiationScheme | None, second: bool = False):
    """First partials [n, q, ...] and second partials [n, i, j, ...] of a field.

    Analytic when the field carries partials. Second partials are then its
    analytic second partials, or else the partials differenced once and
    symmetrised. A field without partials is differenced by central
    differences. Returns ``(d1, d2, failures)`` as _differences does. A
    loaded field gives both from one call of its jet.
    """
    if field._jet is not None:
        _, d1, d2 = field._jet(points, first=True, second=second)
        return d1, d2, {}
    args = field._args(t)
    if field._partials is None:
        def rows(probes):
            return _map_rows(field._func, probes, field._shape, "field", args,
                             probing=True, valency=field.valency)
        return _differences(rows, points, scheme, second=second)
    table_shape = (field.dim,) + field._shape
    d1, failures = _map_rows(field._partials, points, table_shape, "partials", args,
                             valency=field.valency)
    d2 = None
    if second:
        if field._second_partials is not None:
            d2, more = _map_rows(field._second_partials, points, (field.dim,) + table_shape,
                                 "second partials", args, valency=field.valency)
        else:
            def rows(probes):
                return _map_rows(field._partials, probes, table_shape, "partials", args,
                                 probing=True, valency=field.valency)
            d, _, more = _differences(rows, points, scheme)
            d2 = (d + np.swapaxes(d, 1, 2)) / 2.0
        for row, exc in more.items():
            failures.setdefault(row, exc)
    return d1, d2, failures


def derivative_table(field: TensorField, point, t=None,
                     scheme: DifferentiationScheme | None = None) -> np.ndarray:
    """All first partials of the components: entry [q] = d(components)/dx^q.

    Analytic when the field carries partials, otherwise central FD.
    """
    d1, _, failures = _partials(field, _point(point, field.dim)[None], t, scheme)
    _raise_first(failures)
    return d1[0]


def _hessian(phi: TensorField, point: np.ndarray, t,
             scheme: DifferentiationScheme | None) -> np.ndarray:
    """Symmetric table of second partials of a scalar field."""
    _, d2, failures = _partials(phi, _point(point, phi.dim)[None], t, scheme, second=True)
    _raise_first(failures)
    return d2[0]


def _parameter_partial(field: TensorField, points: np.ndarray, t: float,
                       scheme: DifferentiationScheme | None, second: bool = False):
    """d/dt of a field (d2/dt2 when second) at t, at every row of points.

    t is differenced as a one-column coordinate, one row per point; each
    t-probe evaluates the field once over all points. Returns ``(values,
    failures)`` as TensorField.evaluate_batch does, a point failing at its
    first failing probe.
    """
    n = len(points)

    def rows(probes):  # probe-major: each run of n rows holds one t
        values = np.empty((len(probes),) + field._shape)
        failures = {}
        for start in range(0, len(probes), max(n, 1)):
            values[start:start + n], more = _map_rows(
                field._func, points, field._shape, "field", (probes[start, 0],),
                probing=True, valency=field.valency)
            failures.update((start + row, exc) for row, exc in more.items())
        return values, failures

    d1, d2, failures = _differences(rows, np.full((n, 1), float(t)), scheme,
                                    not second, second)
    return (d2[:, 0, 0] if second else d1[:, 0]), failures


def parameter_derivative(field: TensorField, t0: float,
                         scheme: DifferentiationScheme | None = None) -> TensorField:
    """d(field)/dt at t = t0, a parameter-free field of the same valency."""
    if not field.has_parameter:
        zero = DenseTensor.zeros(field.valency, field.dim)
        return TensorField.constant(zero)

    @_batched
    def func(points):
        return _parameter_partial(field, points, t0, scheme)

    return TensorField(field.valency, func, field.dim)
