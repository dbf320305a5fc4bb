"""Exception taxonomy shared by every module in the package.

All errors raised on purpose derive from :class:`TensorCalcError` so callers
can catch the package's failures with a single except clause. The CLI maps
these onto its documented exit codes.
"""

__all__ = [
    "TensorCalcError", "CapacityError", "TensorIndexError", "ShapeError",
    "DegenerateTransition", "DegenerateMetric", "UnsupportedDimension",
    "DomainError", "ParameterError", "ParseError", "BindingError",
    "ValidationError",
]


class TensorCalcError(Exception):
    """Base class for every deliberate failure in this package."""


class CapacityError(TensorCalcError):
    """Tensor order r + s exceeds the supported maximum."""


class TensorIndexError(TensorCalcError, IndexError):
    """Index arity or range mismatch on component access.

    Derives from the builtin IndexError as well, so generic sequence-style
    handling keeps working.
    """


class ShapeError(TensorCalcError):
    """Operand shapes, dimensions, or valencies are incompatible."""


class DegenerateTransition(TensorCalcError):
    """A transition matrix is singular (new 'basis' is not a basis)."""


class DegenerateMetric(TensorCalcError):
    """A metric matrix is not symmetric positive definite."""


class UnsupportedDimension(TensorCalcError):
    """Operation needs a specific dimension (orientation machinery needs 3)."""


class DomainError(TensorCalcError):
    """Point lies outside a chart's domain (e.g. the cylindrical axis)."""


class ParameterError(TensorCalcError):
    """Bad configuration value: unknown chart name, bad scheme, bad grid."""


class ParseError(TensorCalcError):
    """Index-notation text does not match the grammar.

    Carries the offset of the offending character in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class BindingError(TensorCalcError):
    """An expression references a symbol with no bound value."""


class ValidationError(TensorCalcError):
    """An index expression violates the free/summation index rules."""


# Errors of one point: a batch fails that point only, and the CLI exits 4.
_POINT_ERRORS = (DomainError, DegenerateTransition, DegenerateMetric)
