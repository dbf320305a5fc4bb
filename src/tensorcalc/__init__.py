"""Tensor calculus in Euclidean space.

Dense tensors of any valency with basis-change transformation laws, metric
machinery for raising and lowering indices, tensor fields with the
vector-calculus operators, curvilinear charts with Christoffel symbols and
covariant derivatives, and a parser/validator/evaluator for Einstein index
notation. A small CLI (``tensorcalc``) exposes expression checking,
Christoffel tables, field-operator sampling, and chart audits.

``frames`` and ``notation``, and the names re-exported from them, load on
first access (PEP 562), so a process that never uses them, such as a
``christoffel``, ``field-op`` or ``audit`` CLI call, never compiles or runs
them.
"""

import importlib

from .errors import (
    BindingError,
    CapacityError,
    DegenerateMetric,
    DegenerateTransition,
    DomainError,
    ParameterError,
    ParseError,
    ShapeError,
    TensorCalcError,
    TensorIndexError,
    UnsupportedDimension,
    ValidationError,
)
from .tensors import (
    DEFAULT_DIM,
    MAX_ORDER,
    NEW_TO_OLD,
    OLD_TO_NEW,
    DenseTensor,
    TransitionPair,
    Valency,
    compose_transitions,
    invert_matrix,
)
from .metric import (
    Metric,
    cross_product,
    dual_volume_tensor,
    gram_from_basis,
    kronecker,
    kronecker_lower,
    kronecker_upper,
    levi_civita,
    lower_index,
    raise_index,
    volume_tensor,
)
from .fields import (
    DifferentiationScheme,
    TensorField,
    derivative_table,
    parameter_derivative,
)
from .curvilinear import (
    Chart,
    ChartPoints,
    ChristoffelArray,
    builtin_chart,
    chart_to_chart_transform,
    christoffel,
    christoffel_alt,
    coordinate_line,
    covariant_derivative,
    dalembert,
    divergence,
    divergence_in_chart,
    gradient_covector,
    gradient_covector_in_chart,
    gradient_vector,
    gradient_vector_in_chart,
    jacobian_derivative,
    jacobian_direct,
    jacobian_inverse,
    jacobians,
    laplacian,
    laplacian_in_chart,
    load_chart,
    metric_field,
    metric_in_chart,
    moving_frame,
    nabla,
    rotor,
    rotor_in_chart,
)

__version__ = "0.1.0"

zeros = DenseTensor.zeros

# Re-exported names of the modules that load on first access. __getattr__
# looks each one up on every access and never stores it in this namespace:
# a tracer that wraps the functions of every tensorcalc module and later
# restores them would otherwise leave a wrapped copy behind here.
_LAZY = {
    "frames": (
        "Basis", "BilinearForm", "CartesianSystem", "apply_operator",
        "change_point_coordinates", "compose_operators", "evaluate_bilinear",
        "pair_covector_vector", "quadratic", "recover_bilinear", "symmetrize",
        "transform_bilinear", "transform_covector", "transform_operator",
        "transform_vector", "transition_between",
    ),
    "notation": (
        "IndexExpression", "ValidationReport", "evaluate", "explicit_form", "parse",
        "validate",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    home = _LAZY_NAMES.get(name, name)
    if home not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys() | _LAZY_NAMES.keys())

__all__ = [
    "DEFAULT_DIM", "MAX_ORDER", "NEW_TO_OLD", "OLD_TO_NEW",
    "Valency", "DenseTensor", "TransitionPair", "compose_transitions",
    "invert_matrix", "zeros",
    "Basis", "CartesianSystem", "BilinearForm", "transition_between",
    "transform_vector", "transform_covector", "transform_operator",
    "transform_bilinear", "pair_covector_vector", "apply_operator",
    "compose_operators", "evaluate_bilinear", "symmetrize", "quadratic",
    "recover_bilinear", "change_point_coordinates",
    "Metric", "gram_from_basis", "raise_index", "lower_index", "kronecker",
    "kronecker_upper", "kronecker_lower", "levi_civita", "volume_tensor",
    "dual_volume_tensor", "cross_product",
    "TensorField", "DifferentiationScheme", "nabla", "derivative_table",
    "parameter_derivative",
    "gradient_covector", "gradient_vector", "divergence", "laplacian",
    "dalembert", "rotor",
    "Chart", "ChartPoints", "ChristoffelArray", "builtin_chart", "load_chart",
    "jacobians", "jacobian_derivative", "jacobian_direct", "jacobian_inverse",
    "moving_frame", "metric_in_chart", "metric_field", "christoffel",
    "christoffel_alt", "covariant_derivative", "chart_to_chart_transform",
    "coordinate_line", "gradient_covector_in_chart",
    "gradient_vector_in_chart", "divergence_in_chart", "laplacian_in_chart",
    "rotor_in_chart",
    "IndexExpression", "ValidationReport", "parse", "validate", "evaluate",
    "explicit_form",
    "TensorCalcError", "CapacityError", "TensorIndexError", "ShapeError",
    "DegenerateTransition", "DegenerateMetric", "UnsupportedDimension",
    "DomainError", "ParameterError", "ParseError", "BindingError",
    "ValidationError",
]
