"""Tensor calculus in Euclidean space.

Dense tensors of any valency with basis-change transformation laws, metric
machinery for raising and lowering indices, tensor fields with the
vector-calculus operators, curvilinear charts with Christoffel symbols and
covariant derivatives, and a parser/validator/evaluator for Einstein index
notation. A small CLI (``tensorcalc``) exposes expression checking,
Christoffel tables, field-operator sampling, and chart audits.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports those lists. ``frames`` and
``notation``, and the names re-exported from them, load on first access
(PEP 562), so a process that never uses them, such as a ``christoffel``,
``field-op`` or ``audit`` CLI call, never compiles or runs them.
"""

import importlib

from . import curvilinear, errors, fields, metric, tensors
from .errors import *
from .tensors import *
from .metric import *
from .fields import *
from .curvilinear import *

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
    *errors.__all__, *tensors.__all__, *metric.__all__, *fields.__all__,
    *curvilinear.__all__, "zeros", *_LAZY_NAMES,
]
