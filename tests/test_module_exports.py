"""One home per public name: the ``__all__`` of the module that defines it.

The package surface is built from these lists, so each name is declared
once; this pins that the lists are disjoint, that the package lists exactly
their union, and that a star import of a module binds nothing else.
"""

import importlib

import pytest

import tensorcalc

EAGER = ("errors", "tensors", "metric", "fields", "curvilinear")
LAZY = ("frames", "notation")


def _module(name):
    return importlib.import_module(f"tensorcalc.{name}")


def test_package_all_is_the_union_of_the_module_lists():
    listed = [name for module in EAGER for name in _module(module).__all__]
    assert len(listed) == len(set(listed))
    lazy = [name for names in tensorcalc._LAZY.values() for name in names]
    assert len(tensorcalc.__all__) == len(set(tensorcalc.__all__))
    assert set(tensorcalc.__all__) == {*listed, "zeros", *lazy}
    assert tensorcalc.load_field is _module("curvilinear").load_field


@pytest.mark.parametrize("module", EAGER + LAZY)
def test_star_import_binds_exactly_the_module_list(module):
    namespace = {}
    exec(f"from tensorcalc.{module} import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(_module(module).__all__)


@pytest.mark.parametrize("module", EAGER + LAZY)
def test_every_listed_class_and_function_is_defined_in_its_module(module):
    home = _module(module)
    for name in home.__all__:
        value = getattr(home, name)
        if isinstance(value, type) or callable(value):
            assert value.__module__ == home.__name__, name
