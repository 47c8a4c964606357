import importlib

import pytest

import casqed
from casqed import linalg, metrics, reduced

#: test oracles, stated once in tests/oracles.py and not in the package
ORACLES = ("fef_oracle", "liouvillian_apply", "liouvillian_matrix", "_dissipator", "vec_stack",
           "analytic_reference")


@pytest.mark.parametrize("name", casqed.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(casqed, name) is not None


@pytest.mark.parametrize("module", [casqed, metrics, reduced, linalg], ids=lambda m: m.__name__)
def test_oracles_are_not_in_the_package(module):
    assert [name for name in ORACLES if hasattr(module, name)] == []


@pytest.mark.parametrize("name", [name for name in casqed.__all__ if name != "__version__"])
def test_exported_name_is_its_home_modules_object(name):
    # resolved lazily, each name is the object its home module defines
    value = getattr(casqed, name)
    assert value.__module__.startswith("casqed.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_exported_name():
    assert set(casqed.__all__) <= set(dir(casqed))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        casqed.no_such_name
    assert not hasattr(casqed, "no_such_name")
