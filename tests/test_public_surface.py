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
