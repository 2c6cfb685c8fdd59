"""Run the examples in every module docstring."""

import doctest
import importlib

import pytest

MODULES = ["tatecycles", "polycore", "weil", "tate", "bounds", "cmlab", "cli", "jsonout"]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name if name == "tatecycles" else f"tatecycles.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
