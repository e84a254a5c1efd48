"""The usage examples in the docstrings of every hecke module still hold."""

import doctest
import importlib
import pkgutil

import pytest

import hecke

MODULES = sorted(f"hecke.{m.name}" for m in pkgutil.iter_modules(hecke.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} failed"


def test_doctests_are_collected():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 20
