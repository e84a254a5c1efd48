"""The usage examples in the docstrings of every hecke module, and in the
README quick start, still hold."""

import doctest
import importlib
import pkgutil
from pathlib import Path

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


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted >= 10
    assert result.failed == 0, f"{result.failed} of {result.attempted} failed"
