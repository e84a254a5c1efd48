"""The public names of the package."""

import hecke


def test_every_public_name_resolves():
    for name in hecke.__all__:
        assert getattr(hecke, name) is not None, name
    assert len(set(hecke.__all__)) == len(hecke.__all__)


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from hecke import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(hecke.__all__)
    # fractions of Laurent polynomials are no longer part of the package
    assert "RationalFn" not in namespace
    assert not hasattr(hecke.laurent, "RationalFn")
