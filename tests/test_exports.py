"""The public names of the package."""

from pathlib import Path

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


def test_every_public_error_is_raised_in_the_package():
    # an exported error type that nothing raises is dead public API
    source = "".join(path.read_text() for path in
                     Path(hecke.__file__).parent.glob("*.py"))
    for name in hecke.__all__:
        obj = getattr(hecke, name)
        if (isinstance(obj, type) and issubclass(obj, hecke.HeckeError)
                and obj is not hecke.HeckeError):
            assert f"raise {name}" in source, name
