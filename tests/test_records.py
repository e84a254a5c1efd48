"""The package's records behave like the frozen dataclasses they replace."""

import copy
import inspect
import pickle

import pytest

from hecke import (AlgebraContext, Caps, CentreBasis, DEFAULT_CAPS,
                   GammaBasis, SqrtReport, TermTypeError, VerificationReport)
from hecke.verify import ItemResult, VerifyItem

EMPTY = inspect.Parameter.empty

SIGNATURES = {
    Caps: [("enum_max", 7), ("linalg_max", 5)],
    AlgebraContext: [("n", EMPTY), ("caps", DEFAULT_CAPS)],
    CentreBasis: [("n", EMPTY), ("vectors", EMPTY)],
    GammaBasis: [("n", EMPTY), ("elements", EMPTY)],
    SqrtReport: [("in_sqrt", EMPTY), ("in_centre", EMPTY),
                 ("square_in_gamma", None)],
    VerifyItem: [("item_id", EMPTY), ("statement", EMPTY), ("n", EMPTY),
                 ("fn", EMPTY), ("flag_note", None)],
    ItemResult: [("item_id", EMPTY), ("statement", EMPTY), ("n", EMPTY),
                 ("status", EMPTY), ("detail", ""), ("seconds", 0.0)],
    VerificationReport: [("n_max", EMPTY), ("seed", EMPTY),
                         ("results", EMPTY)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_record_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert cls.__slots__ == tuple(name for name, _ in SIGNATURES[cls])


@pytest.mark.parametrize("field, value", [
    ("enum_max", "7"), ("enum_max", 2.5), ("linalg_max", True)])
def test_a_cap_is_an_int(field, value):
    # before this rule Caps(enum_max="7") built, and its first cap check
    # raised a bare TypeError
    with pytest.raises(TermTypeError, match=field):
        Caps(**{field: value})


def test_record_semantics():
    ctx = AlgebraContext(3)
    assert ctx.n == 3 and ctx.caps is DEFAULT_CAPS
    assert Caps() == Caps(7, 5) == Caps(enum_max=7, linalg_max=5)
    assert Caps(linalg_max=6) != Caps()
    assert Caps() != (7, 5)
    assert AlgebraContext(3, Caps(8)) != ctx
    # memo keys: equal records hash equal
    assert hash(AlgebraContext(3, Caps())) == hash(ctx)
    assert {ctx: 1}[AlgebraContext(n=3, caps=Caps())] == 1
    assert repr(Caps()) == "Caps(enum_max=7, linalg_max=5)"
    assert repr(ctx) == "AlgebraContext(n=3, caps=Caps(enum_max=7, linalg_max=5))"
    assert repr(ItemResult("a", "b", 3, "pass")) == (
        "ItemResult(item_id='a', statement='b', n=3, status='pass', "
        "detail='', seconds=0.0)")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            AlgebraContext(bad)
    for record, field in ((ctx, "n"), (Caps(), "enum_max"),
                          (SqrtReport(True, False), "in_sqrt")):
        with pytest.raises(AttributeError):
            setattr(record, field, 4)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.other = 1
    assert ctx.n == 3
    # copies and pickles rebuild through the constructor
    for record in (ctx, ItemResult("a", "b", 3, "flag", "note", 1.5)):
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):
        hash(GammaBasis(3, {}))
