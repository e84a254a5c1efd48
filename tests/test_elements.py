"""Tests for the special elements: Murphy family, symmetric sums, x, y, twists."""

import itertools

import pytest

from hecke import (
    HeckeElement,
    Permutation,
    TermTypeError,
    as_context,
    braid_murphy,
    commutator,
    dual_murphy,
    elem_sym,
    elem_sym_normalized,
    full_twist_product,
    is_central,
    murphy,
    murphy_normalized,
    named_element,
    parse_element,
    parse_scalar,
    poincare,
    q_power,
    t_longest,
    v_power,
    x_elem,
    xbar,
    y_elem,
    ybar,
)
from hecke.elements import NAMED_KINDS

XI = parse_scalar("xi")


def test_murphy_fixtures(ctx3):
    assert murphy(ctx3, 2) == parse_element("T[1]", 3)
    assert murphy(ctx3, 3) == parse_element("T[2] + q^-1*T[1,2,1]", 3)


def test_murphy_normalization(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for i in range(2, ctx.n + 1):
            scaled = murphy(ctx, i).scale(v_power(-1))
            assert murphy_normalized(ctx, i) == scaled
    assert murphy_normalized(ctx3, 3) == parse_element(
        "v^-1*T[2] + v^-3*T[1,2,1]", 3
    )


def test_murphy_elements_commute():
    for n in range(3, 6):
        ctx = as_context(n)
        family = [murphy(ctx, i) for i in range(2, n + 1)]
        for a, b in itertools.combinations(family, 2):
            assert commutator(a, b).is_zero()


def test_dual_murphy_fixtures(ctx3, ctx4):
    assert dual_murphy(ctx3, 3, 3) == parse_element(
        "v^-1*T[1] + v^-3*T[1,2,1]", 3
    )
    assert dual_murphy(ctx4, 4, 3) == parse_element(
        "v^-1*T[2] + v^-3*T[2,3,2]", 4
    )


def test_dual_murphy_is_the_flipped_murphy(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for i in range(2, ctx.n + 1):
            flipped = murphy_normalized(ctx, i).apply_diagram_flip()
            assert dual_murphy(ctx, ctx.n, i) == flipped


def test_dual_murphy_builds_the_sum_of_its_basis_terms():
    # the sum dual_murphy once built, one basis_normalized term at a time,
    # is the oracle: the same terms, key order and coefficient objects,
    # one to a term
    for n in range(1, 8):
        for m in range(1, n + 1):
            for i in range(1, m + 1):
                want = HeckeElement.zero(n)
                for j in range(m - i + 2, m + 1):
                    want = want + HeckeElement.basis_normalized(
                        n, Permutation.transposition(n, m - i + 1, j))
                got = dual_murphy(n, m, i)
                assert got == want
                assert list(got._terms) == list(want._terms)
                assert len({id(c) for c in got._terms.values()}) == i - 1


def test_cycle_pair_product_gives_dual_murphy():
    # Tt_{s1..sn} Tt_{sn..s1} = Tt_1 + xi Mt_{n+1,n+1}, checked in degree n+1
    for n in range(2, 5):
        m = n + 1
        ctx = as_context(m)
        up = HeckeElement.from_word(m, list(range(1, m))).scale(v_power(-n))
        down = HeckeElement.from_word(m, list(range(n, 0, -1))).scale(v_power(-n))
        expected = HeckeElement.one(m) + dual_murphy(ctx, m, m).scale(XI)
        assert up * down == expected


def test_braid_murphy_is_affine_in_murphy(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for i in range(2, ctx.n + 1):
            expected = murphy_normalized(ctx, i).scale(XI) + HeckeElement.one(ctx.n)
            assert braid_murphy(ctx, i) == expected
    assert braid_murphy(ctx3, 2) == parse_element("T[] + (1 - q^-1)*T[1]", 3)


def test_elem_sym_fixtures(ctx3):
    assert elem_sym(ctx3, 0) == HeckeElement.one(3)
    assert elem_sym(ctx3, 1) == parse_element("T[2] + T[1] + q^-1*T[1,2,1]", 3)
    assert elem_sym(ctx3, 2) == parse_element(
        "T[1,2] + T[2,1] + (1 - q^-1)*T[1,2,1]", 3
    )


def test_elem_sym_against_subset_product_oracle(ctx3, ctx4):
    """The i-th symmetric sum equals the sum over i-subsets of the family."""
    for ctx in (ctx3, ctx4):
        n = ctx.n
        family = [murphy_normalized(ctx, i) for i in range(2, n + 1)]
        for i in range(0, n):
            total = HeckeElement.zero(n)
            for subset in itertools.combinations(family, i):
                prod = HeckeElement.one(n)
                for f in subset:
                    prod = prod * f
                total = total + prod
            assert elem_sym_normalized(ctx, i) == total
            assert elem_sym(ctx, i) == total.scale(v_power(i))


def test_elem_sym_is_central_and_flip_invariant(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for i in range(0, ctx.n):
            e = elem_sym(ctx, i)
            assert is_central(e)
            assert e.apply_diagram_flip() == e


def test_longest_word_square_normalized_closed_forms(ctx3, ctx4):
    # Tt_{w}^2 = sum_i xi^i et_i, and also the ordered product of the
    # affine Murphy factors
    for ctx in (ctx3, ctx4):
        n = ctx.n
        tw = t_longest(ctx)
        ell = n * (n - 1) // 2
        lhs = (tw * tw).scale(v_power(-2 * ell))
        rhs = HeckeElement.zero(n)
        for i in range(0, n):
            rhs = rhs + elem_sym_normalized(ctx, i).scale(XI ** i)
        assert lhs == rhs
        prod = HeckeElement.one(n)
        for i in range(2, n + 1):
            prod = prod * braid_murphy(ctx, i)
        assert lhs == prod
        assert full_twist_product(ctx) == prod


def test_poincare_series():
    assert poincare(3) == parse_scalar("q^3 + 2*q^2 + 2*q + 1")
    assert poincare(4) == parse_scalar(
        "q^6 + 3*q^5 + 5*q^4 + 6*q^3 + 5*q^2 + 3*q + 1"
    )
    # evaluating at q = 1 (v = 1) counts the group
    assert poincare(5).evaluate(1) == 120


def test_x_and_y_fixtures(ctx3):
    assert x_elem(ctx3) == parse_element(
        "T[] + T[1] + T[2] + T[1,2] + T[2,1] + T[1,2,1]", 3
    )
    assert y_elem(ctx3) == parse_element(
        "-q^3*T[] + q^2*T[1] + q^2*T[2] - q*T[1,2] - q*T[2,1] + T[1,2,1]", 3
    )
    assert xbar(ctx3) == x_elem(ctx3) - t_longest(ctx3)
    assert ybar(ctx3) == y_elem(ctx3) - t_longest(ctx3)


def test_x_and_y_contraction_identities(ctx3, ctx4):
    q = q_power(1)
    minus_one = parse_scalar("-1")
    for ctx in (ctx3, ctx4):
        x = x_elem(ctx)
        y = y_elem(ctx)
        ell = ctx.n * (ctx.n - 1) // 2
        for i in range(1, ctx.n):
            t = HeckeElement.generator(ctx.n, i)
            assert t * x == x.scale(q)
            assert x * t == x.scale(q)
            assert t * y == y.scale(minus_one)
            assert y * t == y.scale(minus_one)
        assert (x * y).is_zero()
        assert x * x == x.scale(poincare(ctx))
        assert y * y == y.scale(poincare(ctx) * (minus_one ** ell))
        assert is_central(x)
        assert is_central(y)


def test_t_longest(ctx3, ctx4):
    assert t_longest(ctx3) == parse_element("T[1,2,1]", 3)
    assert t_longest(ctx4) == HeckeElement.from_word(4, [1, 2, 1, 3, 2, 1])


# each reference kind, by the constructor it names and its index range
# (None for a kind that takes no index), written out independently of
# the table in hecke.elements
_KINDS = {
    "L": (murphy, lambda n: range(1, n + 1)),
    "Lt": (murphy_normalized, lambda n: range(1, n + 1)),
    "calL": (braid_murphy, lambda n: range(1, n + 1)),
    "Mt": (lambda c, i: dual_murphy(c, c.n, i), lambda n: range(1, n + 1)),
    "e": (elem_sym, lambda n: range(n)),
    "et": (elem_sym_normalized, lambda n: range(n)),
    "x": (x_elem, None),
    "y": (y_elem, None),
    "xbar": (xbar, None),
    "ybar": (ybar, None),
    "Twn": (t_longest, None),
    "fulltwist": (full_twist_product, None),
}


def _same(a, b):
    return a == b and list(a._terms) == list(b._terms)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_named_kind_resolves_to_its_constructor(n):
    assert set(NAMED_KINDS) == set(_KINDS)
    ctx = as_context(n)
    for kind, (build, indices) in _KINDS.items():
        assert NAMED_KINDS[kind][0] == (indices is not None), kind
        if indices is None:
            want = build(ctx)
            assert _same(named_element(kind, ctx), want), kind
            assert _same(parse_element(f"@{kind}", n), want), kind
            continue
        for i in indices(n):
            want = build(ctx, i)
            assert _same(named_element(kind, ctx, i), want), (kind, i)
            assert _same(parse_element(f"@{kind}:{i}", n), want), (kind, i)


def test_named_kinds_keep_their_error_messages():
    cases = [(("L", 3), "named element 'L' needs an index"),
             (("x", 3, 1), "named element 'x' takes no index"),
             (("zz", 3), "unknown named element kind 'zz'"),
             (("zz", 3, 1), "unknown named element kind 'zz'")]
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            named_element(*args)
        assert str(info.value) == message
    cases = [("@L", "@L takes one index, e.g. @L:2 (at position 1)"),
             ("@et:1,2", "@et takes one index, e.g. @et:2 (at position 1)"),
             ("@x:1", "@x takes no arguments (at position 1)"),
             ("@zz", "unknown element reference @zz (at position 1)")]
    for text, message in cases:
        with pytest.raises(ValueError) as info:
            parse_element(text, 3)
        assert str(info.value) == message


def test_constructors_refuse_an_index_that_is_not_an_int(ctx3):
    # a bool is an int to Python: murphy(3, True) was L_1, and
    # murphy(3, 2.0) escaped as a bare TypeError from range
    calls = [lambda: murphy(ctx3, True), lambda: murphy(ctx3, 2.0),
             lambda: murphy_normalized(ctx3, True),
             lambda: braid_murphy(ctx3, False),
             lambda: elem_sym(ctx3, False),
             lambda: elem_sym_normalized(ctx3, 1.0),
             lambda: dual_murphy(ctx3, 3, True),
             lambda: dual_murphy(ctx3, 3.0, 2),
             lambda: named_element("e", ctx3, True),
             lambda: named_element("L", ctx3, "2")]
    for call in calls:
        with pytest.raises(TermTypeError):
            call()
    assert murphy(ctx3, 2) == named_element("L", ctx3, 2)
