"""Shared coefficients: products, scale, is_central and express_in_gamma
convert each distinct coefficient object once, and a product's equal
coefficients are one object.  Each is checked against a computation that
converts every term on its own: the LaurentPoly walk for products, a
product per term for scale, the two-sided generator comparison for
is_central, and the LaurentPoly expansion for express_in_gamma.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from hecke import (
    AlgebraContext,
    Caps,
    GammaBasis,
    HeckeElement,
    LaurentPoly,
    MismatchError,
    Permutation,
    all_permutations,
    express_in_gamma,
    gamma_basis,
    is_central,
    minimal_class_elements,
    Partition,
    partitions_of,
    t_longest,
    x_elem,
    xbar,
    y_elem,
    ybar,
)
from hecke.algebra import _dict_mul

from expansion_oracle import express_by_laurent, outcome
from generator_oracle import is_central_by_generators


def _distinct(h):
    """(distinct coefficient objects, distinct coefficient values) of h."""
    coeffs = h._terms.values()
    return len(set(map(id, coeffs))), len(set(coeffs))


def _scalar(rng, parity):
    exps = [e for e in range(-6, 7) if parity is None or e & 1 == parity]
    return LaurentPoly({e: rng.choice([-1, 1]) * rng.randint(1, 30)
                        for e in rng.sample(exps, rng.randint(1, 3))})


@st.composite
def _pooled(draw, n):
    """An element of H_n on 1 term, about half of S_n or all of it, whose
    coefficients are drawn from a pool of 1 to 4 scalar objects."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    perms = all_permutations(n)
    parity = draw(st.sampled_from([0, 1, None]))
    pool = [_scalar(rng, parity) for _ in range(draw(st.integers(1, 4)))]
    size = draw(st.sampled_from([1, 2, len(perms) // 2, len(perms) - 1,
                                 len(perms)]))
    return HeckeElement(n, {w: rng.choice(pool)
                            for w in rng.sample(perms, size)})


@st.composite
def _central(draw, n):
    """sum c_lam gamma_lam with c_lam from a pool of 1 to 3 scalars or 0,
    plus, at times, a pooled element: central or not."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [_scalar(rng, draw(st.sampled_from([0, 1, None])))
            for _ in range(draw(st.integers(1, 3)))] + [LaurentPoly(0)]
    z = HeckeElement.zero(n)
    for _, g in gamma_basis(n):
        z = z + g.scale(rng.choice(pool))
    if draw(st.booleans()):
        z = z + draw(_pooled(n))
    return z


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_shared_conversions_agree_with_conversions_per_term(n, data):
    a, b = data.draw(_pooled(n)), data.draw(_pooled(n))
    product = a * b
    by_walk = _dict_mul(a._terms, b._terms)
    assert product._terms == by_walk
    assert list(product._terms) == list(by_walk)
    objects, values = _distinct(product)
    assert objects == values
    c = _scalar(random.Random(data.draw(st.integers(0, 2**32))), None)
    scaled = a.scale(c)
    by_term = {w: d * c for w, d in a._terms.items()}
    assert scaled._terms == by_term
    assert list(scaled._terms) == list(by_term)
    assert _distinct(scaled)[0] == _distinct(a)[0]
    for h in (a, product):
        assert is_central(h) == is_central_by_generators(h)
    z = data.draw(_central(n))
    gb = gamma_basis(n)
    assert outcome(express_in_gamma, z, gb) == outcome(express_by_laurent, z, gb)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", ["xbar*xbar", "xbar*ybar", "T_w0*T_w0"])
def test_equal_coefficients_of_a_product_are_one_object(n, name):
    left, right = {"xbar*xbar": (xbar, xbar), "xbar*ybar": (xbar, ybar),
                   "T_w0*T_w0": (t_longest, t_longest)}[name]
    product = left(n) * right(n)
    objects, values = _distinct(product)
    assert objects == values
    # xbar(5)^2 has 120 terms and 22 distinct coefficients
    assert name != "xbar*xbar" or n != 5 or values == 22
    scaled = product.scale(LaurentPoly({1: 2, -3: -1}))
    assert _distinct(scaled) == (values, values)


@pytest.mark.parametrize("make", [x_elem, y_elem, xbar, ybar, t_longest])
def test_negation_shares_one_object_per_distinct_coefficient(make):
    # -x_elem(5) once held 120 coefficient objects, one per term
    h = make(5)
    for g in (h, h * h):
        neg = -g
        assert _distinct(neg) == _distinct(g)
        assert list(neg._terms.items()) == [(w, -c) for w, c in g._terms.items()]


@pytest.mark.parametrize("n, caps", [(5, Caps()), (8, Caps(enum_max=8))])
def test_y_shares_one_coefficient_per_length(n, caps):
    ctx = AlgebraContext(n, caps)
    top = n * (n - 1) // 2
    y = y_elem(ctx)
    assert _distinct(y) == (top + 1, top + 1)
    # ybar drops the term at w_0, the one word of length l(w_0)
    assert _distinct(ybar(ctx)) == (top, top)
    if n <= 5:
        assert is_central(y * y) and is_central(ybar(ctx) * ybar(ctx))


def _edges():
    """xbar(5)^2 changed at one coefficient: +-1 at its lowest or highest
    exponent, a new term two below or above them or at an odd power, or
    +-(v - 1) v^lo, which would vanish if the odd power shared a digit with
    the even one below it."""
    for sign in (1, -1):
        yield f"lowest{sign:+d}", lambda c, s=sign: {min(c._terms): s}
        yield f"highest{sign:+d}", lambda c, s=sign: {max(c._terms): s}
        yield f"below{sign:+d}", lambda c, s=sign: {min(c._terms) - 2: s}
        yield f"above{sign:+d}", lambda c, s=sign: {max(c._terms) + 2: s}
        yield f"odd{sign:+d}", lambda c, s=sign: {1: s}
        yield f"parity{sign:+d}", lambda c, s=sign: {min(c._terms): -s,
                                                     min(c._terms) + 1: s}


@pytest.mark.parametrize("where", ["identity", "minimal", "longest"])
@pytest.mark.parametrize("change", [name for name, _ in _edges()])
def test_edges_of_the_packed_window_raise_as_the_laurent_check(where, change):
    n = 5
    gb = gamma_basis(n)
    z = xbar(n) * xbar(n)
    w = {"identity": Permutation.identity(n),
         "minimal": minimal_class_elements(n, Partition((3, 2)))[0],
         "longest": Permutation.longest(n)}[where]
    delta = dict(_edges())[change](z.coeff(w))
    changed = z + HeckeElement(n, {w: LaurentPoly(delta)})
    got = outcome(express_in_gamma, changed, gb)
    assert got == outcome(express_by_laurent, changed, gb)
    # only a change at the identity, a multiple of gamma_(1^5) = T_1, keeps
    # the element central
    assert (got[0] == "ok") == (where == "identity")


def test_a_bent_basis_raises_where_the_true_one_reads_the_oracle(gb4):
    # gamma_lam plus c (T_w0 + T_(w0 s_1) + T_(w0 s_2)), or 0: each fails
    # the basis invariants, while the true basis reads the coordinates the
    # LaurentPoly expansion reads
    w0 = Permutation.longest(4)
    extra = HeckeElement(4, {w: LaurentPoly({2: 1, -1: 3}) for w in
                             (w0, w0.right_simple(1), w0.right_simple(2))})
    zs = (x_elem(4), y_elem(4), gb4[(3, 1)].scale(LaurentPoly({0: 2, 2: -1})))
    for z in zs:
        got = outcome(express_in_gamma, z, gb4)
        assert got[0] == "ok"
        assert got == outcome(express_by_laurent, z, gb4)
    for lam, g in gb4:
        for changed in (g + extra, HeckeElement.zero(4)):
            bent = GammaBasis(4, {**gb4.elements, lam: changed})
            for z in zs:
                with pytest.raises(MismatchError):
                    express_in_gamma(z, bent)


def test_a_wide_expansion_reads_the_oracle_coordinates():
    # (1 + q^4000) x spans 4,001 powers of q, and the coordinates are read
    # off its coefficients, whatever their span
    gb = gamma_basis(3)
    wide = x_elem(3).scale(LaurentPoly({0: 1, 4000: 1}))
    got = outcome(express_in_gamma, wide, gb)
    assert got == ("ok", [(lam, LaurentPoly({0: 1, 4000: 1}))
                          for lam in partitions_of(3)])
    assert got == outcome(express_by_laurent, wide, gb)
    # a large coefficient widens each digit, not the window
    big = x_elem(5).scale(LaurentPoly({0: 10 ** 5000, 2: -1}))
    assert (outcome(express_in_gamma, big, gamma_basis(5))
            == outcome(express_by_laurent, big, gamma_basis(5)))
