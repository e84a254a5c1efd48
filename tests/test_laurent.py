"""Tests for the scalar ring Z[v, v^-1] and its fraction field."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hecke import (HeckeError, LaurentPoly, TermTypeError, parse_scalar, q_power,
                   v_power)

from fraction_oracle import RationalFn

Q = q_power(1)
V = v_power(1)
ONE = LaurentPoly(1)
ZERO = LaurentPoly(0)

scalars = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


def test_construction_and_predicates():
    assert ZERO.is_zero()
    assert ONE.is_one()
    assert not ZERO.is_one()
    assert LaurentPoly({2: 1}) == Q
    assert LaurentPoly({1: 1}) == V
    assert V * V == Q
    assert Q.is_monomial() and Q.is_unit()
    assert (Q + ONE).is_unit() is False
    assert LaurentPoly({-3: -1}).is_unit()


# bool subclasses int, and str(LaurentPoly(True)) once printed "True"
@pytest.mark.parametrize("terms", [{0.5: 1}, {0: 1.5}, {"a": 1}, 2.5, "3",
                                   [(0, 1)], None, True, {0: True},
                                   {True: 1}])
def test_constructor_takes_only_int_exponents_and_coefficients(terms):
    with pytest.raises(TermTypeError) as info:
        LaurentPoly(terms)
    assert isinstance(info.value, HeckeError)


def test_cube_of_q_minus_one():
    p = (Q - ONE) ** 3
    assert p == LaurentPoly({6: 1, 4: -3, 2: 3, 0: -1})
    # at v = 2 we have q = 4, so (q-1)^3 = 27
    assert p.evaluate(2) == 27


def test_negative_exponents_evaluate_to_fractions():
    p = (ONE - q_power(-1)) ** 2
    assert p.evaluate(2) == Fraction(9, 16)
    assert p.evaluate(Fraction(1, 2)) == 9


def test_divexact():
    quotient = (Q * Q - ONE).divexact(Q - ONE)
    assert quotient == Q + ONE
    assert quotient.evaluate(3) == 10
    with pytest.raises(ArithmeticError):
        (Q * Q - ONE).divexact(Q - LaurentPoly(2))


def test_content_and_integer_division():
    p = LaurentPoly({2: 4, 0: -6})
    assert p.content() == 2
    assert p.divide_int(2) == LaurentPoly({2: 2, 0: -3})
    assert ZERO.content() == 0


def test_divide_int_is_exact_division_by_an_int():
    # one exact division: divide_int(k) is divexact by the constant k, so
    # it takes the package's int rule and says what divexact says
    p = LaurentPoly({2: 4, 0: -6, -3: 10})
    for k in (1, -1, 2, -2):
        got = p.divide_int(k)
        assert got == p.divexact(LaurentPoly(k))
        assert got == LaurentPoly({e: c // k for e, c in p.items()})
        assert list(got._terms) == list(p._terms)
    assert ZERO.divide_int(3) == ZERO
    # a float divisor once gave LaurentPoly({0: 4.0, 1: 2.0}), and True
    # divided by 1
    for k in (1.5, True):
        with pytest.raises(TermTypeError) as info:
            p.divide_int(k)
        assert isinstance(info.value, HeckeError)
        assert str(info.value) == (
            f"scalar {k!r} is a {type(k).__name__}, not an int")
    with pytest.raises(ArithmeticError, match="^inexact scalar division$"):
        p.divide_int(4)
    with pytest.raises(ZeroDivisionError):
        p.divide_int(0)


def test_exponent_queries():
    p = LaurentPoly({4: 2, -3: 5})
    assert p.max_exp() == 4
    assert p.min_exp() == -3
    assert p.leading_coeff() == 2
    assert p.coeff(-3) == 5
    assert p.coeff(1) == 0
    assert p.num_terms() == 2
    assert p.has_even_exponents() is False
    assert (Q ** 3 - Q).has_even_exponents() is True


def test_shift_is_multiplication_by_v_power():
    p = Q - ONE
    assert p.shift(3) == p * v_power(3)
    assert p.shift(-2) == p * v_power(-2)


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(Q) == "q"
    assert str(V) == "v"
    assert str(q_power(-1)) == "q^-1"
    assert str(2 * Q) == "2*q"
    assert str(Q - ONE) == "q - 1"
    assert str(V - v_power(-1)) == "v - v^-1"
    assert str(v_power(3)) == "v^3"


def test_pairs_roundtrip():
    p = LaurentPoly({5: -2, 0: 7, -4: 1})
    assert LaurentPoly.from_pairs(p.to_pairs()) == p
    assert p.to_pairs() == [[-4, "1"], [0, "7"], [5, "-2"]]


@given(a=scalars, b=scalars, c=scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(a=scalars, b=scalars)
def test_evaluate_is_a_ring_homomorphism(a, b):
    t = Fraction(3, 2)
    assert (a + b).evaluate(t) == a.evaluate(t) + b.evaluate(t)
    assert (a * b).evaluate(t) == a.evaluate(t) * b.evaluate(t)


@given(a=scalars)
def test_str_parse_roundtrip(a):
    assert parse_scalar(str(a)) == a


@given(a=scalars)
def test_pairs_roundtrip_random(a):
    assert LaurentPoly.from_pairs(a.to_pairs()) == a


def test_rational_arithmetic():
    rq = RationalFn.from_poly(Q)
    inv = rq.inverse()
    assert rq * inv == RationalFn.from_poly(ONE)
    total = rq + inv
    assert total.evaluate(2) == Fraction(17, 4)
    assert not total.is_zero()
    assert (rq - rq).is_zero()


def test_rational_cross_cancellation():
    # (q^2 - 1)/(q - 1) reduces against q + 1 exactly
    num = RationalFn.from_poly(Q * Q - ONE)
    den = RationalFn.from_poly(Q - ONE)
    ratio = num * den.inverse()
    assert ratio == RationalFn.from_poly(Q + ONE)


def test_xi_squared():
    xi = parse_scalar("xi")
    assert xi == V - v_power(-1)
    assert xi * xi == Q - LaurentPoly(2) + q_power(-1)


def test_negative_powers_of_units_and_the_error_for_a_non_unit():
    assert V ** -3 == v_power(-3)
    assert (-Q) ** -2 == q_power(-2)
    assert (-V) ** -1 == -v_power(-1)
    assert LaurentPoly(-1) ** -5 == LaurentPoly(-1)
    for non_unit in (LaurentPoly(2), Q - ONE, ZERO):
        with pytest.raises(ArithmeticError, match="non-unit"):
            non_unit ** -1


@pytest.mark.parametrize("text", ["1+v", "q-xi", "3*v^-2"])
def test_square_and_multiply_from_the_base(text):
    # laurent._power against square and multiply from 1, whose first
    # product is 1 * base: the same values in the same key order, in
    # k.bit_length() + k.bit_count() - 2 products, each of which the
    # parser charges to its budget
    from hecke.laurent import _power
    base = parse_scalar(text)

    def from_one(k):
        out, b = ONE, base
        while k:
            if k & 1:
                out = out * b
            b = b * b if k > 1 else b
            k >>= 1
        return out

    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for k in (1, 2, 3, 5, 8, 13, 63, 64, 100, 255, 256, 257, 600):
        products.clear()
        got = _power(base, k, mul)
        for want in (from_one(k), base ** k):
            assert list(got._terms.items()) == list(want._terms.items())
        assert len(products) == k.bit_length() + k.bit_count() - 2


@given(scalars, scalars)
def test_subtraction_is_addition_of_the_negation(a, b):
    # the same terms in the same order, for a scalar or an int subtrahend
    for got, want in ((a - b, a + (-b)), (a - 3, a + LaurentPoly(-3)),
                      (3 - a, -a + LaurentPoly(3))):
        assert list(got._terms.items()) == list(want._terms.items())


def test_subtraction_keeps_its_type_rules():
    with pytest.raises(TermTypeError):
        Q - True
    with pytest.raises(TypeError):
        Q - 1.5
    with pytest.raises(TypeError):
        Q - "q"


@given(scalars, st.sampled_from([1, 2, -3, 6]))
def test_gcd_with_zero_is_the_canonical_associate(p, k):
    # min exponent 0 and a positive leading coefficient, content kept, the
    # terms in the order of p, whichever side the zero is on
    from hecke.laurent import lp_gcd
    p = p * k
    assert lp_gcd(ZERO, ZERO) == ZERO
    if p.is_zero():
        return
    sign = 1 if p.leading_coeff() > 0 else -1
    want = [(e - p.min_exp(), sign * c) for e, c in p._terms.items()]
    for got in (lp_gcd(ZERO, p), lp_gcd(p, ZERO)):
        assert list(got._terms.items()) == want
    assert lp_gcd(p, ZERO).content() == p.content()


@pytest.mark.parametrize("k", [1.5, True, "2"])
def test_v_power_and_q_power_take_an_int(k):
    # v_power(1.5) built v^1.5, q_power(True) was q, and v_power("2") built
    # a scalar that raised a bare TypeError when it was printed
    for make in (v_power, q_power):
        with pytest.raises(TermTypeError) as info:
            make(k)
        assert isinstance(info.value, HeckeError)


@given(scalars, scalars)
def test_gcd_leaves_its_operands_unchanged(a, b):
    # _strip hands back a term dict with nothing to divide without copying
    # it, so the gcd must build its result apart from both operands
    from hecke.laurent import lp_gcd
    before = [list(a._terms.items()), list(b._terms.items())]
    g = lp_gcd(a, b)
    assert [list(a._terms.items()), list(b._terms.items())] == before
    assert g._terms is not a._terms and g._terms is not b._terms
