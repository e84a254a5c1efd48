"""The one-pass printer against the earlier printer (tests/printer_oracle.py).

Every scalar and element must print to the same bytes as before and parse
back to itself: small and huge exponents on both sides of the token-cache
bound, coefficients on both sides of the direct-conversion limit, and
negative single terms, which print through the negate flag.  A text with
an exponent past the grammar's bound (MAX_EXPONENT) still prints the same,
and reading it back raises ResourceCapError.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from hecke import (Caps, HeckeElement, LaurentPoly, ResourceCapError,
                   all_permutations, format_element, format_scalar,
                   parse_element, parse_scalar)
from hecke.laurent import _DECIMAL_SMALL, _TOKEN_BOUND, _TOKENS
from hecke.parsing import MAX_EXPONENT, _T_WORDS
from printer_oracle import element_text, scalar_text

_exponents = st.one_of(
    st.integers(-40, 40),
    st.integers(_TOKEN_BOUND - 3, _TOKEN_BOUND + 3),
    st.integers(-_TOKEN_BOUND - 3, -_TOKEN_BOUND + 3),
    # both sides of the grammar's exponent bound
    st.builds(lambda s, d: s * (MAX_EXPONENT + d), st.sampled_from((1, -1)),
              st.integers(-3, 3)),
    # as in test_exponents_keep_the_conversion_limit: a JSON number's limit
    st.builds(lambda k, s, d: s * 10 ** k + d, st.integers(4, 4000),
              st.sampled_from((1, -1)), st.integers(-2, 2)),
)
_coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-10 ** 9, 10 ** 9),
    st.builds(lambda k, s, d: s * (10 ** k + d), st.integers(590, 700),
              st.sampled_from((1, -1)), st.integers(-2, 2)),
    st.sampled_from((_DECIMAL_SMALL - 1, _DECIMAL_SMALL, -_DECIMAL_SMALL)),
)
_scalars = st.dictionaries(_exponents, _coefficients, max_size=6).map(LaurentPoly)

_FIXED_SCALARS = [LaurentPoly(0), LaurentPoly(1), LaurentPoly(-1)] + [
    LaurentPoly({e: c}) for e in (-3, -2, -1, 1, 2, 3, 10 ** 4000)
    for c in (1, -1)] + [
    # past the interpreter's 4,300-digit limit on int/str conversion
    LaurentPoly({2: -(10 ** 5000 + 7), -1: 10 ** 4400})]


def _past_bound(p):
    """Whether p has an exponent the grammar refuses to read."""
    return any(abs(e) > MAX_EXPONENT for e in p._terms)


def _parses_back(parse, text, value, past):
    if past:
        with pytest.raises(ResourceCapError, match=f"past {MAX_EXPONENT}"):
            parse(text)
    else:
        assert parse(text) == value


def _check_scalar(p):
    want = scalar_text(p)
    assert str(p) == want
    assert format_scalar(p) == want
    assert p._text(negate=True) == scalar_text(-p)
    _parses_back(parse_scalar, want, p, _past_bound(p))


def test_fixed_scalars_print_as_before():
    for p in _FIXED_SCALARS:
        _check_scalar(p)
    assert [str(p) for p in _FIXED_SCALARS[:9]] == [
        "0", "1", "-1", "v^-3", "-v^-3", "q^-1", "-q^-1", "v^-1", "-v^-1"]


@settings(max_examples=80, deadline=None)
@given(_scalars)
def test_scalars_print_as_before_and_parse_back(p):
    _check_scalar(p)
    assert all(-_TOKEN_BOUND < e < _TOKEN_BOUND for e in _TOKENS)


_small_scalars = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4),
                                 min_size=1, max_size=3).map(LaurentPoly)


@st.composite
def _elements(draw):
    n = draw(st.integers(2, 5))
    perms = all_permutations(n)
    terms = draw(st.dictionaries(
        st.sampled_from(perms),
        st.one_of(_small_scalars, _scalars.filter(bool)), max_size=6))
    return HeckeElement(n, terms)


@settings(max_examples=80, deadline=None)
@given(_elements())
@example(HeckeElement.zero(3))
@example(parse_element("-T[]", 3))
@example(parse_element("-2*q^-1*T[1]", 3))
@example(parse_element("-q*T[2,1] - (q - 1)*T[3] + T[]", 4))
@example(parse_element("-v^-7*T[1,2,3,4] + 3*T[4]", 5))
def test_elements_print_as_before_and_parse_back(el):
    text = format_element(el)
    assert text == element_text(el)
    assert str(el) == text
    _parses_back(lambda t: parse_element(t, el.n), text, el,
                 any(map(_past_bound, el._terms.values())))


def test_the_word_cache_stops_at_the_enumeration_cap():
    caps = Caps(enum_max=8)
    for n in (7, 8):
        el = parse_element("-T[1,2] + 2*T[3]", n, caps)
        assert format_element(el) == element_text(el) == "2*T[3] - T[1,2]"
    assert _T_WORDS and all(len(w) <= 7 for w in _T_WORDS)
