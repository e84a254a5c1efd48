"""Tests for the element grammar, the scalar grammar, and JSON interchange.

The one-pass parser is checked against the earlier parser
(tests/parser_oracle.py) on texts that follow the grammar and texts that
break it: the same elements, key order included, and the same errors.
"""

import json
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from hecke import (
    Caps,
    FormatError,
    HeckeElement,
    HeckeError,
    LaurentPoly,
    ParseError,
    Permutation,
    ResourceCapError,
    all_permutations,
    element_from_json,
    element_to_json,
    format_element,
    murphy,
    parse_element,
    parse_scalar,
    t_longest,
    v_power,
    x_elem,
)
from hecke.laurent import Q
from hecke.parsing import (MAX_EXPONENT, MAX_NESTING, MAX_POWER_BITS,
                           MAX_POWER_TERMS, MAX_WORD_LENGTH)

from parser_oracle import oracle_element, oracle_scalar

ROUNDTRIP_TRIALS = 300


def _random_element(rng, n):
    perms = all_permutations(n)
    out = HeckeElement.zero(n)
    for _ in range(rng.randint(1, 4)):
        terms = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
        out = out + HeckeElement.basis(n, rng.choice(perms)).scale(LaurentPoly(terms))
    return out


def test_scalar_grammar():
    q = LaurentPoly({2: 1})
    assert parse_scalar("q") == q
    assert parse_scalar("v^2") == q
    assert parse_scalar("xi") == v_power(1) - v_power(-1)
    assert parse_scalar("-3") == LaurentPoly(-3)
    assert parse_scalar("(q - 1)^2") == (q - LaurentPoly(1)) ** 2
    assert parse_scalar("q^-2") == LaurentPoly({-4: 1})
    assert parse_scalar("2*q + q^-1*(1 - q)") == (
        2 * q + LaurentPoly({-2: 1}) * (LaurentPoly(1) - q)
    )
    assert parse_scalar("0") == LaurentPoly(0)


def test_element_grammar():
    assert parse_element("T[]", 3) == HeckeElement.one(3)
    assert parse_element("3*T[1]", 3) == HeckeElement.generator(3, 1).scale(LaurentPoly(3))
    assert parse_element("-T[1]", 3) == HeckeElement.generator(3, 1).scale(LaurentPoly(-1))
    assert parse_element("T[2,1]", 4) == HeckeElement.from_word(4, [2, 1])
    assert parse_element(" q * T[1]  +  T[] ", 3) == (
        HeckeElement.generator(3, 1).scale(LaurentPoly({2: 1})) + HeckeElement.one(3)
    )


def test_unreduced_words_multiply_out():
    t1 = HeckeElement.generator(3, 1)
    assert parse_element("T[1,1]", 3) == t1 * t1
    assert parse_element("T[1,2,1]", 3) == parse_element("T[2,1,2]", 3)


def test_references_resolve(ctx3, gb3):
    assert parse_element("@x", 3) == x_elem(ctx3)
    assert parse_element("@Twn", 3) == t_longest(ctx3)
    assert parse_element("@L:3", 3) == murphy(ctx3, 3)
    assert parse_element("@gamma:2,1", 3) == gb3[(2, 1)]
    assert parse_element("@catalog:R4", 3) == parse_element("T[1] - T[2]", 3)
    assert parse_element("q*@gamma:3 + T[]", 3) == (
        gb3[(3,)].scale(LaurentPoly({2: 1})) + HeckeElement.one(3)
    )


def test_parse_errors_carry_positions():
    cases = {
        "T[5]": 2,
        "T[0]": 2,
        "q*": 2,
        "T[1": 3,
        "": 0,
        "q q": 2,
        "T[1]]": 4,
        "^2": 0,
        "q^v": 2,
        "q**2": 2,
        "@nosuchname": 1,
        "@gamma:2,2": 1,
        "@catalog:nope": 1,
        "@3": 1,
        "@catalog": 1,
        "@catalog:R4,R5": 1,
    }
    for text, pos in cases.items():
        with pytest.raises(ParseError) as err:
            parse_element(text, 3)
        assert err.value.pos == pos, text


def test_scalar_products_and_sums_are_bounded_in_terms():
    from hecke.parsing import MAX_TERMS, _Parser

    def _product(a, b):
        return _Parser("").multiply(a, b)

    # the bound on a product is the smaller of the exponent sums and the
    # window they fill, so dense and sparse products are told apart
    wide = parse_scalar("(1+v)^255*(1+v^256)^255")
    assert sorted(wide._terms) == list(range(MAX_TERMS))
    assert parse_scalar("(1+v)^512*(1+v)^512").num_terms() == 1025
    for text in ("(1+v)^255*(1+v^256)^255*(1+v^65536)",
                 "(1+v)^255*(1+v^256)^255 - v^-1",
                 "(1+v)^512*(1+v^513)^512"):
        with pytest.raises(ResourceCapError, match=f"more than {MAX_TERMS}"):
            parse_scalar(text)
    # a sum is bounded by the terms it has, not by those of its summands
    assert parse_scalar("(1+v)^255*(1+v^256)^255 + (1+v)^255*(1+v^256)^255"
                        ) == wide * LaurentPoly(2)
    for c in (LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, MAX_TERMS: 1})):
        with pytest.raises(ResourceCapError):
            _product(wide, c)
    assert _product(wide, LaurentPoly({7: -2})) == wide * LaurentPoly({7: -2})


# the largest texts that README.md and these tests read, each under every
# bound: the widest product, the widest result, and a sum of two of them
_DOCUMENTED_WIDE = (
    "(1+v)^512*(1+v)^512", "(1+v)^255*(1+v^256)^255",
    "(1+v)^255*(1+v^256)^255 + (1+v)^255*(1+v^256)^255", "(v-1)^512",
    "(q^300+1)^2", "3^10000", "q^500000000*q", "v^-1000000000")


def test_the_scalar_products_of_a_parse_share_one_budget_of_pairs(monkeypatch):
    import hecke.parsing
    from hecke.parsing import MAX_PAIRS

    # a chain of 256-term powers passes every other bound, but costs the
    # square of its length: 20 of them took 17 s before this budget
    for count in (16, 40):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=f"more than {MAX_PAIRS} pairs"):
            parse_scalar("*".join(["(1+v)^255"] * count))
        assert time.perf_counter() - start < 1
    # each parse has a budget of its own
    for _ in range(2):
        for text in _DOCUMENTED_WIDE:
            parse_scalar(text)
    assert parse_element("(1+v)^255*(1+v^2)*T[1]", 3).num_terms() == 1
    # (1+v)*T[1,1] multiplies 1 + v by q and by q - 1: 2 + 4 pairs
    want = parse_element("T[1,1]", 3).scale(parse_scalar("1+v"))
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 6)
    assert parse_element("(1+v)*T[1,1]", 3) == want
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 5)
    with pytest.raises(ResourceCapError, match="more than 5 pairs"):
        parse_element("(1+v)*T[1,1]", 3)
    # (1+v)*(1+v)*(1+v) multiplies 2*2 and then 3*2 pairs
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 10)
    assert parse_scalar("(1+v)*(1+v)*(1+v)") == parse_scalar("(1+v)^3")
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 9)
    with pytest.raises(ResourceCapError):
        parse_scalar("(1+v)*(1+v)*(1+v)")


def test_powers_and_wide_products_are_charged_to_the_budget(monkeypatch):
    import hecke.parsing
    from hecke.parsing import MAX_PAIRS

    # powers of wide two-term bases, N = 2^255 - 19 and M = 2^127 - 1,
    # under every bound but the pairs' budget: they took 9.0, 32.4 and
    # 94.9 s when a pair of wide coefficients cost what a small one does
    n_, m_ = 2**255 - 19, 2**127 - 1
    for text in (f"({n_}+{n_}*v)^255", f"({m_}+{m_}*v)^511",
                 f"({n_}+{n_}*v)^255*({n_}+{n_}*v)^255"):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=f"more than {MAX_PAIRS} pairs"):
            parse_scalar(text)
        assert time.perf_counter() - start < 1, text
    # a power costs the products of its squares and multiplies, from the
    # base: (1+v)^3 is (1+v)^2 * (1+v), 2*2 and then 3*2 pairs, as the
    # chain of three factors costs
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 10)
    assert parse_scalar("(1+v)^3") == parse_scalar("(1+v)*(1+v)*(1+v)")
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 9)
    with pytest.raises(ResourceCapError):
        parse_scalar("(1+v)^3")
    # the power bounds hold the terms of its partial powers: the square of
    # (1+v^513)^256 has 66,049 sums of exponents, past MAX_TERMS, but 513
    # terms, as the power has
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", MAX_PAIRS)
    assert parse_scalar("(1+v^513)^512").num_terms() == 513


def test_wide_monomials_are_charged_at_any_size(monkeypatch):
    import hecke.parsing
    from hecke.parsing import MAX_PAIRS

    # wide monomials under every other bound ran for 3.0, 1.2 and 2.3 s
    # when a product of fewer than 64 pairs was not weighed and a
    # monomial's power was charged nothing (Python 3.11, 2-core Xeon)
    for text in ("*".join(["3^10000"] * 200), "*".join(["(3^10000+v)"] * 31),
                 "(" + "+".join(["7^21000"] * 4000) + ")"):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=f"more than {MAX_PAIRS} pairs"):
            parse_scalar(text)
        assert time.perf_counter() - start < 0.5, text[:20]
    # 3^10000 is charged 1 + 313 * 313 // 64 for the 313 words its 20,000
    # bits could fill, and the product of two 248-word coefficients
    # 1 + 248 * 248 // 64
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 1531)
    assert parse_scalar("3^10000") == LaurentPoly(3 ** 10000)
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 1530)
    with pytest.raises(ResourceCapError):
        parse_scalar("3^10000")
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 2 * 1531 + 962)
    assert parse_scalar("3^10000*3^10000") == LaurentPoly(3 ** 20000)
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 2 * 1531 + 961)
    with pytest.raises(ResourceCapError):
        parse_scalar("3^10000*3^10000")
    # after a literal of 20 or more digits a product of one pair is weighed:
    # two 9-word coefficients count 1 + 81 // 64 = 2
    wide = "9" * 170
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 2)
    assert parse_scalar(f"{wide}*{wide}") == LaurentPoly(int(wide) ** 2)
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 1)
    with pytest.raises(ResourceCapError):
        parse_scalar(f"{wide}*{wide}")
    # a weighed product may have a zero factor, which has no widest term
    assert parse_scalar(f"{wide}*0*(1-1)") == 0
    # until 64 are counted, narrow products count their pairs, a unit's
    # power nothing and a narrow power 1: 2 + 4 for q^40*(1+v)*(1+v), and
    # 3 + 1 + 1 for 2^60*2^60*2^60
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 6)
    assert parse_scalar("q^40*(1+v)*(1+v)") == parse_scalar("q^40+2*v^81+q^41")
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 5)
    with pytest.raises(ResourceCapError):
        parse_scalar("q^40*(1+v)*(1+v)")
    assert parse_scalar("2^60*2^60*2^60") == LaurentPoly(2 ** 180)
    monkeypatch.setattr(hecke.parsing, "MAX_PAIRS", 4)
    with pytest.raises(ResourceCapError):
        parse_scalar("2^60*2^60*2^60")


def test_sums_are_built_in_one_term_dict():
    from hecke.parsing import MAX_TERMS

    # each sum once copied the 65,536 terms: 4,000 of them took 3.4 s
    wide = parse_scalar("(1+v)^255*(1+v^256)^255")
    text = "((1+v)^255*(1+v^256)^255" + "+1" * 4000 + ")"
    start = time.perf_counter()
    got = parse_scalar(text)
    assert time.perf_counter() - start < 0.5
    assert len(wide._terms) == MAX_TERMS
    assert list(got._terms) == list(wide._terms)
    assert got == wide + LaurentPoly(4000)
    # terms that cancel and come back take the place adding them one at a
    # time gives, as do the terms of a power squared and multiplied by the
    # parser, and a lone product is returned as it is
    for text in ("1+v-1+1-v+v^2+v", "-(1+v)+v-v^3+1", "v-v", "-q+q-1",
                 "2*v^2 - 2*v^2 + v^-1 + v^2 - v^-1 + 3", "(1+v)^0",
                 "(1+v)^1", "(1-v+v^2)^7 - (v^-3+2+v)^12", "(q-xi)^5",
                 "0^3", "(1-1)^4"):
        got, want = parse_scalar(text), oracle_scalar(text)
        assert got == want and list(got._terms) == list(want._terms), text
    assert parse_scalar("q") is Q and parse_scalar("(q)") is Q


def test_fractional_power_needs_a_unit_base():
    assert parse_scalar("v^-3") == v_power(-3)
    with pytest.raises(ParseError):
        parse_scalar("(q + 1)^-1")


def test_powers_of_multi_term_scalars_are_bounded():
    from hecke.parsing import MAX_POWER_TERMS

    top = MAX_POWER_TERMS - 1
    assert parse_scalar(f"(v-1)^{top}") == (v_power(1) - LaurentPoly(1)) ** top
    assert parse_scalar(f"(q+1)^{top}").num_terms() == MAX_POWER_TERMS
    for text in ("(v-1)^2000", f"(q+1)^{top + 1}", "(1+v+v^2)^300"):
        with pytest.raises(ResourceCapError):
            parse_scalar(text)
    with pytest.raises(ResourceCapError):
        parse_element("(v-1)^2000*T[1]", 3)
    # the bound follows the terms of the result, not the span of exponents:
    # sparse powers and short powers of many terms stay cheap
    assert parse_scalar("(q^300+1)^2") == LaurentPoly({0: 1, 600: 2, 1200: 1})
    assert parse_scalar("(v^-1+v)^300").num_terms() == 301
    assert parse_scalar("(1+v^50+v^2500)^30").num_terms() == 496
    many = "+".join(f"v^{e}" for e in range(600))
    assert parse_scalar(f"({many})^1").num_terms() == 600
    # a negative power of a non-unit stays a parse error, however large
    with pytest.raises(ParseError):
        parse_scalar("(v-1)^-2000")
    # monomials never grow past one term, so only their coefficients bound
    # their powers, and unit monomials only by the exponent they yield
    assert parse_scalar("v^100000") == v_power(100000)
    assert parse_scalar("(-v)^1000001") == -v_power(1000001)
    assert parse_scalar("(2*q)^3") == LaurentPoly({6: 8})
    assert parse_scalar("0^100000000").is_zero()


def test_words_are_bounded_by_their_length():
    from hecke.parsing import MAX_WORD_LENGTH

    longest = [1, 2, 1, 3, 2, 1]
    word = (longest * MAX_WORD_LENGTH)[:MAX_WORD_LENGTH]
    text = "T[" + ",".join(map(str, word)) + "]"
    assert parse_element(text, 4) == HeckeElement.from_word(4, word)
    assert parse_element(f"2*{text} - {text}", 4) == HeckeElement.from_word(4, word)
    start = time.perf_counter()
    for n, letters in ((4, word + [1]), (2, [1] * 20000)):
        with pytest.raises(ResourceCapError, match="letters"):
            parse_element("T[" + ",".join(map(str, letters)) + "]", n)
    # unbounded, the 20,000-letter word ran for more than a minute
    assert time.perf_counter() - start < 1.0


def test_powers_are_bounded_by_their_coefficient_bits():
    from hecke.parsing import MAX_POWER_BITS

    assert parse_scalar("3^10000") == LaurentPoly(3 ** 10000)
    assert parse_scalar(f"2^{MAX_POWER_BITS}") == LaurentPoly(1 << MAX_POWER_BITS)
    assert parse_scalar("(v-2)^100").coeff(0) == 2 ** 100
    start = time.perf_counter()
    for text in ("3^10000000", f"2^{MAX_POWER_BITS + 1}", "(3*q)^100000",
                 "(v-2)^100000"):
        with pytest.raises(ResourceCapError, match="bits"):
            parse_scalar(text)
    # the parent computed 3^10000000 in 5.7 s
    assert time.perf_counter() - start < 1.0


def test_decimals_of_any_size():
    digits = "7" * 5001
    value = int(digits[:2500]) * 10 ** 2501 + int(digits[2500:])
    big = parse_scalar(f"{digits}*q - 1")
    assert big == LaurentPoly({2: value, 0: -1})
    assert str(big) == f"{digits}*q - 1"
    assert parse_scalar(str(big)) == big
    assert LaurentPoly.from_pairs(big.to_pairs()) == big
    assert big.to_pairs()[1] == [2, digits]
    el = parse_element(f"-{digits}*T[1]", 3)
    assert element_from_json(json.loads(json.dumps(element_to_json(el)))) == el
    with pytest.raises(ValueError):
        LaurentPoly.from_pairs([[0, digits + "x"]])


def test_exponents_keep_the_conversion_limit():
    # exponents print with str(), so a literal past the interpreter's
    # int/str limit is refused before any power is taken
    long = "1" + "0" * 5000
    with pytest.raises(ParseError, match="5001 digits"):
        parse_scalar(f"v^{long}")
    with pytest.raises(ParseError, match="5001 digits"):
        parse_element(f"(v+1)^{long}*T[1]", 3)
    # within the limit, such an exponent is past MAX_EXPONENT; its scalar
    # still prints, and its text is refused as the literal is
    e = 10 ** 4000
    with pytest.raises(ResourceCapError, match="past"):
        parse_scalar(f"v^{e}")
    assert str(v_power(e)) == f"q^{e // 2}"
    with pytest.raises(ResourceCapError, match="past"):
        parse_scalar(str(v_power(e)))


def test_exponents_are_bounded_where_text_and_json_are_read():
    half = MAX_EXPONENT // 2
    assert parse_scalar(f"v^{MAX_EXPONENT}") == v_power(MAX_EXPONENT)
    assert parse_scalar(f"(-v)^-{MAX_EXPONENT}") == v_power(-MAX_EXPONENT)
    assert parse_scalar("(q^250000000 + 1)^2").max_exp() == MAX_EXPONENT
    # the bound is on each power, so a product of powers may pass it
    assert parse_scalar(f"q^{half}*q") == v_power(MAX_EXPONENT + 2)
    start = time.perf_counter()
    for text in (f"v^{MAX_EXPONENT + 1}", f"q^{half + 1}",
                 f"v^-{MAX_EXPONENT + 1}", f"(q^-1)^{half + 1}",
                 "(q^250000001 + 1)^2", "q^10000000000"):
        with pytest.raises(ResourceCapError, match=f"past {MAX_EXPONENT}"):
            parse_scalar(text)
        with pytest.raises(ResourceCapError, match=f"past {MAX_EXPONENT}"):
            parse_element(f"{text}*T[1]", 2)
    assert time.perf_counter() - start < 1.0
    # a zero base yields no exponent
    assert parse_scalar(f"0^{10 * MAX_EXPONENT}").is_zero()

    def doc(exponent, basis="T"):
        return {"n": 2, "basis": basis,
                "terms": [{"perm": [2, 1], "coeff": [[exponent, 1]]}]}

    for e in (MAX_EXPONENT, -MAX_EXPONENT):
        assert element_from_json(doc(e)).coeff(
            Permutation.from_word(2, [1])) == v_power(e)
    for e in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 2 * 10 ** 10):
        for basis in ("T", "Ttilde"):
            with pytest.raises(ResourceCapError, match=f"past {MAX_EXPONENT}"):
                element_from_json(doc(e, basis))


def test_scalar_parser_rejects_elements():
    with pytest.raises(ParseError):
        parse_scalar("T[1]")


def test_reference_respects_resource_caps():
    for text, n in (("@x", 8), ("T[1]", 8), ("T[]", 16000)):
        with pytest.raises(ResourceCapError):
            parse_element(text, n)
    assert parse_element("T[1,1]", 8, Caps(enum_max=8)) == parse_element(
        "q*T[] + (q-1)*T[1]", 8, Caps(enum_max=8))


def test_format_fixtures(ctx3):
    assert format_element(HeckeElement.zero(3)) == "0*T[]"
    assert format_element(HeckeElement.one(3)) == "T[]"
    assert format_element(x_elem(ctx3)) == (
        "T[] + T[2] + T[1] + T[1,2] + T[2,1] + T[1,2,1]"
    )
    # negative leading coefficients are factored out, not left inline
    assert format_element(parse_element("(1-q)*T[1]", 3)) == "-(q - 1)*T[1]"
    assert format_element(parse_element("(1-q)*T[1] + T[2]", 3)) == (
        "T[2] - (q - 1)*T[1]"
    )
    assert format_element(parse_element("-2*T[]", 3)) == "-2*T[]"


def test_format_parse_roundtrip():
    rng = random.Random(13)
    for _ in range(ROUNDTRIP_TRIALS):
        n = rng.choice((2, 3, 4))
        h = _random_element(rng, n)
        assert parse_element(format_element(h), n) == h


def test_json_roundtrip_both_bases():
    rng = random.Random(29)
    for _ in range(60):
        h = _random_element(rng, 3)
        for basis in ("T", "Ttilde"):
            doc = element_to_json(h, basis=basis)
            assert element_from_json(doc) == h


def test_json_document_shape(ctx3):
    doc = element_to_json(parse_element("q*T[1] + T[]", 3))
    assert doc == {
        "n": 3,
        "basis": "T",
        "terms": [
            {"perm": [1, 2, 3], "coeff": [[0, "1"]]},
            {"perm": [2, 1, 3], "coeff": [[2, "1"]]},
        ],
    }
    tilde = element_to_json(parse_element("q*T[1] + T[]", 3), basis="Ttilde")
    assert tilde["terms"][1] == {"perm": [2, 1, 3], "coeff": [[3, "1"]]}


def test_json_validation_rejects_malformed_documents():
    good_term = {"perm": [2, 1, 3], "coeff": [[0, "1"]]}
    bad_docs = [
        {"n": 3, "basis": "T"},
        {"n": 3, "basis": "TT", "terms": []},
        {"n": 0, "basis": "T", "terms": []},
        {"n": 3, "basis": "T", "terms": [{"perm": [1, 2, 3]}]},
        {"n": 3, "basis": "T", "terms": [dict(good_term, extra=1)]},
        {"n": 3, "basis": "T", "terms": [{"perm": "12", "coeff": [[0, "1"]]}]},
        {"n": 3, "basis": "T", "terms": [good_term, dict(good_term)]},
        {"n": 2, "basis": "T", "terms": [good_term]},
        {"n": 3, "basis": "T", "terms": [{"perm": [1, 1, 2], "coeff": [[0, "1"]]}]},
        "not a dict",
        # each of these was truncated by int() and imported
        {"n": 2.7, "basis": "T", "terms": []},
        {"n": True, "basis": "T", "terms": []},
        {"n": 2, "basis": "T", "terms": [{"perm": [1.9, 2.2], "coeff": [[0, "1"]]}]},
        {"n": 2, "basis": "T", "terms": [{"perm": [2, 1], "coeff": [[0.5, "1"]]}]},
        {"n": 2, "basis": "T", "terms": [{"perm": [2, 1], "coeff": [[0, 2.5]]}]},
        {"n": 2, "basis": "T", "terms": [{"perm": [2, 1], "coeff": [[0, " 2"]]}]},
        {"n": 2, "basis": "T", "terms": [{"perm": [2, 1], "coeff": {"12": 1}}]},
        {"n": 3, "basis": "T", "terms": {}},
        {"n": 3, "basis": "T",
         "terms": [dict(good_term, coeff=[[0, "1"], [0, "2"]])]},
    ]
    for doc in bad_docs:
        with pytest.raises(FormatError):
            element_from_json(doc)


def test_json_drops_zero_terms():
    doc = {
        "n": 3,
        "basis": "T",
        "terms": [{"perm": [2, 1, 3], "coeff": []}],
    }
    assert element_from_json(doc).is_zero()


def test_digits_and_names_are_ascii():
    # str.isdigit accepts these, and int() then refused some of them with
    # a bare ValueError; '٣' (Arabic-Indic three) parsed as 3
    for text, pos in (("²", 0), ("q^²", 2), ("٣", 0),
                      ("q²", 1), ("2*é", 2)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_scalar(text)
        assert err.value.pos == pos, text
    for text, pos in (("T[²]", 2), ("²*T[1]", 0), ("@é", 1),
                      ("T[1] + ٣*T[2]", 7)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_element(text, 3)
        assert err.value.pos == pos, text
    # non-ASCII whitespace still separates tokens
    assert parse_element("2\u00a0*\u2003T[1]", 3) == parse_element("2*T[1]", 3)


def test_a_generator_index_too_long_to_convert_is_a_parse_error():
    with pytest.raises(ParseError, match="generator index") as err:
        parse_element("T[" + "1" * 5000 + "]", 3)
    assert err.value.pos == 2
    with pytest.raises(ParseError) as err:
        parse_element("T[1," + "0" * 5000 + "9]", 3)
    assert err.value.pos == 4


@pytest.mark.parametrize("text", [
    "@e:" + "1" * 5000, "@gamma:2," + "1" * 5000, "@gamma:" + "0" * 5000 + "3",
    "@gamma:x", "@gamma:2,x", "@e:q", "@L:i"],
    ids=lambda text: text if len(text) < 20 else f"{text[:8]}...{len(text)}")
def test_a_reference_argument_is_read_as_a_generator_index_is(text):
    # no conversion error of the interpreter's reaches the message
    with pytest.raises(ParseError, match="argument") as err:
        parse_element("2*" + text, 3)
    assert err.value.pos == 3
    assert "int()" not in str(err.value)
    assert "set_int_max_str_digits" not in str(err.value)


def test_a_lone_reference_is_returned_as_it_is(gb4):
    assert parse_element("@x", 4) is x_elem(4)
    assert parse_element(" @gamma:2,2 ", 4) is gb4[(2, 2)]
    # anything more builds a fresh element
    assert parse_element("1*@x", 4) is not x_elem(4)
    assert parse_element("1*@x", 4) == x_elem(4)


# -- the earlier parser as the oracle ------------------------------------------

_INTS = st.one_of(st.integers(0, 12).map(str),
                  st.sampled_from(("007", "12345678901234567890", "9" * 700)))
# both sides of the caps on powers and on nesting, then powers the caps
# leave alone
_CAPPED = (
    f"(v-1)^{MAX_POWER_TERMS - 1}", f"(v-1)^{MAX_POWER_TERMS}",
    f"(q+1)^{MAX_POWER_TERMS - 1}", f"(q+1)^{MAX_POWER_TERMS}",
    f"2^{MAX_POWER_BITS}", f"2^{MAX_POWER_BITS + 1}", "(3*q)^100000",
    "(" * MAX_NESTING + "q" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1),
    "(-v)^1000001", "(2*q)^3", "0^0", "0^100000000", "(-q)^-3", "xi^0",
    "(q^300+1)^2", "v^" + "9" * 60)
# references that resolve, then words on both sides of MAX_WORD_LENGTH
_FIXED_PARTS = (
    "@x", "@y", "@xbar", "@ybar", "@Twn", "@fulltwist", "@L:2", "@Lt:2",
    "@calL:2", "@Mt:1", "@e:1", "@et:1", "@gamma:1,1", "@catalog:R4",
    "T[" + ",".join("1" * MAX_WORD_LENGTH) + "]",
    "T[" + ",".join("1" * (MAX_WORD_LENGTH + 1)) + "]")
# parts the grammar refuses, or whose reference does not resolve
_BAD_PARTS = (
    "@catalog:nope", "@nosuch", "@x:1", "@e", "@e:0", "@e:q",
    "@e:" + "1" * 5000, "@gamma:", "@gamma:3", "@", "@:1", "@e:1,", "T[1,]",
    "T[,1]", "T[", "T", "T[1 2]", "T[1]]", "T[" + "1" * 5000 + "]")


def _scalars(good):
    """Scalar texts: by the grammar when good, else with unknown names,
    negative powers of non-units and exponents past the conversion limit."""
    names = ("q", "v", "xi") + (() if good else ("z", "T", "qv"))
    signs = ("",) if good else ("", "-")
    small = st.integers(0, 4).map(str)
    exponents = small if good else st.one_of(small, st.sampled_from((
        str(MAX_POWER_TERMS), str(MAX_POWER_BITS + 1), "1" + "0" * 5000)))

    def layer(inner):
        return st.one_of(
            st.builds(lambda a, s, e: f"{a}^{s}{e}", inner,
                      st.sampled_from(signs), exponents),
            st.lists(inner, min_size=2, max_size=3).map("*".join),
            st.builds(lambda s, a, op, b: f"{s}{a}{op}{b}",
                      st.sampled_from(("", "-")), inner,
                      st.sampled_from(("+", " - ", " + ")), inner),
            inner.map(lambda a: f"({a})"))

    return st.one_of(
        st.recursive(st.one_of(_INTS, st.sampled_from(names)), layer,
                     max_leaves=6),
        st.sampled_from(_CAPPED))


def _elements(n, good):
    """Element texts at degree n: signed sums of T-words, references and
    scaled parts; when not good, also generator indices out of range, bad
    parts, bare scalars and terms joined by '*'."""
    letters = st.integers(1, n - 1).map(str)
    refs = _FIXED_PARTS
    if not good:
        letters = st.one_of(letters, st.sampled_from(("0", str(n), "01")))
        refs += _BAD_PARTS
    words = st.lists(letters, max_size=6)
    parts = st.one_of(words.map(lambda w: f"T[{','.join(w)}]"),
                      words.map(lambda w: f"T[ {', '.join(w)} ]"),
                      st.sampled_from(refs))
    scalars = _scalars(good)
    scaled = st.builds(lambda s, sep, p: f"{s}{sep}{p}", scalars,
                       st.sampled_from(("*", " * ", " ")), parts)
    terms = st.one_of(parts, scaled) if good else st.one_of(parts, scaled,
                                                            scalars)
    ops = ("+", "-", " + ", " - ") + (() if good else ("*",))
    return st.builds(
        lambda sign, first, rest: sign + first + "".join(o + t for o, t in rest),
        st.sampled_from(("", "-", " - ")), terms,
        st.lists(st.tuples(st.sampled_from(ops), terms), max_size=3))


_ELEMENTS = {(n, good): _elements(n, good) for n in (2, 3, 4)
             for good in (True, False)}
# characters that break the grammar: symbols, ASCII and non-ASCII strays,
# whitespace of both kinds, and non-ASCII digits and letters
_NOISE = "+-*^()[],@:_$.!xqT019 \t\u00a0\u2003\u00b2\u0663\u00e9\u20ac"


@st.composite
def _texts(draw, good):
    """(text, degree); a text that breaks the grammar also has up to two
    characters inserted, replaced or deleted."""
    n = draw(st.integers(2, 4))
    text = draw(_ELEMENTS[n, good])
    for _ in range(0 if good else draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = (text[:i] + draw(st.sampled_from(_NOISE) | st.just(""))
                + text[i + cut:])
    return text, n


def _outcome(parse, *args):
    try:
        return parse(*args)
    except HeckeError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    except ValueError:
        return ValueError


def _agree(text, parse, oracle, *args):
    got, want = _outcome(parse, text, *args), _outcome(oracle, text, *args)
    if any(not ch.isascii() and ch.isalnum() for ch in text):
        # the oracle read such characters as digits or name letters; the
        # parser refuses each as a stray character, before any other check
        assert got[0] is ParseError and got[1].startswith("unexpected character")
    elif want is ValueError:
        # an index the oracle could not convert
        assert isinstance(got, tuple) and got[0] is ParseError
    elif isinstance(want, HeckeElement):
        assert got == want and list(got._terms.items()) == list(want._terms.items())
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(_texts(good=True))
@example(("-2*T[1] + (q-1) T[2,1] - @x + T[]", 3))
@example(("T[1,1] - T[1,1] + 2 @gamma:2,1", 3))
def test_the_parser_matches_the_oracle_on_the_grammar(case):
    text, n = case
    _agree(text, parse_element, oracle_element, n)


@settings(max_examples=200, deadline=None)
@given(_texts(good=False))
@example(("T[1] + @nosuch $", 3))
@example(("q q", 3))
@example(("T[1]*2", 3))
@example(("   ", 3))
def test_the_parser_matches_the_oracle_off_the_grammar(case):
    text, n = case
    _agree(text, parse_element, oracle_element, n)
    _agree(text, parse_scalar, oracle_scalar)
