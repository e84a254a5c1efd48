"""Named references cost their distinct coefficients once.

`c*@ref` and `-@ref` parse to the elements the earlier parser builds
(tests/parser_oracle.py), key order included, with no more coefficient
objects than `@ref` has; `elem_sym`, `y_elem` and `catalog` are built once
per degree, and the registry reads the catalogs and the full twist from
their one builder; the minimal basis's integrality check names the term it
named when it read every term.
"""

import pytest

import hecke.algebra
import hecke.elements
from hecke import sqrtcenter, verify
from hecke import (
    HeckeElement,
    LaurentPoly,
    MismatchError,
    Partition,
    Permutation,
    all_permutations,
    catalog,
    catalog_h3,
    catalog_h4,
    elem_sym,
    elem_sym_normalized,
    gamma_basis,
    parse_element,
    run_verify,
    y_elem,
)
from hecke.center import _check_integral
from hecke.elements import NAMED_KINDS
from hecke.laurent import ONE, V, v_power

from parser_oracle import oracle_element

# a monomial, a unit, a binomial and a negative integer
_SCALARS = ("xi", "q^-1", "(q-3)", "-2")


def _refs(n):
    """Every reference at degree n: each named kind at each index it takes,
    each minimal-basis element, and each catalog entry at degrees 3 and 4."""
    refs = []
    for kind, (indexed, _) in NAMED_KINDS.items():
        if not indexed:
            refs.append(f"@{kind}")
            continue
        lo = 0 if kind in ("e", "et") else 1
        hi = n - 1 if kind in ("e", "et") else n
        refs += [f"@{kind}:{i}" for i in range(lo, hi + 1)]
    refs += ["@gamma:" + ",".join(map(str, lam)) for lam in gamma_basis(n).elements]
    if n in (3, 4):
        refs += [f"@catalog:{name}" for name in catalog(n)]
    return refs


def _texts(ref):
    """ref under each scalar, negated, and summed with a negated multiple of
    itself, which adds onto terms already there."""
    return ([f"{s}*{ref}" for s in _SCALARS]
            + [f"-{ref}", f"-xi*{ref}", f"{ref} - (q+1)*{ref}"])


def _objects(h):
    return len(set(map(id, h._terms.values())))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_scaled_and_negated_references_match_the_oracle(n):
    for ref in _refs(n):
        plain = parse_element(ref, n)
        for text in _texts(ref):
            got, want = parse_element(text, n), oracle_element(text, n)
            assert got == want, text
            assert list(got._terms.items()) == list(want._terms.items()), text
            if "+" not in text and " - " not in text:
                # one part: its terms share one image per object of @ref
                assert _objects(got) <= _objects(plain), text


def test_a_scaled_reference_multiplies_each_distinct_coefficient_once():
    calls = [0]
    mul = LaurentPoly.__mul__

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    e4 = parse_element("@e:4", 6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "__mul__", counting)
        parse_element("(q-3)*@e:4", 6)
    assert calls[0] == _objects(e4) < e4.num_terms()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_elem_sym_is_built_once_per_degree_and_index(n):
    for i in range(n):
        first = elem_sym(n, i)
        assert elem_sym(n, i) is first
        want = elem_sym_normalized(n, i).scale(v_power(i))
        assert first == want
        assert list(first._terms.items()) == list(want._terms.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_y_matches_the_per_permutation_lengths(n):
    top = n * (n - 1) // 2
    want = {w: LaurentPoly({2 * (top - w.length()): (-1) ** (top - w.length())})
            for w in all_permutations(n)}
    got = y_elem(n)
    assert list(got._terms.items()) == list(want.items())


def test_building_y_numbers_no_symmetric_group(monkeypatch):
    memo = {n: ix for n, ix in hecke.algebra._INDEXED.items() if n != 7}
    monkeypatch.setattr(hecke.algebra, "_INDEXED", memo)
    y = hecke.elements._y_elem.__wrapped__(7)
    assert y == y_elem(7)
    assert 7 not in memo


def test_catalog_is_built_once_and_returned_as_a_fresh_dict():
    for n, build in ((3, catalog_h3), (4, catalog_h4)):
        first = catalog(n)
        assert first == build()
        first["R4"] = HeckeElement.zero(n)
        del first["xbar"]
        again = catalog(n)
        assert again is not first and again == build()
        assert all(again[k] is v for k, v in catalog(n).items())
    with pytest.raises(ValueError, match="no catalog for degree 5"):
        catalog(5)


def _summed_fixture(n, parts):
    """A fixture as first built: the sum of its scaled basis elements."""
    out = HeckeElement.zero(n)
    for cf, word in parts:
        w = Permutation.from_word(n, word)
        out = out + HeckeElement.basis(n, w).scale(cf)
    return out


@pytest.mark.parametrize("build", [catalog_h3, catalog_h4])
def test_the_fixtures_are_the_sums_of_their_terms(monkeypatch, build):
    got = build()
    monkeypatch.setattr(sqrtcenter, "_fixture", _summed_fixture)
    want = build()
    assert list(got) == list(want)
    for name, el in want.items():
        assert list(got[name]._terms.items()) == list(el._terms.items())
    # the constructor keeps each coefficient as given: a unit is ONE itself
    assert all(c is ONE for el in got.values() for c in el._terms.values()
               if c == ONE)


def test_a_cold_registry_builds_each_catalog_once(monkeypatch):
    calls = []
    for name in ("catalog_h3", "catalog_h4"):
        build = getattr(sqrtcenter, name)

        def counted(build=build, name=name):
            calls.append(name)
            return build()
        # a module that kept its own reference to a builder is counted too
        monkeypatch.setattr(sqrtcenter, name, counted)
        monkeypatch.setattr(verify, name, counted, raising=False)
    monkeypatch.setattr(sqrtcenter, "_CATALOG_MEMO", {})
    assert run_verify(n_max=4).passed
    assert sorted(calls) == ["catalog_h3", "catalog_h4"]


def test_the_registry_reads_the_memoized_full_twist(monkeypatch):
    monkeypatch.setattr(verify, "full_twist_product",
                        lambda c: HeckeElement.one(c.n))
    [item] = run_verify(3, only=["04-longestsq-twist-n3"]).results
    assert item.status == "fail" and "braid product" in item.detail


def _first_failure(lam, g):
    """The integrality message, reading every term on its own."""
    for cf in g._terms.values():
        if not cf.has_even_exponents():
            return (f"basis element for {lam} has a coefficient {cf} "
                    f"outside Z[q, q^-1]")
    return None


def test_integrality_names_the_first_bent_term_once_per_object():
    lam = Partition((4,))
    g = gamma_basis(4)[lam]
    coeffs = list(g._terms.values())
    shared = next(c for c in coeffs if sum(d is c for d in coeffs) > 1)
    # an odd power on the object several terms share, and a second bent
    # object on a later term
    bent, other = shared * V, LaurentPoly({1: 5})
    terms = {w: bent if c is shared else c for w, c in g._terms.items()}
    terms[next(reversed(terms))] = other
    bent_g = HeckeElement._raw(4, terms)
    assert sum(c is bent for c in terms.values()) > 1
    want = _first_failure(lam, bent_g)
    assert want is not None
    with pytest.raises(MismatchError) as exc:
        _check_integral(lam, bent_g)
    assert str(exc.value) == want
    _check_integral(lam, g)
