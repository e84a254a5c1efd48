"""Tests for the centre: minimal basis, coordinates, membership."""

import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import hecke.verify
from hecke import (
    AlgebraContext,
    Caps,
    GammaBasis,
    HeckeElement,
    LaurentPoly,
    MismatchError,
    NotCentralError,
    Partition,
    Permutation,
    ResourceCapError,
    all_permutations,
    centre_basis,
    elem_sym,
    express_in_gamma,
    gamma_basis,
    is_central,
    minimal_class_elements,
    parse_element,
    parse_scalar,
    partitions_of,
    run_verify,
    t_longest,
    verify_gamma_invariants,
    x_elem,
    y_elem,
)
from hecke.algebra import _acc, _flip
from hecke.center import _blocks, _commutator_rows, _content_scalar
from hecke.laurent import ONE, Q, Q_MINUS_1, ZERO
from hecke.linalg import SparseSystem, _normalise, reduced_basis, sparse_rank

from content_oracle import contents, elementary, partitions, q_content
from expansion_oracle import express_by_laurent, outcome
from fraction_oracle import insert_every_row
from generator_oracle import lmul_gen


def _coords(z, gb):
    return {tuple(p): c for p, c in express_in_gamma(z, gb).items()}


def test_degree_three_basis_fixtures(gb3):
    assert gb3[(1, 1, 1)] == parse_element("T[]", 3)
    assert gb3[(2, 1)] == parse_element("T[1] + T[2] + q^-1*T[1,2,1]", 3)
    assert gb3[(3,)] == parse_element(
        "T[1,2] + T[2,1] + (1 - q^-1)*T[1,2,1]", 3
    )


def test_basis_is_indexed_by_partitions(gb3, gb4):
    assert {tuple(p) for p, _ in gb3} == {tuple(p) for p in partitions_of(3)}
    assert len(list(gb4)) == 5
    assert len(gb4.elements) == 5


def test_every_basis_element_is_central(gb3, gb4):
    for gb in (gb3, gb4):
        for _, z in gb:
            assert is_central(z)


def test_minimal_length_pinning(gb3, gb4):
    # coefficient 1 on the short elements of the matching class, 0 on the
    # short elements of every other class, nothing below the minimal length
    for gb in (gb3, gb4):
        n = gb.n
        for lam, z in gb:
            for mu in partitions_of(n):
                want = 1 if mu == lam else 0
                for w in minimal_class_elements(n, mu):
                    assert z.coeff(w) == parse_scalar(str(want))
            for w in z.support():
                assert w.length() >= lam.min_length()


def test_coordinates_of_x(ctx3, gb3, ctx4, gb4):
    one = parse_scalar("1")
    for ctx, gb in ((ctx3, gb3), (ctx4, gb4)):
        coords = express_in_gamma(x_elem(ctx), gb)
        assert set(coords.values()) == {one}
        assert len(coords) == len(list(gb))


def test_coordinates_of_y(ctx3, gb3):
    # y has coordinate (-q)^(ell - l) on the class with l short transpositions
    assert _coords(y_elem(ctx3), gb3) == {
        (1, 1, 1): parse_scalar("-q^3"),
        (2, 1): parse_scalar("q^2"),
        (3,): parse_scalar("-q"),
    }


def test_coordinates_of_longest_word_square(ctx3, gb3):
    tw = t_longest(ctx3)
    assert _coords(tw * tw, gb3) == {
        (1, 1, 1): parse_scalar("q^3"),
        (2, 1): parse_scalar("q^2*(q - 1)"),
        (3,): parse_scalar("q*(q - 1)^2"),
    }


def test_symmetric_sums_decompose_by_minimal_length(ctx3, gb3, ctx4, gb4):
    zero = parse_scalar("0")
    one = parse_scalar("1")
    for ctx, gb in ((ctx3, gb3), (ctx4, gb4)):
        for i in range(0, ctx.n):
            coords = express_in_gamma(elem_sym(ctx, i), gb)
            for lam, c in coords.items():
                assert c == (one if lam.min_length() == i else zero)


def test_express_rejects_noncentral_input(gb3):
    with pytest.raises(NotCentralError):
        express_in_gamma(parse_element("T[1]", 3), gb3)


def test_express_tests_centrality_once(gb3, monkeypatch):
    import hecke.center

    calls = []

    def counted(h):
        calls.append(h)
        return is_central(h)

    monkeypatch.setattr(hecke.center, "is_central", counted)
    z = gb3[(2, 1)].scale(parse_scalar("q")) + gb3[(3,)]
    assert express_in_gamma(z, gb3) == {
        Partition((3,)): LaurentPoly(1), Partition((2, 1)): parse_scalar("q"),
        Partition((1, 1, 1)): LaurentPoly(0)}
    assert calls == [z]
    # T[1]: its coefficients differ across the minimal elements s_1, s_2
    # of (2, 1).  T[1] + T[2] + T[1,2,1]: they agree, and only the
    # coefficient at T_w0 is off the centre
    for z, differ in ((parse_element("T[1]", 3), True),
                      (parse_element("T[1] + T[2] + T[1,2,1]", 3), False)):
        minimal = minimal_class_elements(3, Partition((2, 1)))
        assert (z.coeff(minimal[0]) != z.coeff(minimal[1])) == differ
        calls.clear()
        with pytest.raises(NotCentralError) as info:
            express_in_gamma(z, gb3)
        assert str(info.value) == "element is not central"
        assert calls == [z]


def test_express_checks_a_basis_it_did_not_build(gb4):
    # each basis element in turn bent by a term off the minimal classes
    # fails the invariants, so no coordinates are read against it
    w0 = Permutation.longest(4)
    for z in (x_elem(4), gb4[(3, 1)], gb4[(3, 1)].scale(parse_scalar("q-1"))):
        for lam, g in gb4:
            bent = dict(gb4.elements)
            bent[lam] = g + HeckeElement.basis(4, w0).scale(parse_scalar("q"))
            with pytest.raises(MismatchError, match=re.escape(
                    f"basis element for {lam} is not central")):
                express_in_gamma(z, GammaBasis(4, bent))


@st.composite
def _combination(draw, n):
    """sum c_lam gamma_lam over gamma_basis(n), each c_lam 0 or a Laurent
    polynomial in v whose exponents are even, odd or mixed."""
    def scalar():
        parity = draw(st.sampled_from([0, 1, None]))
        exps = [e for e in range(-8, 9) if parity is None or e & 1 == parity]
        return LaurentPoly(draw(st.dictionaries(
            st.sampled_from(exps), st.integers(-50, 50), max_size=3)))
    z = HeckeElement.zero(n)
    for _, g in gamma_basis(n):
        z = z + g.scale(scalar())
    return z


_OFF_MINIMAL = {n: [w for w in all_permutations(n) if w not in
                    {u for lam in partitions_of(n)
                     for u in minimal_class_elements(n, lam)}]
                for n in (3, 4, 5)}


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_express_agrees_with_the_laurent_expansion(n, data):
    gb = gamma_basis(n)
    # a copy is checked against the invariants, then read as the memo is
    copy = GammaBasis(n, dict(gb.elements))
    z = data.draw(_combination(n))
    got = outcome(express_in_gamma, z, gb)
    assert got[0] == "ok"
    assert got == outcome(express_by_laurent, z, gb)
    assert got == outcome(express_in_gamma, z, copy)
    assert [lam for lam, _ in got[1]] == list(partitions_of(n))
    # a term off the minimal classes leaves the coordinates readable but
    # the element not central
    w = data.draw(st.sampled_from(_OFF_MINIMAL[n]))
    c = LaurentPoly(data.draw(st.dictionaries(
        st.integers(-8, 8), st.integers(-50, 50).filter(bool),
        min_size=1, max_size=2)))
    bent = z + HeckeElement(n, {w: c})
    got = outcome(express_in_gamma, bent, gb)
    assert got == (NotCentralError, "element is not central")
    assert got == outcome(express_by_laurent, bent, gb)
    assert got == outcome(express_in_gamma, bent, copy)


def test_express_is_linear(gb3):
    q = parse_scalar("q")
    z = gb3[(2, 1)].scale(q) + gb3[(3,)]
    coords = _coords(z, gb3)
    assert coords == {
        (1, 1, 1): parse_scalar("0"),
        (2, 1): q,
        (3,): parse_scalar("1"),
    }


def test_gamma_invariants_hold(gb3, gb4):
    verify_gamma_invariants(gb3)
    verify_gamma_invariants(gb4)


def _broken(gb, invariant):
    """gb with one element broken in one basis invariant alone.

    T_(w_0) lies in no minimal class, so changing its coefficient leaves the
    pinning alone: + 1 changes the class sum at q = 1, and + (v - 1) puts an
    odd power of v in and vanishes at v = 1.  Multiplying by q moves every
    minimal coefficient off 1 and changes nothing at q = 1.
    """
    elements = dict(gb.elements)
    lam, g = next(iter(elements.items()))
    if invariant == "pinning":
        elements[lam] = g.scale(parse_scalar("q"))
    else:
        bump = {"classsums": "1", "integrality": "v - 1"}[invariant]
        elements[lam] = g + t_longest(gb.n).scale(parse_scalar(bump))
    return GammaBasis(gb.n, elements)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_gamma_invariants_name_the_element_that_is_not_central(n, where):
    # the whole basis is tested in one walk; when that fails, the element
    # named is the one that is not central, wherever it sits
    elements = dict(gamma_basis(n).elements)
    lams = list(elements)
    lam = lams[{"first": 0, "middle": len(lams) // 2, "last": -1}[where]]
    elements[lam] = elements[lam] + parse_element("q*T[1]", n)
    with pytest.raises(MismatchError) as raised:
        verify_gamma_invariants(GammaBasis(n, elements))
    assert str(raised.value) == f"basis element for {lam} is not central"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_minimal_basis_items_check_a_rebuilt_basis(monkeypatch, n):
    # the memoized basis is built and good; a broken rebuild fails exactly
    # the item of the broken invariant
    gb = gamma_basis(n)
    items = {"classsums": f"11-gamma-classsums-n{n}",
             "integrality": f"13-gamma-integrality-n{n}",
             "pinning": f"13-gamma-pinning-n{n}"}
    assert run_verify(n, only=list(items.values())).passed
    for invariant in items:
        monkeypatch.setattr(hecke.verify, "_recursive_gamma",
                            lambda m, inv=invariant: _broken(gamma_basis(m), inv))
        report = run_verify(n, only=list(items.values()))
        failed = {r.item_id for r in report.results if r.status == "fail"}
        assert failed == {items[invariant]}
    assert gamma_basis(n) is gb
    verify_gamma_invariants(gb)


def test_coefficients_avoid_odd_powers(gb3, gb4):
    # every coordinate lives in Z[q, q^-1]: only even exponents of v
    for gb in (gb3, gb4):
        for _, z in gb:
            for _, c in z.items():
                assert c.has_even_exponents()


def test_centre_basis_falls_under_the_enumeration_cap():
    # the solve walks all of S_n, so it refuses where gamma_basis and
    # all_permutations on the same context do
    ctx = AlgebraContext(5, Caps(enum_max=3, linalg_max=5))
    for walk in (centre_basis, gamma_basis, all_permutations):
        with pytest.raises(ResourceCapError, match="enumeration cap 3"):
            walk(ctx)


def test_centre_membership(ctx3, gb3):
    cb = centre_basis(ctx3)
    assert is_central(x_elem(ctx3))
    assert is_central(y_elem(ctx3))
    for _, z in gb3:
        assert is_central(z)
    assert not is_central(parse_element("T[1]", 3))
    assert not is_central(t_longest(ctx3))
    assert len(cb.vectors) == 3


def test_minimal_basis_spans_the_commutator_nullspace():
    # two independent algorithms: the class recursion and the kernel of
    # "commutes with every generator"
    for n in range(1, 6):
        kernel = [v._terms for v in centre_basis(n).vectors]
        gamma = [g._terms for g in gamma_basis(n).elements.values()]
        rank = sparse_rank(kernel)
        assert rank == len(kernel) == len(gamma) == sparse_rank(gamma)
        assert sparse_rank(kernel + gamma) == rank


def test_commutator_nullspace_is_the_reduced_minimal_basis():
    # the reduced echelon form of the minimal basis is the nullspace the
    # commutator solve returns, vector for vector and key for key, so the
    # solve can be replaced by reading the minimal basis
    for n in range(2, 6):
        kernel = [v._terms for v in centre_basis(n).vectors]
        gamma = [g._terms for _, g in gamma_basis(n)]
        reduced = reduced_basis(gamma, all_permutations(n))
        assert kernel == reduced
        assert [list(v) for v in kernel] == [list(v) for v in reduced]


def test_commutator_solve_matches_inserting_every_row(monkeypatch):
    # add_rows drops the rows that earlier equalities already imply; the
    # pivots, their rows and the nullspace are those of inserting them all,
    # and the rows that reach the elimination are pinned
    inserted = []
    insert = SparseSystem._insert
    monkeypatch.setattr(SparseSystem, "_insert",
                        lambda system, row: inserted.append(1) or insert(
                            system, row))
    counts = []
    for n in range(2, 6):
        inserted.clear()
        kernel = [v._terms for v in centre_basis(n).vectors]
        counts.append(len(inserted))
        rows = _commutator_rows(n)
        want = insert_every_row(all_permutations(n), rows)
        assert kernel == want.nullspace()
        assert [list(v) for v in kernel] == [list(v) for v in want.nullspace()]
        got = SparseSystem(all_permutations(n))
        got.add_rows(rows)
        assert [(c, list(row.items())) for c, row in got.pivots] == \
               [(c, list(row.items())) for c, row in want.pivots]
    assert counts == [0, 3, 20, 127]


def _rmul_by_products(terms, i):
    """T_w T_{s_i} with every descent coefficient an explicit product."""
    out = {}
    for w, c in terms.items():
        ws = w.right_simple(i)
        if w[i - 1] < w[i]:
            _acc(out, ws, c)
        else:
            _acc(out, ws, c * Q)
            _acc(out, w, c * Q_MINUS_1)
    return out


def test_commutator_rows_match_rows_built_with_products():
    # T_s T_w - T_w T_s, the left side stepped directly (generator_oracle)
    # and every coefficient a product: the same rows, key order included
    for n in range(2, 6):
        rows = {}
        for i in range(1, n):
            for w in all_permutations(n):
                left = lmul_gen({w: ONE}, i)
                assert left == _flip(_rmul_by_products({w.inverse(): ONE}, i))
                for u, c in _rmul_by_products({w: ONE}, i).items():
                    _acc(left, u, -c)
                for u, c in left.items():
                    rows.setdefault((i, u), {})[w] = c
        want = [rows[k] for k in sorted(rows)]
        got = _commutator_rows(n)
        assert got == want
        assert [list(row) for row in got] == [list(row) for row in want]


def _in_span(z, cb):
    """Membership by elimination over the stored vectors."""
    base = [v._terms for v in cb.vectors]
    return sparse_rank(base + [z._terms]) == sparse_rank(base)


def _random_scalar(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 2))})


def test_membership_matches_the_commutator_oracle(ctx3, gb3):
    cb = centre_basis(ctx3)
    fixed = [x_elem(ctx3), y_elem(ctx3), parse_element("T[1]", 3),
             t_longest(ctx3), HeckeElement.zero(3)] + [z for _, z in gb3]
    for z in fixed:
        assert is_central(z) == _in_span(z, cb)
    rng = random.Random(31)
    for n in (3, 4):
        cb = centre_basis(n)
        perms = all_permutations(n)
        verdicts = []
        for _ in range(12):
            central = sum((g.scale(_random_scalar(rng))
                           for g in gamma_basis(n).elements.values()),
                          HeckeElement.zero(n))
            noise = HeckeElement.zero(n)
            for _ in range(rng.randint(1, 3)):
                noise = noise + HeckeElement.basis(
                    n, rng.choice(perms)).scale(_random_scalar(rng))
            for z in (central, noise, central + noise):
                verdicts.append(is_central(z))
                assert verdicts[-1] == _in_span(z, cb)
        assert True in verdicts and False in verdicts


def test_recursion_matches_the_pinned_solve():
    from hecke.center import _recursive_gamma
    from fraction_oracle import solve_gamma

    for n in range(3, 6):
        assert _recursive_gamma(n).elements == solve_gamma(n).elements


def test_identity_is_the_all_fixed_class(gb4):
    assert gb4[(1, 1, 1, 1)] == HeckeElement.one(4)
    assert gb4[Partition((1, 1, 1, 1))] == HeckeElement.one(4)


def _blocks_by_chain(gb):
    """[(lam, E_lam)] with each E_lam built on its own: the factors e_1 - c_mu
    for every mu != lam applied to 1 one after another, in the order of the
    partitions, then normalised."""
    parts = partitions_of(gb.n)
    one = parts[-1]
    e1 = Partition((2,) + (1,) * (gb.n - 2)) if gb.n > 1 else None
    row = ({mu: express_in_gamma(gb.elements[e1] * h, gb) for mu, h in gb}
           if e1 else {one: {}})

    def minus(vec, c):
        out = {}
        for mu, b in vec.items():
            for nu, a in row[mu].items():
                out[nu] = out.get(nu, ZERO) + a * b
        return {mu: a for mu in parts
                if (a := out.get(mu, ZERO) - c * vec.get(mu, ZERO))}

    chain = []
    for i, lam in enumerate(parts):
        vec = {one: ONE}
        for mu in parts[:i] + parts[i + 1:]:
            vec = minus(vec, _content_scalar(mu))
        chain.append((lam, _normalise(vec)))
    return chain


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_elements_from_the_product_tree_match_the_chain(n):
    # the same E_lam, key order included, and in the order of the partitions
    gb = gamma_basis(n)
    got = [(lam, e) for lam, e, _, _ in _blocks(gb)]
    want = _blocks_by_chain(gb)
    assert got == want
    assert [list(e) for _, e in got] == [list(e) for _, e in want]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_multiplication_table_of_the_centre(n):
    # the table from fresh products: each block character is a ring
    # homomorphism of it
    gb = gamma_basis(n)
    parts = partitions_of(n)
    table = {lam: {mu: express_in_gamma(g * h, gb) for mu, h in gb}
             for lam, g in gb}
    omegas = [omega for *_, omega in _blocks(gb)]
    for lam in parts:
        for mu in parts:
            assert tuple(table[lam][mu]) == parts
            # the centre is commutative
            assert table[lam][mu] == table[mu][lam], (lam, mu)
            for omega in omegas:
                assert sum((a * omega[nu] for nu, a in table[lam][mu].items()),
                           LaurentPoly(0)) == omega[lam] * omega[mu], (lam, mu)
    one = Partition((1,) * n)
    assert table[one] == {mu: {nu: LaurentPoly(int(nu == mu)) for nu in parts}
                          for mu in parts}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_each_minimal_basis_element_acts_on_a_block_by_its_character(n):
    # the fact the characters are read off: gamma_nu * E_lam =
    # omega_lam(gamma_nu) E_lam, here from fresh products
    gb = gamma_basis(n)
    for lam, e, _, omega in _blocks(gb):
        assert list(omega) == list(partitions_of(n))
        block = sum((gb.elements[mu].scale(a) for mu, a in e.items()),
                    HeckeElement.zero(n))
        for nu, g in gb:
            got = {mu: a for mu, a in express_in_gamma(g * block, gb).items()
                   if a}
            assert got == {mu: omega[nu] * a for mu, a in e.items()
                           if omega[nu]}, (lam, nu)


@pytest.mark.parametrize("n", range(1, 7))
def test_minimal_basis_coefficients_agree_at_w_and_its_inverse(n):
    # the trace form of the block characters sums (gamma_nu)_w
    # (gamma_mu)_w q^l(w), which needs this symmetry
    for lam, g in gamma_basis(n):
        for w, a in g._terms.items():
            assert g.coeff(w.inverse()) == a, (lam, w)


@pytest.mark.parametrize("n", range(1, 7))
def test_block_characters_match_the_contents(n):
    gb = gamma_basis(n)
    esym = [express_in_gamma(elem_sym(n, j), gb) for j in range(n)]
    w0 = t_longest(n)
    w0_sq = express_in_gamma(w0 * w0, gb)
    blocks = _blocks(gb)
    assert [tuple(lam) for lam, *_ in blocks] == list(partitions(n))
    for lam, _, _, omega in blocks:
        cs = contents(lam)
        values = [q_content(c) for c in cs]

        def acts_by(coords):
            return sum((a * omega[nu] for nu, a in coords.items()),
                       LaurentPoly(0))

        for j, coords in enumerate(esym):
            assert acts_by(coords) == elementary(j, values), (lam, j)
        assert acts_by(w0_sq) == LaurentPoly(
            {2 * (n * (n - 1) // 2 + sum(cs)): 1}), lam


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_sum_of_the_murphy_elements_is_a_minimal_basis_element(n):
    # the block table applies gamma_(2,1^(n-2)) as e_1
    gb = gamma_basis(n)
    e1 = Partition((2,) + (1,) * (n - 2))
    assert express_in_gamma(elem_sym(n, 1), gb) == {
        lam: LaurentPoly(int(lam == e1)) for lam in partitions_of(n)}
