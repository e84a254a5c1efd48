"""Tests for square roots of the centre: membership, catalogs, branches."""

import random
import re
from fractions import Fraction

import pytest

from hecke import (
    HeckeElement,
    LaurentPoly,
    MismatchError,
    NotCentralError,
    all_permutations,
    as_context,
    catalog,
    catalog_h3,
    commutator,
    eigen_search,
    even_word_centrality,
    express_in_gamma,
    gamma_basis,
    h3_constraint_check,
    in_sqrt_centre,
    is_central,
    parse_element,
    parse_scalar,
    partitions_of,
    run_verify,
    sample_sqrt_h3,
    span_in_sqrt,
    sqrt_h3_from_coeffs,
    t_longest,
    verify_xbar_ybar_squares,
    x_elem,
    xbar,
    y_elem,
    ybar,
)
from hecke import center, sqrtcenter, verify
from hecke.algebra import _acc
from hecke.laurent import ONE, Q, Q_MINUS_1, q_power
from hecke.center import _GAMMA_MEMO, GammaBasis
from hecke.linalg import SparseSystem, reduced_basis, sparse_rank
from hecke.permutations import _all_permutations
from hecke.sqrtcenter import (_CERT_POINTS, _CERT_PRIME, _CLOSED_FORMS,
                              _ModEchelon, _at, _residues, catalog_checks_h3,
                              catalog_checks_h4)

from fraction_oracle import RationalFn, _as_rf, _corank, left_mult_matrix

SAMPLER_SEEDS = 25


def _coords(report):
    return {tuple(p): c for p, c in report.square_in_gamma.items()}


def test_membership_report_for_strict_roots(ctx3, gb3):
    for name, el in catalog_h3().items():
        rep = in_sqrt_centre(el, gb3)
        assert rep.in_sqrt, name
        assert not rep.in_centre, name
        assert rep.square_in_gamma is not None


def test_membership_report_for_central_input(ctx3, gb3):
    rep = in_sqrt_centre(x_elem(ctx3), gb3)
    assert rep.in_sqrt and rep.in_centre


def test_membership_report_negative(gb3):
    # (T_1 + T_s)^2 = (q+1)(T_1 + T_s) is visibly not central
    rep = in_sqrt_centre(parse_element("T[] + T[1]", 3), gb3)
    assert not rep.in_sqrt
    assert not rep.in_centre
    assert rep.square_in_gamma is None


def test_r4_square_expansion(gb3):
    rep = in_sqrt_centre(catalog_h3()["R4"], gb3)
    assert _coords(rep) == {
        (1, 1, 1): parse_scalar("2*q"),
        (2, 1): parse_scalar("q - 1"),
        (3,): parse_scalar("-1"),
    }


def test_r5_square_is_minus_q_times_r4_square():
    cat = catalog_h3()
    r4, r5 = cat["R4"], cat["R5"]
    assert r5 * r5 == (r4 * r4).scale(parse_scalar("-q"))


def test_degree_three_catalog_fixtures(ctx3):
    cat = catalog_h3()
    assert set(cat) == {"xbar", "ybar", "Twn", "R4", "R5"}
    assert cat["xbar"] == xbar(ctx3)
    assert cat["Twn"] == t_longest(ctx3)
    assert cat["R4"] == parse_element("T[1] - T[2]", 3)
    assert cat["R5"] == parse_element("T[1,2] - T[2,1]", 3)
    # the catalog ybar is the unit-rescaled form of y - T_w
    assert cat["ybar"] == ybar(ctx3).scale(parse_scalar("-q^-3"))


def test_eigenvalue_table(gb3):
    q_minus_one = parse_scalar("q - 1")
    minus_q = parse_scalar("-q")
    for r in (catalog_h3()["R4"], catalog_h3()["R5"]):
        assert gb3[(2, 1)] * r == r.scale(q_minus_one)
        assert gb3[(3,)] * r == r.scale(minus_q)
        assert gb3[(1, 1, 1)] * r == r


def test_eigen_search_recovers_the_table(ctx3, gb3):
    vectors = eigen_search(ctx3, gb3[(2, 1)], parse_scalar("q - 1"))
    assert len(vectors) == 4
    cat = catalog_h3()
    q_minus_one = parse_scalar("q - 1")
    for v in vectors:
        assert gb3[(2, 1)] * v == v.scale(q_minus_one)
    # R4 and R5 solve the same eigenvalue problem
    for r in (cat["R4"], cat["R5"]):
        assert gb3[(2, 1)] * r == r.scale(q_minus_one)


def _eigen_by_elimination(n, z, k):
    """The reference search: the nullspace of den * M - num * I over the
    whole of S_n, by exact elimination over Laurent polynomials, for k a
    LaurentPoly or a RationalFn num/den."""
    kr = _as_rf(k)
    m = left_mult_matrix(z)
    perms = _all_permutations(n)
    rows = []
    for u in perms:
        row = {w: kr.den * a for w, a in m.get(u, {}).items()}
        _acc(row, u, -kr.num)
        rows.append(row)
    system = SparseSystem(perms)
    system.add_rows(rows)
    return [HeckeElement._raw(n, vec) for vec in system.nullspace()]


def _eigenvalue(z, d):
    """The scalar by which z acts on d, or None if d is no eigenvector."""
    w = d.support()[0]
    zd = z * d
    k = zd.coeff(w).divexact(d.coeff(w))
    return k if zd == d.scale(k) else None


def _eigen_cases(n, shapes=None):
    """(shape, k) pairs: the trivial and sign eigenvalues of each gamma, at
    n = 3 and 4 the eigenvalues of the catalog roots R4, R5 (and R6), and a
    non-eigenvalue."""
    gb = gamma_basis(n)
    x, y = x_elem(n), y_elem(n)
    roots = [el for name, el in catalog(n).items()
             if name.startswith("R")] if n in (3, 4) else []
    cases = []
    for lam, g in gb:
        if shapes is not None and tuple(lam) not in shapes:
            continue
        triv, sign = _eigenvalue(g, x), _eigenvalue(g, y)
        ks = [triv, sign]
        for r in roots:
            ks.append(_eigenvalue(g, r))
        # |k(1)| > n! >= every class size, so k is no eigenvalue
        ks.append(LaurentPoly({0: 31, 2: 1}))
        for k in ks:
            assert k is not None
            if (tuple(lam), k) not in cases:
                cases.append((tuple(lam), k))
    return gb, cases


def _check_against_elimination(n, shapes=None):
    gb, cases = _eigen_cases(n, shapes)
    for shape, k in cases:
        z = gb[shape]
        got = eigen_search(n, z, k)
        want = _eigen_by_elimination(n, z, k)
        assert len(got) == len(want), (shape, k)
        rows = [v._terms for v in got]
        assert sparse_rank(rows) == len(got)
        assert sparse_rank(rows + [v._terms for v in want]) == len(got)
        if len(got) == 1 or n <= 3:
            assert [str(v) for v in got] == [str(v) for v in want], (shape, k)
        # the basis convention: each vector's last support element is its
        # own distinguished coordinate, and the others vanish there
        tops = [max(v.support()) for v in got]
        assert tops == sorted(set(tops))
        for v in got:
            assert [t for t in tops if v.coeff(t)] == [max(v.support())]


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_search_matches_elimination_exhaustively(n):
    _check_against_elimination(n)


def test_eigen_search_matches_elimination_at_degree_four():
    _check_against_elimination(4, shapes={(2, 2), (2, 1, 1)})


def _unlucky_point():
    """v0 with v0^2 = omega, a cube root of unity modulo the prime."""
    p = _CERT_PRIME
    omega = next(w for w in (pow(g, (p - 1) // 3, p) for g in range(2, 50))
                 if w != 1)
    return omega * omega % p


def _products_fall_short(n, g, dim, v0):
    """Whether the products g * T_w have rank below dim modulo the prime at
    v0, counted as _spanned_basis counts them."""
    perms = _all_permutations(n)
    index = {w: j for j, w in enumerate(perms)}
    span, powers = _ModEchelon(), {}
    return sum(span.insert(_residues((g * HeckeElement.basis(n, w))._terms,
                                     index, v0, powers))
               for w in perms) < dim


def test_a_point_where_the_products_fall_short_is_passed_over(monkeypatch,
                                                             ctx3, gb3):
    # at q = omega, a cube root of unity modulo the prime, H_3 is not
    # semisimple: the block element of (2,1) specialises to one whose
    # products span fewer than the block's 4 dimensions
    unlucky = _unlucky_point()
    z, k = gb3[(2, 1)], parse_scalar("q - 1")
    (e, dim), = [(e, d) for lam, e, d, _ in center._blocks(gb3)
                 if lam == (2, 1)]
    g = sum((gb3.elements[mu].scale(a) for mu, a in e.items()),
            HeckeElement.zero(3))
    assert dim == 4
    assert _products_fall_short(3, g, dim, unlucky)
    assert not _products_fall_short(3, g, dim, _CERT_POINTS[0])
    want = eigen_search(ctx3, z, k)
    monkeypatch.setattr(sqrtcenter, "_CERT_POINTS", (unlucky, 1_000_003))
    assert eigen_search(ctx3, z, k) == want
    assert [str(v) for v in want] == [
        str(v) for v in _eigen_by_elimination(3, z, k)]


def test_only_points_where_the_products_fall_short_raise(monkeypatch, ctx3,
                                                         gb3):
    monkeypatch.setattr(sqrtcenter, "_CERT_POINTS", (_unlucky_point(),))
    with pytest.raises(MismatchError, match="independent products"):
        eigen_search(ctx3, gb3[(2, 1)], parse_scalar("q - 1"))


def test_a_block_dimension_one_too_high_raises(monkeypatch, ctx3, gb3):
    k = parse_scalar("q - 1")
    assert len(eigen_search(ctx3, gb3[(2, 1)], k)) == 4
    forced = [(lam, e, d + (lam == (2, 1)), omega) for lam, e, d, omega
              in center._blocks(gb3)]
    monkeypatch.setitem(center._BLOCK_MEMO, 3, forced)
    with pytest.raises(MismatchError, match="5 independent products"):
        eigen_search(ctx3, gb3[(2, 1)], k)


def test_the_whole_space_is_checked_by_one_comparison(monkeypatch, ctx3,
                                                      gb3, gb4):
    # z T_w = k T_w for every w if and only if z = k T_1, so a scalar z
    # keeps every block and returns the standard basis with no product
    products = []
    real = HeckeElement.__mul__
    monkeypatch.setattr(HeckeElement, "__mul__",
                        lambda a, b: products.append(1) or real(a, b))
    for gb, k in ((gb3, parse_scalar("q - 1")), (gb4, LaurentPoly(1))):
        z = gb[(1,) * gb.n].scale(k)
        got = eigen_search(gb.n, z, k)
        assert got == [HeckeElement.basis(gb.n, w)
                       for w in all_permutations(gb.n)]
    assert products == []
    # a z that is not the scalar but keeps every block fails the check
    k = parse_scalar("q - 1")
    omega = next(om for lam, _, _, om in center._blocks(gb3) if lam == (2, 1))
    forced = [(lam, e, d, omega) for lam, e, d, _ in center._blocks(gb3)]
    monkeypatch.setitem(center._BLOCK_MEMO, 3, forced)
    with pytest.raises(MismatchError, match="re-verification"):
        eigen_search(ctx3, gb3[(2, 1)], k)


def test_a_non_eigenvalue_met_modulo_the_prime_finds_nothing(monkeypatch,
                                                             ctx3, gb3):
    # the eigenvalues of gamma_(2,1) are q^2 + 2q, -2 - q^-1 and q - 1;
    # k = (q - 1) + 2 (q^2 + q + 1) is none of them, but meets q - 1 where
    # q is a cube root of unity
    z, k = gb3[(2, 1)], parse_scalar("2*q^2 + 3*q + 1")
    unlucky = _unlucky_point()
    assert (_at(k, unlucky, {}) - _at(parse_scalar("q - 1"), unlucky, {})) \
        % _CERT_PRIME == 0
    monkeypatch.setattr(sqrtcenter, "_CERT_POINTS", (unlucky,))
    assert eigen_search(ctx3, z, k) == []
    assert _eigen_by_elimination(3, z, k) == []


def test_eigen_search_at_degrees_one_and_two():
    q = parse_scalar("q")
    one = gamma_basis(1)[(1,)]
    assert [str(v) for v in eigen_search(1, one, 1)] == ["T[]"]
    assert [str(v) for v in eigen_search(1, one.scale(q), q)] == ["T[]"]
    for k in (0, -1, q):
        assert eigen_search(1, one, k) == []
    gb = gamma_basis(2)
    found = {(shape, str(k)): [str(v) for v in eigen_search(2, gb[shape], k)]
             for shape in ((2,), (1, 1)) for k in (0, 1, -1, q)}
    assert found == {
        ((2,), "0"): [], ((2,), "1"): [],
        ((2,), "-1"): ["q*T[] - T[1]"], ((2,), "q"): ["T[] + T[1]"],
        ((1, 1), "0"): [], ((1, 1), "1"): ["T[]", "T[1]"],
        ((1, 1), "-1"): [], ((1, 1), "q"): []}
    z = gb[(2,)] + gb[(1, 1)]
    assert [str(v) for v in eigen_search(2, z, q + 1)] == ["T[] + T[1]"]


@pytest.mark.parametrize("n", [3, 4])
def test_block_dimensions_match_the_corank_of_the_full_matrix(n):
    # the differential gate of the block table: a dimension too low would
    # give a partial basis that still re-verifies
    gb, cases = _eigen_cases(n)
    v0 = _CERT_POINTS[0]
    elements = [(sum((gb.elements[mu].scale(a) for mu, a in e.items()),
                     HeckeElement.zero(n)), d)
                for _, e, d, _ in center._blocks(gb)]
    for shape, k in cases:
        z = gb[shape]
        dim = sum(d for e, d in elements if z * e == e.scale(k))
        powers = {}
        assert dim == _corank(n, z, _at(k, v0, powers), v0, powers), \
            (shape, k)


def _centre_rows(n, z, k):
    """M_z - k * I in minimal-basis coordinates, its columns the products
    z * gamma_mu expanded afresh, without the table."""
    gb = gamma_basis(n)
    parts = partitions_of(n)
    rows = {lam: {} for lam in parts}
    for mu in parts:
        coords = express_in_gamma(z * gb.elements[mu], gb)
        for lam in parts:
            entry = coords[lam] - (k if lam == mu else LaurentPoly(0))
            if entry:
                rows[lam][mu] = entry
    return parts, rows


@pytest.mark.parametrize("n", [3, 4])
def test_full_rank_modulo_the_prime_means_no_eigenvector(n):
    gb, cases = _eigen_cases(n)
    v0 = _CERT_POINTS[0]
    verdicts = []
    for shape, k in cases:
        parts, rows = _centre_rows(n, gb[shape], k)
        powers = {}
        ech = _ModEchelon()
        full = all([ech.insert([_at(rows[lam].get(mu, LaurentPoly(0)), v0,
                                    powers) for lam in parts])
                    for mu in parts])
        system = SparseSystem(parts)
        system.add_rows(row for row in rows.values() if row)
        kernel = system.nullspace()
        if full:
            assert kernel == [], (shape, k)
            assert eigen_search(n, gb[shape], k) == [], (shape, k)
        verdicts.append((full, bool(kernel)))
    # both branches occur, and here the modular rank is never unlucky
    assert (True, False) in verdicts and (False, True) in verdicts
    assert all(full != nonzero for full, nonzero in verdicts)


def test_eigen_search_of_a_two_term_central_element():
    gb = gamma_basis(4)
    z = gb[(2, 2)] + gb[(4,)].scale(parse_scalar("q"))
    triv = _eigenvalue(z, x_elem(4))
    assert triv is not None
    for k in (triv, LaurentPoly(41), LaurentPoly(0)):
        got = eigen_search(4, z, k)
        want = _eigen_by_elimination(4, z, k)
        assert [str(v) for v in got] == [str(v) for v in want], k
    assert len(eigen_search(4, z, triv)) == 1


def test_the_blocks_are_read_not_rebuilt(monkeypatch):
    z, k = gamma_basis(4)[(2, 1, 1)], parse_scalar("q - 1")
    expansions = []
    pinned = center._pinned_coordinates

    def counted(el, gb, proven):
        expansions.append((el, proven))
        return pinned(el, gb, proven)

    monkeypatch.setattr(center, "_pinned_coordinates", counted)
    monkeypatch.delitem(center._BLOCK_MEMO, 4, raising=False)
    # a cold search expands z, proven central by its walk, and the row of
    # e_1 in the multiplication table of the centre, p(n) products read
    # on their own proof, and nothing else
    cold = eigen_search(4, z, k)
    gb = gamma_basis(4)
    assert expansions == [(z, False)] + [(gb[(2, 1, 1)] * g, True)
                                         for _, g in gb]
    # a warm one expands z alone
    warm = eigen_search(4, z, k)
    assert expansions[len(partitions_of(4)) + 1:] == [(z, False)]
    assert warm == cold and len(cold) == 4
    # the output does not depend on what the process computed before
    monkeypatch.delitem(center._BLOCK_MEMO, 4)
    assert eigen_search(4, z, k) == warm


def _corank_from_matrix(n, z, k, v0):
    """The certificate's corank as it was computed: rows of the exact
    matrix left_mult_matrix(z), read modulo the prime."""
    powers = {}
    perms = _all_permutations(n)
    index = {w: j for j, w in enumerate(perms)}
    m = left_mult_matrix(z)
    k0 = _at(k, v0, powers)
    matrix = _ModEchelon()
    corank = len(perms)
    for j, u in enumerate(perms):
        row = _residues(m.get(u, {}), index, v0, powers)
        row[j] -= k0
        corank -= matrix.insert(row)
    return corank


@pytest.mark.parametrize("n", [3, 4])
def test_modular_columns_give_the_corank_of_the_exact_matrix(n):
    gb, cases = _eigen_cases(n)
    p = _CERT_PRIME
    omega = next(w for w in (pow(g, (p - 1) // 3, p) for g in range(2, 50))
                 if w != 1)
    for shape, k in cases:
        z = gb[shape]
        dim = len(eigen_search(n, z, k))
        for v0 in _CERT_POINTS + (omega * omega % p,):
            powers = {}
            got = _corank(n, z, _at(k, v0, powers), v0, powers)
            assert got == _corank_from_matrix(n, z, k, v0), (shape, k, v0)
            assert got >= dim
            if v0 in _CERT_POINTS:
                assert got == dim, (shape, k, v0)


def test_eigen_search_takes_the_eigenvalue_in_the_ring(ctx3, gb3):
    z = gb3[(2, 1)]
    qm1 = parse_scalar("q - 1")
    assert len(eigen_search(ctx3, z, qm1)) == 4
    ones = eigen_search(ctx3, gb3[(1, 1, 1)], 1)
    assert ones == eigen_search(ctx3, gb3[(1, 1, 1)], LaurentPoly(1))
    assert len(ones) == 6
    for k in ((qm1, 1), "q - 1", RationalFn(qm1), True):
        with pytest.raises(TypeError):
            eigen_search(ctx3, z, k)


def _at_rational(a, v0):
    return sum(c * Fraction(v0) ** e for e, c in a.items())


def _full_rank_at(m, k, v0):
    """Whether den * M - num * I, with m the rows of M already at v = v0
    and k = num/den, has full rank there, by exact elimination over Q; if
    it does, it has full rank over Q(v)."""
    d, e = _at_rational(k.den, v0), _at_rational(k.num, v0)
    rows = [[d * x - (e if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(m)]
    for col in range(len(rows)):
        pivot = next((r for r in rows[col:] if r[col]), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        rows[col:col] = [pivot]
        for i in range(col + 1, len(rows)):
            f = rows[i][col] / pivot[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return True


@pytest.mark.parametrize("n", [3, 4])
def test_no_eigenvalue_lies_outside_the_ring(n):
    # an eigenvalue of z is a root of its monic characteristic polynomial
    # over Z[v, v^-1], which is integrally closed, so no e/d with d not
    # dividing e is one.  The fraction-field oracle confirms it on every
    # case at n = 3; at n = 4 it takes about 0.5 s a case, so it runs only
    # where full rank at v = 2 does not already prove the same
    gb, cases = _eigen_cases(n)
    perms = _all_permutations(n)
    at_two = {}
    for lam, g in gb:
        m = left_mult_matrix(g)
        at_two[tuple(lam)] = [
            [_at_rational(m.get(u, {}).get(w, LaurentPoly(0)), 2)
             for w in perms] for u in perms]
    fractions = 0
    for shape, e in cases:
        for d in (parse_scalar("q + 1"), LaurentPoly(2), parse_scalar("q + 2")):
            k = RationalFn(e, d)
            if k.den.is_one():
                continue
            fractions += 1
            if n == 3 or not _full_rank_at(at_two[shape], k, 2):
                assert _eigen_by_elimination(n, gb[shape], k) == [], \
                    (shape, e, d)
    assert fractions >= 3 * len(gb.elements)


@pytest.mark.parametrize("n, shape, k", [
    (3, (2, 1), "q - 1"),       # 4 of 6 dimensions
    (4, (2, 1, 1), "q - 1"),    # 4 of 24
    (4, (2, 2), "-q"),          # 18 of 24
])
def test_reduced_basis_of_all_products_gives_the_same_basis(n, shape, k):
    z, k = gamma_basis(n)[shape], parse_scalar(k)
    perms = _all_permutations(n)
    m = left_mult_matrix(z)
    cuts = SparseSystem(perms)
    for u in perms:
        row = {w: a for w, a in m.get(u, {}).items()}
        _acc(row, u, -k)
        cuts.add_rows([row])
    # the products of the eigenvectors with every T_w fill the kernel
    got = eigen_search(n, z, k)
    spans = SparseSystem(perms)
    for v in got:
        spans.add_rows([(v * HeckeElement.basis(n, w))._terms
                        for w in perms])
    assert spans.rank + cuts.rank == len(perms)
    got = [v._terms for v in got]
    want = [v._terms for v in _eigen_by_elimination(n, z, k)]
    assert sparse_rank(got + want) == len(got) == len(want)
    assert reduced_basis([row for _, row in spans.pivots], perms) == got


def test_modular_echelon_matches_a_plain_rank():
    p = _CERT_PRIME
    rng = random.Random(5)

    def plain_rank(rows):
        rows = [list(r) for r in rows]
        rank = 0
        for col in range(len(rows[0])):
            at = next((i for i in range(rank, len(rows)) if rows[i][col]),
                      None)
            if at is None:
                continue
            rows[rank], rows[at] = rows[at], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = rows[i][col] * inv
                    rows[i] = [(a - f * b) % p
                               for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    for size in (1, 2, 5, 24):
        for deficiency in (0, 1, 3, size):
            base = [[rng.randrange(p) if rng.random() < 0.6 else 0
                     for _ in range(size)]
                    for _ in range(size - min(deficiency, size))]
            while len(base) < size:
                cs = [rng.randrange(p) for _ in base[:3]]
                base.append([sum(c * r[j] for c, r in zip(cs, base)) % p
                             for j in range(size)])
            rng.shuffle(base)
            ech = _ModEchelon()
            independent = [ech.insert(r) for r in base]
            assert sum(independent) == plain_rank(base)
            # each row kept is independent of the rows before it
            for i in range(size):
                assert independent[i] == (plain_rank(base[:i + 1])
                                          > plain_rank(base[:i] or [[0] * size]))


def test_square_coordinates_come_from_the_basis_at_hand(monkeypatch, gb3):
    r4 = catalog_h3()["R4"]
    monkeypatch.delitem(_GAMMA_MEMO, 3, raising=False)
    assert in_sqrt_centre(r4).square_in_gamma is None
    assert 3 not in _GAMMA_MEMO
    assert in_sqrt_centre(r4, gb3).square_in_gamma == express_in_gamma(
        r4 * r4, gb3)


def test_a_square_is_walked_for_centrality_once(monkeypatch):
    # h, then its square, whose coordinates are read on that one proof
    from hecke import algebra
    h, gb = xbar(5), gamma_basis(5)
    want = express_in_gamma(h * h, gb)
    walks = []
    central = algebra._central
    monkeypatch.setattr(algebra, "_central", lambda n, elements: (
        walks.append(len(elements)) or central(n, elements)))
    rep = in_sqrt_centre(h, gb)
    assert walks == [1, 1]
    assert rep.in_sqrt and not rep.in_centre
    assert rep.square_in_gamma == want


def _count_walks(monkeypatch) -> list:
    """The number of elements of each centrality walk from now on."""
    from hecke import algebra
    walks = []
    central = algebra._central
    monkeypatch.setattr(algebra, "_central", lambda n, elements: (
        walks.append(len(elements)) or central(n, elements)))
    return walks


def test_a_non_root_is_walked_for_centrality_once(monkeypatch, gb3):
    # the square first: a central h has a central square, so h itself is
    # walked only for a root
    h = parse_element("T[] + T[1]", 3)
    walks = _count_walks(monkeypatch)
    rep = in_sqrt_centre(h, gb3)
    assert walks == [1]
    assert (rep.in_sqrt, rep.in_centre, rep.square_in_gamma) == (
        False, False, None)


def test_cold_blocks_walk_nothing(monkeypatch):
    # each e_1 gamma_mu is a product of two central elements, so the row of
    # e_1 is read with no centrality walk
    gb = gamma_basis(4)
    warm = center._blocks(gb)
    monkeypatch.delitem(center._BLOCK_MEMO, 4)
    walks = _count_walks(monkeypatch)
    cold = center._blocks(gb)
    assert walks == []
    assert cold == warm and cold is not warm
    assert [lam for lam, *_ in cold] == list(partitions_of(4))


def test_membership_reports_read_the_coordinates_of_the_square(gb3, gb4):
    # the report as is_central and express_in_gamma give it, for roots,
    # central elements and elements that are neither, at degrees 3 to 5
    elements = [*catalog_h3().values(), x_elem(3), parse_element("T[] + T[1]", 3),
                *catalog(4).values(), ybar(4), parse_element("T[1] - T[2]", 4),
                xbar(5), ybar(5), t_longest(5)]
    for h in elements:
        gb = {3: gb3, 4: gb4, 5: gamma_basis(5)}[h.n]
        square = h * h
        rep = in_sqrt_centre(h, gb)
        assert rep.in_centre == is_central(h)
        assert rep.in_sqrt == is_central(square)
        assert rep.square_in_gamma == (express_in_gamma(square, gb)
                                       if rep.in_sqrt else None)


def test_a_bent_basis_passed_in_raises_before_any_coordinate(gb4):
    # the square of ybar is central; a basis with one element bent by a
    # term off the minimal classes fails the invariants
    w0 = all_permutations(4)[-1]
    for lam, g in gb4:
        bent = dict(gb4.elements)
        bent[lam] = g + HeckeElement(4, {w0: parse_scalar("q")})
        with pytest.raises(MismatchError, match=re.escape(
                f"basis element for {lam} is not central")):
            in_sqrt_centre(ybar(4), GammaBasis(4, bent))


def test_eigen_searches_share_one_memoized_basis(monkeypatch, gb4):
    monkeypatch.delitem(_GAMMA_MEMO, 4, raising=False)
    calls = []
    build = center._recursive_gamma
    monkeypatch.setattr(center, "_recursive_gamma",
                        lambda n: calls.append(n) or build(n))
    for k in (parse_scalar("-q"), parse_scalar("q + 7")):
        eigen_search(4, gb4[(2, 2)], k)
    assert calls == [4]
    assert 4 in _GAMMA_MEMO


@pytest.mark.parametrize("n", [3, 4])
def test_nonzerodivisors_from_the_centre_match_the_full_rank(n):
    ctx = as_context(n)
    size = len(_all_permutations(n))
    found = {}
    for name, make in (("xbar", xbar), ("ybar", ybar), ("Tw0", t_longest),
                       ("x", x_elem), ("y", y_elem)):
        z = make(ctx)
        kernel = eigen_search(ctx, z * z, 0)
        rank = sparse_rank(left_mult_matrix(z).values())
        assert (not kernel) == (rank == size), name
        # ker z^2 = ker z for each of these, of dimension n! - rank
        assert len(kernel) == size - rank, name
        found[name] = not kernel
    assert found == {"xbar": True, "ybar": True, "Tw0": True,
                     "x": False, "y": False}


def test_nonzerodivisor_check_fails_on_a_zero_divisor(monkeypatch):
    env = verify._Env(0, verify.DEFAULT_CAPS)
    verify._chk_nonzerodivisor(env, 3)
    monkeypatch.setattr(verify, "xbar", x_elem)
    with pytest.raises(MismatchError, match="q-symmetrizer"):
        verify._chk_nonzerodivisor(env, 3)


def test_eigen_search_rejects_noncentral_operator(ctx3):
    with pytest.raises(NotCentralError):
        eigen_search(ctx3, parse_element("T[1]", 3), parse_scalar("q"))


def test_degree_three_catalog_checks(gb3):
    checks = catalog_checks_h3(gb3)
    failed = [k for k, ok in checks.items() if not ok]
    assert failed == []


def test_degree_four_catalog_checks():
    checks = catalog_checks_h4()
    failed = [k for k, ok in checks.items() if not ok]
    assert failed == []


def test_catalog_dispatch(ctx3):
    assert set(catalog(3)) == set(catalog_h3())
    assert set(catalog(4)) == {"xbar", "ybar", "Twn", "R4", "R5", "R6"}
    with pytest.raises(ValueError):
        catalog(5)


def test_span_of_catalog_is_in_sqrt():
    assert span_in_sqrt(list(catalog_h3().values()))
    assert not span_in_sqrt([parse_element("T[] + T[1]", 3)])
    # both squares central, the symmetrized product not
    pair = [xbar(4), catalog(4)["R4"]]
    assert span_in_sqrt(pair[:1]) and span_in_sqrt(pair[1:])
    assert not span_in_sqrt(pair)


def test_sum_and_difference_structure(ctx3):
    # xbar - ybar is central while xbar + ybar is a strict square root
    assert is_central(xbar(ctx3) - ybar(ctx3))
    assert not is_central(xbar(ctx3) + ybar(ctx3))
    rep = in_sqrt_centre(xbar(ctx3) + ybar(ctx3))
    assert rep.in_sqrt


def test_mixed_combinations_leave_sqrt(ctx3, gb3):
    mixed = xbar(ctx3) + ybar(ctx3) * t_longest(ctx3)
    assert not in_sqrt_centre(mixed, gb3).in_sqrt
    for el in catalog_h3().values():
        shifted = el + el * el
        assert not in_sqrt_centre(shifted, gb3).in_sqrt


def test_r4_r5_anticommute():
    cat = catalog_h3()
    r4, r5 = cat["R4"], cat["R5"]
    assert not commutator(r4, r5).is_zero()
    assert (r4 * r5 + r5 * r4).is_zero()


def test_parity_law_for_monomials(ctx3):
    gens = (xbar(ctx3), ybar(ctx3), t_longest(ctx3))
    assert even_word_centrality(gens, 4)
    # the degree-4 fixtures square into the centre but do not commute, so
    # the law first fails on an even word of two of them
    r456 = tuple(catalog(4)[name] for name in ("R4", "R5", "R6"))
    assert even_word_centrality(r456, 1)
    assert not even_word_centrality(r456, 2)


def _even_words_by_powers(generators, max_degree):
    """The parity law as first stated: each monomial a^i b^j c^k as a
    product of powers, and each odd one's square as m * m."""
    pows = []
    for g in generators:
        pows.append([HeckeElement.one(g.n)])
        for _ in range(max_degree):
            pows[-1].append(pows[-1][-1] * g)
    pow_a, pow_b, pow_c = pows
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            ab = pow_a[i] * pow_b[j]
            for k in range(max_degree + 1 - i - j):
                m = ab * pow_c[k]
                if (i + j + k) % 2 == 0:
                    if not sqrtcenter.is_central(m):
                        return False
                elif not sqrtcenter.is_central(m * m):
                    return False
    return True


@pytest.mark.parametrize("n", [3, 4])
def test_parity_law_checks_the_elements_of_its_statement(monkeypatch, n):
    # the law built by one right product at a time against the law built
    # from powers: the same elements checked in the same order, so the same
    # result and the same first failing monomial, on families that pass
    # and that fail
    x, y, t = xbar(n), ybar(n), t_longest(n)
    s1 = HeckeElement.generator(n, 1)
    families = [(x, y, t), (t, y, x), (x, y, s1), (s1, x, y), (x, y, x + y * t),
                (x, t, y * t + s1)]
    for gens in families:
        runs = []
        for law in (_even_words_by_powers, even_word_centrality):
            checked = []

            def record(h):
                checked.append(h)
                return is_central(h)

            monkeypatch.setattr(sqrtcenter, "is_central", record)
            runs.append((law(gens, 4), checked))
        (want, want_checked), (got, got_checked) = runs
        assert got == want
        assert got_checked == want_checked
    assert [even_word_centrality(f, 4) for f in families] == [
        True, True, False, False, False, False]


def test_closed_forms_for_xbar_ybar_squares(ctx3, gb3):
    out = verify_xbar_ybar_squares(ctx3, gb3)
    assert out == {
        "xbar_gamma": True,
        "xbar_esym": True,
        "ybar_gamma": True,
        "ybar_esym": True,
    }


def test_the_closed_forms_hold_at_degree_six():
    # the registry checks these up to degree 5 only; the coordinates are
    # written out here, apart from the table they check
    gb = gamma_basis(6)
    assert all(verify_xbar_ybar_squares(6, gb).values())
    tw = t_longest(6)
    forms = {"T_w0^2": (tw * tw, lambda l: q_power(15 - l) * Q_MINUS_1 ** l),
             "x": (x_elem(6), lambda l: ONE),
             "y": (y_elem(6), lambda l: (-Q) ** (15 - l))}
    for name, (el, coord) in forms.items():
        coords = express_in_gamma(el, gb)
        for lam in partitions_of(6):
            assert coords[lam] == coord(lam.min_length()), (name, lam)


@pytest.mark.parametrize("name, item, want", [
    ("x", "05-xy-gamma-n3", "2, computed 1"),
    ("y", "05-xy-gamma-n3", "-q^3 + 1, computed -q^3"),
    ("T_w0^2", "04-longestsq-qform-n3", "q^3 + 1, computed q^3"),
    ("xbar^2", "07-truncation-squares-n3",
     "2*q^2 + 2*q + 2, computed 2*q^2 + 2*q + 1"),
    ("ybar^2", "07-truncation-squares-n3",
     "q^6 + 2*q^5 + 2*q^4 + 1, computed q^6 + 2*q^5 + 2*q^4"),
])
def test_the_registry_reads_the_closed_form_table(monkeypatch, name, item,
                                                  want):
    build, coord = _CLOSED_FORMS[name]
    off = (build, lambda n, l: coord(n, l) + (ONE if l == 0 else 0))
    monkeypatch.setitem(_CLOSED_FORMS, name, off)
    report = run_verify(5, only=[item])
    assert [r.status for r in report.results] == ["fail"]
    assert report.results[0].detail == (
        f"MismatchError: {name} coefficient at (1, 1, 1): expected {want}")


def test_the_three_closed_form_rows_run_one_check_in_order(monkeypatch):
    calls = []
    check = verify._check_closed_form
    monkeypatch.setattr(verify, "_check_closed_form", lambda c, name, gb, esym: (
        calls.append((c.n, name, esym)) or check(c, name, gb, esym)))
    stems = ("04-longestsq-qform", "05-xy-gamma", "07-truncation-squares")
    report = run_verify(5, only=[f"{s}-n{n}" for s in stems for n in (3, 4, 5)])
    assert report.passed and len(report.results) == 9
    assert calls == [(n, name, esym)
                     for names, esym in ((("T_w0^2",), False),
                                         (("x", "y"), False),
                                         (("xbar^2", "ybar^2"), True))
                     for n in (3, 4, 5) for name in names]


def test_branch_classification(gb3, ctx3):
    assert h3_constraint_check(catalog_h3()["R4"]) == "sqrt-branch"
    assert h3_constraint_check(catalog_h3()["R5"]) == "sqrt-branch"
    assert h3_constraint_check(gb3[(2, 1)]) == "central-branch"
    assert h3_constraint_check(x_elem(ctx3)) == "central-branch"
    assert h3_constraint_check(parse_element("T[] + T[1]", 3)) == "neither"


def test_sqrt_constructor_recovers_r4():
    one = LaurentPoly(1)
    zero = LaurentPoly(0)
    built = sqrt_h3_from_coeffs(one, -one, zero, zero, zero)
    assert built == catalog_h3()["R4"]


def test_sqrt_constructor_output_is_always_in_branch():
    q = parse_scalar("q")
    cases = [
        (q, LaurentPoly(0), LaurentPoly(0), LaurentPoly(0), LaurentPoly(0)),
        (q, q - LaurentPoly(1), LaurentPoly(2), LaurentPoly(0), LaurentPoly(1)),
        (LaurentPoly(0), LaurentPoly(0), LaurentPoly(1), LaurentPoly(0), LaurentPoly(0)),
    ]
    for coeffs in cases:
        built = sqrt_h3_from_coeffs(*coeffs)
        assert h3_constraint_check(built) == "sqrt-branch"
        assert in_sqrt_centre(built).in_sqrt


def test_sampler_is_deterministic_and_lands_in_sqrt(gb3):
    for seed in range(SAMPLER_SEEDS):
        h = sample_sqrt_h3(seed)
        assert h == sample_sqrt_h3(seed)
        assert h3_constraint_check(h) in ("sqrt-branch", "central-branch")
        assert in_sqrt_centre(h, gb3).in_sqrt
    assert sample_sqrt_h3(0) != sample_sqrt_h3(1)


def test_strict_roots_commute_pairwise(ctx3):
    els = [xbar(ctx3), ybar(ctx3), t_longest(ctx3)]
    for a in els:
        for b in els:
            assert commutator(a, b).is_zero()
