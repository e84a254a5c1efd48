"""Square roots of central elements.

The object of interest is the set of elements whose square is central.  It
contains the centre, is closed under scaling but not under addition, and at
degree 3 admits a complete linear description.  This module provides:

* ``in_sqrt_centre``: the definitional membership test (square and check),
  with the square's minimal-basis coordinates when a basis is at hand;
* ``span_in_sqrt``: whether every linear combination of a family has a
  central square, decided by the polarization identity (all squares and
  symmetrized pairwise products central);
* ``even_word_centrality``: the parity pattern for monomials in the three
  commuting non-central square roots;
* the paper's closed forms for x, y, T_w0^2, xbar^2 and ybar^2 over the
  minimal basis and the e_i(L), stated once and checked by one comparator;
* the degree-3 coefficient constraints with a random sampler for the
  non-central solution branch;
* the degree-3 and degree-4 catalogs of known square roots (the degree-4
  ones are literal fixtures, guarded by their canonical text), built once
  per degree by ``catalog`` and shared by every reader;
* ``eigen_search``: exact eigenvectors for multiplication by a central
  element, for a caller-supplied eigenvalue in Z[v, v^-1], where every
  eigenvalue of a central element lies.  The eigenspace is a sum of
  Wedderburn blocks, read off the characters of the centre and spanned
  by products with the T_w up to the blocks' dimension.  Every vector is
  re-verified by multiplication.  At k = 0 the search decides from the
  centre alone whether a central element is a nonzerodivisor: it is one
  iff nothing is found.
"""

from __future__ import annotations

import random

from .algebra import (HeckeElement, _check_degree, _indexed, as_context,
                      commutator, is_central)
from .center import (GammaBasis, _GAMMA_MEMO, _blocks, _pinned_coordinates,
                     express_in_gamma, gamma_basis)
from .elements import (_longest_length, elem_sym, poincare, t_longest, x_elem,
                       xbar, y_elem, ybar)
from .errors import DegreeMismatchError, MismatchError
from .laurent import LaurentPoly, ONE, Q, Q_MINUS_1, ZERO, _scalar, q_power
from .linalg import reduced_basis, sparse_rank
from .permutations import (Partition, Permutation, _all_permutations,
                           partitions_of)
from .records import Record, _set


class SqrtReport(Record):
    """Result of a square-root-of-centre membership test."""

    __slots__ = ("in_sqrt", "in_centre", "square_in_gamma")

    def __init__(self, in_sqrt: bool, in_centre: bool,
                 square_in_gamma: dict[Partition, LaurentPoly] | None = None):
        _set(self, "in_sqrt", in_sqrt)
        _set(self, "in_centre", in_centre)
        _set(self, "square_in_gamma", square_in_gamma)


def in_sqrt_centre(h: HeckeElement, gb: GammaBasis | None = None) -> SqrtReport:
    """Square the element and test the square for centrality.

    When the square is central and a minimal basis for the degree is at
    hand, the square's coordinates in it are included in the report: gb
    if passed, else the basis gamma_basis has memoized for the degree, if
    any.  Without gb the coordinates therefore appear only once something
    in the process (gamma_basis, an eigen search) has built that basis;
    pass gb for a report that depends on the input alone.  The square is
    walked for centrality once: its coordinates are read on that proof.
    """
    in_centre = is_central(h)
    square = h * h
    in_sqrt = is_central(square)
    coords = None
    if in_sqrt:
        basis = gb if gb is not None else _GAMMA_MEMO.get(h.n)
        if basis is not None:
            coords = _pinned_coordinates(square, basis, proven=True)
    return SqrtReport(in_sqrt=in_sqrt, in_centre=in_centre,
                      square_in_gamma=coords)


def span_in_sqrt(generators) -> bool:
    """Whether every linear combination of the family squares into the centre.

    (sum a_i h_i)^2 expands into squares and symmetrized products, so the
    span lies in the square-root set exactly when each h_i^2 and each
    h_i h_j + h_j h_i is central.
    """
    gens = list(generators)
    for i, a in enumerate(gens):
        if not is_central(a * a):
            return False
        for b in gens[i + 1:]:
            if not is_central(a * b + b * a):
                return False
    return True


def even_word_centrality(generators, max_degree: int) -> bool:
    """Parity law for monomials in three commuting square roots.

    For generators (a, b, c), every monomial a^i b^j c^k of total degree at
    most max_degree must be central when i+j+k is even and must square into
    the centre when i+j+k is odd.  The monomials are checked for i, j, k
    ascending in that order, each built from the one before by one right
    product by a, b or c; the square m m of an odd monomial m is built as
    m a^i b^j c^k, one factor at a time.  Associativity alone makes these
    the products the law names, for any generators.
    """
    a, b, c = generators
    a_i = HeckeElement.one(a.n)
    for i in range(max_degree + 1):
        if i:
            a_i = a_i * a
        ab = a_i
        for j in range(max_degree + 1 - i):
            if j:
                ab = ab * b
            m = ab
            for k in range(max_degree + 1 - i - j):
                if k:
                    m = m * c
                if (i + j + k) % 2 == 0:
                    if not is_central(m):
                        return False
                    continue
                square = m
                for g, e in ((a, i), (b, j), (c, k)):
                    for _ in range(e):
                        square = square * g
                if not is_central(square):
                    return False
    return True


# -- the paper's closed forms over the minimal basis --------------------------

def _longest_sq(n: int, l: int) -> LaurentPoly:
    return q_power(_longest_length(n) - l) * Q_MINUS_1 ** l


# name -> (the element, built from a context; f, its coordinate at gamma_lam
# as a function of n and l = l(lam)).  As e_i(L) is the sum of the gamma_lam
# with l(lam) = i, each element is also the sum over i of f(n, i) e_i(L).
_CLOSED_FORMS = {
    "x": (x_elem, lambda n, l: ONE),
    "y": (y_elem, lambda n, l: (-Q) ** (_longest_length(n) - l)),
    "T_w0^2": (lambda c: t_longest(c) ** 2, _longest_sq),
    "xbar^2": (lambda c: xbar(c) ** 2, lambda n, l: (
        poincare(n) - q_power(_longest_length(n)) * 2 + _longest_sq(n, l))),
    "ybar^2": (lambda c: ybar(c) ** 2, lambda n, l: (
        q_power(_longest_length(n) - l) * (-1) ** l
        * (poincare(n) - LaurentPoly(2) + (ONE - Q) ** l))),
}


def _check_coords(what: str, got: dict, want: dict) -> None:
    """MismatchError at the first shape where got differs from want."""
    for lam, w in want.items():
        if got[lam] != w:
            raise MismatchError(f"{what} coefficient at {tuple(lam)}: "
                                f"expected {w}, computed {got[lam]}")


def _check_closed_form(ctx, name: str, gb: GammaBasis,
                       esym: bool = False) -> None:
    """Compare the element of a _CLOSED_FORMS entry with its coordinates
    in gb and, when esym is set, with its sum over the e_i(L)."""
    c = as_context(ctx)
    n = c.n
    build, coord = _CLOSED_FORMS[name]
    el = build(c)
    _check_coords(name, express_in_gamma(el, gb),
                  {lam: coord(n, lam.min_length()) for lam in partitions_of(n)})
    if esym and el != sum((elem_sym(c, i).scale(coord(n, i))
                           for i in range(n)), HeckeElement.zero(n)):
        raise MismatchError(f"{name} does not match its expansion over the "
                            f"elementary symmetric functions")


def verify_xbar_ybar_squares(ctx, gb: GammaBasis) -> dict[str, bool]:
    """Check the closed forms of the squares of the truncated sums.

    Both squares are computed by direct multiplication and compared with
    their expansions over the minimal basis and over the e_i(L).  Raises
    MismatchError naming the first differing coefficient.
    """
    report = {}
    for name in ("xbar", "ybar"):
        _check_closed_form(ctx, f"{name}^2", gb, esym=True)
        report[f"{name}_gamma"] = report[f"{name}_esym"] = True
    return report


# -- the degree-3 coefficient constraints ------------------------------------

# S_3 in the order of the coefficients a1, ..., a6
_H3_PERMS = tuple(Permutation.from_word(3, w)
                  for w in ([], [1], [2], [1, 2], [2, 1], [1, 2, 1]))


def _twice_a1(a2, a3, a4, a5) -> LaurentPoly:
    """2*a1 by the relation of the sqrt branch (sqrt_h3_from_coeffs)."""
    return -(Q_MINUS_1 * (a2 + a3)) + Q * (a4 + a5)


def h3_constraint_check(h: HeckeElement) -> str:
    """Classify a degree-3 element by the branch of the squared-centrality
    system its coefficients satisfy.

    Returns "central-branch" (the linear relations cutting out the centre),
    "sqrt-branch" (the complementary branch, containing every non-central
    square root), or "neither".  Both tests are exact over the ring, with
    denominators cleared.
    """
    if h.n != 3:
        raise DegreeMismatchError(f"constraint check needs degree 3, got {h.n}")
    a1, a2, a3, a4, a5, a6 = map(h.coeff, _H3_PERMS)
    if a2 == a3 and a4 == a5 and Q * a6 == a3 + Q_MINUS_1 * a5:
        return "central-branch"
    if a1 + a1 == _twice_a1(a2, a3, a4, a5):
        return "sqrt-branch"
    return "neither"


def sqrt_h3_from_coeffs(a2: LaurentPoly, a3: LaurentPoly, a4: LaurentPoly,
                        a5: LaurentPoly, a6: LaurentPoly) -> HeckeElement:
    """Build a degree-3 element on the non-central solution branch.

    The identity coefficient is determined by the branch relation
    2*a1 = -(q-1)(a2+a3) + q(a4+a5).  When the right side is not divisible
    by 2 in the ring, every coefficient is doubled instead (the branch is
    closed under scaling), so the result stays over the ring and the zero
    and recovery examples come out on the nose.
    """
    twice_a1 = _twice_a1(a2, a3, a4, a5)
    if twice_a1.content() % 2 == 0:
        coeffs = (twice_a1.divide_int(2), a2, a3, a4, a5, a6)
    else:
        coeffs = (twice_a1, a2 + a2, a3 + a3, a4 + a4, a5 + a5, a6 + a6)
    return HeckeElement._raw(3, {w: cf for w, cf in zip(_H3_PERMS, coeffs) if cf})


def sample_sqrt_h3(seed: int) -> HeckeElement:
    """A random element of the degree-3 non-central branch."""
    rng = random.Random(seed)

    def rand_scalar() -> LaurentPoly:
        terms = {}
        for _ in range(rng.randint(0, 2)):
            terms[2 * rng.randint(-2, 2)] = rng.randint(-3, 3)
        return LaurentPoly(terms)

    return sqrt_h3_from_coeffs(*(rand_scalar() for _ in range(5)))


# -- catalogs ----------------------------------------------------------------

def _fixture(n: int, parts) -> HeckeElement:
    terms = {}
    for cf, word in parts:
        w = Permutation.from_word(n, word)
        if w.length() != len(word):
            raise ValueError(f"fixture word {word} is not reduced")
        terms[w] = cf
    return HeckeElement(n, terms)


def catalog_h3() -> dict[str, HeckeElement]:
    """The five degree-3 square roots spanning the non-central branch.

    The second element is the rescaled truncation: -q^-3 times the plain
    one.  It is kept in the rescaled form because that is how the catalog
    is printed; the proportionality is checked in the verification suite.
    """
    q1 = q_power(-1)
    q2 = q_power(-2)
    return {
        "xbar": _fixture(3, [(ONE, []), (ONE, [1]), (ONE, [2]),
                             (ONE, [1, 2]), (ONE, [2, 1])]),
        "ybar": _fixture(3, [(ONE, []), (-q1, [1]), (-q1, [2]),
                             (q2, [1, 2]), (q2, [2, 1])]),
        "Twn": _fixture(3, [(ONE, [1, 2, 1])]),
        "R4": _fixture(3, [(ONE, [1]), (-ONE, [2])]),
        "R5": _fixture(3, [(ONE, [1, 2]), (-ONE, [2, 1])]),
    }


# Guard against silent edits of the transcribed degree-4 fixtures: their
# canonical text, name|one-line permutation|coefficient for each term in
# support order, joined by ';' (_h4_fixture_text).
_H4_FIXTURE_TEXT = (
    "R4|1,3,4,2|-q;R4|1,4,2,3|q;R4|2,3,1,4|q;R4|3,1,2,4|-q;"
    "R4|2,4,1,3|q - 1;R4|3,1,4,2|-q + 1;R4|2,4,3,1|-1;R4|3,2,4,1|1;"
    "R4|4,1,3,2|1;R4|4,2,1,3|-1;"
    "R5|1,2,4,3|q^2;R5|2,1,3,4|q^2;R5|1,3,4,2|q^2 - q;R5|2,1,4,3|q^2 - q;"
    "R5|3,1,2,4|q^2 - q;R5|1,4,3,2|-q;R5|2,3,4,1|-q;"
    "R5|3,1,4,2|q^2 - 2*q + 1;R5|3,2,1,4|-q;R5|4,1,2,3|-q;"
    "R5|3,2,4,1|-q + 1;R5|3,4,1,2|-q + 1;R5|4,1,3,2|-q + 1;R5|3,4,2,1|1;"
    "R5|4,3,1,2|1;"
    "R6|1,3,2,4|q^2;R6|1,4,2,3|q^2 - q;R6|2,3,1,4|q^2 - q;R6|1,4,3,2|-q;"
    "R6|2,3,4,1|-q;R6|2,4,1,3|q^2 - q + 1;R6|3,1,4,2|q;R6|3,2,1,4|-q;"
    "R6|4,1,2,3|-q;R6|2,4,3,1|-q + 1;R6|4,2,1,3|-q + 1;R6|4,2,3,1|1")


def _h4_r_fixtures() -> dict[str, HeckeElement]:
    Q2 = Q * Q
    QM = Q_MINUS_1
    r4 = _fixture(4, [
        (Q, [1, 2]), (-Q, [2, 1]), (Q, [3, 2]), (-Q, [2, 3]),
        (QM, [1, 3, 2]), (-QM, [2, 1, 3]),
        (ONE, [1, 2, 1, 3]), (-ONE, [1, 2, 3, 2]),
        (ONE, [2, 3, 2, 1]), (-ONE, [1, 3, 2, 1]),
    ])
    r5 = _fixture(4, [
        (Q2, [1]), (Q2, [3]),
        (Q * QM, [2, 1]), (Q * QM, [2, 3]), (Q * QM, [1, 3]),
        (QM * QM, [2, 1, 3]),
        (-Q, [1, 2, 1]), (-Q, [2, 3, 2]), (-Q, [1, 2, 3]), (-Q, [3, 2, 1]),
        (-QM, [1, 2, 1, 3]), (-QM, [2, 3, 2, 1]), (-QM, [2, 1, 3, 2]),
        (ONE, [1, 2, 1, 3, 2]), (ONE, [2, 1, 3, 2, 1]),
    ])
    r6 = _fixture(4, [
        (Q2, [2]),
        (Q * QM, [1, 2]), (Q * QM, [3, 2]),
        (-Q, [1, 2, 1]), (-Q, [2, 3, 2]), (-Q, [1, 2, 3]), (-Q, [3, 2, 1]),
        (Q, [2, 1, 3]),
        (Q2 - Q + ONE, [1, 3, 2]),
        (-QM, [1, 2, 3, 2]), (-QM, [1, 3, 2, 1]),
        (ONE, [1, 2, 3, 2, 1]),
    ])
    return {"R4": r4, "R5": r5, "R6": r6}


def _h4_fixture_text() -> str:
    """The canonical text of the degree-4 fixtures, rebuilt from their
    transcribed source on every call."""
    return ";".join(f"{name}|{','.join(map(str, w))}|{cf}"
                    for name, el in sorted(_h4_r_fixtures().items())
                    for w, cf in el.items())


def catalog_h4() -> dict[str, HeckeElement]:
    """The six degree-4 square roots: the three truncation-style elements
    plus three transcribed fixtures found by eigenvector search."""
    out = {"xbar": xbar(4), "ybar": ybar(4), "Twn": t_longest(4)}
    out.update(_h4_r_fixtures())
    return out


# degree -> its catalog, built once per degree for the life of the process
_CATALOG_MEMO: dict[int, dict[str, HeckeElement]] = {}


def catalog(n: int) -> dict[str, HeckeElement]:
    """The catalog of degree 3 or 4: a new dict on each call, of elements
    built once per degree, so editing the dict leaves the memo as it is.
    A degree that is not an int, a bool included, raises TermTypeError."""
    _check_degree(n)
    table = _CATALOG_MEMO.get(n)
    if table is None:
        if n == 3:
            table = catalog_h3()
        elif n == 4:
            table = catalog_h4()
        else:
            raise ValueError(f"no catalog for degree {n}")
        _CATALOG_MEMO[n] = table
    return dict(table)


def catalog_checks_h3(gb: GammaBasis) -> dict[str, bool]:
    """Every printed claim about the degree-3 catalog, checked exactly."""
    cat = catalog(3)
    out = {}
    for name, el in cat.items():
        rep = in_sqrt_centre(el, gb)
        out[f"{name}_in_sqrt_not_centre"] = rep.in_sqrt and not rep.in_centre
    out["rank_5"] = sparse_rank(el._terms for el in cat.values()) == 5
    r4, r5 = cat["R4"], cat["R5"]
    out["eigen_table"] = all(
        gb[(2, 1)] * r == r.scale(Q_MINUS_1) and gb[(3,)] * r == r.scale(-Q)
        for r in (r4, r5))
    out["r4_square"] = express_in_gamma(r4 * r4, gb) == {
        (1, 1, 1): Q + Q, (2, 1): Q_MINUS_1, (3,): -ONE}
    out["r5_square"] = express_in_gamma(r5 * r5, gb) == {
        (1, 1, 1): -(Q * Q + Q * Q), (2, 1): -(Q * Q_MINUS_1), (3,): Q}
    out["r5_sq_is_minus_q_r4_sq"] = r5 * r5 == (r4 * r4).scale(-Q)
    stacked = list(cat.values()) + [g for _, g in gb]
    inter = 5 + len(gb.elements) - sparse_rank(el._terms for el in stacked)
    out["span_meets_centre_rank_2"] = inter == 2
    return out


def catalog_checks_h4() -> dict[str, bool]:
    """Every printed claim about the degree-4 catalog, checked exactly."""
    cat = catalog(4)
    out = {}
    for name in ("R4", "R5", "R6"):
        el = cat[name]
        out[f"{name}_square_central"] = is_central(el * el)
        out[f"{name}_not_central"] = not is_central(el)
    out["rank_6"] = sparse_rank(el._terms for el in cat.values()) == 6
    commuting = [cat["xbar"], cat["ybar"], cat["Twn"]]
    rs = [cat["R4"], cat["R5"], cat["R6"]]
    out["truncations_commute"] = all(
        commutator(a, b).is_zero()
        for i, a in enumerate(commuting) for b in commuting[i + 1:] + rs)
    out["r_pairwise_noncommuting"] = all(
        not commutator(a, b).is_zero()
        for i, a in enumerate(rs) for b in rs[i + 1:])
    out["fixture_text"] = _h4_fixture_text() == _H4_FIXTURE_TEXT
    return out


# The modulus and the evaluation points of the lower bound.  Products
# independent modulo the prime at any unit v0 are independent; at an
# unlucky point (where the ideal specialises to a smaller one) they fall
# short of the block dimension, and the next point is tried.
_CERT_PRIME = (1 << 61) - 1
_CERT_POINTS = (1_000_003, 998_244_353, 3_141_592_653)


class _ModEchelon:
    """Rows modulo p = _CERT_PRIME kept in echelon form, to test each new
    one for independence of the rows before it."""

    def __init__(self):
        # column j -> the stored row from column j on, 1 at j; the row is 0
        # at every column before j, so only its tail is kept
        self.pivots: dict[int, list[int]] = {}

    def insert(self, row: list[int]) -> bool:
        """Add a row of ints; False if it depends on the rows before it."""
        p = _CERT_PRIME
        row = list(row)
        for j in range(len(row)):
            f = row[j] % p
            if not f:
                continue
            pivot = self.pivots.get(j)
            if pivot is None:
                inv = pow(f, -1, p)
                self.pivots[j] = [x * inv % p for x in row[j:]]
                return True
            # reduced modulo p only when read: each step adds less than
            # p^2, so the entries stay a few bits wider than p^2
            row[j:] = [x - f * y for x, y in zip(row[j:], pivot)]
        return False


def _at(a: LaurentPoly, v0: int, powers: dict[int, int]) -> int:
    """An int congruent to a(v0) modulo _CERT_PRIME, with the powers of v0
    cached by exponent."""
    total = 0
    for e, c in a._terms.items():
        x = powers.get(e)
        if x is None:
            x = powers[e] = pow(v0, e, _CERT_PRIME)
        total += c * x
    return total


def _residues(terms: dict, index: dict, v0: int,
              powers: dict[int, int]) -> list[int]:
    """The coordinates {permutation: LaurentPoly} at v0, as a dense row of
    ints in the order of index."""
    row = [0] * len(index)
    for w, a in terms.items():
        row[index[w]] = _at(a, v0, powers)
    return row


def _spanned_basis(n: int, central: list[HeckeElement],
                   dim: int) -> list[dict]:
    """The basis of the ideal spanned by the products g * T_w, g in
    central, in the convention of eigen_search, given that it has
    dimension dim: products independent modulo the prime at a point v0
    are independent, so dim of them span it.  A point where they fall
    short is passed over; MismatchError if every point does."""
    ix = _indexed(n)
    for v0 in _CERT_POINTS:
        powers: dict[int, int] = {}
        span, spans = _ModEchelon(), []
        for g in central:
            for w in ix.perms:
                row = (g * HeckeElement.basis(n, w))._terms
                if span.insert(_residues(row, ix.index, v0, powers)):
                    spans.append(row)
                    if len(spans) == dim:
                        return reduced_basis(spans, ix.perms)
    raise MismatchError(f"{dim} independent products not found at any of "
                        f"{len(_CERT_POINTS)} points")


def eigen_search(ctx, z: HeckeElement, k) -> list[HeckeElement]:
    """A basis of the eigenspace ker(z - k) of a central element z.

    k is a LaurentPoly or an int (not a bool); anything else raises
    TermTypeError.  No other eigenvalue can occur: the matrix of left
    multiplication by z on the free Z[v, v^-1]-module H has entries in the
    ring, so its characteristic polynomial is monic over it, and an
    eigenvalue in Q(v) is a root of that polynomial, hence integral over
    Z[v, v^-1], which is integrally closed.  Because z is central,
    ker(z - k) is a two-sided ideal, the sum of the Wedderburn blocks (over
    Q(v)) on which z acts by k (Geck and Pfeiffer, Characters of Finite
    Coxeter Groups and Iwahori-Hecke Algebras, 2000, chapters 7-9).

    Method: z acts on the block of lam (center._blocks) by the scalar
    omega_lam(z) = sum over nu of z_nu omega_lam(gamma_nu), with z_nu the
    coordinates of z in gamma_basis(n) (express_in_gamma, which also
    raises NotCentralError for a z that is not central), and the block is
    kept when that scalar equals k.  The eigenspace is the sum of the
    ideals E_lam * H of the kept blocks, and its dimension d is the sum of
    their (f^lam)^2: nothing if no block is kept, all of H if d = n!, and
    otherwise d products E_lam * T_w, found by a rank modulo a prime that
    bounds their span from below only (_spanned_basis).  Every returned
    vector is re-verified by direct multiplication.  On all of H that is
    one check, z = k: z T_w = k T_w for every w if and only if z = k T_1.

    Basis: the distinguished coordinates are the label-greatest set of
    permutations on which the eigenspace projects isomorphically.  Each
    vector is (a multiple of) 1 at one distinguished coordinate and 0 at
    the others, cleared to the ring and normalised as in
    SparseSystem.nullspace; vectors are listed in label order of that
    coordinate.
    """
    c = as_context(ctx)
    c.check_linalg()
    if z.n != c.n:
        raise DegreeMismatchError(f"element degree {z.n} does not match {c.n}")
    k = _scalar(k, "eigenvalue")
    gb = gamma_basis(c)
    zs = express_in_gamma(z, gb)
    kept = [(e, d) for _, e, d, omega in _blocks(gb)
            if sum((a * omega[nu] for nu, a in zs.items()), ZERO) == k]
    if not kept:
        return []
    perms = _all_permutations(c.n)
    dim = sum(d for _, d in kept)
    if dim == len(perms):
        if z != HeckeElement.one(c.n).scale(k):
            raise MismatchError("eigenvector failed re-verification")
        return [HeckeElement._raw(c.n, {w: ONE}) for w in perms]
    vectors = _spanned_basis(c.n, [
        sum((gb.elements[mu].scale(a) for mu, a in e.items()),
            HeckeElement.zero(c.n)) for e, _ in kept], dim)
    out = []
    for vec in vectors:
        el = HeckeElement._raw(c.n, vec)
        if z * el != el.scale(k):
            raise MismatchError("eigenvector failed re-verification")
        out.append(el)
    return out
