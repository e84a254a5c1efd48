"""The centre of the Hecke algebra and its minimal basis.

Two views of the centre are computed:

* ``centre_basis``: a spanning set over the rational-function field, read off
  the nullspace of the stacked commutators-with-generators system by exact
  linear algebra over the Laurent ring.
* ``gamma_basis``: the distinguished basis indexed by partitions.  The basis
  element for a partition is the unique central element whose coefficient is
  1 on every minimal-length permutation of that cycle type and 0 on the
  minimal-length permutations of every other cycle type.  Its coefficients
  are filled in by the class recursion of Geck and Pfeiffer (Characters of
  Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000, sections 3.2 and
  8.2), with no linear algebra; four independent invariants are still
  checked on every result.

``express_in_gamma`` gives the coordinates of a central element in the
minimal basis.  Once ``is_central`` has shown the element central, they
are its coefficients at one minimal-length element per class, since the
basis is pinned there (Geck and Pfeiffer, section 8.2).
"""

from __future__ import annotations

from math import factorial

from .algebra import (HeckeElement, as_context, is_central, _acc, _central,
                      _indexed, _rmul_gen)
from .errors import DegreeMismatchError, MismatchError, NotCentralError
from .laurent import LaurentPoly, ONE, Q_MINUS_1, ZERO
from .linalg import SparseSystem, _normalise
from .permutations import (Partition, Permutation, _all_permutations,
                           _classes, _minimal_classes, partitions_of)
from .records import Record, _set


def _commutator_rows(n: int):
    """Rows of the system 'commutes with every generator'.

    Columns are the permutations of S_n; one row per (generator, basis
    permutation) pair that actually occurs, in that order; T_s T_w =
    iota(T_(w^-1) T_s), iota(T_u) = T_(u^-1), each inverse read from one
    table of S_n.
    """
    inverse = {w: w.inverse() for w in _all_permutations(n)}
    rows: dict[tuple[int, Permutation], dict[Permutation, LaurentPoly]] = {}
    for i in range(1, n):
        for w in _all_permutations(n):
            diff = {inverse[u]: c
                    for u, c in _rmul_gen({inverse[w]: ONE}, i).items()}
            for u, c in _rmul_gen({w: ONE}, i).items():
                _acc(diff, u, -c)
            for u, c in diff.items():
                rows.setdefault((i, u), {})[w] = c
    return [rows[k] for k in sorted(rows)]


class CentreBasis(Record):
    """A basis of the centre over the rational-function field."""

    __slots__ = ("n", "vectors")

    def __init__(self, n: int, vectors: tuple[HeckeElement, ...]):
        _set(self, "n", n)
        _set(self, "vectors", vectors)


def centre_basis(ctx) -> CentreBasis:
    """Solve for everything that commutes with all the generators; the
    solve walks all of S_n, so it falls under both caps."""
    c = as_context(ctx)
    c.check_linalg()
    c.check_enum()
    system = SparseSystem(_all_permutations(c.n))
    system.add_rows(_commutator_rows(c.n))
    return CentreBasis(c.n, tuple(HeckeElement._raw(c.n, vec)
                                  for vec in system.nullspace()))


class GammaBasis(Record):
    """The minimal basis of the centre, one element per partition."""

    __slots__ = ("n", "elements")

    def __init__(self, n: int, elements: dict[Partition, HeckeElement]):
        _set(self, "n", n)
        _set(self, "elements", elements)

    def __iter__(self):
        return iter(self.elements.items())

    def __getitem__(self, shape) -> HeckeElement:
        return self.elements[Partition(tuple(shape))]


def _recursive_gamma(n: int) -> GammaBasis:
    """The minimal basis, filled in by the class recursion.

    For central z = sum a_w T_w and a simple reflection s,

        a_w = a_{sws}                                  if l(sws) = l(w),
        a_w = q^-1 a_{sws} + (1 - q^-1) a_{sw}         if l(sws) = l(w) - 2.

    S_n is walked in order of length, one cyclic-shift class (the elements
    joined by length-preserving conjugations s w s) at a time.  A class in
    which no s drops length is made of minimal-length elements of its
    conjugacy class (Geck-Pfeiffer, 3.2.9), and carries the Kronecker delta
    of the cycle type of its elements.  Any other class holds an element
    with a length-dropping s, whose right-hand side is already filled at
    lengths l - 1 and l - 2.  The conjugations are read off the tables of
    _indexed, which mark each step that drops length, so no permutation is
    formed (s w = (w^-1 s)^-1).
    """
    ix = _indexed(n)
    perms, inv, right = ix.perms, ix.inv, ix.right
    # index k -> {partition: coefficient of T_(perms[k]) in the basis element}
    coeffs: list = [None] * len(perms)
    for start in sorted(range(len(perms)), key=ix.length.__getitem__):
        if coeffs[start] is not None:
            continue
        shift_class = [start]
        seen = {start}
        drop = None
        for k in shift_class:
            for i in range(1, n):
                # s w, then s w s; a negative (complemented) index marks a
                # step that drops length
                sw = right[i][inv[k]]
                sw = ~inv[~sw] if sw < 0 else inv[sw]
                sws = right[i][~sw if sw < 0 else sw]
                if (sw < 0) != (sws < 0):
                    sws = ~sws if sws < 0 else sws
                    if sws not in seen:
                        seen.add(sws)
                        shift_class.append(sws)
                elif drop is None and sw < 0:
                    drop = (~sws, ~sw)
        if drop is None:
            value = {perms[start].cycle_type(): ONE}
        else:
            a, b = coeffs[drop[0]], coeffs[drop[1]]
            value = {}
            for lam in a.keys() | b.keys():
                # q^-1 a + (1 - q^-1) b = b + v^-2 a - v^-2 b, in one dict
                ta, tb = a.get(lam, ZERO)._terms, b.get(lam, ZERO)._terms
                terms = dict(tb)
                for e, x in ta.items():
                    terms[e - 2] = terms.get(e - 2, 0) + x
                for e, x in tb.items():
                    terms[e - 2] = terms.get(e - 2, 0) - x
                terms = {e: x for e, x in terms.items() if x}
                if terms:
                    value[lam] = LaurentPoly._raw(terms)
        for k in shift_class:
            coeffs[k] = value
    elements = {}
    for lam in partitions_of(n):
        terms = {perms[k]: c[lam] for k, c in enumerate(coeffs) if lam in c}
        elements[lam] = HeckeElement._raw(n, terms)
    return GammaBasis(n, elements)


def _check_class_sum(lam: Partition, g: HeckeElement) -> None:
    expected = {w: 1 for w in _classes(g.n)[lam]}
    if g.specialize_group_algebra() != expected:
        raise MismatchError(
            f"basis element for {lam} is not the class sum at q = 1")


def _check_pinning(lam: Partition, g: HeckeElement) -> None:
    for mu, minimals in _minimal_classes(g.n).items():
        want = ONE if mu == lam else ZERO
        for w in minimals:
            if g.coeff(w) != want:
                raise MismatchError(
                    f"basis element for {lam} has coefficient "
                    f"{g.coeff(w)} on a minimal element of {mu}")


def _check_integral(lam: Partition, g: HeckeElement) -> None:
    # each distinct coefficient object once, in term order, so the first
    # failing term is the one named
    for cf in {id(c): c for c in g._terms.values()}.values():
        if not cf.has_even_exponents():
            raise MismatchError(
                f"basis element for {lam} has a coefficient {cf} "
                f"outside Z[q, q^-1]")


def verify_gamma_invariants(gb: GammaBasis) -> None:
    """Check the four defining properties; raise MismatchError on any failure.

    1. every element is central;
    2. at q = 1 each element collapses to the plain conjugacy-class sum;
    3. the minimal-length coefficients are exactly the Kronecker delta;
    4. every coefficient lies in Z[q, q^-1] (no odd powers of v).
    """
    if set(gb.elements) != set(partitions_of(gb.n)):
        raise MismatchError(f"basis for degree {gb.n} has wrong index set")
    # one packed walk tests the whole basis; only when it fails is each
    # element tested, in order, so the first failure is the one named
    central = _central(gb.n, [g._terms for g in gb.elements.values()])
    for lam, g in gb.elements.items():
        if not (central or is_central(g)):
            raise MismatchError(f"basis element for {lam} is not central")
        _check_class_sum(lam, g)
        _check_pinning(lam, g)
        _check_integral(lam, g)


_GAMMA_MEMO: dict[int, GammaBasis] = {}

# n -> _blocks(gamma_basis(n)): the blocks of the centre and their
# characters, built once per degree
_BLOCK_MEMO: dict[int, list] = {}


def gamma_basis(ctx) -> GammaBasis:
    """The minimal basis of the centre, computed by the class recursion.

    Every result is checked against the basis invariants and memoized per
    degree for the life of the process.
    """
    c = as_context(ctx)
    c.check_enum()
    gb = _GAMMA_MEMO.get(c.n)
    if gb is None:
        gb = _recursive_gamma(c.n)
        verify_gamma_invariants(gb)
        _GAMMA_MEMO[c.n] = gb
    return gb


def express_in_gamma(z: HeckeElement,
                     gb: GammaBasis) -> dict[Partition, LaurentPoly]:
    """Coordinates of a central element in the minimal basis.

    A central z is sum over lam of z(w_lam) gamma_lam, w_lam any
    minimal-length element of the class lam (Geck and Pfeiffer 2000,
    section 8.2): gamma_lam is 1 on the minimal elements of lam and 0 on
    those of every other class, and a central element is fixed by its
    coefficients there, since the class recursion (_recursive_gamma)
    fills in every other coefficient from them.  So once is_central has
    shown z central, reading one pinned coefficient per class is the
    whole expansion; a non-central z raises NotCentralError.

    That reading needs gb to be the minimal basis.  The memoized basis
    of gamma_basis was checked when it was built; any other GammaBasis is
    checked against the four invariants first, which fix the basis, so a
    malformed one raises MismatchError.
    """
    return _pinned_coordinates(z, gb, proven=False)


def _pinned_coordinates(z: HeckeElement, gb: GammaBasis,
                        proven: bool) -> dict[Partition, LaurentPoly]:
    """express_in_gamma's reading: the degree check, the invariants of a
    basis gamma_basis did not memoize, then one pinned coefficient per
    class.  proven says the caller has already shown z central (as
    in_sqrt_centre has for a square, or as _blocks knows of a product of
    two central elements); otherwise is_central runs here, so each
    element is walked once."""
    if z.n != gb.n:
        raise DegreeMismatchError(
            f"element of degree {z.n} against a basis for degree {gb.n}")
    if gb is not _GAMMA_MEMO.get(gb.n):
        verify_gamma_invariants(gb)
    if not (proven or is_central(z)):
        raise NotCentralError("element is not central")
    minimal = _minimal_classes(gb.n)
    return {lam: z.coeff(minimal[lam][0]) for lam in partitions_of(gb.n)}


def _traces(gb: GammaBasis) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """{(nu, mu): tau(gamma_nu gamma_mu)} for the symmetrizing trace tau,
    tau(T_u T_w) = q^l(w) [u = w^-1] (Geck and Pfeiffer, section 8.1).  A
    central element has the same coefficient at w and w^-1, so this is the
    sum over w of the two coefficients at w times q^l(w), once per pair."""
    weighted = [(nu, {w: a.shift(2 * w.length()) for w, a in g._terms.items()})
                for nu, g in gb]
    out = {}
    for i, (nu, a) in enumerate(weighted):
        for mu, _ in weighted[i:]:
            b = gb.elements[mu]._terms
            out[nu, mu] = out[mu, nu] = sum(
                (x * b[w] for w, x in a.items() if w in b), ZERO)
    return out


def _content_scalar(lam: Partition) -> LaurentPoly:
    """The sum over the boxes b of lam of q [c(b)]_q, c(b) = column - row:
    the scalar by which the sum of the Murphy elements acts on the block
    of lam (Mathas, Iwahori-Hecke Algebras and Schur Algebras of the
    Symmetric Group, 1999, chapter 3)."""
    num = {2: -lam.n}    # q [c]_q = (q^(c+1) - q) / (q - 1)
    for row, length in enumerate(lam):
        for c in range(-row, length - row):
            num[2 * c + 2] = num.get(2 * c + 2, 0) + 1
    return LaurentPoly(num).divexact(Q_MINUS_1)


def _block_dimension(lam: Partition) -> int:
    """(f^lam)^2, with f^lam = n! / (product of the hook lengths of lam)."""
    hooks = 1
    for i, length in enumerate(lam):
        for j in range(length):
            hooks *= length - j + sum(p > j for p in lam[i + 1:])
    return (factorial(lam.n) // hooks) ** 2


def _blocks(gb: GammaBasis) -> list[tuple[Partition, dict, int, dict]]:
    """[(lam, E_lam, (f^lam)^2, omega_lam)] for the partitions lam of n.

    E_lam = prod over mu != lam of (e_1 - c_mu), applied to 1 in
    minimal-basis coordinates and normalised, where e_1 = gamma_(2,1^(n-2))
    is the sum of the Murphy elements and c_mu = _content_scalar(mu).  The
    c_mu are distinct, so E_lam is a nonzero multiple of the central
    idempotent of the block of lam, of dimension (f^lam)^2 (Mathas,
    chapter 3).  A central z acts on that block by a scalar omega_lam(z),
    so tau(z E_lam) = omega_lam(z) tau(E_lam) (_traces) gives omega_lam =
    {nu: omega_lam(gamma_nu)}; tau(E_lam), the coordinate of E_lam at
    gamma_(1^n) = 1, is a multiple of tau(e_lam) = f^lam / (the Schur
    element of lam).  Checked: that coordinate is nonzero, e_1 E_lam =
    c_lam E_lam, the divisions are exact, omega_lam(e_1) = c_lam and the
    dimensions add up to n!.  The row of e_1 is read on the product's
    proof: e_1 gamma_mu is a product of two central elements, so it is
    central without a walk.

    The E_lam are built by a product tree: the partitions split in halves,
    the factors of each half are applied once for all the lam of the
    other, and each half recurses.  That is about p log2 p passes of
    e_1 - c for p partitions, against p (p - 1) one E_lam at a time; the
    factors commute, so each E_lam is the same.
    """
    if gb.n in _BLOCK_MEMO:
        return _BLOCK_MEMO[gb.n]
    parts = partitions_of(gb.n)
    one = parts[-1]    # gamma_(1^n) is the identity
    # the row of e_1 in the multiplication table of the centre; degree 1
    # has no gamma_(2,...), and its e_1 is 0
    e1 = Partition((2,) + (1,) * (gb.n - 2)) if gb.n > 1 else None
    row = ({mu: _pinned_coordinates(gb.elements[e1] * h, gb, proven=True)
            for mu, h in gb} if e1 else {one: {}})
    contents = {lam: _content_scalar(lam) for lam in parts}
    traces = _traces(gb)

    def minus(vec, c):   # (e_1 - c) vec, in the order of parts
        out = {}
        for mu, b in vec.items():
            for nu, a in row[mu].items():
                out[nu] = out.get(nu, ZERO) + a * b
        return {mu: a for mu in parts
                if (a := out.get(mu, ZERO) - c * vec.get(mu, ZERO))}

    def tree(vec, lams):   # (lam, the factors of the others applied to vec)
        if len(lams) == 1:
            yield lams[0], vec
            return
        half = len(lams) // 2
        for these, others in ((lams[:half], lams[half:]),
                              (lams[half:], lams[:half])):
            out = vec
            for mu in others:
                out = minus(out, contents[mu])
            yield from tree(out, these)

    blocks = []
    for lam, vec in tree({one: ONE}, parts):
        if one not in vec or minus(vec := _normalise(vec), contents[lam]):
            raise MismatchError(f"no block element of {lam} for "
                                f"{contents[lam]}")
        chars = {nu: sum((a * traces[nu, mu] for mu, a in vec.items()), ZERO)
                 .divexact(vec[one]) for nu in parts}
        if e1 and chars[e1] != contents[lam]:
            raise MismatchError(f"e_1 acts on {lam} by {chars[e1]} in trace")
        blocks.append((lam, vec, _block_dimension(lam), chars))
    if sum(d for _, _, d, _ in blocks) != factorial(gb.n):
        raise MismatchError(f"the block dimensions do not add up to {gb.n}!")
    _BLOCK_MEMO[gb.n] = blocks
    return blocks
