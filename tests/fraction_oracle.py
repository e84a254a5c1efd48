"""The fraction-field reference for the ring-only linear algebra.

hecke's linear algebra never leaves Z[v, v^-1]: elimination and back
substitution are fraction-free, and it stays on the p(n)-dimensional
centre.  This module keeps the slower routes as oracles for tests:

* RationalFn, a reduced fraction of two Laurent polynomials;
* ``nullspace``, the kernel of an echelonised SparseSystem by back
  substitution over RationalFn, with denominators cleared afterwards;
* ``eliminate_fraction_free``, the clearing step that cross-multiplies
  against every pivot, the unit pivots included;
* ``insert_every_row``, the elimination with no presolve: every row, in
  the order SparseSystem.add_rows sorts them, goes through ``_insert``;
* ``solve_unique`` and ``solve_gamma``: the minimal basis of the centre
  solved from its pinned linear system, a reference for the class
  recursion;
* ``left_mult_matrix``: the exact n! x n! matrix of multiplication by an
  element, whose rank decides a nonzerodivisor without the centre;
* ``_corank``: the corank of that matrix minus an eigenvalue, modulo a
  prime at a point, an upper bound on the eigenspace that does not use
  the blocks of the centre.
"""

from fractions import Fraction
from functools import partial

from hecke import HeckeElement, HeckeError
from hecke.algebra import _indexed, _prefix_products, _rmul_gen
from hecke.center import GammaBasis, _commutator_rows
from hecke.laurent import ONE, ZERO, LaurentPoly, lp_gcd
from hecke.linalg import SparseSystem, _eliminate, _normalise, _strip_row
from hecke.permutations import (_all_permutations, _minimal_classes,
                                partitions_of)
from hecke.sqrtcenter import _CERT_PRIME, _ModEchelon, _at


class InconsistentSystemError(HeckeError, RuntimeError):
    """An exact linear system has no solution where one was expected."""


def lp_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.is_zero() or b.is_zero():
        return ZERO
    return (a * b).divexact(lp_gcd(a, b))


class RationalFn:
    """A reduced fraction of Laurent polynomials.

    Canonical form: num and den share no factor (content and primitive
    part both reduced), den has minimal v-exponent zero and positive
    leading coefficient.  Equality is therefore structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if isinstance(num, int):
            num = LaurentPoly(num)
        if isinstance(den, int):
            den = LaurentPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        s = -den.min_exp()
        num = num.shift(s)
        den = den.shift(s)
        g = lp_gcd(num, den)
        if not g.is_one():
            num = num.divexact(g)
            den = den.divexact(g)
        s = -den.min_exp()
        if s:
            num = num.shift(s)
            den = den.shift(s)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFn":
        r = object.__new__(cls)
        r.num, r.den = p, ONE
        return r

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (LaurentPoly, int)):
            other = RationalFn(other if isinstance(other, LaurentPoly)
                               else LaurentPoly(other))
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        r = object.__new__(RationalFn)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other) -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __rsub__(self, other) -> "RationalFn":
        return (-self) + other

    def __mul__(self, other) -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFn":
        return _as_rf(other) / self

    def inverse(self) -> "RationalFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFn(self.den, self.num)

    def evaluate(self, v0) -> Fraction:
        d = self.den.evaluate(v0)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at v = {v0}")
        return self.num.evaluate(v0) / d

    def as_laurent(self) -> LaurentPoly:
        """The underlying Laurent polynomial, if the denominator is a unit."""
        if self.den.is_one():
            return self.num
        if self.den.is_unit():
            (e, c), = self.den.items()
            return self.num * LaurentPoly({-e: c})
        raise ArithmeticError(f"not a Laurent polynomial: denominator {self.den}")

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFn({self.num!r}, {self.den!r})"


def _as_rf(x) -> "RationalFn":
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFn.from_poly(x)
    if isinstance(x, int):
        return RationalFn.from_poly(LaurentPoly(x))
    return NotImplemented


def eliminate_fraction_free(row: dict, col, prow: dict) -> None:
    """hecke.linalg._eliminate with no unit shortcut: the row becomes
    p * row - f * prow (p the pivot entry, f the cleared one), then its
    content is stripped."""
    p = prow[col]
    f = row.pop(col)
    for c, pc in prow.items():
        if c == col:
            continue
        cur = row.get(c)
        val = (p * cur - f * pc) if cur is not None else -f * pc
        if val:
            row[c] = val
        else:
            row.pop(c, None)
    for c in [c for c in row if c not in prow]:
        row[c] = p * row[c]
    _strip_row(row)


RF_ZERO = RationalFn.from_poly(ZERO)
RF_ONE = RationalFn.from_poly(ONE)


def insert_every_row(columns, rows) -> SparseSystem:
    """The system of rows echelonised with no row dropped."""
    system = SparseSystem(columns)
    for row in sorted(rows, key=lambda row: (len(row), sorted(row))):
        system._insert(dict(row))
    return system


def _back_substitute(pivots, values: dict, rhs_at) -> dict:
    """Solve the pivot columns in reverse over RationalFn.

    pivots is a list of (column, row) in registration order; rhs_at(row)
    gives the right-hand side of a row, and columns not in values (free,
    or the right-hand-side entries) count as 0.
    """
    for col, row in reversed(pivots):
        total = rhs_at(row)
        for c, a in row.items():
            if c == col:
                continue
            xc = values.get(c, RF_ZERO)
            if xc:
                total = total - RationalFn.from_poly(a) * xc
        values[col] = total / RationalFn.from_poly(row[col])
    return values


def nullspace(system) -> list[dict]:
    """SparseSystem.nullspace over the fraction field: one kernel vector
    per free column, solved over RationalFn, cleared to the ring by the
    lcm of its denominators, then normalised as in hecke.linalg."""
    vectors = []
    for f in system.free_columns():
        values = _back_substitute(system.pivots, {f: RF_ONE},
                                  lambda row: RF_ZERO)
        xs = [(c, values[c]) for c in system.columns
              if values.get(c, RF_ZERO)]
        den = ONE
        for _, x in xs:
            if not x.den.is_one():
                den = lp_lcm(den, x.den)
        vectors.append(_normalise(
            {c: x.num * den.divexact(x.den) for c, x in xs}))
    return vectors


def _is_rhs(c) -> bool:
    return isinstance(c, tuple) and c[:1] == ("rhs",)


def solve_unique(columns, rows, k: int) -> list[dict]:
    """One solution {column: RationalFn} per right-hand-side column of the
    system whose rows are (row, rhs) pairs, rhs a list of k scalars; every
    column must be pivotal.

    The rows are echelonised as in SparseSystem, with right-hand side j
    carried in its row under the key ("rhs", j), so that _eliminate
    combines it and strips its content with the row.
    """
    pivots: list[tuple[object, dict]] = []
    where: dict = {}
    for row, rhs in sorted(rows, key=lambda item: (len(item[0]),
                                                   sorted(item[0]))):
        row = dict(row)
        row.update((("rhs", j), c) for j, c in enumerate(rhs) if c)
        while True:
            hits = [c for c in row if c in where]
            if not hits:
                break
            col = min(hits, key=where.get)
            _eliminate(row, col, pivots[where[col]][1])
        cols = [c for c in row if not _is_rhs(c)]
        if cols:
            col = min(cols, key=lambda c: (row[c].num_terms(), c))
            where[col] = len(pivots)
            pivots.append((col, row))
        elif row:
            raise InconsistentSystemError("inconsistent linear system")
    free = [c for c in columns if c not in where]
    if free:
        raise InconsistentSystemError(
            f"system is underdetermined; free columns {free[:5]}")
    solutions = []
    for j in range(k):
        values = _back_substitute(
            pivots, {},
            lambda row: RationalFn.from_poly(row.get(("rhs", j), ZERO)))
        solutions.append({c: values[c] for c in columns})
    return solutions


def solve_gamma(n: int) -> GammaBasis:
    """The minimal basis solved from the pinned linear system: central,
    1 on the minimal-length elements of its own class and 0 on those of
    every other class."""
    parts = partitions_of(n)
    rows = [(r, [ZERO] * len(parts)) for r in _commutator_rows(n)]
    for mu in parts:
        rhs = [ONE if lam == mu else ZERO for lam in parts]
        for w in _minimal_classes(n)[mu]:
            rows.append(({w: ONE}, list(rhs)))
    solutions = solve_unique(_all_permutations(n), rows, len(parts))
    return GammaBasis(n, {
        lam: HeckeElement._raw(
            n, {w: x.as_laurent() for w, x in vec.items() if x})
        for lam, vec in zip(parts, solutions)})


def left_mult_matrix(h: HeckeElement) -> dict:
    """The matrix of g -> h*g over the standard basis, as sparse rows.

    Entry [u][w] is the coefficient of T_u in h * T_w; zero entries, and
    rows that are zero throughout, are left out.  Column w is h T_w by
    single-generator steps along the trie of reduced words, not by the
    product kernel.
    """
    basis = _all_permutations(h.n)
    rows: dict = {}
    for acc, w in _prefix_products(h._terms, zip(basis, basis), _rmul_gen):
        for u, c in acc.items():
            rows.setdefault(u, {})[w] = c
    return rows


def _mod_step(steps: list, q0: int, terms: dict[int, int], i: int) -> dict:
    """Residues modulo _CERT_PRIME of indexed terms, times T_{s_i} on the
    right; steps is _Indexed.right and q0 the residue of q."""
    p = _CERT_PRIME
    out: dict[int, int] = {}
    get = out.get
    tab = steps[i]
    for k, c in terms.items():
        j = tab[k]
        if j < 0:
            j = ~j
            out[j] = (get(j, 0) + q0 * c) % p
            out[k] = (get(k, 0) + (q0 - 1) * c) % p
        else:
            out[j] = (get(j, 0) + c) % p
    return out


def _corank(n: int, z: HeckeElement, k0: int, v0: int,
            powers: dict[int, int]) -> int:
    """The corank modulo _CERT_PRIME of M - k0 * I at v = v0, with M the
    matrix of left multiplication by z and k0 the residue of the eigenvalue.

    It bounds the dimension of the eigenspace from above.  Column w of M
    is z * T_w.  The columns are built modulo the prime alone, one
    generator step per edge of the trie of reduced words of S_n, never as
    Laurent polynomials.
    """
    ix = _indexed(n)
    size = len(ix.perms)
    residues = {ix.index[w]: _at(a, v0, powers) % _CERT_PRIME
                for w, a in z._terms.items()}
    step = partial(_mod_step, ix.right, pow(v0, 2, _CERT_PRIME))
    matrix = _ModEchelon()
    corank = size
    for column, j in _prefix_products(residues, zip(ix.perms, range(size)),
                                      step):
        row = [0] * size
        for i, x in column.items():
            row[i] = x
        row[j] -= k0
        corank -= matrix.insert(row)
    return corank
