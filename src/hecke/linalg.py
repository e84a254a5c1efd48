"""Exact linear algebra over Z[v, v^-1] and its fraction field.

SparseSystem computes the row echelon form of a sparse system by
fraction-free cross-multiplication elimination with per-row content
stripping.  Row operations only rescale equations, so solutions and rank are
preserved while everything stays in the Laurent ring.  Back substitution
happens over RationalFn at the end.
"""

from __future__ import annotations

from .errors import InconsistentSystemError
from .laurent import (ONE, RF_ONE, RF_ZERO, ZERO, LaurentPoly, RationalFn,
                      lp_gcd, lp_lcm)


def _strip_row(row: dict[int, LaurentPoly],
               rhs: list[LaurentPoly]) -> None:
    """Divide a row (and its right-hand sides) by the gcd of its entries."""
    g = ZERO
    for c in row.values():
        g = lp_gcd(g, c)
        if g.is_one():
            break
    if g.is_one() or g.is_zero():
        return
    for c in rhs:
        g = lp_gcd(g, c)
        if g.is_one():
            return
    for k in row:
        row[k] = row[k].divexact(g)
    for i, c in enumerate(rhs):
        rhs[i] = c.divexact(g)


class SparseSystem:
    """Echelonise rows of a sparse linear system A x = b exactly.

    Rows are dicts column -> LaurentPoly; each row may carry several
    right-hand-side columns.  After `reduce`, `solve_unique` produces the
    solution for every right-hand side (requiring every column to be
    pivotal), and `nullspace` produces denominator-cleared kernel vectors
    of the homogeneous system.
    """

    def __init__(self, ncols: int, num_rhs: int = 0):
        self.ncols = ncols
        self.num_rhs = num_rhs
        # registration order: (pivot column, row dict, rhs list)
        self.pivots: list[tuple[int, dict[int, LaurentPoly], list[LaurentPoly]]] = []
        self.pivot_index: dict[int, int] = {}

    def add_rows(self, rows) -> None:
        # smallest rows first: pinning constraints become pivots immediately
        for row, rhs in sorted(rows, key=lambda item: (len(item[0]), sorted(item[0]))):
            self._insert(dict(row), list(rhs))

    def _insert(self, row: dict[int, LaurentPoly], rhs: list[LaurentPoly]) -> None:
        while row:
            hits = [c for c in row if c in self.pivot_index]
            if not hits:
                break
            # eliminate the earliest registered pivot present; this strictly
            # increases the smallest pivot index in the row, so it terminates
            col = min(hits, key=lambda c: self.pivot_index[c])
            _, prow, prhs = self.pivots[self.pivot_index[col]]
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
            for c in [c for c in row if c not in prow and c != col]:
                row[c] = p * row[c]
            for i in range(len(rhs)):
                rhs[i] = p * rhs[i] - f * prhs[i]
            _strip_row(row, rhs)
        if row:
            col = min(row, key=lambda c: (row[c].num_terms(), c))
            self.pivot_index[col] = len(self.pivots)
            self.pivots.append((col, row, rhs))
        elif any(rhs):
            raise InconsistentSystemError("inconsistent linear system")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.pivot_index]

    def _back_substitute(self, values: dict[int, RationalFn],
                         rhs_at) -> dict[int, RationalFn]:
        for col, row, rhs in reversed(self.pivots):
            total = rhs_at(rhs)
            for c, a in row.items():
                if c == col:
                    continue
                xc = values.get(c, RF_ZERO)
                if xc:
                    total = total - RationalFn.from_poly(a) * xc
            values[col] = total / RationalFn.from_poly(row[col])
        return values

    def solve_unique(self) -> list[list[RationalFn]]:
        """One solution vector per right-hand-side column."""
        free = self.free_columns()
        if free:
            raise InconsistentSystemError(
                f"system is underdetermined; free columns {free[:5]}")
        solutions = []
        for k in range(self.num_rhs):
            values: dict[int, RationalFn] = {}
            self._back_substitute(values,
                                  lambda rhs: RationalFn.from_poly(rhs[k]))
            solutions.append([values[c] for c in range(self.ncols)])
        return solutions

    def nullspace(self) -> list[list[LaurentPoly]]:
        """Kernel vectors of the homogeneous system, cleared to the ring.

        One vector per free column, deterministically normalised: common
        content and v-shift stripped, first nonzero coordinate given a
        positive leading coefficient.
        """
        vectors = []
        for f in self.free_columns():
            values: dict[int, RationalFn] = {f: RF_ONE}
            self._back_substitute(values, lambda rhs: RF_ZERO)
            den = ONE
            for c in range(self.ncols):
                x = values.get(c, RF_ZERO)
                if x and not x.den.is_one():
                    den = lp_lcm(den, x.den)
            vec = []
            for c in range(self.ncols):
                x = values.get(c, RF_ZERO)
                vec.append(ZERO if not x else x.num * den.divexact(x.den))
            g = ZERO
            for c in vec:
                g = lp_gcd(g, c)
                if g.is_one():
                    break
            if not (g.is_zero() or g.is_one()):
                vec = [c.divexact(g) for c in vec]
            shift = min(c.min_exp() for c in vec if c)
            if shift:
                vec = [c.shift(-shift) if c else c for c in vec]
            if next(c for c in vec if c).leading_coeff() < 0:
                vec = [-c for c in vec]
            vectors.append(vec)
        return vectors


def sparse_rank(rows: list[dict[int, LaurentPoly]], ncols: int) -> int:
    sys_ = SparseSystem(ncols)
    sys_.add_rows((row, []) for row in rows)
    return sys_.rank
