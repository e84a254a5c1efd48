"""Exact linear algebra over Z[v, v^-1] and its fraction field.

SparseSystem computes the row echelon form of a sparse system by
fraction-free cross-multiplication elimination with per-row content
stripping.  Row operations only rescale equations, so solutions and rank are
preserved while everything stays in the Laurent ring.  Back substitution
for solutions and nullspaces happens over RationalFn at the end;
reduced_basis, which gives one canonical basis of a span, stays
fraction-free throughout.

Columns are labelled by any mutually comparable keys; the algebra uses the
permutations themselves.
"""

from __future__ import annotations

from .errors import InconsistentSystemError
from .laurent import (ONE, RF_ONE, RF_ZERO, ZERO, LaurentPoly, RationalFn,
                      lp_gcd, lp_lcm)


def _strip_row(row: dict,
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


def _eliminate(row: dict, rhs: list[LaurentPoly], col, prow: dict,
               prhs: list[LaurentPoly]) -> None:
    """Clear row[col] fraction-free against the pivot row prow, in place.

    The row becomes p * row - f * prow (p the pivot entry, f the cleared
    one), then its content is stripped.
    """
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
    for i in range(len(rhs)):
        rhs[i] = p * rhs[i] - f * prhs[i]
    _strip_row(row, rhs)


def _normalise(vec: dict) -> dict:
    """Strip a nonzero vector's common content and v-shift, and give its
    first coordinate a positive leading coefficient."""
    g = ZERO
    for a in vec.values():
        g = lp_gcd(g, a)
        if g.is_one():
            break
    if not g.is_one():
        vec = {c: a.divexact(g) for c, a in vec.items()}
    shift = min(a.min_exp() for a in vec.values())
    if shift:
        vec = {c: a.shift(-shift) for c, a in vec.items()}
    if next(iter(vec.values())).leading_coeff() < 0:
        vec = {c: -a for c, a in vec.items()}
    return vec


class SparseSystem:
    """Echelonise rows of a sparse linear system A x = b exactly.

    Rows are dicts column label -> LaurentPoly; each row may carry several
    right-hand-side columns.  After `add_rows`, `solve_unique` produces the
    solution for every right-hand side (requiring every column to be
    pivotal), and `nullspace` produces denominator-cleared kernel vectors
    of the homogeneous system, both as dicts keyed by column label.
    """

    def __init__(self, columns, num_rhs: int = 0):
        # the column labels, in increasing order
        self.columns = columns
        self.num_rhs = num_rhs
        # registration order: (pivot column, row dict, rhs list)
        self.pivots: list[tuple[object, dict, list[LaurentPoly]]] = []
        self.pivot_index: dict = {}

    def add_rows(self, rows) -> None:
        # Smallest rows first: pinning constraints become pivots immediately.
        # The sort is stable, so rows that tie keep the order they came in;
        # callers pass them in label order, which with the label tie-break
        # of the pivot choice makes the elimination canonical.
        for row, rhs in sorted(rows, key=lambda item: (len(item[0]), sorted(item[0]))):
            self._insert(dict(row), list(rhs))

    def _insert(self, row: dict, rhs: list[LaurentPoly]) -> None:
        while row:
            hits = [c for c in row if c in self.pivot_index]
            if not hits:
                break
            # eliminate the earliest registered pivot present; this strictly
            # increases the smallest pivot index in the row, so it terminates
            col = min(hits, key=lambda c: self.pivot_index[c])
            _, prow, prhs = self.pivots[self.pivot_index[col]]
            _eliminate(row, rhs, col, prow, prhs)
        if row:
            col = min(row, key=lambda c: (row[c].num_terms(), c))
            self.pivot_index[col] = len(self.pivots)
            self.pivots.append((col, row, rhs))
        elif any(rhs):
            raise InconsistentSystemError("inconsistent linear system")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list:
        return [c for c in self.columns if c not in self.pivot_index]

    def _back_substitute(self, values: dict, rhs_at) -> dict:
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

    def solve_unique(self) -> list[dict]:
        """One solution {column: RationalFn} per right-hand-side column."""
        free = self.free_columns()
        if free:
            raise InconsistentSystemError(
                f"system is underdetermined; free columns {free[:5]}")
        solutions = []
        for k in range(self.num_rhs):
            values: dict = {}
            self._back_substitute(values,
                                  lambda rhs: RationalFn.from_poly(rhs[k]))
            solutions.append({c: values[c] for c in self.columns})
        return solutions

    def nullspace(self) -> list[dict]:
        """Kernel vectors of the homogeneous system, cleared to the ring.

        One vector per free column, as {column: LaurentPoly} over its nonzero
        coordinates in column order, deterministically normalised: common
        content and v-shift stripped, first nonzero coordinate given a
        positive leading coefficient.
        """
        vectors = []
        for f in self.free_columns():
            values: dict = {f: RF_ONE}
            self._back_substitute(values, lambda rhs: RF_ZERO)
            xs = [(c, values[c]) for c in self.columns
                  if values.get(c, RF_ZERO)]
            den = ONE
            for _, x in xs:
                if not x.den.is_one():
                    den = lp_lcm(den, x.den)
            vectors.append(_normalise(
                {c: x.num * den.divexact(x.den) for c, x in xs}))
        return vectors


def reduced_basis(rows: list[dict], columns) -> list[dict]:
    """The reduced echelon basis of the span of linearly independent rows.

    columns is the sequence of column labels, in label order.

    Pivot columns are chosen from the largest label down, so they are the
    label-greatest set of columns on which the span projects
    isomorphically.  Each vector is nonzero at its own pivot column and
    zero at every other one; elimination is fraction-free, as in
    SparseSystem.add_rows.  Vectors come in label order of their pivot
    columns, over their nonzero coordinates in column order, normalised as
    in SparseSystem.nullspace.
    """
    rows = [dict(row) for row in rows]
    done = []
    for col in reversed(columns):
        hits = [i for i, row in enumerate(rows) if col in row]
        if not hits:
            continue
        prow = rows.pop(min(hits, key=lambda i: rows[i][col].num_terms()))
        for row in rows + [row for _, row in done]:
            if col in row:
                _eliminate(row, [], col, prow, [])
        done.append((col, prow))
        if not rows:
            break
    return [_normalise({c: row[c] for c in columns if c in row})
            for _, row in reversed(done)]


def sparse_rank(rows) -> int:
    """The rank of an iterable of sparse rows {column: LaurentPoly}."""
    sys_ = SparseSystem(())   # the rank needs no column labels
    sys_.add_rows((row, []) for row in rows)
    return sys_.rank
