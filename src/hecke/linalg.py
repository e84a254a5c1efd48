"""Exact linear algebra over Z[v, v^-1], without fractions.

SparseSystem computes the row echelon form of a sparse homogeneous system
with per-row content stripping.  A unit pivot +-v^k clears by subtraction;
only a pivot that is not a unit cross-multiplies, fraction-free.  Row
operations only rescale equations, so the kernel and rank are preserved
while everything stays in the Laurent ring.  The nullspace
comes from a fraction-free back substitution (Bareiss, Math. Comp. 1968):
a pivot that is not a unit scales the partial vector instead of dividing
it.  reduced_basis, which gives one canonical basis of a span, clears in the
same way.

add_rows drops two kinds of row before the elimination: an equality
c (e_x - e_y) whose columns earlier equalities of the same call already join,
and a row equal to +- an earlier one once each column is read as its equality
class.  Each lies in the span of the rows already inserted, so _insert would
reduce it to zero: the pivots, the rank and the nullspace are those of
inserting every row.

Columns are labelled by any mutually comparable keys; the algebra uses the
permutations themselves.
"""

from __future__ import annotations

from .laurent import ONE, ZERO, lp_gcd


def _strip_row(row: dict) -> None:
    """Divide a row by the gcd of its entries."""
    # a unit entry makes the content 1, with no gcd to compute
    for c in row.values():
        if c.is_unit():
            return
    g = ZERO
    for c in row.values():
        g = lp_gcd(g, c)
        if g.is_one():
            return
    if g.is_zero():
        return
    for k in row:
        row[k] = row[k].divexact(g)


def _eliminate(row: dict, col, prow: dict) -> None:
    """Clear row[col] against the pivot row prow, in place, then strip the
    row's content.

    With p the pivot entry and f the cleared one, a unit pivot p = +-v^k
    clears by subtraction, row - (f/p) * prow: f/p is f shifted and signed,
    and the entries outside prow are left as they are.  A pivot that is not
    a unit cross-multiplies fraction-free, p * row - f * prow.  The first
    row is the second times the unit 1/p, so both give the same zeros, term
    counts and normalised vectors.
    """
    p = prow[col]
    f = row.pop(col)
    if p.is_unit():
        (e, s), = p.items()
        p, m = None, (f.shift(-e) if s < 0 else -f.shift(-e))    # m = -f/p
    else:
        m = -f
        for c in row:
            if c not in prow:
                row[c] = p * row[c]
    for c, pc in prow.items():
        if c == col:
            continue
        cur = row.get(c)
        if cur is None:
            val = m * pc
        else:
            val = (cur if p is None else p * cur) + m * pc
        if val:
            row[c] = val
        else:
            row.pop(c, None)
    _strip_row(row)


def _equality(row: dict):
    """The two columns of a row c (e_x - e_y), or None for any other row."""
    if len(row) == 2:
        (x, a), (y, b) = row.items()
        if not a + b:
            return x, y
    return None


def _normalise(vec: dict) -> dict:
    """Strip a nonzero vector's common content (in place) and v-shift, and
    give its first coordinate a positive leading coefficient."""
    _strip_row(vec)
    shift = min(a.min_exp() for a in vec.values())
    if shift:
        vec = {c: a.shift(-shift) for c, a in vec.items()}
    if next(iter(vec.values())).leading_coeff() < 0:
        vec = {c: -a for c, a in vec.items()}
    return vec


class SparseSystem:
    """Echelonise the rows of a sparse homogeneous system A x = 0 exactly.

    Rows are dicts column label -> LaurentPoly.  After `add_rows`,
    `nullspace` produces ring-valued kernel vectors as dicts keyed by
    column label.
    """

    def __init__(self, columns):
        # the column labels, in increasing order
        self.columns = columns
        # registration order: (pivot column, row dict)
        self.pivots: list[tuple[object, dict]] = []
        self.pivot_index: dict = {}

    def add_rows(self, rows) -> None:
        # Smallest rows first: pinning constraints become pivots immediately.
        # The sort is stable, so rows that tie keep the order they came in;
        # callers pass them in label order, which with the label tie-break
        # of the pivot choice makes the elimination canonical.
        # An equality c (e_x - e_y) whose columns earlier equalities already
        # join (a union-find over columns) is dropped, and so is a row equal
        # to +- an earlier one once each column is read as its equality class
        # (the same multiset of (class, entry)).  Either lies in the span of
        # the rows this call already inserted, so _insert would reduce it to
        # zero and leave every pivot as it was.
        parent: dict = {}

        def find(c):
            while c in parent:
                up = parent.get(parent[c], parent[c])
                parent[c] = up                # halve the path
                c = up
            return c

        # each distinct entry is numbered once, k, and its negative ~k, so a
        # row's multiset is a sorted tuple of (class, number)
        number: dict = {}
        seen = set()
        for row in sorted(rows, key=lambda row: (len(row), sorted(row))):
            ends = _equality(row)
            if ends:
                x, y = map(find, ends)
                if x == y:
                    continue
                parent[y] = x
            else:
                entries = []
                for c, a in row.items():
                    k = number.get(a)
                    if k is None:
                        k = number[a] = len(number)
                        number[-a] = ~k
                    entries.append((find(c), k))
                key = tuple(sorted(entries))
                if key in seen:
                    continue
                seen.add(key)
                seen.add(tuple(sorted((c, ~k) for c, k in entries)))
            self._insert(dict(row))

    def _insert(self, row: dict) -> None:
        while row:
            hits = [c for c in row if c in self.pivot_index]
            if not hits:
                break
            # eliminate the earliest registered pivot present; this strictly
            # increases the smallest pivot index in the row, so it terminates
            col = min(hits, key=lambda c: self.pivot_index[c])
            _eliminate(row, col, self.pivots[self.pivot_index[col]][1])
        if row:
            col = min(row, key=lambda c: (row[c].num_terms(), c))
            self.pivot_index[col] = len(self.pivots)
            self.pivots.append((col, row))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list:
        return [c for c in self.columns if c not in self.pivot_index]

    def nullspace(self) -> list[dict]:
        """Kernel vectors of the system, in the ring.

        One vector per free column f, proportional to the kernel vector
        that is 1 at f and 0 at the other free columns, as
        {column: LaurentPoly} over its nonzero coordinates in column order,
        deterministically normalised: common content and v-shift stripped,
        first nonzero coordinate given a positive leading coefficient.

        A pivot row meets only its own column, free columns and the pivot
        columns registered after it, so the pivots are solved in reverse.
        With p the pivot entry and s the sum of the row's other terms,
        x_col = -s/p.  When p is not a unit the vector is scaled by p/g,
        g = gcd(p, s), and x_col = -s/g, so no coordinate leaves the ring.
        """
        vectors = []
        for f in self.free_columns():
            x = {f: ONE}
            for col, row in reversed(self.pivots):
                s = ZERO
                for c, a in row.items():
                    xc = x.get(c)     # None at col: it is not solved yet
                    if xc is not None:
                        s = s + a * xc
                if not s:
                    continue
                p = row[col]
                if p.is_unit():
                    x[col] = -s.divexact(p)
                    continue
                g = lp_gcd(p, s)
                scale = p.divexact(g)
                x = {c: a * scale for c, a in x.items()}
                x[col] = -s.divexact(g)
            vectors.append(_normalise(
                {c: x[c] for c in self.columns if c in x}))
        return vectors


def reduced_basis(rows: list[dict], columns) -> list[dict]:
    """The reduced echelon basis of the span of linearly independent rows.

    columns is the sequence of column labels, in label order.

    Pivot columns are chosen from the largest label down, so they are the
    label-greatest set of columns on which the span projects
    isomorphically.  Each vector is nonzero at its own pivot column and
    zero at every other one; rows clear as in SparseSystem.add_rows.
    Vectors come in label order of their pivot columns, over their nonzero
    coordinates in column order, normalised as in SparseSystem.nullspace.
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
                _eliminate(row, col, prow)
        done.append((col, prow))
        if not rows:
            break
    return [_normalise({c: row[c] for c in columns if c in row})
            for _, row in reversed(done)]


def sparse_rank(rows) -> int:
    """The rank of an iterable of sparse rows {column: LaurentPoly}."""
    sys_ = SparseSystem(())   # the rank needs no column labels
    sys_.add_rows(rows)
    return sys_.rank
