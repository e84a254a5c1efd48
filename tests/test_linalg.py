"""Tests for the ring-only linear algebra against its fraction-field oracle."""

import random
from unittest import mock

from hypothesis import given, settings
import hypothesis.strategies as st

from hecke import linalg
from hecke.laurent import LaurentPoly, lp_gcd
from hecke.linalg import (SparseSystem, _eliminate, _strip_row, reduced_basis,
                          sparse_rank)

import fraction_oracle

# Entries that are not units and have several terms, so that they become
# non-unit pivots: 2, q - 1, q + 1, 2q - 3 and products with content.
MULTI = [LaurentPoly(2), LaurentPoly({2: 1, 0: -1}), LaurentPoly({2: 1, 0: 1}),
         LaurentPoly({2: 2, 0: -3}), LaurentPoly({4: 6, 0: 4}),
         LaurentPoly({1: 3, -1: -3}), LaurentPoly({2: 2, 0: 2})]
UNITS = [LaurentPoly(1), LaurentPoly(-1), LaurentPoly({2: 1}),
         LaurentPoly({-1: -1})]

scalars = st.one_of(
    st.sampled_from(MULTI),
    st.sampled_from(UNITS),
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4),
                    min_size=1, max_size=3).map(LaurentPoly),
).filter(bool)


@st.composite
def systems(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), scalars, min_size=1),
        max_size=ncols + 2))
    return ncols, rows


def _both(ncols, rows):
    system = SparseSystem(list(range(ncols)))
    system.add_rows(rows)
    return system, system.nullspace(), fraction_oracle.nullspace(system)


def _assert_same(ncols, rows):
    system, got, want = _both(ncols, rows)
    # equal vectors, keys in the same order
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert len(got) == ncols - system.rank
    for vec in got:
        for row in rows:
            total = LaurentPoly(0)
            for c, a in row.items():
                if c in vec:
                    total = total + a * vec[c]
            assert total.is_zero()
    return system


@settings(max_examples=200, deadline=None)
@given(systems())
def test_nullspace_matches_the_fraction_field_oracle(system):
    _assert_same(*system)


def test_nullspace_oracle_agreement_reaches_non_unit_pivots():
    rng = random.Random(9)
    non_unit = 0
    for _ in range(300):
        ncols = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, ncols)):
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            rows.append({c: rng.choice(MULTI + UNITS[:1]) * rng.choice(
                MULTI + UNITS) for c in cols})
        system = _assert_same(ncols, rows)
        non_unit += sum(not row[col].is_unit() and row[col].num_terms() > 1
                        for col, row in system.pivots)
    assert non_unit > 500


def test_nullspace_of_empty_and_full_rank_systems():
    two, qm1 = MULTI[0], MULTI[1]
    # no rows: every column is free, and each vector is a unit vector
    _, got, want = _both(3, [])
    assert got == want == [{0: LaurentPoly(1)}, {1: LaurentPoly(1)},
                           {2: LaurentPoly(1)}]
    # full rank: the kernel is empty
    _, got, want = _both(2, [{0: two, 1: qm1}, {1: two}])
    assert got == want == []
    # one relation with non-unit pivots: (q - 1) x0 = 2 x1
    _, got, want = _both(2, [{0: qm1, 1: -two}])
    assert got == want == [{0: two, 1: qm1}]


def _strip_by_gcd(row: dict) -> dict:
    """The content of a row by the gcd of all its entries."""
    g = LaurentPoly(0)
    for c in row.values():
        g = lp_gcd(g, c)
    return {k: c.divexact(g) for k, c in row.items()}


@given(st.dictionaries(st.integers(0, 5), scalars, min_size=1, max_size=5),
       st.sampled_from(MULTI + [LaurentPoly(1)]))
def test_strip_row_shortcut_matches_the_gcd_path(row, factor):
    row = {k: c * factor for k, c in row.items()}
    want = _strip_by_gcd(row)
    got = dict(row)
    _strip_row(got)
    assert list(got.items()) == list(want.items())


# Units +-v^k and the non-units 2, q - 1, q + 1 and 2q, so that unit and
# cross-multiplied clearings meet in one system.
MIXED = ([LaurentPoly({k: s}) for k in (-2, -1, 0, 1, 2) for s in (1, -1)]
         + [LaurentPoly(2), LaurentPoly({2: 1, 0: -1}),
            LaurentPoly({2: 1, 0: 1}), LaurentPoly({2: 2})])


@st.composite
def mixed_systems(draw):
    ncols = draw(st.integers(1, 6))
    entries = st.sampled_from(MIXED)
    # products of two entries too, so that rows carry content
    entries = st.one_of(entries, st.tuples(entries, entries).map(
        lambda ab: ab[0] * ab[1]))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), entries, min_size=1),
        max_size=ncols + 2))
    return ncols, rows


def _unit_ratio(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The unit u with a = u * b, asserting that there is one."""
    (ea, ca), (eb, cb) = a.items()[-1], b.items()[-1]
    assert abs(ca) == abs(cb)
    u = LaurentPoly({ea - eb: ca // cb})
    assert a == u * b
    return u


def _solve(ncols, rows):
    columns = list(range(ncols))
    system = SparseSystem(columns)
    system.add_rows(rows)
    kernel = system.nullspace()
    # the pivot rows are linearly independent: on the pivot columns they
    # are triangular, each row missing the columns registered before its own
    pivot_rows = [dict(row) for _, row in system.pivots]
    return (system, kernel, reduced_basis(kernel, columns),
            reduced_basis(pivot_rows, columns), sparse_rank(rows))


@settings(max_examples=300, deadline=None)
@given(mixed_systems())
def test_unit_clearing_matches_the_cross_multiplying_step(system):
    ncols, rows = system
    got = _solve(ncols, rows)
    with mock.patch.object(linalg, "_eliminate",
                           fraction_oracle.eliminate_fraction_free):
        want = _solve(ncols, rows)
    # the same pivot columns in the same order, each row the oracle's
    # times a unit, with its keys in the same order
    assert [c for c, _ in got[0].pivots] == [c for c, _ in want[0].pivots]
    for (_, row), (_, ref) in zip(got[0].pivots, want[0].pivots):
        assert list(row) == list(ref)
        u = _unit_ratio(next(iter(row.values())), next(iter(ref.values())))
        assert all(row[c] == u * ref[c] for c in row)
    # the same normalised vectors and rank, key order included
    for mine, theirs in zip(got[1:4], want[1:4]):
        assert [list(v.items()) for v in mine] == \
               [list(v.items()) for v in theirs]
    assert got[4] == want[4] == got[0].rank


def test_unit_clearing_strips_the_content_it_leaves():
    one, two = LaurentPoly(1), LaurentPoly(2)
    # a unit pivot: {a: 1, b: -1, c: 2} - {a: 1, b: 1} = {b: -2, c: 2}
    row = {"a": one, "b": -one, "c": two}
    _eliminate(row, "a", {"a": one, "b": one})
    assert row in ({"b": -one, "c": one}, {"b": one, "c": -one})
    # and so in the system, before the row picks its pivot
    system = SparseSystem(["a", "b", "c"])
    system.add_rows([{"a": one, "b": one}, {"a": one, "b": -one, "c": two}])
    assert [c for c, _ in system.pivots] == ["a", "b"]
    assert system.pivots[1][1] in ({"b": -one, "c": one},
                                   {"b": one, "c": -one})


# an exponent no drawn entry reaches, to mark a near-duplicate row
_MARK = 50


@st.composite
def presolved_systems(draw):
    """Rows with the redundancy add_rows drops, as (ncols, rows, near):
    chains of equalities c (e_x - e_y) with a closing one the chain already
    implies, +- duplicates of drawn rows, copies of drawn rows with columns
    swapped for others of their equality class, such copies with one entry
    negated, and near-duplicates, such copies with one entry changed, which
    must still be inserted."""
    ncols = draw(st.integers(2, 7))
    cols = st.integers(0, ncols - 1)
    rows, near = [], []
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for _ in range(draw(st.integers(0, 4))):
        chain = draw(st.lists(cols, min_size=2, max_size=4, unique=True))
        for x, y in zip(chain, chain[1:] + chain[:1]):
            c = draw(scalars)
            rows.append({x: c, y: -c})
            parent[find(y)] = find(x)
    for row in draw(st.lists(st.dictionaries(cols, scalars, min_size=1),
                             min_size=1, max_size=ncols)):
        rows.append(row)
        if draw(st.booleans()):
            sign = draw(st.sampled_from([1, -1]))
            rows.append({c: a * sign for c, a in row.items()})
        # each column swapped for a drawn one of its class, if still free
        moved = {}
        for c, a in row.items():
            to = draw(st.sampled_from([d for d in range(ncols)
                                       if find(d) == find(c)]))
            moved[c if to in moved else to] = a
        if draw(st.booleans()) and len(moved) == len(row):
            rows.append(moved)
        if draw(st.booleans()):
            c = draw(st.sampled_from(sorted(moved)))
            rows.append({d: -a if d == c else a for d, a in moved.items()})
        if draw(st.booleans()):
            c = draw(st.sampled_from(sorted(moved)))
            changed = dict(moved)
            changed[c] = changed[c] + LaurentPoly({_MARK + len(near): 1})
            rows.append(changed)
            near.append(changed)
    return ncols, draw(st.permutations(rows)), near


def _add_rows_offered(ncols, rows):
    """A system after add_rows, and the rows it passed to _insert, each as
    a list of items."""
    offered = []
    insert = SparseSystem._insert
    with mock.patch.object(SparseSystem, "_insert", autospec=True,
                           side_effect=lambda s, row: offered.append(
                               list(row.items())) or insert(s, row)):
        system = SparseSystem(list(range(ncols)))
        system.add_rows(rows)
    return system, offered


def _pivot_rows(system):
    return [(c, list(row.items())) for c, row in system.pivots]


@settings(max_examples=300, deadline=None)
@given(presolved_systems())
def test_add_rows_matches_inserting_every_row(system):
    ncols, rows, near = system
    got, offered = _add_rows_offered(ncols, rows)
    want = fraction_oracle.insert_every_row(list(range(ncols)), rows)
    assert _pivot_rows(got) == _pivot_rows(want)
    assert [list(v.items()) for v in got.nullspace()] == \
           [list(v.items()) for v in want.nullspace()]
    assert sparse_rank(rows) == want.rank
    for row in near:
        assert list(row.items()) in offered


def test_add_rows_drops_only_rows_earlier_equalities_imply():
    one, two, q = LaurentPoly(1), LaurentPoly(2), LaurentPoly({2: 1})
    # rows go in sorted by size and columns: 0, 1, 2, 3, 5, 4, 6
    rows = [{0: q, 1: -q}, {0: two, 2: -two},
            {1: one, 2: -one},                 # joined by the two before
            {0: one, 3: q},
            {2: -one, 3: -q},                  # -(the row before), by class
            {1: one, 3: q + one},              # one entry off: inserted
            {2: -one, 3: q}]                   # one sign off: inserted
    system, offered = _add_rows_offered(4, rows)
    assert offered == [list(rows[i].items()) for i in (0, 1, 3, 5, 6)]
    assert system.rank == 4
    want = fraction_oracle.insert_every_row(list(range(4)), rows)
    assert _pivot_rows(system) == _pivot_rows(want)
