"""Tests for the ring-only linear algebra against its fraction-field oracle."""

import random

from hypothesis import given, settings
import hypothesis.strategies as st

from hecke.laurent import LaurentPoly, lp_gcd
from hecke.linalg import SparseSystem, _strip_row

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
