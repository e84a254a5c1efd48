"""Tests for the permutation layer: words, lengths, classes, the diagram flip."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hecke import (
    AlgebraContext,
    Caps,
    HeckeError,
    Partition,
    Permutation,
    ResourceCapError,
    TermTypeError,
    all_permutations,
    conjugacy_class,
    minimal_class_elements,
    partitions_of,
)
from hecke.permutations import (_all_permutations, _classes, _lengths,
                                _minimal_classes)

FLIP_PAIRS = 300


def test_identity_and_simples():
    e = Permutation.identity(4)
    assert tuple(e) == (1, 2, 3, 4)
    assert e.length() == 0
    s2 = Permutation.simple(4, 2)
    assert tuple(s2) == (1, 3, 2, 4)
    assert s2.length() == 1
    assert s2.inverse() == s2


def test_compose_applies_right_factor_first():
    s1 = Permutation.simple(3, 1)
    s2 = Permutation.simple(3, 2)
    assert tuple(s1.compose(s2)) == (2, 3, 1)
    assert s1.compose(s2) == Permutation.from_word(3, [1, 2])


def test_longest_element():
    w0 = Permutation.longest(4)
    assert tuple(w0) == (4, 3, 2, 1)
    assert w0.length() == 6
    assert w0.descents() == [1, 2, 3]
    assert w0.compose(w0) == Permutation.identity(4)


def test_transposition_cycle_type():
    t = Permutation.transposition(5, 2, 4)
    assert tuple(t) == (1, 4, 3, 2, 5)
    assert t.cycle_type() == (2, 1, 1, 1)


def test_length_counts_inversions():
    for w in all_permutations(4):
        inv = sum(
            1
            for i, j in itertools.combinations(range(4), 2)
            if w[i] > w[j]
        )
        assert w.length() == inv


def test_reduced_word_recomposition():
    # every reduced word must multiply back to its permutation, n <= 5
    for n in range(1, 6):
        for w in all_permutations(n):
            word = w.reduced_word()
            assert len(word) == w.length()
            assert Permutation.from_word(n, word) == w


def test_embed_preserves_word():
    w = Permutation.from_word(3, [2, 1])
    assert tuple(w.embed(5)) == (3, 1, 2, 4, 5)
    assert w.embed(5).reduced_word() == w.reduced_word()


@given(word=st.lists(st.integers(min_value=1, max_value=3), max_size=8))
def test_from_word_accepts_unreduced_words(word):
    w = Permutation.from_word(4, word)
    again = Permutation.from_word(4, w.reduced_word())
    assert again == w
    assert w.length() <= len(word)


def test_flip_is_an_involutive_automorphism():
    perms = all_permutations(4)
    rng = random.Random(11)
    for _ in range(FLIP_PAIRS):
        u = rng.choice(perms)
        v = rng.choice(perms)
        fu = u.apply_diagram_flip()
        fv = v.apply_diagram_flip()
        assert u.compose(v).apply_diagram_flip() == fu.compose(fv)
        assert fu.apply_diagram_flip() == u
        assert fu.length() == u.length()
        assert fu.cycle_type() == u.cycle_type()


def test_partitions_of():
    shapes = partitions_of(4)
    assert len(shapes) == 5
    assert all(isinstance(p, Partition) for p in shapes)
    assert set(map(tuple, shapes)) == {
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    }
    assert sorted(sum(p) for p in shapes) == [4] * 5


def test_partition_min_length_matches_brute_force():
    # min length over a conjugacy class is n minus the number of cycles
    for n in range(2, 6):
        for shape in partitions_of(n):
            cls = conjugacy_class(n, shape)
            assert shape.min_length() == min(w.length() for w in cls)
            assert shape.min_length() == n - shape.num_parts()


def test_conjugacy_class_sizes():
    assert len(conjugacy_class(3, Partition((2, 1)))) == 3
    assert len(conjugacy_class(4, Partition((2, 2)))) == 3
    assert len(conjugacy_class(4, Partition((4,)))) == 6
    for n in range(2, 6):
        total = sum(len(conjugacy_class(n, p)) for p in partitions_of(n))
        assert total == len(all_permutations(n))


def test_minimal_class_elements():
    for n in range(2, 6):
        for shape in partitions_of(n):
            cls = set(conjugacy_class(n, shape))
            mins = minimal_class_elements(n, shape)
            assert len(mins) >= 1
            for w in mins:
                assert w in cls
                assert w.length() == shape.min_length()


@pytest.mark.parametrize("n", range(1, 8))
def test_minimal_classes_match_the_length_filter(n):
    # _minimal_classes reads the lengths off the factorial base; the oracle
    # counts the inversions of each permutation
    want = {lam: tuple(w for w in ws if w.length() == lam.min_length())
            for lam, ws in _classes(n).items()}
    got = _minimal_classes(n)
    assert got == want
    assert list(got) == list(want)


def test_lengths_are_the_inversion_counts():
    for n in range(1, 7):
        assert _lengths(n) == [w.length() for w in _all_permutations(n)]


def test_enumerators_check_the_enumeration_cap():
    shape = Partition((8,))
    with pytest.raises(ResourceCapError):
        all_permutations(8)
    with pytest.raises(ResourceCapError):
        conjugacy_class(8, shape)
    with pytest.raises(ResourceCapError):
        minimal_class_elements(8, shape)
    assert len(all_permutations(AlgebraContext(8, Caps(enum_max=8)))) == 40320


def test_cycle_type_is_a_class_invariant():
    for shape in partitions_of(4):
        for w in conjugacy_class(4, shape):
            assert w.cycle_type() == tuple(shape)


@pytest.mark.parametrize("word", [[0], [3], [1, 0], [2, -1], [1, 2, 3]])
def test_from_word_refuses_a_letter_out_of_range(word):
    # [0] once returned Permutation((1, 2, 1, 3, 2, 3)), no permutation,
    # and [3] raised a bare IndexError
    with pytest.raises(ValueError, match="out of range for degree 3"):
        Permutation.from_word(3, word)


@pytest.mark.parametrize("i", [0, 3, -1])
def test_simple_reflections_follow_the_letter_rule(i):
    # simple(n, i) is the one-letter word (i,), with from_word's message
    with pytest.raises(ValueError,
                       match=f"generator index {i} out of range for degree 3"):
        Permutation.simple(3, i)


def _call(fn, *args):
    return pytest.param(partial(fn, *args),
                        id=f"{fn.__qualname__}({', '.join(map(repr, args))})")


@pytest.mark.parametrize("make", [
    _call(Permutation, (2, True)),
    _call(Permutation, (1.0, 2.0)),
    _call(Permutation.identity, True),
    _call(Permutation.identity, 3.0),
    _call(Permutation.simple, 3, True),
    _call(Permutation.simple, True, 1),
    _call(Permutation.transposition, 3, True, 2),
    _call(Permutation.from_word, 3, [True]),
    _call(Permutation.from_word, 3, [1, 2.0]),
    _call(Permutation.longest, True),
    _call(Partition, (True, 1)),
    _call(Partition, (2.0,)),
])
def test_the_constructors_take_ints_not_bools(make):
    # each of these once returned a permutation or partition, or raised a
    # bare TypeError: Permutation.simple(3, True) was s_1
    with pytest.raises(TermTypeError) as info:
        make()
    assert isinstance(info.value, HeckeError)
