"""Permutations of {1, ..., n} in one-line notation, and integer partitions.

A permutation w is the tuple of images (w(1), ..., w(n)).  The product
is function composition with the right factor applied first:

    (u * w)(i) = u(w(i))

so that multiplying on the right by the simple transposition s_i swaps
the entries in positions i, i+1, and multiplying on the left swaps the
values i, i+1.  Coxeter length equals the number of inversions, and the
canonical reduced word is produced by repeatedly removing the smallest
descent.

>>> w = Permutation((3, 2, 1))
>>> w.length()
3
>>> w.reduced_word()
(1, 2, 1)
>>> w.cycle_type()
Partition((2, 1))
>>> Permutation.from_word(3, (1, 2)) * Permutation.simple(3, 1)
Permutation((3, 2, 1))
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DegreeMismatchError
from .laurent import _check_ints


class Permutation(tuple):
    """A permutation of {1, ..., n}, stored as its one-line notation.

    The public constructors take ints only: a degree, index, image or word
    letter that is not an int, a bool included, raises TermTypeError.
    """

    __slots__ = ()

    def __new__(cls, images):
        t = tuple(images)
        _check_ints("permutation image", *t)
        if sorted(t) != list(range(1, len(t) + 1)):
            raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
        return tuple.__new__(cls, t)

    @classmethod
    def _unsafe(cls, images: tuple) -> "Permutation":
        # internal fast path; images must already be a valid one-line tuple
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_ints("degree", n)
        return cls._unsafe(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> "Permutation":
        """The simple transposition s_i = (i, i+1), 1 <= i <= n-1."""
        return cls.from_word(n, (i,))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        _check_ints("degree or point", n, a, b)
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"bad transposition ({a} {b}) for n={n}")
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = im[b - 1], im[a - 1]
        return cls._unsafe(tuple(im))

    @classmethod
    def from_word(cls, n: int, word) -> "Permutation":
        """Product s_{i_1} s_{i_2} ... of simple transpositions.

        A letter outside 1 .. n - 1 raises ValueError.

        >>> Permutation.from_word(3, (1, 2, 1))
        Permutation((3, 2, 1))
        """
        word = tuple(word)
        _check_ints("word letter", *word)
        w = cls.identity(n)
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for degree {n}")
            w = w.right_simple(i)
        return w

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The longest element w_n = (n, n-1, ..., 1)."""
        _check_ints("degree", n)
        return cls._unsafe(tuple(range(n, 0, -1)))

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other) -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.compose(other)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(self) != len(other):
            raise DegreeMismatchError(
                f"cannot compose permutations of degrees {len(self)} and {len(other)}")
        return Permutation._unsafe(tuple(self[j - 1] for j in other))

    def inverse(self) -> "Permutation":
        im = [0] * len(self)
        for i, j in enumerate(self, start=1):
            im[j - 1] = i
        return Permutation._unsafe(tuple(im))

    def right_simple(self, i: int) -> "Permutation":
        """self * s_i (swap positions i, i+1)."""
        return Permutation._unsafe(
            self[:i - 1] + (self[i], self[i - 1]) + self[i + 1:])

    def left_simple(self, i: int) -> "Permutation":
        """s_i * self (swap values i, i+1)."""
        a = self.index(i)
        b = self.index(i + 1)
        im = list(self)
        im[a], im[b] = im[b], im[a]
        return Permutation._unsafe(tuple(im))

    def length(self) -> int:
        """Coxeter length = number of inversions.

        >>> Permutation((2, 3, 1)).length()
        2
        """
        return _length(self)

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word, built by removing the smallest descent.

        The word multiplies left to right: w = s_{i_1} ... s_{i_k}.

        >>> Permutation((3, 2, 1)).reduced_word()
        (1, 2, 1)
        >>> Permutation.transposition(3, 1, 3).reduced_word()
        (1, 2, 1)

        The words are prefix-closed: word(w) = word(w s_d) + (d) for the
        smallest right descent d, which the product kernel relies on.

        >>> w = Permutation((3, 4, 1, 2))
        >>> d = min(w.descents()); d
        2
        >>> w.reduced_word(), w.right_simple(d).reduced_word()
        ((2, 3, 1, 2), (2, 3, 1))
        """
        return _reduced_word(self)

    def descents(self) -> list[int]:
        """Right descents: positions i with w(i) > w(i+1)."""
        return [i for i in range(1, len(self)) if self[i - 1] > self[i]]

    def cycle_type(self) -> "Partition":
        """Cycle type as a partition of n.

        >>> Permutation((2, 1, 4, 3)).cycle_type()
        Partition((2, 2))
        """
        seen = [False] * len(self)
        lengths = []
        for start in range(len(self)):
            if seen[start]:
                continue
            k = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self[j] - 1
                k += 1
            lengths.append(k)
        lengths.sort(reverse=True)
        return tuple.__new__(Partition, lengths)   # valid by construction

    def apply_diagram_flip(self) -> "Permutation":
        """The image under the automorphism s_i -> s_{n-i}.

        This is conjugation by the longest element:

        >>> Permutation.simple(3, 1).apply_diagram_flip()
        Permutation((1, 3, 2))
        """
        n = len(self)
        return Permutation._unsafe(tuple(n + 1 - self[n - i] for i in range(1, n + 1)))

    def embed(self, m: int) -> "Permutation":
        """The same permutation inside S_m, m >= n, fixing n+1..m."""
        if m < len(self):
            raise DegreeMismatchError(f"cannot embed degree {len(self)} into {m}")
        return Permutation._unsafe(tuple(self) + tuple(range(len(self) + 1, m + 1)))

    def __repr__(self) -> str:
        return f"Permutation({tuple(self)!r})"


@lru_cache(maxsize=None)
def _length(w: Permutation) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


@lru_cache(maxsize=None)
def _reduced_word(w: Permutation) -> tuple[int, ...]:
    word = []
    cur = w
    while True:
        for i in range(1, len(cur)):
            if cur[i - 1] > cur[i]:
                word.append(i)
                cur = cur.right_simple(i)
                break
        else:
            break
    # cur * s_{i_1} * ... * s_{i_k} = id, hence w = s_{i_k} ... s_{i_1}
    return tuple(reversed(word))


class Partition(tuple):
    """A partition of n: a weakly decreasing tuple of positive parts, each
    an int (not a bool; anything else raises TermTypeError)."""

    __slots__ = ()

    def __new__(cls, parts):
        t = tuple(parts)
        _check_ints("partition part", *t)
        if any(p < 1 for p in t):
            raise ValueError(f"partition parts must be positive: {t!r}")
        if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
            raise ValueError(f"partition parts must weakly decrease: {t!r}")
        return tuple.__new__(cls, t)

    @property
    def n(self) -> int:
        return sum(self)

    def num_parts(self) -> int:
        return len(self)

    def min_length(self) -> int:
        """Smallest Coxeter length in the conjugacy class: n - (number of parts).

        >>> Partition((3, 1)).min_length()
        2
        """
        return sum(self) - len(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically descending.

    >>> partitions_of(4)[0], partitions_of(4)[-1]
    (Partition((4,)), Partition((1, 1, 1, 1)))
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")

    def gen(remaining: int, biggest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, biggest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> tuple[Permutation, ...]:
    """S_n in lexicographic order; uncapped, the public wrappers check."""
    return tuple(Permutation._unsafe(t)
                 for t in itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _classes(n: int) -> dict[Partition, tuple[Permutation, ...]]:
    """S_n split by cycle type, each class in lexicographic order."""
    table: dict[Partition, list[Permutation]] = {
        lam: [] for lam in partitions_of(n)}
    for w in _all_permutations(n):
        table[w.cycle_type()].append(w)
    return {lam: tuple(ws) for lam, ws in table.items()}


def _lengths(n: int) -> list[int]:
    """The lengths of S_n in lexicographic order, each the sum of the digits
    of its index in the factorial base (its Lehmer code); no permutation is
    formed."""
    length = [0]
    for m in range(2, n + 1):
        length = [d + k for d in range(m) for k in length]
    return length


@lru_cache(maxsize=None)
def _minimal_classes(n: int) -> dict[Partition, tuple[Permutation, ...]]:
    """The minimal-length elements of each class, in lexicographic order;
    the lengths are read off _lengths, with no inversions counted."""
    length = dict(zip(_all_permutations(n), _lengths(n)))
    return {lam: tuple(w for w in ws if length[w] == lam.min_length())
            for lam, ws in _classes(n).items()}
