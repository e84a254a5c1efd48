"""The eigenvalues of symmetric functions of the Murphy elements, from the
contents of a partition alone.

On the Wedderburn block of a partition lam, the Murphy elements act
through the multiset {q [c(b)]_q : b a box of lam}, where c(b) = column -
row (Mathas, Iwahori-Hecke Algebras and Schur Algebras of the Symmetric
Group, 1999, chapter 3), so the j-th elementary symmetric function of the
Murphy elements acts by e_j of that multiset, and T_(w_0)^2 by
q^(N + sum of the c(b)) with N = l(w_0).  Nothing here reads the centre:
the partitions and contents are enumerated afresh, as a reference for the
block characters of hecke.center.
"""

from hecke.laurent import ONE, ZERO, LaurentPoly


def partitions(n, largest=None):
    """The partitions of n as tuples, parts weakly decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def contents(lam):
    """c(b) = column - row for each box b of lam, row by row."""
    return [col - row for row, length in enumerate(lam)
            for col in range(length)]


def q_content(c):
    """q [c]_q, where [c]_q = 1 + q + ... + q^(c-1) for c > 0, 0 for c = 0
    and -(q^-1 + ... + q^c) for c < 0."""
    if c >= 0:
        return LaurentPoly({2 * h: 1 for h in range(1, c + 1)})
    return LaurentPoly({2 * h: -1 for h in range(c + 1, 1)})


def elementary(j, values):
    """e_j of a list of scalars."""
    e = [ONE] + [ZERO] * j
    for x in values:
        for i in range(j, 0, -1):
            e[i] = e[i] + e[i - 1] * x
    return e[j]
