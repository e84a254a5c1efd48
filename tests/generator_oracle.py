"""Left multiplication by one generator, on Permutation keys: the two-sided
reference for the product kernel and for is_central.

hecke.algebra multiplies on the right only and reaches the left side
through the flip T_w -> T_(w^-1).  This module steps on the left directly,
reading the descent off the positions of i and i + 1, so the comparison
"h T_s == T_s h for every s" here does not rest on the flip at all.
"""

from hecke.algebra import _acc, _rmul_gen
from hecke.laurent import Q, Q_MINUS_1


def lmul_gen(terms, i):
    """Left-multiply a term dict by T_{s_i}:

        T_{s_i} T_w = T_{s_i w}                      if i comes before i+1 in w,
        T_{s_i} T_w = q T_{s_i w} + (q - 1) T_w      otherwise.
    """
    out = {}
    for w, c in terms.items():
        sw = w.left_simple(i)
        if w.index(i) < w.index(i + 1):
            _acc(out, sw, c)
        else:
            _acc(out, sw, c * Q)
            _acc(out, w, c * Q_MINUS_1)
    return out


def is_central_by_generators(h):
    """Does h commute with every generator, by a step on each side?"""
    return all(_rmul_gen(h._terms, i) == lmul_gen(h._terms, i)
               for i in range(1, h.n))
