"""Constructors for the distinguished elements of the Hecke algebra.

Everything here is a pure function of (degree, index).  ``murphy``,
``murphy_normalized``, ``braid_murphy``, ``elem_sym``,
``elem_sym_normalized``, ``x_elem``, ``y_elem`` and ``full_twist_product``
are memoized per degree for the life of the process, so repeated identity
checks and references do not recompute the towers; ``xbar``, ``ybar``,
``dual_murphy``, ``t_longest`` and ``poincare`` build a new result on each
call.  An index that is not an int, a bool included, raises TermTypeError.
All elements are in the standard T-basis; callers who want the rescaled
basis apply ``to_normalized`` at the boundary.

The families:

* ``murphy(n, i)``: the Jucys-Murphy element, a sum of transpositions
  ``(k i)`` for k < i, weighted by descending powers of q^-1.
* ``dual_murphy``: the image of the normalized Murphy element under the
  diagram flip, optionally embedded in a larger algebra.
* ``braid_murphy(n, i)``: the positive braid conjugate
  Tt_{s_{i-1}} ... Tt_{s_1} Tt_{s_1} ... Tt_{s_{i-1}}.
* ``elem_sym(n, i)``: the i-th elementary symmetric function in the Murphy
  elements, built by the one-variable-at-a-time recursion.
* ``x_elem/y_elem``: the two one-dimensional idempotent directions (up to
  scale), plus their truncations ``xbar/ybar`` and the longest basis element.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import HeckeElement, as_context
from .laurent import LaurentPoly, ONE, _check_ints, q_power, v_power
from .permutations import (Permutation, _all_permutations, _lengths,
                           _longest_length)


def _check_index(i: int, lo: int, hi: int, what: str) -> None:
    _check_ints(what, i)
    if not lo <= i <= hi:
        raise IndexError(f"{what} {i} not in [{lo}, {hi}]")


# -- Murphy elements -------------------------------------------------------

@lru_cache(maxsize=None)
def _murphy(n: int, i: int) -> HeckeElement:
    terms = {}
    for k in range(1, i):
        w = Permutation.transposition(n, k, i)
        terms[w] = q_power(-(i - 1 - k))
    return HeckeElement._raw(n, terms)


def murphy(ctx, i: int) -> HeckeElement:
    """The i-th Murphy element of H_n: sum of q^-(i-1-k) T_(k i), k < i.

    The first one is zero by convention.

    >>> from hecke.algebra import HeckeElement
    >>> murphy(3, 1).is_zero()
    True
    >>> murphy(3, 3).num_terms()
    2
    """
    c = as_context(ctx)
    _check_index(i, 1, c.n, "Murphy index")
    return _murphy(c.n, i)


@lru_cache(maxsize=None)
def _murphy_tilde(n: int, i: int) -> HeckeElement:
    return _murphy(n, i).scale(v_power(-1))


def murphy_normalized(ctx, i: int) -> HeckeElement:
    """Sum of Tt_(k i) over k < i; equals v^-1 times ``murphy(ctx, i)``."""
    c = as_context(ctx)
    _check_index(i, 1, c.n, "Murphy index")
    return _murphy_tilde(c.n, i)


def dual_murphy(ctx, m: int, i: int) -> HeckeElement:
    """The flipped Murphy element of H_m, embedded in the ambient H_n.

    Sum of Tt_(j, m-i+1) over m-i+2 <= j <= m.  For m equal to the ambient
    degree this is the diagram flip of ``murphy_normalized(ctx, i)``; smaller
    m gives the element of the subalgebra generated by the first m-1 simple
    reflections.  The first one (i = 1) is zero.
    """
    c = as_context(ctx)
    _check_ints("dual Murphy index", m, i)
    if not 1 <= i <= m <= c.n:
        raise IndexError(f"dual Murphy indices (m={m}, i={i}) need 1 <= i <= m <= {c.n}")
    ts = (Permutation.transposition(c.n, m - i + 1, j)
          for j in range(m - i + 2, m + 1))
    return HeckeElement._raw(c.n, {t: v_power(-t.length()) for t in ts})


@lru_cache(maxsize=None)
def _braid_murphy(n: int, i: int) -> HeckeElement:
    if i == 1:
        return HeckeElement.one(n)
    t = HeckeElement.basis_normalized(n, Permutation.simple(n, i - 1))
    return t * _braid_murphy(n, i - 1) * t


def braid_murphy(ctx, i: int) -> HeckeElement:
    """The braid form of the Murphy element: conjugating the identity by
    the positive lift of s_{i-1} ... s_1.

    Satisfies braid_murphy(n, i) = xi * murphy_normalized(n, i) + 1.
    """
    c = as_context(ctx)
    _check_index(i, 1, c.n, "braid Murphy index")
    return _braid_murphy(c.n, i)


# -- elementary symmetric functions in the Murphy elements ------------------

@lru_cache(maxsize=None)
def _esym_tilde(n: int, i: int) -> HeckeElement:
    # Convention: the 0-th is the identity and everything of index >= n
    # vanishes, which makes the recursion below total.
    if i == 0:
        return HeckeElement.one(n)
    if i >= n:
        return HeckeElement.zero(n)
    prev_low = _esym_tilde(n - 1, i - 1).embed(n)
    prev_same = _esym_tilde(n - 1, i).embed(n)
    return _murphy_tilde(n, n) * prev_low + prev_same


@lru_cache(maxsize=None)
def _esym(n: int, i: int) -> HeckeElement:
    return _esym_tilde(n, i).scale(v_power(i))


def elem_sym_normalized(ctx, i: int) -> HeckeElement:
    """The i-th elementary symmetric function of the normalized Murphy
    elements of H_n, 0 <= i <= n-1.

    Computed by adding one Murphy element at a time, so building the top one
    costs n-1 products of elements already in hand.
    """
    c = as_context(ctx)
    _check_index(i, 0, c.n - 1, "elementary symmetric index")
    return _esym_tilde(c.n, i)


def elem_sym(ctx, i: int) -> HeckeElement:
    """The i-th elementary symmetric function of the Murphy elements.

    Equals v^i times the normalized variant, since each Murphy factor
    carries one power of v.
    """
    c = as_context(ctx)
    _check_index(i, 0, c.n - 1, "elementary symmetric index")
    return _esym(c.n, i)


# -- the sign and trivial directions ----------------------------------------

@lru_cache(maxsize=None)
def _x_elem(n: int) -> HeckeElement:
    return HeckeElement._raw(n, {w: ONE for w in _all_permutations(n)})


def x_elem(ctx) -> HeckeElement:
    """Sum of T_w over all of S_n."""
    c = as_context(ctx)
    c.check_enum()
    return _x_elem(c.n)


@lru_cache(maxsize=None)
def _y_elem(n: int) -> HeckeElement:
    ell = _longest_length(n)
    # (-q)^(l(w_0) - l) as a Laurent polynomial in v, one object per length
    # l, shared by every w of that length
    by_length = [LaurentPoly({2 * d: (-1) ** d}) for d in range(ell, -1, -1)]
    return HeckeElement._raw(n, dict(zip(
        _all_permutations(n), map(by_length.__getitem__, _lengths(n)))))


def y_elem(ctx) -> HeckeElement:
    """Sum of (-q)^(l(w_n) - l(w)) T_w over all of S_n."""
    c = as_context(ctx)
    c.check_enum()
    return _y_elem(c.n)


def t_longest(ctx) -> HeckeElement:
    """The basis element at the longest permutation."""
    c = as_context(ctx)
    return HeckeElement.basis(c.n, Permutation.longest(c.n))


def xbar(ctx) -> HeckeElement:
    """x with its top term removed."""
    c = as_context(ctx)
    return x_elem(c) - t_longest(c)


def ybar(ctx) -> HeckeElement:
    """y with its top term removed."""
    c = as_context(ctx)
    return y_elem(c) - t_longest(c)


def poincare(ctx) -> LaurentPoly:
    """Sum of q^l(w) over S_n, via the product formula (1)(1+q)(1+q+q^2)...

    >>> print(poincare(2))
    q + 1
    """
    c = as_context(ctx)
    out = ONE
    for i in range(2, c.n + 1):
        out = out * LaurentPoly({2 * k: 1 for k in range(i)})
    return out


@lru_cache(maxsize=None)
def _full_twist_product(n: int) -> HeckeElement:
    out = HeckeElement.one(n)
    for i in range(1, n + 1):
        out = out * _braid_murphy(n, i)
    return out


def full_twist_product(ctx) -> HeckeElement:
    """The product of all braid Murphy elements, smallest index first.

    Equals the square of the normalized longest basis element.
    """
    c = as_context(ctx)
    return _full_twist_product(c.n)


# -- name table for the CLI and the @ref syntax -----------------------------

# kind -> (takes an index, builder); each builder calls its constructor by
# its module-level name, so a wrapper put in place of that name is called
NAMED_KINDS = {
    "L": (True, lambda c, i: murphy(c, i)),
    "Lt": (True, lambda c, i: murphy_normalized(c, i)),
    "calL": (True, lambda c, i: braid_murphy(c, i)),
    "Mt": (True, lambda c, i: dual_murphy(c, c.n, i)),
    "e": (True, lambda c, i: elem_sym(c, i)),
    "et": (True, lambda c, i: elem_sym_normalized(c, i)),
    "x": (False, lambda c, i: x_elem(c)),
    "y": (False, lambda c, i: y_elem(c)),
    "xbar": (False, lambda c, i: xbar(c)),
    "ybar": (False, lambda c, i: ybar(c)),
    "Twn": (False, lambda c, i: t_longest(c)),
    "fulltwist": (False, lambda c, i: full_twist_product(c)),
}


def named_element(kind: str, ctx, i: int | None = None) -> HeckeElement:
    """Resolve a named-element reference like ('L', 4, 2) to the element."""
    c = as_context(ctx)
    if kind not in NAMED_KINDS:
        raise ValueError(f"unknown named element kind {kind!r}")
    indexed, build = NAMED_KINDS[kind]
    if indexed and i is None:
        raise ValueError(f"named element {kind!r} needs an index")
    if not indexed and i is not None:
        raise ValueError(f"named element {kind!r} takes no index")
    return build(c, i)
