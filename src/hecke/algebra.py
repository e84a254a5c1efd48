"""The Iwahori-Hecke algebra H_n of the symmetric group, exactly.

H_n is the free Z[v, v^-1]-module with basis {T_w : w in S_n} (q = v^2),
multiplication determined by

    T_u T_w = T_{uw}                  if length(uw) = length(u) + length(w),
    T_s T_s = q T_1 + (q - 1) T_s     for a simple transposition s.

Setting T~_w = v^(-length(w)) T_w gives the normalised basis, in which the
quadratic relation reads T~_s^2 = T~_1 + xi T~_s with xi = v - v^-1.

Elements are stored as {Permutation: LaurentPoly} over the standard basis,
always.  The one multiplication primitive is right multiplication by a
single generator T_{s_i}:

    T_w T_{s_i} = T_{w s_i}                      if w(i) < w(i+1),
    T_w T_{s_i} = q T_{w s_i} + (q - 1) T_w      otherwise.

The left side goes through the flip iota(T_w) = T_(w^-1), an
anti-automorphism of H_n: iota(a b) = iota(b) iota(a).  A general product
a * b walks the trie of the canonical reduced words of the keys depth
first, one generator step per edge: the words are prefix-closed, so
a T_w = (a T_{w s_d}) T_{s_d} reuses a partial product, and each edge of
the trie is stepped once.
The walk follows the words of the factor with fewer terms: those of
supp(b) by right steps on a, or, for a, a b = iota(iota(b) iota(a)), those
of u^-1 for u in supp(a) by right steps on iota(b).  h is central exactly
when iota(h) = h and iota(h T_s) = h T_s for every generator s
(is_central gives the reason).  Everything else (commutators, the q = 1
group-algebra specialisation) is built on top of that.

Products and centrality tests run on a packed, indexed form inside this
module.  S_n is numbered by lexicographic position, with one table per
generator giving the index of w s_i and whether the step drops length, and
one giving the index of w^-1; the tables of S_n are assembled from those of
S_(n-1), block by block, without forming a permutation (_step_tables).
Each coefficient becomes one Python int, its value at v = 2^B after
dividing by v^lo (Kronecker substitution), so a step multiplies by q with a
shift and by q - 1 with a shift and a subtraction.  When the exponents of
each factor share one parity, as they do for x, y, their truncations,
T_{w_0} and their words, which lie in Z[q, q^-1], every exponent of every
partial sum is lo plus an even number.  The packing then takes one digit
per power of q: the int is the value at q = 2^B, half as long, and q c is
c << B.  Otherwise it takes one digit per power of v, and q c is c << 2B.
B comes from one bound (_packing): k steps multiply |.|_1 by at most 3^k,
with k = l(w_0) for a product and 1 for a centrality test.  When B times
the exponent window would pass _PACK_BITS, or the work cannot fill the
tables of S_n, the same walk runs on LaurentPoly coefficients instead;
that path handles any exponent span and never enumerates S_n.  One rule of
cost (_fills) says which work fills the tables: any up to degree 6, where
they cost at most 0.2 MB and 2 ms; from degree 7 on, any once they exist,
and otherwise work with a factor on half of S_n, or at degree 7 a product
that can reach half of S_n.  Both paths walk the words of the factor with
fewer terms, unless a factor takes the coset sums below.

One walk tests many elements for centrality (_central, run on a whole
minimal basis): each takes a lane of the same ints, its digits past those
of the others, and one loop packs the lanes (_packed_terms).  is_central
is the one-lane case, and a product packs its stepped factor as one lane.

A coefficient is never changed after it is built, so terms share them:
every coefficient of x is ONE, y has one per length, and a packed product
gives its equal coefficients one shared LaurentPoly (xbar(8)^2 has 40,320
terms and 569 distinct coefficients).  A product on the LaurentPoly path
(_dict_mul) does not: it gives each term its own coefficient.  Each
conversion runs once per distinct coefficient object, not per term, through
one memo (_per_object): packing a lane and the keyed factor of a product,
HeckeElement.scale and negation, whose results share as their argument
does, and the parser's c*@ref.  No other module packs:
center.express_in_gamma reads its coordinates once is_central has passed.
_size keeps its own pass, since it also sums |c|_1 over every term, a
shared object once per term; a product's ints are unpacked once per
distinct value.  The few-term path below packs a coefficient per term, and
_size reads one per term for at most _FEW_TERMS terms: so few terms rarely
share one.

The packed factor that the trie walk or the coset sums step on (the one
whose words are not walked, or the element tested for centrality) is held
in one of two ways, chosen by its size.  With terms on at least half of
S_n it is a list indexed like S_n, 0 off the support, and a step is one
pass over the step table: each entry of the result is read from at most
two entries of the list.  The product is then summed into a list of the
same shape.  From S_4 on, the
partial products of keyed terms whose packed coefficient repeats (the same
int and shift, as the one coefficient of ybar per length does) are first
summed unscaled and scaled once per coefficient, with a sum kept for at most
l(w_0) + 1 of the most frequent ones.  With fewer terms it is a dict by
index, and a step costs a dict get and store per term.  Every path returns
its terms in index order, which is Permutation order.

One rule for zeros: a step (_packed_step, _rmul_gen) drops an entry that
cancels to 0 at once, since _commutes compares the dicts steps give; a
packed sum of partial products (_few_terms_sum, _walked_sum) keeps it
until the sum is unpacked, and the unpacking drops it.

When the factor whose words the walk would follow is c X_a plus a few
corrections, with X_a the sum of a^l(w) T_w over S_n and c = +-v^f,
a = +-v^e (x, y, their truncations and their rescalings), its words are
not walked one by one (_geometric).  When that factor is dense and not of
this form but the other one is, the sides swap, and the other factor is
taken so: a rule of cost, coset sums when either factor qualifies, else
the walk over the factor with fewer terms.  X_a is D_2(a) D_3(a) ... D_n(a),
where D_k(a) sums a^j T_(k-1) T_(k-2) ... T_(k-j) over j < k: the
distinguished right coset representatives of S_(k-1) in S_k, whose lengths
add to those of S_(k-1) (Geck and Pfeiffer 2000, 2.1).  So h X_a is
l(w_0) dense steps and as many shifted adds (_coset_sums), and X_a h goes
through the flip, since X_a is iota-fixed.  The corrections are walked as
keys into the same sum, which is unpacked once.  The rule takes this path
when l(w_0) (1 + corrections) is below the number of keys the walk would
step to, those of the factor with fewer terms, with at most n corrections.
The digit width stays the walk's: only the final sum is unpacked, and it
is the same product.

A product whose factors both have at most _FEW_TERMS terms, and which that
rule does not take as coset sums, skips the setup built for dense factors
(_few_terms_sum): it packs each coefficient as it reads it, holds the
terms in a dict by index at every degree, steps each key's word from the
factor on its own, and groups no repeated key.  The few words of a few
keys share few edges, so laying out their trie (_prefix_products) costs
more than the steps it saves, and a few terms rarely share a coefficient,
so the memos save nothing.  The choice reads the sizes of the factors
alone; every product in H_3 but the coset sums takes this path.  Its
terms, their order and their shared coefficients are those of the trie
walk.

>>> ts = HeckeElement.generator(2, 1)
>>> print(ts * ts)
q*T[] + (q - 1)*T[1]
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from functools import lru_cache, partial
from math import factorial

from .errors import DegreeMismatchError, ResourceCapError, TermTypeError
from .laurent import (ONE, Q, Q_MINUS_1, ZERO, LaurentPoly, _check_ints,
                      _scalar, v_power)
from .permutations import (Partition, Permutation, _all_permutations,
                           _classes, _lengths, _minimal_classes)
from .records import Record, _set


class Caps(Record):
    """Size limits for the expensive operations.

    enum_max bounds anything that walks all of S_n; linalg_max bounds the
    exact linear algebra over the centre: centre_basis and eigen searches,
    which walk S_n too and so fall under both.
    Each is compared in one place, AlgebraContext.check_enum / check_linalg.
    A field that is not an int, a bool included, raises TermTypeError.
    """

    __slots__ = ("enum_max", "linalg_max")

    def __init__(self, enum_max: int = 7, linalg_max: int = 5):
        for field, cap in (("enum_max", enum_max), ("linalg_max", linalg_max)):
            _check_ints(f"cap {field}", cap)
            _set(self, field, cap)


DEFAULT_CAPS = Caps()


def _check_degree(n) -> None:
    """A degree is an int, not a bool, and at least 1."""
    _check_ints("degree", n)
    if n < 1:
        raise DegreeMismatchError(f"degree must be at least 1, got {n}")


class AlgebraContext(Record):
    """A degree n together with the resource caps in force."""

    __slots__ = ("n", "caps")

    def __init__(self, n: int, caps: Caps = DEFAULT_CAPS):
        _check_degree(n)
        _set(self, "n", n)
        _set(self, "caps", caps)

    def check_enum(self) -> None:
        if self.n > self.caps.enum_max:
            raise ResourceCapError(
                f"degree {self.n} exceeds the enumeration cap {self.caps.enum_max}")

    def check_linalg(self) -> None:
        if self.n > self.caps.linalg_max:
            raise ResourceCapError(
                f"degree {self.n} exceeds the linear-algebra cap {self.caps.linalg_max}")


def as_context(ctx) -> AlgebraContext:
    """Accept either an AlgebraContext or a bare degree."""
    return ctx if isinstance(ctx, AlgebraContext) else AlgebraContext(ctx)


def all_permutations(ctx) -> tuple[Permutation, ...]:
    """Every element of S_n, in lexicographic one-line order (identity first).

    ctx is a degree or an AlgebraContext; the enumeration cap applies.
    """
    c = as_context(ctx)
    c.check_enum()
    return _all_permutations(c.n)


def _class_degree(ctx, shape: Partition) -> int:
    c = as_context(ctx)
    if shape.n != c.n:
        raise DegreeMismatchError(f"partition {shape} is not a partition of {c.n}")
    c.check_enum()
    return c.n


def conjugacy_class(ctx, shape: Partition) -> tuple[Permutation, ...]:
    """All permutations in S_n with the given cycle type, lexicographically."""
    return _classes(_class_degree(ctx, shape))[shape]


def minimal_class_elements(ctx, shape: Partition) -> tuple[Permutation, ...]:
    """The minimal-length elements of a conjugacy class.

    >>> [w.reduced_word() for w in minimal_class_elements(3, Partition((3,)))]
    [(1, 2), (2, 1)]
    """
    return _minimal_classes(_class_degree(ctx, shape))[shape]


def _acc(out: dict, key, val: LaurentPoly) -> None:
    cur = out.get(key)
    if cur is None:
        if val:
            out[key] = val
    else:
        s = cur + val
        if s:
            out[key] = s
        else:
            del out[key]


def _rmul_gen(terms: dict[Permutation, LaurentPoly], i: int) -> dict:
    """Right-multiply a term dict by T_{s_i}.

    On a descent, a coefficient that is ONE gives the shared laurent.Q and
    laurent.Q_MINUS_1 themselves, with no multiply.
    """
    out: dict[Permutation, LaurentPoly] = {}
    j = i - 1
    for w, c in terms.items():
        ws = w.right_simple(i)
        if w[j] < w[j + 1]:
            _acc(out, ws, c)
        elif c is ONE:
            _acc(out, ws, Q)
            _acc(out, w, Q_MINUS_1)
        else:
            _acc(out, ws, c * Q)
            _acc(out, w, c * Q_MINUS_1)
    return out


def _flip(terms: dict[Permutation, LaurentPoly]) -> dict:
    """iota(T_w) = T_(w^-1) applied to a term dict."""
    return {w.inverse(): c for w, c in terms.items()}


# Widest packed scalar, in bits (digit width times exponent window), that
# products and centrality tests build; wider inputs take the LaurentPoly
# path.  The whole verify registry at n_max = 6 peaks at 3,835 bits (7,611
# when every product was packed in v).  Near 2^16, sparse coefficients (two
# terms spanning the whole window) multiplied up to 2x slower packed than as
# LaurentPoly; at 2^14 they are faster packed.
_PACK_BITS = 1 << 14

# Longest word HeckeElement.from_word multiplies out, one generator at a
# time, and highest power HeckeElement.__pow__ takes (T_s ** k is the word
# s^k): the cost of an unreduced word grows about with its square.  Twice
# the longest reduced word at the default enumeration cap (21 letters at
# degree 7) fits.  At degree 7 the slowest 48-letter words measured (the
# longest word repeated, 1..6 repeated) take about 0.45 s, 64-letter ones
# 1.7-2.1 s (Python 3.11, 2-core Xeon).
MAX_WORD_LENGTH = 48

# Most terms of either factor of a product that takes the few-term path
# (_few_terms_sum), which walks each key's word on its own and packs each
# coefficient as it reads it.  That holds every product in H_3 but the
# coset sums, so the grouped dense sums start at degree 4, where they
# save.  Products of 1- to 4-term factors at n = 4 took 30% less time so,
# two 6-term factors 6% less at n = 4 and the same at n = 5 and 6, two
# 8-term factors the same, and two 10-term factors 3-8% more at n = 4..6
# (Python 3.11, 2-core Xeon).
_FEW_TERMS = 6

# Largest degree whose S_n is numbered for any product or centrality test:
# the tables of S_6 cost at most 0.2 MB and 2 ms.  Those of S_7 take about
# 11 ms and 1.1 MB and those of S_8 92 ms and 9 MB, so from degree 7 on
# they are built only for work that can fill them (_fills).
_ALWAYS_INDEXED = 6


# S_n numbered by lexicographic position, which is Permutation order.
# right[i][k] is the index of perms[k] * s_i, complemented (~index) when the
# step drops length; inv[k] is the index of perms[k]^-1; length[k] is the
# length of perms[k], the sum of the digits of k in the factorial base
# (its Lehmer code).
_Indexed = namedtuple("_Indexed", ("perms", "index", "right", "inv", "length"))


# degree -> its _Indexed, for each S_n numbered so far
_INDEXED: dict[int, _Indexed] = {}


def _indexed(n: int) -> _Indexed:
    ix = _INDEXED.get(n)
    if ix is None:
        perms = _all_permutations(n)
        ix = _INDEXED[n] = _Indexed(perms, {w: k for k, w in enumerate(perms)},
                                    *_step_tables(n), _lengths(n))
    return ix


@lru_cache(maxsize=None)
def _step_tables(n: int) -> tuple[list, list]:
    """The right step tables and the inverse table of _Indexed, built from
    those of S_(n-1) without forming a permutation.

    In lexicographic order S_n is n blocks of f = (n-1)! permutations; block
    b holds those with first value b + 1, and their tails run through
    S_(n-1) in lexicographic order once relabelled.  s_i on the right for
    i >= 2 is s_(i-1) of the tail, inside the block.  s_1 on the right
    follows from the first two digits d0, d1 of k in the factorial base
    (k = d0 f + d1 g + r, g = (n-2)!): the first two values are d0 + 1 and
    the (d1 + 1)-th smallest of the rest, so swapping them is an ascent
    exactly when d0 <= d1.

    The inverse of w = (b + 1, tail t) is t^-1, its values raised by one,
    with 1 put in at position b + 1.  In the factorial base that is the
    index of t^-1 with its first b digits raised by one (1 is still to
    come) and a 0 digit after them; heads holds those b digits, weighted.
    """
    right: list = [None]
    if n < 2:
        return right, [0]
    f = factorial(n - 1)
    g = f // (n - 1)
    first = array("i")
    for d0 in range(n):
        for d1 in range(n - 1):
            k = d0 * f + d1 * g
            if d0 <= d1:
                t = k + (d1 + 1 - d0) * f + (d0 - d1) * g
                first.extend(range(t, t + g))
            else:
                t = ~(k + (d1 - d0) * f + (d0 - 1 - d1) * g)
                first.extend(range(t, t - g, -1))
    right.append(first)
    below_right, below_inv = _step_tables(n - 1)
    # s_i for i >= 2: s_(i-1) of S_(n-1), moved into each block
    right += [array("i", [j + off if j >= 0 else j - off
                          for off in range(0, n * f, f) for j in tab])
              for tab in below_right[1:]]
    inv = list(below_inv)
    heads = [0]
    for b in range(1, n):
        weight = factorial(n - b)
        heads = [h + d * weight for h in heads for d in range(1, n - b + 1)]
        low = factorial(n - 1 - b)
        spread = [h + r for h in heads for r in range(low)]
        inv.extend([spread[k] for k in below_inv])
    return right, inv


def _fills(n: int, factors: list) -> bool:
    """The rule of cost: may work on the nonempty term dicts factors of H_n,
    the two factors of a product or the one element tested for centrality,
    number S_n?

    Always up to _ALWAYS_INDEXED, and whenever the tables of S_n exist.
    Otherwise when a factor has at least half of S_n as terms, and up to
    the default enumeration cap also when a product can reach half of S_n.
    A product steps the factor with more terms (the first on a tie) along
    the words of the other, and T_u T_w has at most 2^min(l(u), l(w))
    terms: a step at most doubles a term dict, and T_u T_w is l(w) right
    steps of T_u or l(u) left steps of T_w.  So every partial product has
    at most |walked| 2^L terms, L the smaller of the longest words of the
    two factors.  That bound is loose (T_u T_v = T_w0 has one term), so
    above the cap, where S_8 takes 92 ms and 9 MB and S_12 gigabytes, it
    numbers nothing: there only a factor that already holds as many
    entries as the tables does.
    """
    if n <= _ALWAYS_INDEXED or n in _INDEXED:
        return True
    walked = max(factors, key=len)
    if 2 * len(walked) >= factorial(n):
        return True
    if len(factors) == 1 or n > DEFAULT_CAPS.enum_max:
        return False
    depth = min(max(map(Permutation.length, terms)) for terms in factors)
    return 2 * len(walked) << depth >= factorial(n)


def _per_object(f, coeffs) -> dict:
    """{id(c): f(c)} over the distinct objects c of coeffs, so f runs once
    per object however many terms share it."""
    done = {}
    for c in coeffs:
        if id(c) not in done:
            done[id(c)] = f(c)
    return done


def _size(coeffs) -> tuple[int, int, int, bool]:
    """(lo, hi, total, mixed) for nonzero LaurentPolys coeffs: the least
    and greatest exponent, the sum of the |c|_1, and whether two exponents
    differ in parity.  Past _FEW_TERMS coefficients each distinct object is
    read once."""
    exps: set[int] = set()
    total = 0
    if len(coeffs) <= _FEW_TERMS:
        for c in coeffs:
            terms = c._terms
            total += sum(map(abs, terms.values()))
            exps.update(terms)
    else:
        norms: dict[int, int] = {}    # id -> |c|_1
        for c in coeffs:
            norm = norms.get(id(c))
            if norm is None:
                terms = c._terms
                norm = norms[id(c)] = sum(map(abs, terms.values()))
                exps.update(terms)
            total += norm
    return min(exps), max(exps), total, len({e & 1 for e in exps}) > 1


def _packing(n: int, factors: list,
             steps: int) -> tuple[int, list, int, int] | None:
    """(bits, lows, window, stride) for packed work on the nonempty term
    dicts factors of H_n that takes steps generator steps, or None.

    A step maps c to q c and (q - 1) c, so |a T_s|_1 <= 3 |a|_1 and every
    coefficient of every partial sum is at most 3^steps times the product
    of the |f|_1; the exponents stay within sum(lo_f) .. sum(hi_f) +
    2 steps, and window is the width of that range.  lows holds each
    lo_f.  stride is 2, one digit per power of q, when the exponents of
    each factor share one parity, and 1, one digit per power of v,
    otherwise; a packed coefficient then takes window // stride + 1
    digits.  None when the work cannot fill the tables of S_n (_fills) or
    the digits would pass _PACK_BITS.  A product a * b takes l(w_0) steps,
    a centrality test one.
    """
    if not _fills(n, factors):
        return None
    bound, window, lows, stride = 3 ** steps, 2 * steps, [], 2
    for terms in factors:
        lo, hi, total, mixed = _size(terms.values())
        lows.append(lo)
        window += hi - lo
        bound *= total
        if mixed:
            stride = 1
    bits = bound.bit_length() + 1
    if bits * (window // stride + 1) > _PACK_BITS:
        return None
    return bits, lows, window, stride


def _pack(c: LaurentPoly, bits: int, lo: int, stride: int) -> int:
    """c / v^lo evaluated at v^stride = 2^bits; lo is at most every exponent
    of c, and stride divides the difference."""
    x = 0
    for e, d in c._terms.items():
        x += d << (e - lo) // stride * bits
    return x


def _unpack(x: int, bits: int, lo: int, stride: int) -> LaurentPoly:
    """Inverse of _pack, reading balanced digits in [-2^(bits-1), 2^(bits-1))."""
    terms = {}
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    e = lo
    while x:
        d = x & mask
        if not d:
            # skip a run of zero digits in one shift: a sparse coefficient
            # then costs its nonzero digits, not its window
            run = ((x & -x).bit_length() - 1) // bits
            x >>= bits * run
            e += run * stride
            continue
        x >>= bits
        if d >= half:
            d -= mask + 1
            x += 1
        if d:
            terms[e] = d
        e += stride
    return LaurentPoly._raw(terms)


def _packed_step(steps: list, shift: int, terms: dict[int, int], i: int) -> dict:
    """A right step of packed, indexed terms by T_{s_i}; steps is
    _Indexed.right and c << shift is q c: twice the digit width when packed
    in v, the digit width when packed in q.

    When w s is shorter than w, T_(w s) is reached from T_w alone, so its
    entry is q c_w as it is.  T_w gets (q - 1) c_w + c_(w s), which may
    cancel: the only zero a step drops."""
    out: dict[int, int] = {}
    get = out.get
    tab = steps[i]
    for k, c in terms.items():
        j = tab[k]
        if j < 0:
            qc = out[~j] = c << shift
            j = k
            c = qc - c
        s = get(j, 0) + c
        if s:
            out[j] = s
        else:
            del out[j]
    return out


def _dense_step(steps: list, shift: int, acc: list, i: int) -> list:
    """_packed_step on terms held densely, acc[k] the packed coefficient of
    _Indexed.perms[k] (0 off the support).

    The step table is an involution, so entry k of the result reads at most
    two entries of acc.  With j the index of perms[k] s: when perms[k] s is
    longer, only T_(perms[k] s) T_s reaches T_perms[k], and entry k is
    q acc[j]; otherwise it is acc[j] + (q - 1) acc[k].
    """
    return [acc[j] << shift if j >= 0 else acc[~j] + (a << shift) - a
            for a, j in zip(acc, steps[i])]


def _packed_terms(ix: _Indexed, lanes: list, bits: int, stride: int):
    """(packed terms, the right step that takes them) for lanes, (term
    dict, lo) pairs: entry k sums _pack(coefficient of ix.perms[k], bits,
    lo, stride) over the lanes (_central; a product's stepped factor is the
    one lane).  The step is bound to ix.right and to the shift of q: 2 bits
    packed in v, bits packed in q.  Terms on at least half of S_n (the keys
    of all lanes) are held in a list indexed like ix.perms and take
    _dense_step: one pass over n! entries then beats a dict get and store
    per term.  Fewer are held in a dict by index and take _packed_step.
    Each distinct coefficient object of a lane is packed once."""
    index = ix.index
    held = len(set().union(*(t for t, _ in lanes)) if lanes[1:] else lanes[0][0])
    dense = 2 * held >= len(ix.perms)
    packed = [0] * len(ix.perms) if dense else {}
    get = packed.__getitem__ if dense else packed.get
    for terms, lo in lanes:
        packs = _per_object(lambda c: _pack(c, bits, lo, stride),
                            terms.values())
        for w, c in terms.items():
            k, x = index[w], packs[id(c)]
            # a new entry takes x as it is: 0 + x would copy a long int
            packed[k] = cur + x if (cur := get(k)) else x
    return packed, partial(_dense_step if dense else _packed_step, ix.right,
                           2 // stride * bits)


def _flip_packed(inv: list, terms: dict | list) -> dict | list:
    """_flip on packed terms, held densely or by index: entry k of the
    result is entry inv[k] of terms."""
    if isinstance(terms, list):
        return [terms[j] for j in inv]
    return {inv[k]: x for k, x in terms.items()}


def _prefix_products(terms: dict | list, keyed, step):
    """Yield (terms * T_w, x) for every pair (w, x) in keyed, whose keys
    are distinct, in the order of their words.

    The canonical reduced words are prefix-closed: word(w) = word(w s_d) + (d)
    for the smallest right descent d.  So terms * T_w is one step(acc, i)
    per edge on the path to w in the trie of the keys' words, built here as
    nested dicts by letter, with x under key 0 where a word ends.  The walk
    is depth first on a stack of (node, parent's product, letter): a child
    is stepped when it is popped, and children are pushed in decreasing
    letter order, so words come out sorted, each before its extensions.  A
    product is held only by its pending children: each edge is stepped
    once, and a single long key holds no partial product.  step is
    _rmul_gen, or a step of _packed_terms; none changes its argument.
    """
    trie: dict = {}
    for w, x in keyed:
        node = trie
        for i in w.reduced_word():
            node = node.setdefault(i, {})
        node[0] = x
    stack = [(trie, terms, 0)]
    while stack:
        node, acc, i = stack.pop()
        if i:
            acc = step(acc, i)
        if 0 in node:
            yield acc, node[0]
        for j in sorted(node, reverse=True):
            if j:
                stack.append((node[j], acc, j))


def _sides(a: dict, b: dict, flipped: bool) -> tuple[dict, list]:
    """(walked, keyed) for a product a * b of nonempty term dicts whose
    walk follows the words of a when flipped is set, else those of b:
    keyed holds that factor's (key, coefficient) pairs, walked is the other
    factor.  For a, a * b = iota(iota(b) iota(a)): the keys of a are
    inverted, and the caller flips b and the product.
    """
    if flipped:
        return b, [(u.inverse(), c) for u, c in a.items()]
    return a, list(b.items())


def _dict_mul(a: dict, b: dict) -> dict[Permutation, LaurentPoly]:
    # the walk follows the words of the factor with fewer terms, b on a tie
    flipped = len(a) < len(b)
    walked, keyed = _sides(a, b, flipped)
    out: dict[Permutation, LaurentPoly] = {}
    for acc, c in _prefix_products(_flip(walked) if flipped else walked,
                                   keyed, _rmul_gen):
        if c.is_one():
            for u, d in acc.items():
                _acc(out, u, d)
        else:
            for u, d in acc.items():
                _acc(out, u, d * c)
    return dict(sorted((_flip(out) if flipped else out).items()))


def _grouped_keys(keys: list, n: int) -> list:
    """The keys of a dense product in H_n whose partial products _packed_mul
    sums before scaling: those that occur at least twice in keys, most
    frequent first (the first seen first on a tie), and no more than
    l(w_0) + 1 of them.  Empty, with no count taken, when no key repeats.

    Each key kept costs a list of n! sums held through the walk, so the cap
    bounds the memory; l(w_0) + 1, the number of lengths in S_n, holds every
    key of a coefficient that depends on the length alone, as those of ybar
    do.
    """
    if len(set(keys)) == len(keys):
        return []
    counts = Counter(keys).most_common()[:n * (n - 1) // 2 + 1]
    return [key for key, m in counts if m > 1]


def _geometric(n: int, terms: dict, keys: int):
    """(s, start, sign, e, corrections) when terms is s v^f X_a plus the
    corrections, a = sign v^e with s and sign +-1, and the coset sums,
    which start at v^start = v^(f + min(0, e l(w_0))), take fewer steps
    than a walk over keys keys; None otherwise.

    c = s v^f is read at the identity and c a at perms[1], a simple
    reflection.  A scan of S_n in index order then lists each term that
    differs from c a^l(w), or is missing, as (w, its difference).  The
    coset sums take l(w_0) steps and each correction at most l(w_0) more;
    the walk takes a step at least per key other than the identity.  The
    scan gives up at the first correction past what that allows, or past n.
    """
    if n < 3:
        return None
    top = n * (n - 1) // 2
    allowed = min(n, (keys - 2) // top - 1)
    if allowed < 0 or len(terms) < factorial(n) - allowed:
        return None
    ix = _indexed(n)
    get = terms.get
    c, ca = get(ix.perms[0]), get(ix.perms[1])
    if c is None or ca is None or len(c._terms) != 1 or len(ca._terms) != 1:
        return None
    (f, s), = c._terms.items()
    (fe, sa), = ca._terms.items()
    if s * s != 1 or sa * sa != 1:
        return None
    sign, e = s * sa, fe - f
    want = [{f + e * k: s * sign ** k} for k in range(top + 1)]
    corrections = []
    for w, k in zip(ix.perms, ix.length):
        d = get(w)
        if d is None or d._terms != want[k]:
            if len(corrections) == allowed:
                return None
            corrections.append((w, (d or ZERO) - LaurentPoly(want[k])))
    return s, f + min(0, e * top), sign, e, corrections


def _coset_sums(n: int, terms: list, step, sign: int, shift: int) -> list:
    """terms * X_a on packed terms held densely, a = sign v^e, with
    c << shift being v^e c: terms * D_2(a) * ... * D_n(a), k - 1 steps and
    shifted adds for D_k(a).  When e < 0, D_k(a) is divided by v^(e (k - 1))
    so that every shift is non-negative, and the result by v^(e l(w_0)).
    """
    for k in range(2, n + 1):
        base = min(0, (k - 1) * shift)
        total = [x << -base for x in terms] if base else terms
        for j in range(1, k):
            terms = step(terms, k - j)
            by = j * shift - base
            if sign ** j > 0:
                total = [t + (x << by) for t, x in zip(total, terms)]
            else:
                total = [t - (x << by) for t, x in zip(total, terms)]
        terms = total
    return terms


def _packed_mul(n: int, a: dict, b: dict, bits: int, lows: list,
                stride: int) -> dict[Permutation, LaurentPoly]:
    ix = _indexed(n)
    # the rule of cost: coset sums when a factor qualifies, else the walk
    # over the words of the factor with fewer terms, b on a tie.  The other
    # factor is asked only when that one is dense and not geometric, so a
    # geometric factor, of at least n! - n terms, is held densely on either
    # side: from n = 3 that is at least half of S_n
    flipped = len(a) < len(b)
    keys = len(a if flipped else b)
    geometric = _geometric(n, a if flipped else b, keys)
    if geometric is None and 2 * keys >= len(ix.perms):
        geometric = _geometric(n, b if flipped else a, keys)
        flipped ^= geometric is not None
    lo_walked, lo_keyed = lows[::-1] if flipped else lows
    if geometric is not None:
        lo_keyed = min(lo_keyed, geometric[1])   # where the coset sums start
    if geometric is None and len(b if flipped else a) <= _FEW_TERMS:
        out = _few_terms_sum(ix, b if flipped else a, a if flipped else b,
                             flipped, bits, lo_walked, lo_keyed, stride)
    else:
        walked, keyed = _sides(a, b, flipped)
        out = _walked_sum(n, ix, walked, keyed, flipped, geometric, bits,
                          lo_walked, lo_keyed, stride)
    out = _flip_packed(ix.inv, out) if flipped else out
    found = enumerate(out) if isinstance(out, list) else sorted(out.items())
    perms, lo = ix.perms, lo_walked + lo_keyed
    # each distinct value is unpacked once, and its terms share the result
    # (a nonzero value unpacks to a nonzero, so truthy, LaurentPoly)
    coeffs: dict[int, LaurentPoly] = {}
    return {perms[k]: coeffs.get(x) or coeffs.setdefault(
                x, _unpack(x, bits, lo, stride))
            for k, x in found if x}


def _few_terms_sum(ix: _Indexed, walked: dict, keyed: dict, flipped: bool,
                   bits: int, lo_walked: int, lo_keyed: int,
                   stride: int) -> dict:
    """The packed sum of _walked_sum for factors of at most _FEW_TERMS
    terms that take no coset sums, with none of the setup built for dense
    factors: each coefficient is packed as it is read, with no memo of
    objects, the terms are held in a dict by index at every degree, and
    each key's word is stepped from walked on its own, with no trie of
    words laid out, since a few words share few edges.  A key u of a
    flipped product steps along the reverse of the word of u, a reduced
    word of u^-1."""
    index, shift, right = ix.index, 2 // stride * bits, ix.right
    packed = {index[w]: _pack(c, bits, lo_walked, stride)
              for w, c in walked.items()}
    packed = _flip_packed(ix.inv, packed) if flipped else packed
    out: dict[int, int] = {}
    get = out.get
    for w, c in keyed.items():
        word = w.reduced_word()
        acc = packed
        for i in reversed(word) if flipped else word:
            acc = _packed_step(right, shift, acc, i)
        e = min(c._terms)
        x, by = _pack(c, bits, e, stride), (e - lo_keyed) // stride * bits
        for k, d in acc.items():
            out[k] = get(k, 0) + (d * x << by)
    return out


def _walked_sum(n: int, ix: _Indexed, walked: dict, keyed: list,
                flipped: bool, geometric, bits: int, lo_walked: int,
                lo_keyed: int, stride: int) -> dict | list:
    """The packed product of walked by the keyed terms, in the flipped
    frame when flipped is set: the coset sums of geometric, if any, then
    the trie walk over the words of the keys.  lo_keyed is already lowered
    to where the coset sums start."""
    packed, step = _packed_terms(ix, [(walked, lo_walked)], bits, stride)
    packed = _flip_packed(ix.inv, packed) if flipped else packed
    if geometric is not None:
        unit, start, sign, e, keyed = geometric
        if flipped:
            keyed = [(w.inverse(), d) for w, d in keyed]
        start = (start - lo_keyed) // stride * bits
        out = packed
        if unit != 1 or start:
            out = [unit * x << start for x in packed]
        out = _coset_sums(n, out, step, sign, e // stride * bits)
    # c = v^e c' packs as P(c') << bits (e - lo) / stride: monomials
    # multiply as a small int and a shift
    def key(c):
        e = min(c._terms)
        return _pack(c, bits, e, stride), (e - lo_keyed) // stride * bits

    packs = _per_object(key, [c for _, c in keyed])
    scaled = [(w, packs[id(c)]) for w, c in keyed]
    walk = _prefix_products(packed, scaled, step)
    if isinstance(packed, list):
        # the partial products of a repeated key are summed unscaled and
        # scaled once at the end: one multiply of n! entries per key, not one
        # per keyed term.  Sums are kept for the l(w_0) + 1 most frequent
        # repeated keys at most; the others fold in term by term.  Each sum
        # starts as [], so a key's first partial product becomes its sum as
        # it is: a step never changes its argument.
        if geometric is None:
            out = [0] * len(packed)
        sums = dict.fromkeys(_grouped_keys([key for _, key in scaled], n), [])
        for acc, key in walk:
            g = sums.get(key)
            if g is None:
                c, shift = key
                out = [x + (d * c << shift) for x, d in zip(out, acc)]
            else:
                sums[key] = [x + d for x, d in zip(g, acc)] if g else acc
        for (c, shift), g in sums.items():
            out = [x + (d * c << shift) for x, d in zip(out, g)]
    else:
        out = {}
        get = out.get
        for acc, (c, shift) in walk:
            for k, d in acc.items():
                out[k] = get(k, 0) + (d * c << shift)
    return out


def _check_key(n: int, w) -> None:
    if not isinstance(w, Permutation):
        raise TermTypeError(
            f"support element {w!r} is a {type(w).__name__}, not a Permutation")
    if len(w) != n:
        raise DegreeMismatchError(f"support element of degree {len(w)} in H_{n}")


class HeckeElement:
    """An element of H_n, stored over the standard basis {T_w}.

    As for a Record, assigning or deleting a field after construction
    raises AttributeError: named elements are shared by the whole process.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[Permutation, LaurentPoly] | None = None):
        """Keys must be Permutations of degree n; coefficients LaurentPolys
        or ints (not bools).  Zero coefficients are dropped."""
        _check_degree(n)
        _set(self, "n", n)
        clean: dict[Permutation, LaurentPoly] = {}
        if terms:
            for w, c in terms.items():
                _check_key(n, w)
                c = _scalar(c, "coefficient")
                if c:
                    clean[w] = c
        _set(self, "_terms", clean)

    @classmethod
    def _raw(cls, n: int, terms: dict[Permutation, LaurentPoly]) -> "HeckeElement":
        h = object.__new__(cls)
        _set(h, "n", n)
        _set(h, "_terms", terms)
        return h

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __reduce__(self):
        # copies and pickles rebuild through the constructor
        return HeckeElement, (self.n, self._terms)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        _check_degree(n)
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        _check_degree(n)
        return cls._raw(n, {Permutation.identity(n): ONE})

    @classmethod
    def basis(cls, n: int, w: Permutation) -> "HeckeElement":
        _check_degree(n)
        _check_key(n, w)
        return cls._raw(n, {w: ONE})

    @classmethod
    def basis_normalized(cls, n: int, w: Permutation) -> "HeckeElement":
        """The normalised basis element T~_w = v^(-length(w)) T_w."""
        return cls.basis(n, w)._rescaled(-1)

    @classmethod
    def generator(cls, n: int, i: int) -> "HeckeElement":
        return cls.from_word(n, (i,))

    @classmethod
    def from_word(cls, n: int, word) -> "HeckeElement":
        """The product T_{s_{i_1}} T_{s_{i_2}} ... (any word, not necessarily
        reduced; non-reduced words multiply out through the quadratic relation).

        A word of more than MAX_WORD_LENGTH letters raises ResourceCapError,
        a letter that is not an int (a bool included) TermTypeError.
        """
        _check_degree(n)
        word = list(word)
        if len(word) > MAX_WORD_LENGTH:
            raise ResourceCapError(
                f"a word of {len(word)} letters passes the limit of "
                f"{MAX_WORD_LENGTH}")
        if not set(map(type, word)) <= {int}:   # one pass over the letters
            _check_ints("generator index", *word)
        # the ascending prefix is reduced: T_w T_s = T_ws while ws > w, so it
        # is walked as one permutation, and the terms start at its first descent
        w, terms = Permutation.identity(n), None
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for degree {n}")
            if terms is not None:
                terms = _rmul_gen(terms, i)
            elif w[i - 1] < w[i]:
                w = w.right_simple(i)
            else:
                terms = _rmul_gen({w: ONE}, i)
        return cls._raw(n, {w: ONE} if terms is None else terms)

    # -- structure -------------------------------------------------------------

    def coeff(self, w: Permutation) -> LaurentPoly:
        return self._terms.get(w, ZERO)

    def support(self) -> list[Permutation]:
        """Support, sorted by (length, one-line notation)."""
        return sorted(self._terms, key=lambda w: (w.length(), w))

    def items(self) -> list[tuple[Permutation, LaurentPoly]]:
        return [(w, self._terms[w]) for w in self.support()]

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._terms.items()))))

    # -- module operations -------------------------------------------------------

    def _check(self, other: "HeckeElement") -> None:
        if self.n != other.n:
            raise DegreeMismatchError(
                f"elements of H_{self.n} and H_{other.n} do not combine")

    def __add__(self, other) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            _acc(out, w, c)
        return HeckeElement._raw(self.n, out)

    def __sub__(self, other) -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "HeckeElement":
        return self.scale(-1)

    def scale(self, c) -> "HeckeElement":
        """c times self, c a LaurentPoly or an int (not a bool); anything
        else raises TermTypeError."""
        c = _scalar(c, "scalar")
        if not c:
            return HeckeElement.zero(self.n)
        products = _per_object(lambda d: d * c, self._terms.values())
        return HeckeElement._raw(
            self.n, {w: products[id(d)] for w, d in self._terms.items()})

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return HeckeElement.zero(self.n)
        packing = _packing(self.n, [a, b], self.n * (self.n - 1) // 2)
        if packing is None:
            return HeckeElement._raw(self.n, _dict_mul(a, b))
        bits, lows, _, stride = packing
        return HeckeElement._raw(self.n,
                                 _packed_mul(self.n, a, b, bits, lows, stride))

    # a scalar on the left scales as on the right; an element on the left
    # never gets here, since its own __mul__ takes the product
    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HeckeElement":
        """k - 1 repeated products by self, and one for k = 0; k above
        MAX_WORD_LENGTH raises ResourceCapError, since T_s ** k is the word
        s^k."""
        _check_ints("power", k)
        if k < 0:
            raise ValueError("negative powers of Hecke elements are not supported")
        if k > MAX_WORD_LENGTH:
            raise ResourceCapError(
                f"a power of {k} passes the limit of {MAX_WORD_LENGTH}")
        result = self if k else HeckeElement.one(self.n)
        for _ in range(k - 1):
            result = result * self
        return result

    # -- algebra maps -------------------------------------------------------------

    def _rescaled(self, sign: int) -> "HeckeElement":
        """The coefficient of each w times v^(sign length(w))."""
        return HeckeElement._raw(self.n, {w: c * v_power(sign * w.length())
                                          for w, c in self._terms.items()})

    def to_normalized(self) -> "HeckeElement":
        """Rescale the coefficient of each w by v^(-length(w)).

        This is the module map T_w -> T~_w; products of images of the
        generators satisfy the normalised quadratic relation.  Read as
        coordinates, it takes the T~ coordinates of an element to its T
        coordinates, and from_normalized the T coordinates to the T~ ones.
        """
        return self._rescaled(-1)

    def from_normalized(self) -> "HeckeElement":
        """Inverse of to_normalized: rescale by v^(+length(w))."""
        return self._rescaled(1)

    def apply_diagram_flip(self) -> "HeckeElement":
        """The algebra automorphism T_{s_i} -> T_{s_{n-i}} applied termwise."""
        return HeckeElement._raw(
            self.n, {w.apply_diagram_flip(): c for w, c in self._terms.items()})

    def embed(self, m: int) -> "HeckeElement":
        """The same element inside H_m under the standard inclusion."""
        _check_degree(m)
        if m < self.n:
            raise DegreeMismatchError(f"cannot embed H_{self.n} into H_{m}")
        if m == self.n:
            return self
        return HeckeElement._raw(m, {w.embed(m): c for w, c in self._terms.items()})

    # -- specialisation ---------------------------------------------------------

    def specialize_group_algebra(self) -> dict[Permutation, int]:
        """Coefficients at q = 1 (v = 1): an element of the group algebra ZS_n."""
        out = {}
        for w, c in self._terms.items():
            val = sum(c._terms.values())
            if val:
                out[w] = val
        return out

    def __str__(self) -> str:
        from .parsing import format_element
        return format_element(self)

    def __repr__(self) -> str:
        return f"<HeckeElement n={self.n} terms={self.num_terms()}>"


def group_algebra_mul(a: dict[Permutation, int],
                      b: dict[Permutation, int]) -> dict[Permutation, int]:
    """Convolution product in ZS_n.

    Deliberately independent of the Hecke multiplication: it only uses
    composition of permutations, so it can serve as an oracle for products
    specialised at q = 1.
    """
    out: dict[Permutation, int] = {}
    for u, cu in a.items():
        for w, cw in b.items():
            uw = u.compose(w)
            s = out.get(uw, 0) + cu * cw
            if s:
                out[uw] = s
            else:
                del out[uw]
    return out


def commutator(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    return a * b - b * a


def is_central(h: HeckeElement) -> bool:
    """Does h commute with every generator T_{s_i}?

    Commuting with the generators decides centrality, since they generate
    the algebra.  With the flip iota(T_w) = T_(w^-1), h is central exactly
    when iota(h) = h and iota(h T_s) = h T_s for every s: one right step per
    generator.  A central z is iota-fixed: in Young's orthogonal form over
    Q(v) each rho_lam(T_s) is symmetric, so rho_lam(iota(z)) = rho_lam(z)^T,
    which is rho_lam(z) when that is a scalar, and the rho_lam together are
    faithful.  For iota-fixed h, T_s h = iota(iota(h) T_s) = iota(h T_s).
    This is the one-lane case of _central.
    """
    return _central(h.n, [h._terms])


def _central(n: int, elements: list) -> bool:
    """Are the term dicts elements of H_n all central?  One walk tests many.

    Each element that packs (_packing, one step) is a lane: packed at its
    lo lowered by stride v per digit of the lanes before it, which shifts
    it past them, and summed with them into one int per permutation
    (_packed_terms).  A lane spans its window's digits at the walk's widest
    digit, and every value before and after a step lies in its balanced
    range, so two ints are equal exactly when each pair of lanes is.  A
    walk holds lanes of one stride up to _PACK_BITS; the next element
    starts a further walk.  One element is is_central's walk; one that
    does not pack is tested on its own, on LaurentPoly coefficients.
    """
    lanes, bits, stride, digits = [], 0, 0, 0
    for terms in (*elements, None):
        packing = _packing(n, [terms], 1) if terms else None
        if packing is None and terms is not None:
            if not _commutes(n, terms, _flip, _rmul_gen):
                return False
            continue
        # the walk so far is tested when this lane does not fit, or at the
        # end (None), whose stride 0 is no lane's
        b, (lo,), window, s = packing or (0, (0,), 0, 0)
        if lanes and (s != stride or max(bits, b) * (digits + window // s + 1)
                      > _PACK_BITS):
            ix = _indexed(n)
            packed, step = _packed_terms(ix, lanes, bits, stride)
            if not _commutes(n, packed, partial(_flip_packed, ix.inv), step):
                return False
            lanes, bits, digits = [], 0, 0
        if terms is None:
            return True
        lanes.append((terms, lo - s * digits))
        bits, stride, digits = max(bits, b), s, digits + window // s + 1


def _commutes(n: int, terms, flip, step) -> bool:
    """flip(terms) == terms and flip(terms T_s) == terms T_s for each
    generator s, the step and the flip given for the form terms take."""
    return flip(terms) == terms and all(
        flip(ht) == ht for ht in (step(terms, i) for i in range(1, n)))
