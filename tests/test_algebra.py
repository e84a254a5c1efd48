"""Tests for the exact multiplication engine and the generic-basis change."""

import itertools
import random
import time
import weakref
from collections import Counter
from functools import partial, reduce
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

import hecke.algebra
from hecke import (
    DEFAULT_CAPS,
    AlgebraContext,
    Caps,
    DegreeMismatchError,
    GammaBasis,
    HeckeElement,
    HeckeError,
    LaurentPoly,
    MismatchError,
    Permutation,
    ResourceCapError,
    TermTypeError,
    all_permutations,
    catalog,
    dual_murphy,
    eigen_search,
    element_to_json,
    express_in_gamma,
    gamma_basis,
    group_algebra_mul,
    h3_constraint_check,
    is_central,
    murphy,
    parse_element,
    parse_scalar,
    q_power,
    t_longest,
    v_power,
    verify_gamma_invariants,
    x_elem,
    xbar,
    ybar,
)
from hecke.algebra import (_FEW_TERMS, _acc, _central, _dict_mul, _flip,
                           _geometric, _grouped_keys, _indexed, _pack,
                           _packed_terms, _packing, _prefix_products,
                           _rmul_gen, _unpack)
from hecke.laurent import ONE, Q, Q_MINUS_1
from hecke.linalg import sparse_rank
from hecke.permutations import _all_permutations

from fraction_oracle import left_mult_matrix
from generator_oracle import is_central_by_generators, lmul_gen

ASSOCIATIVITY_TRIPLES = 500
ORACLE_PAIRS = 200

XI = parse_scalar("xi")


def _random_element(rng, n, max_terms=3):
    perms = all_permutations(n)
    out = HeckeElement.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        coeff = LaurentPoly({rng.randint(-2, 2): rng.randint(-4, 4)})
        out = out + HeckeElement.basis(n, rng.choice(perms)).scale(coeff)
    return out


def _fold_mul(a, b):
    """a * b by folding _rmul_gen over the whole reduced word of every basis
    element of b: the reference for the shared-prefix kernel."""
    out = {}
    for w, c in b._terms.items():
        acc = a._terms
        for i in w.reduced_word():
            acc = _rmul_gen(acc, i)
        for u, d in acc.items():
            _acc(out, u, d * c)
    return HeckeElement._raw(a.n, out)


def _left_fold_mul(a, b):
    """a * b by folding lmul_gen over the reversed reduced word of every
    basis element of a, T_u b = T_(s_j1) (... (T_(s_jk) b)): the reference
    when a is the factor with few terms, which the kernel reaches through
    the flip instead."""
    out = {}
    for u, c in a._terms.items():
        acc = b._terms
        for i in reversed(u.reduced_word()):
            acc = lmul_gen(acc, i)
        for w, d in acc.items():
            _acc(out, w, c * d)
    return HeckeElement._raw(a.n, out)


def _scalars(exponents):
    """Nonzero scalars of 1 to 3 terms with coefficients up to 10^30."""
    coefficients = st.integers(-10**30, 10**30).filter(bool)
    return st.dictionaries(exponents, coefficients,
                           min_size=1, max_size=3).map(LaurentPoly)


# exponents up to +-10^6 take the LaurentPoly path once _widen is applied;
# a window of -8..8 keeps every product of degree <= 5 packed
_big_scalars = _scalars(st.integers(-10**6, 10**6))
_narrow_scalars = _scalars(st.integers(-8, 8))

# scalars in the window of _narrow_scalars whose exponents are all even
# (in Z[q, q^-1]), all odd (such as xi), or either
_parity_scalars = st.sampled_from([
    _scalars(st.integers(-4, 4).map(lambda e: 2 * e)),
    _scalars(st.integers(-4, 3).map(lambda e: 2 * e + 1)),
    _narrow_scalars,
])

# outside the range of _big_scalars, so adding it never cancels a term
_WIDE = LaurentPoly({-10**6 - 1: 1, 10**6 + 1: 1})


def _widen(h):
    """h plus a coefficient spanning 2*10^6 + 2 exponents at the identity,
    far past what the packed kernel accepts."""
    return h + HeckeElement(h.n, {Permutation.identity(h.n): _WIDE})


@st.composite
def _element_pairs(draw, n, scalars, right_scalars=None):
    """Two nonzero elements.  One factor ranges up to all of S_n; the other
    has at most 8 terms to bound the cost of an example.  Either may come
    first, so the kernel walks the words of either side.  Coefficients are
    drawn from scalars, those of the second factor from right_scalars when
    it is given."""
    perms = all_permutations(n)
    subsets = st.lists(st.sampled_from(perms), min_size=1,
                       max_size=len(perms), unique=True)
    small = draw(subsets.map(lambda ws: ws[:8]))
    large = draw(st.one_of(st.just(perms), subsets))
    supports = (large, small) if draw(st.booleans()) else (small, large)
    if right_scalars is None:
        right_scalars = scalars
    return tuple(HeckeElement(n, {w: draw(sc) for w in support})
                 for support, sc in zip(supports, (scalars, right_scalars)))


def _one_parity(h):
    return len({e & 1 for c in h._terms.values() for e in c._terms}) == 1


def _steps_taken(n, compute):
    """compute() and the set of paths of the generator steps it takes:
    "dense", "packed" or "dict".  Every step is a right step; a step on the
    packed form reads the right-step tables."""
    ix = _indexed(n)
    taken = set()

    def by_table(path, real):
        def step(steps, *args):
            assert steps is ix.right
            taken.add(path)
            return real(steps, *args)
        return step

    def by_dict(*args):
        taken.add("dict")
        return _rmul_gen(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_packed_step",
                   by_table("packed", hecke.algebra._packed_step))
        mp.setattr(hecke.algebra, "_dense_step",
                   by_table("dense", hecke.algebra._dense_step))
        mp.setattr(hecke.algebra, "_rmul_gen", by_dict)
        result = compute()
    return result, taken


def _walk_has_an_edge(a, b):
    """Whether the kernel takes a step for a * b: the factor whose words it
    walks, the one with fewer terms, has a key other than the identity."""
    keyed = a if len(a._terms) < len(b._terms) else b
    return any(w.length() for w in keyed._terms)


def _is_flip_fixed(h):
    return _flip(h._terms) == h._terms


def _packed_path(n, terms):
    """The packed step that terms (the factor stepped on, or the element
    tested for centrality) take: dense on at least half of S_n."""
    return "dense" if 2 * len(terms) >= len(all_permutations(n)) else "packed"


def _product_step(n, a, b):
    """The packed step a product a * b takes: the dict step ("packed") on
    the few-term path, which factors of at most _FEW_TERMS terms take
    unless one is geometric, else that of the factor stepped on, the one
    with more terms (a on a tie), by its density."""
    keys = min(len(a._terms), len(b._terms))
    walked = b if len(a._terms) < len(b._terms) else a
    if (len(walked._terms) <= _FEW_TERMS
            and all(_geometric(n, h._terms, keys) is None for h in (a, b))):
        return "packed"
    return _packed_path(n, walked._terms)


def _count_calls(monkeypatch, *names):
    """Record the generator argument of every call to the functions
    hecke.algebra.<name>, in one list."""
    calls = []

    def counting(real):
        def step(*args):
            calls.append(args[-1])
            return real(*args)
        return step

    for name in names:
        monkeypatch.setattr(hecke.algebra, name,
                            counting(getattr(hecke.algebra, name)))
    return calls


def _full_matrix_rank(m):
    return sparse_rank(m.values())


def test_quadratic_relation():
    # T_s^2 = (q-1) T_s + q T_1 for every generator
    q = q_power(1)
    for n in range(2, 6):
        one = HeckeElement.one(n)
        for i in range(1, n):
            t = HeckeElement.generator(n, i)
            assert t * t == t.scale(q - LaurentPoly(1)) + one.scale(q)


def test_braid_relations():
    for n in range(3, 6):
        for i in range(1, n - 1):
            a = HeckeElement.generator(n, i)
            b = HeckeElement.generator(n, i + 1)
            assert a * b * a == b * a * b
    for n in range(4, 6):
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                a = HeckeElement.generator(n, i)
                b = HeckeElement.generator(n, j)
                assert a * b == b * a


def test_length_additive_products():
    # T_u T_v = T_{uv} exactly when lengths add
    for u in all_permutations(3):
        for v in all_permutations(3):
            prod = HeckeElement.basis(3, u) * HeckeElement.basis(3, v)
            w = u.compose(v)
            if u.length() + v.length() == w.length():
                assert prod == HeckeElement.basis(3, w)
            else:
                assert prod != HeckeElement.basis(3, w)


def test_multiplication_is_associative():
    rng = random.Random(2024)
    for _ in range(ASSOCIATIVITY_TRIPLES):
        a = _random_element(rng, 4)
        b = _random_element(rng, 4)
        c = _random_element(rng, 4)
        assert (a * b) * c == a * (b * c)


def test_group_algebra_specialization_oracle():
    """Products at q = 1 must agree with plain group-algebra convolution."""
    rng = random.Random(77)
    for _ in range(ORACLE_PAIRS):
        a = _random_element(rng, 4)
        b = _random_element(rng, 4)
        expected = group_algebra_mul(
            a.specialize_group_algebra(), b.specialize_group_algebra()
        )
        assert (a * b).specialize_group_algebra() == expected


def test_from_word_expands_unreduced_words():
    t1 = HeckeElement.generator(3, 1)
    assert HeckeElement.from_word(3, [1, 1]) == t1 * t1
    assert HeckeElement.from_word(3, [1, 2, 1]) == t1 * HeckeElement.generator(3, 2) * t1


def _fold_word(n, word):
    """T_{s_{i_1}} T_{s_{i_2}} ... multiplied out one letter at a time."""
    return reduce(_rmul_gen, word, {Permutation.identity(n): ONE})


def _same_terms(got, want):
    # equal terms in the same order, and ONE exactly where the fold has it
    assert list(got.items()) == list(want.items())
    assert [c is ONE for c in got.values()] == [c is ONE for c in want.values()]


def test_from_word_matches_the_letter_by_letter_fold():
    words = 0
    for n in range(1, 5):
        for length in range(7):
            for word in itertools.product(range(1, n), repeat=length):
                _same_terms(HeckeElement.from_word(n, word)._terms,
                            _fold_word(n, word))
                words += 1
    assert words == 1 + 7 + 127 + 1093
    rng = random.Random(36)
    for _ in range(40):
        word = [rng.randint(1, 5) for _ in range(20)]
        _same_terms(HeckeElement.from_word(6, word)._terms, _fold_word(6, word))


def test_from_word_refuses_an_oversize_word_at_once():
    from hecke.algebra import MAX_WORD_LENGTH

    word = [1, 2] * (MAX_WORD_LENGTH // 2)
    assert HeckeElement.from_word(3, word) == HeckeElement.from_word(
        3, word[:-1]) * HeckeElement.generator(3, 2)
    start = time.perf_counter()
    # unbounded, this word took 6.25 s
    with pytest.raises(ResourceCapError, match="4000 letters"):
        HeckeElement.from_word(2, [1] * 4000)
    with pytest.raises(ResourceCapError):
        HeckeElement.from_word(3, iter(word + [1]))
    assert time.perf_counter() - start < 0.5


def test_powers_refuse_an_oversize_exponent_at_once():
    from hecke.algebra import MAX_WORD_LENGTH

    h = HeckeElement.generator(3, 1) + HeckeElement.generator(3, 2)
    expected = HeckeElement.one(3)
    for _ in range(MAX_WORD_LENGTH):
        expected = expected * h
    assert h ** MAX_WORD_LENGTH == expected
    start = time.perf_counter()
    # unbounded, this power took 10.8 s
    with pytest.raises(ResourceCapError, match="4000"):
        HeckeElement.generator(3, 1) ** 4000
    with pytest.raises(ResourceCapError):
        h ** (MAX_WORD_LENGTH + 1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_powers_start_from_the_element(monkeypatch, n):
    # h ** k takes k - 1 products, with the terms and key order of the k
    # products from one it once took
    t = t_longest(n)
    for h in (xbar(n), ybar(n), t, xbar(n) * t):
        assert h ** 0 == HeckeElement.one(n)
        expected = HeckeElement.one(n)
        for k in (1, 2, 3):
            expected = expected * h
            got = h ** k
            assert got == expected
            assert list(got._terms) == list(expected._terms)
    calls = _count_calls(monkeypatch, "_packing")
    t ** 3
    assert len(calls) == 2


def test_normalized_basis_quadratic_relation():
    # in the rescaled basis the relation reads Tt_s^2 = Tt_1 + xi Tt_s
    for n in range(2, 5):
        for i in range(1, n):
            ts = HeckeElement.basis_normalized(n, Permutation.simple(n, i))
            assert ts * ts == HeckeElement.one(n) + ts.scale(XI)


def test_to_normalized_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        h = _random_element(rng, 4)
        assert h.to_normalized().from_normalized() == h


def test_to_normalized_rescales_coefficients():
    h = HeckeElement.generator(3, 1) + HeckeElement.one(3)
    t = h.to_normalized()
    assert t.coeff(Permutation.simple(3, 1)) == v_power(-1)
    assert t.coeff(Permutation.identity(3)) == LaurentPoly(1)


def test_degree_mismatch_is_rejected():
    a = HeckeElement.generator(3, 1)
    b = HeckeElement.generator(4, 1)
    with pytest.raises(DegreeMismatchError):
        a * b
    with pytest.raises(DegreeMismatchError):
        a + b


def test_element_embedding():
    a = HeckeElement.from_word(3, [1, 2])
    assert a.embed(5) == HeckeElement.from_word(5, [1, 2])


def test_basis_multiplication_matrix_ranks(ctx3):
    from hecke import t_longest, x_elem, xbar

    # multiplication by an invertible basis element is injective
    assert _full_matrix_rank(left_mult_matrix(t_longest(ctx3))) == 6
    # x absorbs every generator, so its image is a line
    assert _full_matrix_rank(left_mult_matrix(x_elem(ctx3))) == 1
    assert _full_matrix_rank(left_mult_matrix(xbar(ctx3))) == 6


def test_support_and_items_are_canonically_ordered():
    h = HeckeElement.from_word(3, [1, 2, 1]) + HeckeElement.generator(3, 2)
    lengths = [w.length() for w, _ in h.items()]
    assert lengths == sorted(lengths)
    assert list(h.support()) == [w for w, _ in h.items()]


_KERNEL_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@_KERNEL_SETTINGS
@given(data=st.data())
def test_product_kernel_matches_the_generator_fold(n, data):
    a, b = data.draw(_element_pairs(n, _big_scalars))
    a = _widen(a)
    assert _packing(n, [a._terms, b._terms], n * (n - 1) // 2) is None
    product, taken = _steps_taken(n, lambda: a * b)
    assert product == _fold_mul(a, b)
    assert taken == ({"dict"} if _walk_has_an_edge(a, b) else set())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@_KERNEL_SETTINGS
@given(data=st.data())
def test_packed_product_matches_the_generator_fold(n, data):
    a, b = data.draw(_element_pairs(n, data.draw(_parity_scalars),
                                    data.draw(_parity_scalars)))
    packing = _packing(n, [a._terms, b._terms], n * (n - 1) // 2)
    assert packing is not None
    # one digit per power of q exactly when each factor has one parity
    assert packing[-1] == (2 if _one_parity(a) and _one_parity(b) else 1)
    product, taken = _steps_taken(n, lambda: a * b)
    assert product == _fold_mul(a, b)
    assert taken == ({_product_step(n, a, b)}
                     if _walk_has_an_edge(a, b) else set())
    # every path returns its terms in index (Permutation) order
    assert (list(product._terms) == sorted(product._terms)
            == list(_dict_mul(a._terms, b._terms)))


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_packed_centrality_matches_the_generator_comparison(n, data):
    gamma = gamma_basis(n)
    h = data.draw(st.sampled_from(list(gamma.elements.values())))
    scalars = data.draw(_parity_scalars)
    h = h.scale(data.draw(scalars))
    wide = data.draw(st.booleans())
    if wide:
        h = h.scale(_WIDE)
    perturbed = data.draw(st.booleans())
    if perturbed:
        w = data.draw(st.sampled_from(all_permutations(n)))
        h = h + HeckeElement(n, {w: data.draw(scalars)})
    assume(h)
    packing = _packing(n, [h._terms], 1)
    assert (packing is None) == wide
    if not wide:
        assert packing[-1] == (2 if _one_parity(h) else 1)
    expected = is_central_by_generators(h)
    central, taken = _steps_taken(n, lambda: is_central(h))
    assert central == expected
    path = "dict" if wide else _packed_path(n, h._terms)
    # an element that the flip moves is refused before any step
    assert taken == ({path} if _is_flip_fixed(h) else set())
    if not perturbed:
        assert expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_centrality_matches_the_two_sided_oracle(n, data):
    # a Laurent combination of minimal-basis elements (central), plus
    # c (T_w + T_(w^-1)) (fixed by the flip, and central only by chance) or
    # c T_w, on either packing, either density and the LaurentPoly path
    gamma = gamma_basis(n)
    scalars = data.draw(_parity_scalars)
    shapes = data.draw(st.lists(st.sampled_from(list(gamma.elements)),
                                min_size=1, max_size=3, unique=True))
    h = HeckeElement.zero(n)
    for lam in shapes:
        h = h + gamma.elements[lam].scale(data.draw(scalars))
    extra = data.draw(st.sampled_from(["none", "flip-fixed", "one term"]))
    if extra != "none":
        w = data.draw(st.sampled_from(all_permutations(n)))
        ws = [w, w.inverse()] if extra == "flip-fixed" else [w]
        c = data.draw(scalars)
        for u in ws:
            h = h + HeckeElement.basis(n, u).scale(c)
    if data.draw(st.booleans()):
        h = _widen(h)
    assume(h)
    expected = is_central_by_generators(h)
    assert is_central(h) == expected
    if extra == "none":
        assert expected


def _lane_width(n, h):
    """The bits of h's lane in a walk of its own: its digit width times its
    window's digits; None when it does not pack."""
    packing = _packing(n, [h._terms], 1) if h else None
    if packing is None:
        return None
    bits, _, window, stride = packing
    return bits * (window // stride + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_walk_over_lanes_matches_a_test_per_element(n, data):
    # 1 to p(n) + 2 elements, each a scaled minimal-basis element, a widened
    # one (the LaurentPoly fallback), both central, or, unless all are to be
    # central, one perturbed by a term or a flip-fixed pair c (T_w + T_(w^-1));
    # even, odd or mixed exponents and signed coefficients up to 10^30; the
    # supports together dense or held by index.  Or central elements and
    # g + c T_w and g - c T_w, whose sum is central: only lanes kept apart
    # tell them from it.  _PACK_BITS is left alone, set to the widest
    # single lane (every element still packs alone), or set between
    gamma = list(gamma_basis(n).elements.values())
    perms = all_permutations(n)
    mode = data.draw(st.sampled_from(["central", "any", "cancelling"]))
    kinds = ["gamma", "wide", "perturbed", "pair"] if mode == "any" else [
        "gamma", "wide"]
    elements = []
    for _ in range(data.draw(st.integers(1, len(gamma) + 2))):
        scalars = data.draw(_parity_scalars)
        kind = data.draw(st.sampled_from(kinds))
        if kind == "pair":
            w = data.draw(st.sampled_from(perms))
            h = HeckeElement(n, {w: data.draw(scalars)})
            h = h + HeckeElement(n, {w.inverse(): h.coeff(w)})
        else:
            h = data.draw(st.sampled_from(gamma)).scale(data.draw(scalars))
        if kind == "perturbed":
            h = h + HeckeElement(n, {data.draw(st.sampled_from(perms)):
                                     data.draw(scalars)})
        elif kind == "wide":
            h = _widen(h)
        elements.append(h)
    if mode == "cancelling":
        g = data.draw(st.sampled_from(gamma))
        bump = HeckeElement(n, {data.draw(st.sampled_from(perms)):
                                data.draw(data.draw(_parity_scalars))})
        elements[data.draw(st.integers(0, len(elements))):0] = [g + bump]
        elements.append(g - bump)
    want = [is_central(h) for h in elements]
    assert want == [is_central_by_generators(h) for h in elements]
    widths = [b for b in map(partial(_lane_width, n), elements) if b]
    cap = hecke.algebra._PACK_BITS
    if widths:
        cap = data.draw(st.sampled_from([cap, max(widths),
                                         (max(widths) + sum(widths)) // 2]))
    walks = []

    def counted(*args):
        # each walk packs its lanes once: (ix, lanes, bits, stride)
        walks.append(args)
        return packed_terms(*args)

    packed_terms = hecke.algebra._packed_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_PACK_BITS", cap)
        mp.setattr(hecke.algebra, "_packed_terms", counted)
        got = _central(n, [h._terms for h in elements])
    assert got == all(want)
    if got:
        # the lanes of one walk are at least as wide as each lane alone,
        # so lanes past the cap take more than one walk
        assert len(walks) >= (sum(widths) > cap) + bool(widths)
        assert sum(len(lanes) for _, lanes, _, _ in walks) == len(widths)


def test_each_lane_is_packed_at_the_walk_s_widest_digit_and_its_stride():
    # u (T_u - T_(u^-1)), u != u^-1, is not central, but it packs to 0 when
    # u = 2^b - q and the digits have b bits (q = 2^b), or when u = 1 - v and
    # one digit takes each power of q (v and v^0 share a digit); beside
    # T_1, whose digits have b bits and whose exponents are even, either
    # order of the two must read not central
    n = 3
    w = Permutation((2, 3, 1))
    one = HeckeElement.one(n)
    bits = _packing(n, [one._terms], 1)[0]
    for c in (LaurentPoly({0: 1 << bits, 2: -1}), LaurentPoly({0: 1, 1: -1})):
        odd = HeckeElement(n, {w: c, w.inverse(): -c})
        assert not is_central(odd)
        assert not _central(n, [odd._terms, one._terms])
        assert not _central(n, [one._terms, odd._terms])


@pytest.mark.parametrize("n", [4, 5])
def test_lanes_add_up_where_their_keys_meet(n):
    # a minimal-basis element g on under half of S_n and T_w, w != 1 one of
    # its keys: the walk holds the two lanes in a dict by index, and both
    # write to the entry of w.  T_w is not central, so in either order the
    # walk reads false; g beside q g reads true
    small = [g for g in gamma_basis(n).elements.values()
             if 1 < len(g._terms) and 2 * len(g._terms) < factorial(n)]
    assert small
    for g in small:
        w = next(u for u in g._terms if u != Permutation.identity(n))
        t = HeckeElement(n, {w: ONE})
        assert not _central(n, [t._terms, g._terms])
        assert not _central(n, [g._terms, t._terms])
        assert _central(n, [g._terms, g.scale(Q)._terms])
    # the lanes' keys together decide the form, not the first lane's: at
    # n = 5 these hold at least half of S_n, though none does alone
    lanes = [g._terms for g in small]
    dense = 2 * len(set().union(*lanes)) >= factorial(n)
    assert dense == (n == 5)
    assert _steps_taken(n, lambda: _central(n, lanes)) == (
        True, {"dense" if dense else "packed"})


def _random_scalar(rng, parity):
    """A nonzero scalar of 1 to 3 terms with exponents in -8..8, all of the
    given parity (0 or 1) or of either (None)."""
    exps = [e for e in range(-8, 9) if parity is None or e & 1 == parity]
    return LaurentPoly({e: rng.choice([-1, 1]) * rng.randint(1, 10**30)
                        for e in rng.sample(exps, rng.randint(1, 3))})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_products_and_centrality_on_both_sides_of_the_density_rule(n, data):
    # the factor stepped on covers one less than, exactly or one more than
    # half of S_n; the other has 1 to 4 terms, fewer than the first, and
    # sits on either side
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    perms = all_permutations(n)
    size = len(perms) // 2 + data.draw(st.sampled_from([-1, 0, 1]))
    parities = data.draw(st.sampled_from([(0, 0), (1, 0), (1, 1), (None, 0)]))
    big = HeckeElement(n, {w: _random_scalar(rng, parities[0])
                           for w in rng.sample(perms, size)})
    few = rng.randint(1, min(4, size - 1))
    small = HeckeElement(n, {w: _random_scalar(rng, parities[1])
                             for w in rng.sample(perms, few)})
    big_left = data.draw(st.booleans())
    a, b = (big, small) if big_left else (small, big)
    packing = _packing(n, [a._terms, b._terms], n * (n - 1) // 2)
    assert packing[-1] == (2 if _one_parity(a) and _one_parity(b) else 1)
    path = _packed_path(n, big._terms)
    assert (path == "dense") == (size >= len(perms) // 2)
    product, taken = _steps_taken(n, lambda: a * b)
    assert product == (_fold_mul(a, b) if big_left else _left_fold_mul(a, b))
    assert taken == ({_product_step(n, a, b)}
                     if _walk_has_an_edge(a, b) else set())
    assert list(product._terms) == sorted(product._terms)
    central, taken = _steps_taken(n, lambda: is_central(big))
    assert central == is_central_by_generators(big)
    assert taken == ({path} if _is_flip_fixed(big) else set())


def _allowed_corrections(n, size):
    """The most corrections a geometric factor of size terms may carry and
    still take the coset sums: l(w_0) (1 + m) steps below the size - 1
    keys the walk would step to, and m <= n."""
    top = n * (n - 1) // 2
    return min(n, (size - 2) // top - 1)


@st.composite
def _geometric_factors(draw, n, keyed_left):
    """(g, m): g = c X_a plus m corrections, c = +-v^f and a = +-v^e, the
    corrections missing terms or terms plus a nonzero scalar, never at the
    identity or perms[1], where c and c a are read.  m is at the rule's
    limit, one past it, one term short of it (all corrections missing
    terms), or any number up to n + 1."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    perms = all_permutations(n)
    c_sign, a_sign = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    f, e = draw(st.integers(-4, 4)), draw(st.integers(-2, 2))
    g = {w: LaurentPoly({f + e * w.length(): c_sign * a_sign ** w.length()})
         for w in perms}
    full = len(perms)
    mode = draw(st.sampled_from(["limit", "over", "short", "any"]))
    if mode == "short":
        deleted = next(d for d in range(full)
                       if d > _allowed_corrections(n, full - d))
        m = deleted
    elif mode == "any":
        deleted = draw(st.integers(0, n))
        m = draw(st.integers(deleted, n + 1))
    else:
        # on the left the factor needs fewer terms than the other one
        most = max(_allowed_corrections(n, full - keyed_left), keyed_left)
        deleted = draw(st.integers(min(keyed_left, most), most))
        allowed = _allowed_corrections(n, full - deleted)
        m = max(deleted, allowed + (mode == "over"))
    parity = f & 1 if e % 2 == 0 and draw(st.booleans()) else None
    for k, w in enumerate(rng.sample(perms[2:], m)):
        if k < deleted:
            del g[w]
        else:
            g[w] = g[w] + _random_scalar(rng, parity)
    return HeckeElement(n, g), m


def _took_coset_sums(compute):
    """compute() and whether it took the coset sums."""
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    real = hecke.algebra._coset_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_coset_sums", spy)
        result = compute()
    assert len(calls) <= 1
    return result, bool(calls)


def _walked(compute):
    """compute() with the geometric rule switched off: the generic walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_geometric", lambda *args: None)
        return compute()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_geometric_factors_multiply_as_coset_sums(n, data):
    # c X_a plus 0..n+1 corrections, on either side of a factor h: on all
    # of S_n, or, when g is to be walked, the factor the walk would step on,
    # on fewer terms than g, dense (at least half of S_n) or sparse.  The
    # product takes the coset sums exactly when the rule of cost allows (a
    # walked g only against a dense h) and equals the generic walk's, key
    # order included, and the product at q = 1
    left = data.draw(st.booleans())
    walked = data.draw(st.booleans())
    g, m = data.draw(_geometric_factors(n, left and not walked))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    perms = all_permutations(n)
    full = len(perms)
    support = perms
    if walked:
        # the walk follows h's words: h has fewer terms, or as many on the
        # right of g
        most = len(g._terms) - (not left)
        half = (full + 1) // 2
        if most >= half and data.draw(st.booleans()):
            support = rng.sample(perms, data.draw(st.integers(half, most)))
        else:
            support = rng.sample(perms, data.draw(st.integers(1, half - 1)))
    parity = data.draw(st.sampled_from([0, 1, None]))
    exps = [e for e in range(-4, 5) if parity is None or e & 1 == parity]
    h = HeckeElement(n, {w: LaurentPoly({e: rng.choice([-1, 1]) * rng.randint(1, 99)
                                         for e in rng.sample(exps, 2)})
                         for w in support})
    a, b = (g, h) if left else (h, g)
    assert _packing(n, [a._terms, b._terms], n * (n - 1) // 2) is not None
    product, coset = _took_coset_sums(lambda: a * b)
    g_keyed = (len(g._terms) < len(h._terms) if left
               else len(g._terms) <= len(h._terms))
    keys = len(g._terms) if g_keyed else len(h._terms)
    assert coset == ((g_keyed or 2 * len(h._terms) >= full)
                     and m <= _allowed_corrections(n, keys))
    by_walk = _walked(lambda: a * b) if coset else product
    assert product == by_walk
    assert list(product._terms) == list(by_walk._terms)
    if n <= 5:
        assert product == (_left_fold_mul(a, b) if len(a._terms) < len(b._terms)
                           else _fold_mul(a, b))
        assert product.specialize_group_algebra() == group_algebra_mul(
            a.specialize_group_algebra(), b.specialize_group_algebra())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_geometric_factor_on_the_walked_side_is_swapped_in(n):
    # xbar ybar has fewer terms than ybar, is dense and is not geometric,
    # so the walk would follow its words; the rule of cost takes ybar as
    # coset sums instead, on either side
    x, y = xbar(n), ybar(n)
    xy = x * y
    assert len(xy._terms) < len(y._terms) and 2 * len(xy._terms) >= factorial(n)
    for a, b in ((xy, y), (y, xy)):
        product, coset = _took_coset_sums(lambda: a * b)
        assert coset
        by_walk = _walked(lambda: a * b)
        assert product == by_walk
        assert list(product._terms) == list(by_walk._terms)
        if n <= 5:
            assert product.specialize_group_algebra() == group_algebra_mul(
                a.specialize_group_algebra(), b.specialize_group_algebra())
    assert xy * y == y * xy == x * (y * y)


def _pool_scalar(rng, parity):
    """A nonzero scalar: one of _random_scalar for parity 0 or 1, or one
    with an even and an odd exponent for None."""
    if parity is None:
        return LaurentPoly({0: rng.choice([-1, 1]) * rng.randint(1, 10**6),
                            1: rng.choice([-1, 1]) * rng.randint(1, 10**6)})
    return _random_scalar(rng, parity)


def _product_path(compute):
    """compute(), one product, and the path it took: "few"
    (_few_terms_sum), "coset" (_coset_sums) or "walk" (the trie walk
    alone)."""
    taken = set()

    def spy(path, real):
        def call(*args):
            taken.add(path)
            return real(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name, path in (("_few_terms_sum", "few"), ("_coset_sums", "coset"),
                           ("_prefix_products", "walk")):
            mp.setattr(hecke.algebra, name,
                       spy(path, getattr(hecke.algebra, name)))
        result = compute()
    return result, next(p for p in ("few", "coset", "walk") if p in taken)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_few_term_products_match_the_generator_fold(n, data):
    # factors of 1 to _FEW_TERMS terms on either side, the exponents of
    # each all even, all odd or mixed, so that both strides occur; at
    # n = 3 a 6-term factor may stand next to c X_a, which the rule of
    # cost takes as coset sums.  Each product equals the fold of
    # generator_oracle.lmul_gen, key order included, gives equal
    # coefficients one object, and takes the few-term path unless a
    # factor is geometric
    perms = all_permutations(n)

    def factor(support):
        scalars = data.draw(_parity_scalars)
        return HeckeElement(n, {w: data.draw(scalars) for w in support})

    if n == 3 and data.draw(st.booleans()):
        sign, a_sign = data.draw(st.sampled_from([(1, 1), (1, -1), (-1, 1),
                                                  (-1, -1)]))
        f, e = data.draw(st.integers(-4, 4)), data.draw(st.integers(-2, 2))
        g = HeckeElement(n, {w: LaurentPoly({f + e * w.length():
                                             sign * a_sign ** w.length()})
                             for w in perms})
        a, b = g, factor(perms)
    else:
        a, b = (factor(data.draw(st.lists(st.sampled_from(perms), min_size=1,
                                          max_size=_FEW_TERMS, unique=True)))
                for _ in range(2))
    if data.draw(st.booleans()):
        a, b = b, a
    packing = _packing(n, [a._terms, b._terms], n * (n - 1) // 2)
    assert packing[-1] == (2 if _one_parity(a) and _one_parity(b) else 1)
    product, path = _product_path(lambda: a * b)
    keys = min(len(a._terms), len(b._terms))
    geometric = any(len(h._terms) == len(perms)
                    and _geometric(n, h._terms, keys) is not None
                    for h in (a, b))
    assert path == ("coset" if geometric else "few")
    fold = _left_fold_mul(a, b)
    assert product == fold
    assert list(product._terms) == sorted(fold._terms)
    coeffs = product._terms.values()
    assert len({id(c) for c in coeffs}) == len(
        {tuple(sorted(c._terms.items())) for c in coeffs})


@st.composite
def _repeated_key_pairs(draw, n):
    """(a, b, over_cap, cancel): a product whose walked factor covers at
    least half of S_n and whose keyed factor draws its coefficients from 2
    or 3 scalars times v^(2j), so that keys repeat.

    over_cap: more keys repeat than _packed_mul keeps sums for (l(w_0) + 1),
    so repeated keys are both summed and folded term by term.  cancel: the
    keyed factor holds c (T_1 + T_s) for a key c of its own, and the walked
    factor is Y (T_s - q) (or (T_s - q) Y when the keyed factor is on the
    left), so the sum kept for c is zero at every index.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    perms = all_permutations(n)
    cap = n * (n - 1) // 2 + 1
    keyed_left = draw(st.booleans())
    # the walked factor covers all of S_n or exactly half of it, or is
    # Y (T_s - q); more keys than the cap repeat only where they fit
    modes = ["full", "half", "cancel"] + ["over_cap"] * (n > 3)
    mode = draw(st.sampled_from(modes))
    over_cap, cancel = mode == "over_cap", mode == "cancel"
    parities = draw(st.sampled_from([(0, 0), (1, 0), (1, 1), (None, 0),
                                     (0, None)]))
    pool = [_pool_scalar(rng, parities[0])
            for _ in range(draw(st.integers(2, 3)))]
    shifts = -(-(cap + 1) // len(pool)) if over_cap else draw(st.integers(1, 2))
    size = len(perms) // 2 if mode == "half" else len(perms)
    # the keyed factor has fewer terms than the walked one, or as many when
    # it is on the right; every key occurs at least twice, the rest at random
    room = size - keyed_left - 2 * cancel
    keys = [c.shift(2 * j) for j in range(shifts) for c in pool][:room // 2]
    few = min(room, 2 * len(keys) + rng.randint(0, 6))
    coeffs = keys * 2 + [rng.choice(keys) for _ in range(few - 2 * len(keys))]
    rng.shuffle(coeffs)
    s = Permutation.simple(n, rng.randint(1, n - 1))
    ident = Permutation.identity(n)
    if cancel:
        support = [ident, s] + rng.sample(
            [w for w in perms if w not in (ident, s)], len(coeffs))
        coeffs = [pool[0].shift(2 * shifts)] * 2 + coeffs
        y = HeckeElement(n, {w: _random_scalar(rng, parities[1])
                             for w in perms})
        t_s = HeckeElement.generator(n, s.reduced_word()[0])
        t_s = t_s - HeckeElement.one(n).scale(q_power(1))
        walked = t_s * y if keyed_left else y * t_s
    else:
        support = rng.sample(perms, len(coeffs))
        walked = HeckeElement(n, {w: _random_scalar(rng, parities[1])
                                  for w in rng.sample(perms, size)})
    keyed = HeckeElement(n, dict(zip(support, coeffs)))
    assume(len(walked._terms) > len(keyed._terms)
           or not keyed_left and len(walked._terms) == len(keyed._terms))
    a, b = (keyed, walked) if keyed_left else (walked, keyed)
    return a, b, over_cap, cancel


def _grouping(compute):
    """compute() and the (keys, grouped keys) of the one call to
    _grouped_keys that it makes, or None when it makes none."""
    calls = []

    def spy(keys, n):
        grouped = _grouped_keys(keys, n)
        calls.append((keys, grouped))
        return grouped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_grouped_keys", spy)
        result = compute()
    assert len(calls) <= 1
    return result, calls[0] if calls else None


@pytest.mark.parametrize("n", [3, 4, 5])
@_KERNEL_SETTINGS
@given(data=st.data())
def test_dense_products_sum_repeated_keys_exactly(n, data):
    a, b, over_cap, cancel = data.draw(_repeated_key_pairs(n))
    keyed_left = len(a._terms) < len(b._terms)
    walked, keyed = (b, a) if keyed_left else (a, b)
    assert 2 * len(walked._terms) >= factorial(n)
    packing = _packing(n, [a._terms, b._terms], n * (n - 1) // 2)
    assert packing[-1] == (2 if _one_parity(a) and _one_parity(b) else 1)
    product, call = _grouping(lambda: a * b)
    # no factor in H_3 has more than _FEW_TERMS terms: S_3 walks every
    # keyed term on its own (_few_terms_sum) and groups none
    assert (call is None) == (n == 3)
    if call is not None:
        keys, grouped = call
        most = n * (n - 1) // 2 + 1
        repeated = [k for k, m in Counter(keys).items() if m > 1]
        assert (len(repeated) > most) == over_cap
        assert len(grouped) == min(len(repeated), most)
        if cancel:
            # the first key is that of c (T_1 + T_s), seen first on a tie
            assert keys[0] in grouped and Counter(keys)[keys[0]] == 2
    fold = _left_fold_mul(a, b) if keyed_left else _fold_mul(a, b)
    assert product == fold
    # key order included
    dict_product = _dict_mul(a._terms, b._terms)
    assert product._terms == dict_product
    assert list(product._terms) == list(dict_product) == sorted(fold._terms)


def test_grouped_keys_keep_the_most_frequent_repeated_keys():
    # degree 4: l(w_0) + 1 = 7 sums at most, here for 9 repeated keys
    most = 4 * 3 // 2 + 1
    keys = ([(k, 0) for k in range(9) for _ in range(2 + k % 4)]
            + [(100 + k, 3) for k in range(5)])
    random.Random(4).shuffle(keys)
    grouped = _grouped_keys(keys, 4)
    counts = Counter(keys)
    assert len(grouped) == most
    assert all(counts[k] >= 2 for k in grouped)
    multiplicity = [counts[k] for k in grouped]
    assert multiplicity == sorted(multiplicity, reverse=True)
    # no key left out repeats more often than a kept one
    assert max(counts[k] for k in counts if k not in grouped) <= multiplicity[-1]
    assert _grouped_keys([(k, 0) for k in range(30)], 4) == []
    assert _grouped_keys([(1, 0), (1, 2), (2, 0), (1, 0)], 4) == [(1, 0)]
    # the first seen first on a tie
    assert _grouped_keys([(2, 0), (1, 0), (1, 0), (2, 0)], 4) == [(2, 0), (1, 0)]


def test_grouped_keys_count_nothing_when_no_key_repeats(monkeypatch):
    def refuse(keys):
        raise AssertionError("counted keys that do not repeat")

    monkeypatch.setattr(hecke.algebra, "Counter", refuse)
    assert _grouped_keys([(k, 0) for k in range(24)], 4) == []


def test_named_dense_products_match_the_fold_at_degree_5():
    # xbar and ybar are geometric factors with one correction, -T_w0: the
    # coset sums take the rest, and the walk that one key, which cannot
    # repeat; (ybar T_w0^2)^2 walks every key and sums the repeated ones
    x, y, t = xbar(5), ybar(5), t_longest(5)
    yt = y * t * t
    for a, b, geometric in ((x, x, True), (y, y, True), (x, y, True),
                            (yt, yt, False)):
        product, (keys, grouped) = _grouping(lambda: a * b)
        assert (len(keys) == 1) == geometric
        assert bool(grouped) != geometric
        assert product == _fold_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(2, 200), lo=st.integers(-20, 20),
       signs=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=12),
       stride=st.sampled_from([1, 2]))
def test_pack_round_trips_the_largest_digits(bits, lo, signs, stride):
    top = (1 << (bits - 1)) - 1
    c = LaurentPoly({lo + stride * e: s * top for e, s in enumerate(signs)})
    x = _pack(c, bits, lo, stride)
    assert x.bit_length() <= bits * len(signs)
    assert _unpack(x, bits, lo, stride) == c


def test_left_mult_matrix_columns_are_products():
    rng = random.Random(11)
    h = _random_element(rng, 4, max_terms=8)
    basis = all_permutations(4)
    m = left_mult_matrix(h)
    assert all(c for row in m.values() for c in row.values())
    for g in basis:
        col = h * HeckeElement.basis(4, g)
        assert {u: row[g] for u, row in m.items() if g in row} == col._terms


def test_full_support_product_takes_one_step_per_trie_edge(monkeypatch):
    # 1 at the identity and 2 at s_4: not c X_a for a monomial a, so the
    # kernel walks every word
    full = HeckeElement(5, {w: LaurentPoly(1 + k % 2)
                            for k, w in enumerate(all_permutations(5))})
    calls = _count_calls(monkeypatch, "_packed_step", "_dense_step")
    full * full
    assert len(calls) == 119


def test_geometric_factors_take_one_step_per_coset_letter(monkeypatch):
    # x = X_1 multiplies as D_2 ... D_5: generators 1; 2, 1; 3, 2, 1; ...
    x = HeckeElement(5, {w: LaurentPoly(1) for w in all_permutations(5)})
    calls = _count_calls(monkeypatch, "_packed_step", "_dense_step")
    x * x
    assert calls == [1, 2, 1, 3, 2, 1, 4, 3, 2, 1]
    # xbar = x - T_w0: the coset sums, then the word of w_0 for its one
    # correction
    calls.clear()
    x * xbar(5)
    assert calls[:10] == [1, 2, 1, 3, 2, 1, 4, 3, 2, 1]
    assert calls[10:] == list(Permutation.longest(5).reduced_word())


def test_wide_full_support_product_takes_one_step_per_trie_edge(monkeypatch):
    full = HeckeElement(5, {w: _WIDE for w in all_permutations(5)})
    calls = _count_calls(monkeypatch, "_rmul_gen")
    full * full
    assert len(calls) == 119


class _Held:
    """Terms in a wrapper that a weak reference can follow, so that the
    partial products a walk keeps alive can be counted."""

    __slots__ = ("terms", "__weakref__")

    def __init__(self, terms):
        self.terms = terms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_prefix_products_step_each_edge_of_the_words_once(n, data):
    # any subset of S_n or a single key, with or without the identity and
    # the parent of every key (its word less the last letter), on _rmul_gen
    # or a packed step
    perms = all_permutations(n)
    keys = data.draw(st.one_of(
        st.sampled_from(perms).map(lambda w: [w]),
        st.lists(st.sampled_from(perms), min_size=1, max_size=40, unique=True)))
    if data.draw(st.booleans()):
        keys.append(Permutation.identity(n))
    if data.draw(st.booleans()):
        keys += [w.right_simple(w.reduced_word()[-1]) for w in keys if w.length()]
    keys = list(dict.fromkeys(keys))
    h = _random_element(random.Random(data.draw(st.integers(0, 2**32))), n)
    assume(h)
    if data.draw(st.booleans()):
        bits, (lo,), _, stride = _packing(n, [h._terms], n * (n - 1) // 2)
        terms, real = _packed_terms(_indexed(n), [(h._terms, lo)], bits,
                                    stride)
    else:
        terms, real = h._terms, _rmul_gen
    alive = weakref.WeakSet()
    steps = []

    def step(held, i):
        steps.append(i)
        out = _Held(real(held.terms, i))
        alive.add(out)
        return out

    def shared(u, w):
        return next((d for d, (i, j) in enumerate(zip(u, w)) if i != j),
                    min(len(u), len(w)))

    root = _Held(terms)
    alive.add(root)
    seen = []
    ahead = sorted(w.reduced_word() for w in keys)
    for acc, w in _prefix_products(root, [(w, w) for w in keys], step):
        word = w.reduced_word()
        seen.append(w)
        assert acc.terms == reduce(real, word, terms)
        assert ahead.pop(0) == word
        # held: the root, this product and those by the prefixes that a
        # later word starts from
        held = {len(word)} | {shared(word, later) for later in ahead}
        assert len(alive) == 1 + len(held - {0})
    assert sorted(seen) == sorted(keys)
    words = [w.reduced_word() for w in keys]
    assert len(steps) == len({word[:d] for word in words
                              for d in range(1, len(word) + 1)})


def test_products_walk_the_words_of_the_factor_with_fewer_terms(monkeypatch):
    from hecke import t_longest, xbar

    full = HeckeElement(5, {w: LaurentPoly(1) for w in all_permutations(5)})
    t1 = HeckeElement.generator(5, 1)
    calls = _count_calls(monkeypatch, "_packed_step", "_dense_step")
    t_longest(5) * xbar(5)
    assert len(calls) == 10
    calls.clear()
    t1 * full
    assert calls == [1]
    calls.clear()
    full * t1
    assert calls == [1]
    wide = HeckeElement(5, {w: _WIDE for w in all_permutations(5)})
    right = _count_calls(monkeypatch, "_rmul_gen")
    t1 * wide
    assert right == [1]


def test_constructor_rejects_non_permutation_keys():
    with pytest.raises(TermTypeError) as info:
        HeckeElement(3, {(1, 2, 3): LaurentPoly(1)})
    assert isinstance(info.value, HeckeError)


def test_basis_constructors_reject_non_permutation_keys():
    for make in (HeckeElement.basis, HeckeElement.basis_normalized):
        with pytest.raises(TermTypeError):
            make(3, (2, 1, 3))


def test_constructor_rejects_non_laurent_coefficients():
    # a True coefficient was once kept, and element_to_json wrote it as
    # "True", which element_from_json refuses
    for c in (1.5, True, False):
        with pytest.raises(TermTypeError):
            HeckeElement(3, {Permutation((1, 2, 3)): c})


@pytest.mark.parametrize("c", [None, 1.5, "q", True])
def test_scale_takes_a_laurent_poly_or_an_int(c):
    # None once read as zero, a float or a string failed inside
    # LaurentPoly with a bare TypeError
    with pytest.raises(TermTypeError, match=type(c).__name__):
        xbar(3).scale(c)


def _bad(error, fn, *args):
    """A call that must raise error, with the call as its test id."""
    call = f"{fn.__qualname__}({', '.join(map(repr, args))})"
    return pytest.param(partial(fn, *args), error, id=call)


_T1 = HeckeElement.generator(3, 1)


@pytest.mark.parametrize("make, error", [
    _bad(TermTypeError, _T1.__pow__, True),
    _bad(TermTypeError, _T1.__pow__, 2.0),
    _bad(TermTypeError, _T1.embed, True),
    _bad(TermTypeError, _T1.embed, 4.0),
    _bad(TermTypeError, catalog, 3.0),
    _bad(TermTypeError, catalog, True),
])
def test_a_power_or_degree_argument_is_an_int_not_a_bool(make, error):
    # T[1] ** True returned T[1] and catalog(3.0) the degree-3 catalog;
    # ** 2.0 and embed(4.0) failed inside range
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("make, error", [
    _bad(TermTypeError, x_elem, 2.7),
    _bad(TermTypeError, all_permutations, 2.9),
    _bad(TermTypeError, eigen_search, 3.5, HeckeElement.one(3), 0),
    _bad(TermTypeError, AlgebraContext, True),
    _bad(TermTypeError, AlgebraContext, "3"),
    _bad(DegreeMismatchError, AlgebraContext, 0),
    _bad(DegreeMismatchError, HeckeElement, 0),
    _bad(DegreeMismatchError, HeckeElement, -1),
    _bad(TermTypeError, HeckeElement, 2.5),
    _bad(TermTypeError, HeckeElement, True),
    _bad(DegreeMismatchError, HeckeElement.zero, 0),
    _bad(TermTypeError, HeckeElement.zero, True),
    _bad(DegreeMismatchError, HeckeElement.one, -1),
    _bad(TermTypeError, HeckeElement.one, True),
    _bad(TermTypeError, HeckeElement.basis, True, Permutation((1,))),
    _bad(TermTypeError, HeckeElement.basis_normalized, True, Permutation((1,))),
    _bad(TermTypeError, HeckeElement.generator, 2.0, 1),
    _bad(TermTypeError, HeckeElement.generator, 3, True),
    _bad(DegreeMismatchError, HeckeElement.from_word, 0, []),
    _bad(TermTypeError, HeckeElement.from_word, 3, [True, 2]),
    _bad(TermTypeError, HeckeElement.from_word, 3, [1.0]),
])
def test_a_degree_is_an_int_of_at_least_one(make, error):
    # a generator index or word letter is an int the same way; neither is
    # coerced, and a bool is not an int here
    with pytest.raises(error) as info:
        make()
    assert isinstance(info.value, HeckeError)
    if error is DegreeMismatchError:
        assert isinstance(info.value, ValueError)
        assert "degree must be at least 1, got" in str(info.value)


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: HeckeElement(3, {Permutation((2, 1)): 1}),
                 DegreeMismatchError, "support element of degree 2 in H_3",
                 id="key-of-another-degree"),
    pytest.param(lambda: HeckeElement.from_word(3, [3]), ValueError,
                 "generator index 3 out of range for degree 3",
                 id="letter-out-of-range"),
    pytest.param(lambda: _T1 ** -1, ValueError, "negative powers",
                 id="negative-power"),
    pytest.param(lambda: _T1.embed(2), DegreeMismatchError,
                 "cannot embed H_3 into H_2", id="element-embed-down"),
    pytest.param(lambda: Permutation((2, 1)).compose(Permutation((1, 3, 2))),
                 DegreeMismatchError,
                 "cannot compose permutations of degrees 2 and 3",
                 id="compose-across-degrees"),
    pytest.param(lambda: Permutation((2, 1, 3)).embed(2), DegreeMismatchError,
                 "cannot embed degree 3 into 2", id="permutation-embed-down"),
    pytest.param(lambda: Permutation.transposition(3, 1, 1), ValueError,
                 r"bad transposition \(1 1\) for n=3", id="transposition-a-a"),
    pytest.param(lambda: dual_murphy(3, 4, 2), IndexError,
                 r"dual Murphy indices \(m=4, i=2\)", id="dual-murphy-m-past-n"),
    pytest.param(lambda: h3_constraint_check(x_elem(4)), DegreeMismatchError,
                 "constraint check needs degree 3, got 4",
                 id="h3-constraint-degree"),
    pytest.param(lambda: eigen_search(3, x_elem(4), 0), DegreeMismatchError,
                 "element degree 4 does not match 3", id="eigen-search-degree"),
    pytest.param(lambda: express_in_gamma(x_elem(4), gamma_basis(3)),
                 DegreeMismatchError,
                 "element of degree 4 against a basis for degree 3",
                 id="express-degree"),
    pytest.param(lambda: verify_gamma_invariants(GammaBasis(3, {})),
                 MismatchError, "basis for degree 3 has wrong index set",
                 id="gamma-invariants-index-set"),
    pytest.param(lambda: element_to_json(_T1, basis="S"), ValueError,
                 "basis must be 'T' or 'Ttilde', got 'S'",
                 id="json-basis"),
])
def test_each_boundary_names_what_it_refuses(make, error, message):
    # each argument has the right type, but a degree, index or basis the
    # call cannot take
    with pytest.raises(error, match=message):
        make()


_ONE3 = HeckeElement.one(3)


@pytest.mark.parametrize("x", [1.5, True, "2"])
@pytest.mark.parametrize("what, make, kind", [
    ("cap enum_max", lambda x: Caps(enum_max=x), "an int"),
    ("degree", HeckeElement, "an int"),
    ("generator index", lambda x: HeckeElement.from_word(3, [1, x]), "an int"),
    ("power", _T1.__pow__, "an int"),
    ("power", lambda x: Q ** x, "an int"),
    ("Murphy index", lambda x: murphy(3, x), "an int"),
    ("dual Murphy index", lambda x: dual_murphy(3, 3, x), "an int"),
    ("scalar exponent or coefficient", lambda x: LaurentPoly({0: x}), "an int"),
    ("power of v", v_power, "an int"),
    ("power of q", q_power, "an int"),
    ("coefficient", lambda x: HeckeElement(3, {Permutation((1, 2, 3)): x}),
     "a LaurentPoly"),
    ("scalar", _T1.scale, "a LaurentPoly"),
    ("eigenvalue", lambda x: eigen_search(3, _ONE3, x), "a LaurentPoly"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_each_argument_rule_has_one_message(what, make, kind, x):
    # laurent._check_ints and laurent._scalar write every such message; the
    # sites once had four forms, and eigen_search raised a bare TypeError
    with pytest.raises(TermTypeError) as info:
        make(x)
    assert isinstance(info.value, HeckeError)
    assert str(info.value) == f"{what} {x!r} is a {type(x).__name__}, not {kind}"


def test_constructor_converts_int_coefficients():
    w = Permutation((2, 1, 3))
    h = HeckeElement(3, {w: 4, Permutation((1, 2, 3)): 0})
    assert h == HeckeElement.basis(3, w).scale(4)
    assert h.coeff(w) == LaurentPoly(4)


def test_products_match_the_fold_on_both_sides_of_the_packing_cap():
    from hecke import xbar, ybar

    a, b = xbar(3), ybar(3)

    def widened(k):
        return a.scale(LaurentPoly({0: 1, k: 1}))

    k = 1
    while _packing(3, [widened(k + 1)._terms, b._terms], 3) is not None:
        k += 1
    for span, packed in ((k, True), (k + 1, False)):
        wide = widened(span)
        assert (_packing(3, [wide._terms, b._terms], 3) is not None) == packed
        assert wide * b == _fold_mul(wide, b)
        assert is_central(wide * b) == is_central_by_generators(wide * b)


def test_products_above_the_enumeration_cap_do_not_index_the_group(monkeypatch):
    # numbering S_12 would take minutes and gigabytes; the LaurentPoly path
    # answers from the supports alone
    def refuse(n):
        raise AssertionError(f"indexed S_{n}")

    monkeypatch.setattr(hecke.algebra, "_indexed", refuse)
    n = DEFAULT_CAPS.enum_max + 1
    t1, t2 = HeckeElement.generator(n, 1), HeckeElement.generator(n, 2)
    assert _packing(n, [t1._terms, t2._terms], n * (n - 1) // 2) is None
    assert t1 * t2 == HeckeElement.from_word(n, (1, 2))
    assert not is_central(HeckeElement.generator(12, 1))
    assert is_central(HeckeElement.one(12).scale(q_power(1)))
    t1, t2 = HeckeElement.generator(10, 1), HeckeElement.generator(10, 2)
    assert t1 * t2 == _fold_mul(t1, t2)


def _numbering_refused(mp, degrees):
    """Patch hecke.algebra so that numbering S_n for n in degrees raises,
    with none of them numbered yet; return the table memo in force."""
    memo = {n: ix for n, ix in hecke.algebra._INDEXED.items()
            if n not in degrees}
    real_indexed, real_tables = hecke.algebra._indexed, hecke.algebra._step_tables

    def refusing(real):
        def build(n):
            if n in degrees:
                raise AssertionError(f"numbered S_{n}")
            return real(n)
        return build

    mp.setattr(hecke.algebra, "_INDEXED", memo)
    mp.setattr(hecke.algebra, "_indexed", refusing(real_indexed))
    mp.setattr(hecke.algebra, "_step_tables", refusing(real_tables))
    return memo


def test_sparse_work_at_degrees_7_and_8_numbers_no_group(monkeypatch):
    # none of these can reach half of S_n: a walk of |walked| 2^L terms at
    # most, L the smaller of the longest words of the two factors, or the
    # terms a centrality test reads
    memo = _numbering_refused(monkeypatch, {7, 8})
    for n in (7, 8):
        gens = [HeckeElement.generator(n, i) for i in range(1, n)]
        fwd = reduce(lambda a, b: a * b, gens)
        bwd = reduce(lambda a, b: a * b, gens[::-1])
        # the cycle pair of 02-dual-cyclepair: one term, a 7-letter key at n = 8
        assert fwd * bwd == _fold_mul(fwd, bwd)
        pair = gens[0] * gens[1] + gens[1] * gens[0]
        assert pair * pair == _fold_mul(pair, pair)
        t = t_longest(n)
        assert t * gens[0] == _fold_mul(t, gens[0])
        assert gens[0] * t == _fold_mul(gens[0], t)
        for h in (t, pair, HeckeElement.one(n).scale(q_power(1))):
            assert is_central(h) == is_central_by_generators(h)
    assert 7 not in memo and 8 not in memo


@pytest.mark.parametrize("n", [10, 12])
def test_long_words_above_degree_7_number_no_group(monkeypatch, n):
    # T_u T_v = T_w0 with l(u) and l(v) about l(w0) / 2: |walked| 2^L
    # passes n!/2, yet the product is one term, and numbering S_12 would
    # take gigabytes; above degree 7 only a dense factor or tables that
    # exist number S_n
    memo = _numbering_refused(monkeypatch, {n})
    word = Permutation(tuple(range(n, 0, -1))).reduced_word()
    half = len(word) // 2
    u = HeckeElement.from_word(n, word[:half])
    v = HeckeElement.from_word(n, word[half:])
    assert 1 << half >= factorial(n)
    assert _packing(n, [u._terms, v._terms], len(word)) is None
    start = time.perf_counter()
    got = u * v
    assert time.perf_counter() - start < 0.5
    assert got == t_longest(n)
    assert got == _fold_mul(u, v)
    assert not is_central(got)
    assert n not in memo


def test_work_that_can_fill_degree_7_stays_packed(monkeypatch):
    # T_w0^2 reaches all of S_7 from one term along a 21-letter word, and
    # the top Murphy element times e_(i-1)(L) of S_6 may reach 15 2^9 terms
    # or more for i >= 2 (words of up to 11 and 9 letters); the product by
    # e_0(L) = 1 walks one key of length 0
    from hecke.elements import _esym_tilde, _murphy_tilde

    memo = {n: ix for n, ix in hecke.algebra._INDEXED.items() if n != 7}
    monkeypatch.setattr(hecke.algebra, "_INDEXED", memo)
    n, steps = 7, 21
    t = t_longest(n)
    assert _packing(n, [t._terms, t._terms], steps) is not None
    murphy = _murphy_tilde(n, n)
    lows = [_esym_tilde(n - 1, i - 1).embed(n) for i in range(1, n)]
    assert _packing(n, [murphy._terms, lows[0]._terms], steps) is None
    for low in lows[1:]:
        assert _packing(n, [murphy._terms, low._terms], steps) is not None
    assert 7 not in memo
    square = t * t
    assert 7 in memo
    assert square.num_terms() == factorial(n)
    assert square == _walked_on_laurent(lambda: t * t)
    # once the tables of S_7 exist they serve sparse work too
    t1 = HeckeElement.generator(n, 1)
    assert _packing(n, [t1._terms, t1._terms], steps) is not None


def _walked_on_laurent(compute):
    """compute() with every product and centrality test on the LaurentPoly
    walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_packing", lambda n, factors, steps: None)
        return compute()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_sparse_products_at_degree_7_agree_on_both_paths(data):
    # the LaurentPoly walk against the packed, indexed path on sparse
    # factors of H_7: the same terms, in the same key order
    perms = st.permutations(range(1, 8)).map(lambda w: Permutation(tuple(w)))
    scalars = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9).filter(bool),
                              min_size=1, max_size=3).map(LaurentPoly)

    def element():
        return st.dictionaries(perms, scalars, min_size=1, max_size=4).map(
            partial(HeckeElement, 7))

    a, b = data.draw(element()), data.draw(element())
    _indexed(7)
    assert _packing(7, [a._terms, b._terms], 21) is not None
    packed = a * b
    walked = _walked_on_laurent(lambda: a * b)
    assert packed == walked
    assert list(packed._terms) == list(walked._terms)
    assert is_central(a) == _walked_on_laurent(lambda: is_central(a))


def _step_tables_by_permutations(n):
    """The step tables and the inverse table of _indexed(n), read off
    Permutation objects one at a time: the oracle for the block
    construction from S_(n-1)."""
    perms = _all_permutations(n)
    index = {w: k for k, w in enumerate(perms)}

    def signed(k, drops):
        return ~k if drops else k

    right = [None]
    for i in range(1, n):
        right.append([signed(index[w.right_simple(i)], w[i - 1] > w[i])
                      for w in perms])
    return right, [index[w.inverse()] for w in perms]


@pytest.mark.parametrize("n", range(1, DEFAULT_CAPS.enum_max + 1))
def test_step_tables_match_the_permutation_oracle(n):
    right, inv = _step_tables_by_permutations(n)
    ix = _indexed(n)
    assert ix.perms == _all_permutations(n)
    assert all(ix.index[w] == k for k, w in enumerate(ix.perms))
    assert [None] + [list(t) for t in ix.right[1:]] == right
    assert list(ix.inv) == inv


def test_rmul_gen_gives_one_the_shared_descent_coefficients():
    # a coefficient that is ONE takes laurent.Q and laurent.Q_MINUS_1
    # themselves on a descent; any other, ONE's equal included, is multiplied
    others = [LaurentPoly(1), LaurentPoly(-1), q_power(1), XI,
              LaurentPoly({3: 2, -1: -5})]
    for n in range(2, 5):
        for w in all_permutations(n):
            for i in range(1, n):
                if w[i - 1] < w[i]:
                    continue
                ws = w.right_simple(i)
                got = _rmul_gen({w: ONE}, i)
                assert list(got) == [ws, w]
                assert got[ws] is Q and got[w] is Q_MINUS_1
                for c in others:
                    got = _rmul_gen({w: c}, i)
                    assert list(got) == [ws, w]
                    assert got[ws] == c * Q and got[w] == c * Q_MINUS_1


def test_scalars_multiply_from_either_side():
    h = x_elem(3) + HeckeElement.generator(3, 1)
    q = q_power(1)
    for c in (2, -1, q, XI):
        assert c * h == h * c == h.scale(c)
        assert list((c * h)._terms) == list(h._terms)
    assert (0 * h).is_zero()
    with pytest.raises(TermTypeError):
        True * h
    with pytest.raises(TypeError):
        1.5 * h


def _cancelling(n):
    """T_s1 + (1 - q) T_1 in H_n: stepped by T_s1 its T_s1 entry cancels,
    (q - 1) + (1 - q), leaving q T_1."""
    s1, e = Permutation.simple(n, 1), Permutation.identity(n)
    return HeckeElement(n, {s1: 1, e: ONE - Q})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_packed_step_drops_the_entry_that_cancels(monkeypatch, n):
    steps = []
    real = hecke.algebra._packed_step

    def spy(*args):
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(hecke.algebra, "_packed_step", spy)
    product = _cancelling(n) * HeckeElement.generator(n, 1)
    assert product == HeckeElement(n, {Permutation.identity(n): Q})
    assert list(product._terms) == [Permutation.identity(n)]
    assert steps and all(0 not in out.values() for out in steps)
    assert [len(out) for out in steps] == [1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_centrality_agrees_with_the_oracle_when_a_step_cancels(n):
    # at n = 2 H_n is commutative; above it T_s1 + (1 - q) T_1 does not
    # commute with T_s2
    h = _cancelling(n)
    assert is_central(h) == is_central_by_generators(h) == (n == 2)
    for other in (h + x_elem(n), h * h, h.scale(XI) + ybar(n)):
        assert is_central(other) == is_central_by_generators(other)


def test_a_sparse_walked_sum_keeps_zeros_until_it_unpacks():
    # z T_s1 = q T_1, so z (T_s1 B) = q B: in the sum over the keys of z,
    # the terms of T_s1 B cancel.  B has 7 terms, each w with 1 before 2,
    # so T_s1 B has 7 terms off the support of B.  The stepped factor
    # T_s1 B passes _FEW_TERMS, so the product takes the trie walk, and its
    # 7 of 120 entries are held in a dict
    n = 5
    z = _cancelling(n)
    ascents = [w for w in all_permutations(n) if w.index(1) < w.index(2)]
    b = HeckeElement(n, {w: LaurentPoly({k: k + 1}) for k, w in
                         enumerate(ascents[:: len(ascents) // 7][:7])})
    tb = HeckeElement.generator(n, 1) * b
    assert tb.num_terms() == 7 > _FEW_TERMS
    sums = []
    real = hecke.algebra._walked_sum

    def spy(*args):
        sums.append(real(*args))
        return sums[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke.algebra, "_walked_sum", spy)
        product, path = _product_path(lambda: z * tb)
    assert path == "walk"
    (packed,) = sums
    assert isinstance(packed, dict) and list(packed.values()).count(0) == 7
    assert product == b.scale(Q)
    assert all(product._terms.values())
    assert list(product._terms.items()) == list(_dict_mul(z._terms,
                                                          tb._terms).items())


def test_a_memoized_element_refuses_a_new_degree():
    x = x_elem(3)
    for name, value in (("n", 4), ("_terms", {})):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x is x_elem(3) and x.n == 3
    assert parse_element("@x", 3) == x
    assert x * x == x.scale(sum(q_power(w.length()) for w in
                                all_permutations(3)))


@pytest.mark.parametrize("h", [x_elem(3), HeckeElement.zero(4),
                               xbar(4), _cancelling(3)],
                         ids=["x3", "zero4", "xbar4", "cancelling3"])
def test_copies_and_pickles_of_an_element_are_equal(h):
    import copy
    import pickle
    for back in (copy.copy(h), copy.deepcopy(h),
                 pickle.loads(pickle.dumps(h))):
        assert back == h and back.n == h.n
        assert list(back._terms.items()) == list(h._terms.items())
