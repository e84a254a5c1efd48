"""Mechanical verification of every identity the library implements.

The registry is one table, a row per statement: id stem, check, the
degrees it is checked at, and the caps (fields of Caps) that bound what
the check computes.  A row gives an item at each of its degrees up to
n_max and up to each cap it names: enum_max for a check that enumerates
S_n (the symmetrizers, their truncations, or the minimal basis of the
centre), both for one that solves over the centre.  The first check
that reads a basis builds it.  Items run in id order; `only` runs the
named ones, each once.  Running them recomputes both sides of every
statement from scratch, exactly over Z[v, v^-1]; there are no tolerances
anywhere.  Items whose checks pass but whose printed source is known to
disagree with the computation carry status "flag" instead of "pass", with
a note saying what the discrepancy is.

Reports are deterministic: for a fixed (n_max, seed) the text and JSON
forms are byte-for-byte identical across runs.  Timings are kept out of the
canonical forms and only appear when explicitly requested.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache, partial

from .algebra import (AlgebraContext, Caps, DEFAULT_CAPS, HeckeElement,
                      _acc, commutator, group_algebra_mul, is_central)
from .center import (_check_class_sum, _check_integral, _check_pinning,
                     _recursive_gamma, centre_basis, express_in_gamma,
                     gamma_basis)
from .elements import (braid_murphy, dual_murphy, elem_sym,
                       elem_sym_normalized, full_twist_product, murphy,
                       murphy_normalized, poincare, t_longest, x_elem, xbar,
                       y_elem, ybar)
from .errors import MismatchError
from .laurent import LaurentPoly, ONE, Q, Q_MINUS_1, XI, q_power, v_power
from .linalg import sparse_rank
from .permutations import Permutation, _all_permutations, _longest_length
from .records import Record, _set
from .sqrtcenter import (_check_closed_form, _check_coords, catalog,
                         catalog_checks_h3, catalog_checks_h4, eigen_search,
                         even_word_centrality, h3_constraint_check,
                         in_sqrt_centre, sample_sqrt_h3, span_in_sqrt)


class VerifyItem(Record):
    __slots__ = ("item_id", "statement", "n", "fn", "flag_note")

    def __init__(self, item_id: str, statement: str, n: int, fn,
                 flag_note: str | None = None):
        _set(self, "item_id", item_id)
        _set(self, "statement", statement)
        _set(self, "n", n)
        _set(self, "fn", fn)
        _set(self, "flag_note", flag_note)


class ItemResult(Record):
    __slots__ = ("item_id", "statement", "n", "status", "detail", "seconds")

    def __init__(self, item_id: str, statement: str, n: int,
                 status: str, detail: str = "", seconds: float = 0.0):
        _set(self, "item_id", item_id)
        _set(self, "statement", statement)
        _set(self, "n", n)
        _set(self, "status", status)            # "pass" | "flag" | "fail"
        _set(self, "detail", detail)
        _set(self, "seconds", seconds)


class VerificationReport(Record):
    __slots__ = ("n_max", "seed", "results")

    def __init__(self, n_max: int, seed: int, results: tuple[ItemResult, ...]):
        _set(self, "n_max", n_max)
        _set(self, "seed", seed)
        _set(self, "results", results)

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "flag": 0, "fail": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0

    def to_text(self, timings: bool = False) -> str:
        c = self.counts
        lines = [
            "verification report",
            f"n_max={self.n_max} seed={self.seed}",
            f"items={len(self.results)} pass={c['pass']} "
            f"flag={c['flag']} fail={c['fail']}",
            "",
        ]
        for r in self.results:
            line = f"{r.status.upper():4s} {r.item_id}  {r.statement}"
            if r.detail:
                line += f"  :: {r.detail}"
            if timings:
                line += f"  [{r.seconds:.3f}s]"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def to_json(self, timings: bool = False) -> str:
        import json   # imported on use: a text report needs none
        items = []
        for r in self.results:
            entry = {"id": r.item_id, "statement": r.statement, "n": r.n,
                     "status": r.status}
            if r.detail:
                entry["detail"] = r.detail
            if timings:
                entry["seconds"] = round(r.seconds, 3)
            items.append(entry)
        doc = {"n_max": self.n_max, "seed": self.seed, "counts": self.counts,
               "items": items}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Env:
    """Shared state handed to every check: caps, seed, basis access."""

    def __init__(self, seed: int, caps: Caps):
        self.seed = seed
        self.caps = caps

    def ctx(self, n: int) -> AlgebraContext:
        return AlgebraContext(n, self.caps)

    def gamma(self, n: int):
        return gamma_basis(self.ctx(n))

    def rng(self, item_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{item_id}")


def _eq(a: HeckeElement, b: HeckeElement, what: str) -> None:
    if a == b:
        return
    diff = a - b
    w = diff.support()[0]
    raise MismatchError(f"{what}: sides differ at T_{list(w)}: "
                        f"{a.coeff(w)} vs {b.coeff(w)}")


def _true(cond: bool, what: str) -> None:
    if not cond:
        raise MismatchError(what)


def _chk_closed_forms(names, esym: bool, env: _Env, n: int) -> None:
    """The _CLOSED_FORMS entries named, each against its minimal-basis
    coordinates and, when esym is set, its sum over the e_i(L)."""
    c, gb = env.ctx(n), env.gamma(n)
    for name in names:
        _check_closed_form(c, name, gb, esym)


# -- group 01: Murphy elements commute ----------------------------------------

def _chk_murphy_commute(env: _Env, n: int) -> None:
    els = [murphy(env.ctx(n), i) for i in range(1, n + 1)]
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            _true(commutator(a, b).is_zero(), "Murphy elements fail to commute")


# -- group 02: the dual family -------------------------------------------------

def _chk_dual_flip(env: _Env, n: int) -> None:
    c = env.ctx(n)
    for i in range(2, n + 1):
        _eq(dual_murphy(c, n, i), murphy_normalized(c, i).apply_diagram_flip(),
            f"index-flip image of the normalized Murphy element, i={i}")


def _chk_dual_sum(env: _Env, n: int) -> None:
    c = env.ctx(n)
    lhs = HeckeElement.zero(n)
    rhs = HeckeElement.zero(n)
    for i in range(2, n + 1):
        lhs = lhs + dual_murphy(c, n, i)
        rhs = rhs + murphy_normalized(c, i)
    _eq(lhs, rhs, "sums of the dual and plain families")


def _chk_dual_nested(env: _Env, n: int) -> None:
    c = env.ctx(n)
    for m in range(3, n + 1):
        step = HeckeElement.basis_normalized(n, Permutation.transposition(n, 1, m))
        _eq(dual_murphy(c, m, m), dual_murphy(c, m - 1, m - 1) + step,
            f"nested dual element, m={m}")


def _chk_dual_cyclepair(env: _Env, n: int) -> None:
    m = n + 1
    fwd = HeckeElement.from_word(m, range(1, n + 1)).scale(v_power(-n))
    bwd = HeckeElement.from_word(m, range(n, 0, -1)).scale(v_power(-n))
    rhs = HeckeElement.one(m) + dual_murphy(env.ctx(m), m, m).scale(XI)
    _eq(fwd * bwd, rhs, "cycle pair product in the next degree up")


# -- group 03: elementary symmetric functions ----------------------------------

def _chk_esym_recursion(env: _Env, n: int) -> None:
    c, prev = env.ctx(n), env.ctx(n - 1)
    top = murphy_normalized(c, n)
    for i in range(0, n - 1):
        lhs = elem_sym_normalized(c, i + 1)
        rhs = top * elem_sym_normalized(prev, i).embed(n)
        if i + 1 <= n - 2:
            rhs = rhs + elem_sym_normalized(prev, i + 1).embed(n)
        _eq(lhs, rhs, f"recursion for the normalized symmetric function, i={i + 1}")


def _chk_esym_rho(env: _Env, n: int) -> None:
    c = env.ctx(n)
    for i in range(n):
        el = elem_sym_normalized(c, i)
        _eq(el, el.apply_diagram_flip(), f"flip-invariance, i={i}")


def _chk_esym_central(env: _Env, n: int) -> None:
    c = env.ctx(n)
    for i in range(n):
        _true(is_central(elem_sym(c, i)), f"symmetric function i={i} not central")


def _chk_esym_gamma(env: _Env, n: int) -> None:
    c, gb = env.ctx(n), env.gamma(n)
    for i in range(n):
        want = HeckeElement.zero(n)
        for lam, g in gb:
            if lam.min_length() == i:
                want = want + g
        _eq(elem_sym(c, i), want,
            f"symmetric function vs minimal-basis slice, i={i}")


# -- group 04: square of the longest basis element -----------------------------

def _chk_longestsq_esym(env: _Env, n: int) -> None:
    c = env.ctx(n)
    tw = t_longest(c).to_normalized()
    rhs = HeckeElement.zero(n)
    for i in range(n):
        rhs = rhs + elem_sym_normalized(c, i).scale(XI ** i)
    _eq(tw * tw, rhs, "normalized longest-element square vs xi-weighted sum")


def _chk_longestsq_twist(env: _Env, n: int) -> None:
    c = env.ctx(n)
    tw = t_longest(c).to_normalized()
    _eq(tw * tw, full_twist_product(c),
        "normalized longest-element square vs braid product")


def _chk_braidmurphy_linear(env: _Env, n: int) -> None:
    c = env.ctx(n)
    for i in range(1, n + 1):
        _eq(braid_murphy(c, i),
            murphy_normalized(c, i).scale(XI) + HeckeElement.one(n),
            f"braid form vs linear form, i={i}")


def _chk_longestsq_printed_scale(env: _Env, n: int) -> None:
    gb = env.gamma(3)
    tw = t_longest(env.ctx(3))
    listed = (gb[(1, 1, 1)]
              + gb[(2, 1)].scale(ONE - q_power(-1))
              + gb[(3,)].scale((ONE - q_power(-1)) ** 2))
    _eq(tw * tw, listed.scale(q_power(3)),
        "longest-element square vs q^3 times the listed expansion")
    _true(tw * tw != listed, "the unscaled listed expansion should not match")


# -- group 05: the full symmetrizers -------------------------------------------

def _chk_xy_action(env: _Env, n: int) -> None:
    c = env.ctx(n)
    x, y = x_elem(c), y_elem(c)
    for i in range(1, n):
        t = HeckeElement.generator(n, i)
        _eq(t * x, x.scale(Q), f"left action on the q-symmetrizer, i={i}")
        _eq(x * t, x.scale(Q), f"right action on the q-symmetrizer, i={i}")
        _eq(t * y, -y, f"left action on the signed symmetrizer, i={i}")
        _eq(y * t, -y, f"right action on the signed symmetrizer, i={i}")


def _chk_xy_central(env: _Env, n: int) -> None:
    c = env.ctx(n)
    x, y = x_elem(c), y_elem(c)
    _true(is_central(x), "q-symmetrizer not central")
    _true(is_central(y), "signed symmetrizer not central")
    _true((x * y).is_zero(), "product of the symmetrizers should vanish")
    _true((y * x).is_zero(), "product of the symmetrizers should vanish")


def _chk_xy_squares(env: _Env, n: int) -> None:
    c = env.ctx(n)
    x, y = x_elem(c), y_elem(c)
    p = poincare(c)
    sign = ONE if _longest_length(n) % 2 == 0 else -ONE
    _eq(x * x, x.scale(p), "square of the q-symmetrizer")
    _eq(y * y, y.scale(sign * p), "square of the signed symmetrizer")


# -- group 06: square roots of central elements --------------------------------

def _chk_sqrt_membership(env: _Env, n: int) -> None:
    c = env.ctx(n)
    for name, el in (("truncated q-symmetrizer", xbar(c)),
                     ("truncated signed symmetrizer", ybar(c)),
                     ("longest basis element", t_longest(c))):
        _true(is_central(el * el), f"{name}: square not central")
        _true(not is_central(el), f"{name}: unexpectedly central")


def _chk_sqrt_products(env: _Env, n: int) -> None:
    c = env.ctx(n)
    a, b, t = xbar(c), ybar(c), t_longest(c)
    _true(is_central(a * b), "mixed product not central")
    _true(is_central(a * t), "mixed product not central")
    _true(is_central(b * t), "mixed product not central")
    for u, w in ((a, b), (a, t), (b, t)):
        _true(commutator(u, w).is_zero(), "the three roots should commute")


def _chk_sqrt_span(env: _Env, n: int) -> None:
    c = env.ctx(n)
    _true(span_in_sqrt([xbar(c), ybar(c), t_longest(c)]),
          "span of the three roots leaves the square-root set")


def _chk_sqrt_sumdiff(env: _Env, n: int) -> None:
    c = env.ctx(n)
    a, b = xbar(c), ybar(c)
    _true(is_central(a - b), "difference of the truncations should be central")
    _true(not is_central(a + b), "sum of the truncations should not be central")
    _true(is_central((a + b) * (a + b)), "sum of the truncations should square "
          "into the centre")


def _chk_sqrt_mixed_not(env: _Env, n: int) -> None:
    c = env.ctx(n)
    h = xbar(c) + ybar(c) * t_longest(c)
    _true(not is_central(h * h),
          "the twisted combination should fall outside the square-root set")


def _chk_sqrt_increment(env: _Env, n: int) -> None:
    for name, el in catalog(n).items():
        h = el + el * el
        _true(not is_central(h * h),
              f"{name} plus its square should leave the square-root set")


def _chk_even_words(env: _Env, n: int) -> None:
    c = env.ctx(n)
    _true(even_word_centrality((xbar(c), ybar(c), t_longest(c)), 4),
          "parity law for monomials in the three roots failed")


def _chk_r4r5_span_note(env: _Env, n: int) -> None:
    cat = catalog(3)
    r4, r5 = cat["R4"], cat["R5"]
    _true((r4 * r5 + r5 * r4).is_zero(), "R4 and R5 should anticommute")
    _true(span_in_sqrt([r4, r5]), "the R4,R5 span should pass the span test")


# -- group 07: closed forms for the truncation squares -------------------------

def _chk_xbarsq_printed(env: _Env, n: int) -> None:
    _check_coords("listed", express_in_gamma(xbar(env.ctx(3)) ** 2, env.gamma(3)),
                  {(1, 1, 1): LaurentPoly({4: 2, 2: 2, 0: 1}),
                   (2, 1): (Q + ONE) ** 2,
                   (3,): LaurentPoly({2: 3, 0: 1})})


def _chk_ybarsq_printed(env: _Env, n: int) -> None:
    gb = env.gamma(3)
    plain = express_in_gamma(ybar(env.ctx(3)) ** 2, gb)
    _check_coords("listed", plain,
                  {(1, 1, 1): q_power(4) * LaurentPoly({4: 1, 2: 2, 0: 2}),
                   (2, 1): -q_power(3) * (Q + ONE) ** 2,
                   (3,): q_power(3) * (Q + LaurentPoly(3))})
    _check_coords("q^-6 times the listed",
                  express_in_gamma(catalog(3)["ybar"] ** 2, gb),
                  {lam: q_power(-6) * a for lam, a in plain.items()})


# -- groups 08/09: the catalogs ------------------------------------------------

def _chk_h3_fixtures(env: _Env, n: int) -> None:
    c = env.ctx(3)
    cat = catalog(3)
    tw = t_longest(c)
    _eq(cat["xbar"], x_elem(c) - tw, "catalog truncation vs definition")
    _eq(cat["ybar"], (y_elem(c) - tw).scale(-q_power(-3)),
        "catalog rescaled truncation vs -q^-3 times the plain one")
    _eq(cat["Twn"], tw, "catalog longest element")
    s = [HeckeElement.generator(3, 1), HeckeElement.generator(3, 2)]
    _eq(cat["R4"], s[0] - s[1], "catalog generator difference")
    _eq(cat["R5"], HeckeElement.from_word(3, [1, 2])
        - HeckeElement.from_word(3, [2, 1]), "catalog braid difference")


def _chk_h3_checks(env: _Env, n: int) -> None:
    for key, ok in catalog_checks_h3(env.gamma(3)).items():
        _true(ok, f"degree-3 catalog check {key!r} failed")


def _chk_h3_eigen_search(env: _Env, n: int) -> None:
    gb = env.gamma(3)
    cat = catalog(3)
    vecs = eigen_search(env.ctx(3), gb[(2, 1)], Q_MINUS_1)
    _true(len(vecs) >= 2, "eigenvalue q-1 should have at least two directions")
    base = sparse_rank(el._terms for el in vecs)
    both = sparse_rank(el._terms for el in vecs + [cat["R4"], cat["R5"]])
    _true(base == both, "R4 and R5 should lie in the q-1 eigenspace")
    for vec in eigen_search(env.ctx(3), gb[(3,)], -Q):
        _eq(gb[(3,)] * vec, vec.scale(-Q), "re-check of a -q eigenvector")


def _chk_h4_checks(env: _Env, n: int) -> None:
    for key, ok in catalog_checks_h4().items():
        _true(ok, f"degree-4 catalog check {key!r} failed")


# -- group 10: the degree-3 coefficient branches --------------------------------

def _chk_h3_branch_random(env: _Env, n: int) -> None:
    rng = env.rng("10-branch-random-n3")
    for trial in range(100):
        h = sample_sqrt_h3(rng.randrange(2 ** 32))
        _true(is_central(h * h), f"sampled element {trial}: square not central")
        _true(h3_constraint_check(h) != "neither",
              f"sampled element {trial}: classified off both branches")
        _true(in_sqrt_centre(h).in_sqrt, f"sampled element {trial}: report wrong")


def _chk_h3_central_branch(env: _Env, n: int) -> None:
    gb = env.gamma(3)
    one = HeckeElement.one(3)
    s1, s2 = HeckeElement.generator(3, 1), HeckeElement.generator(3, 2)
    t12 = HeckeElement.from_word(3, [1, 2])
    t21 = HeckeElement.from_word(3, [2, 1])
    tw = t_longest(env.ctx(3))
    _eq(one, gb[(1, 1, 1)], "first parametric solution of the central relations")
    _eq(s1 + s2 + tw.scale(q_power(-1)), gb[(2, 1)],
        "second parametric solution of the central relations")
    _eq(t12 + t21 + tw.scale(q_power(-1) * Q_MINUS_1), gb[(3,)],
        "third parametric solution of the central relations")
    for lam, g in gb:
        _true(h3_constraint_check(g) == "central-branch",
              f"minimal basis element {tuple(lam)} misclassified")


def _chk_h3_classify(env: _Env, n: int) -> None:
    c = env.ctx(3)
    cat = catalog(3)
    for name in ("xbar", "ybar", "Twn", "R4", "R5"):
        got = h3_constraint_check(cat[name])
        _true(got == "sqrt-branch", f"{name} classified as {got}")
    neither = HeckeElement.one(3) + HeckeElement.generator(3, 1)
    _true(h3_constraint_check(neither) == "neither",
          "an element off both branches was not rejected")
    _true(not is_central(neither * neither),
          "the rejected element should not square into the centre")


# -- group 11: independent oracles ----------------------------------------------

def _chk_oracle_products(env: _Env, n: int) -> None:
    rng = env.rng("11-oracle-products-n4")
    perms = _all_permutations(4)
    for trial in range(1000):
        a, b = {}, {}
        for terms in (a, b):
            for _ in range(rng.randint(1, 4)):
                _acc(terms, rng.choice(perms), LaurentPoly(rng.randint(-3, 3)))
        a, b = HeckeElement._raw(4, a), HeckeElement._raw(4, b)
        got = (a * b).specialize_group_algebra()
        want = group_algebra_mul(a.specialize_group_algebra(),
                                 b.specialize_group_algebra())
        if got != want:
            raise MismatchError(f"trial {trial}: q=1 specialization disagrees "
                                f"with the group-algebra product")


# The basis invariants of groups 11 and 13 are checked on the basis rebuilt
# by the class recursion, not on the memoized one: gamma_basis ran the same
# checks on that one when it built it, so there they could not fail.

def _chk_rebuilt_gamma(check, env: _Env, n: int) -> None:
    for lam, g in _recursive_gamma(n):
        check(lam, g)


# -- group 12: nonzerodivisors ---------------------------------------------------

def _chk_nonzerodivisor(env: _Env, n: int) -> None:
    # el is a nonzerodivisor iff el^2 is, and el^2 is central (group 06):
    # it is one iff el^2 has no eigenvector for 0 (see eigen_search)
    c = env.ctx(n)
    for name, el in (("truncated q-symmetrizer", xbar(c)),
                     ("truncated signed symmetrizer", ybar(c))):
        kernel = eigen_search(c, el * el, 0)
        _true(not kernel,
              f"{name}: its square kills {len(kernel)} independent elements")


# -- group 14: the degenerate degree ----------------------------------------------

def _chk_h2_commutative(env: _Env, n: int) -> None:
    t = HeckeElement.generator(2, 1)
    one = HeckeElement.one(2)
    _true(is_central(t), "the single generator should be central at degree 2")
    _true(is_central(one + t.scale(XI)), "degree 2 should be commutative")
    cb = centre_basis(env.ctx(2))
    _true(len(cb.vectors) == 2, "the centre at degree 2 should be everything")


def _chk_h2_sqrt_all(env: _Env, n: int) -> None:
    rng = env.rng("14-sqrt-is-everything-n2")
    t = HeckeElement.generator(2, 1)
    one = HeckeElement.one(2)
    for _ in range(20):
        h = one.scale(LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})) \
            + t.scale(LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)}))
        _true(is_central(h * h), "a degree-2 square failed to be central")
        _true(is_central(h), "a degree-2 element failed to be central")


# -- registry -------------------------------------------------------------------

_N3_6 = (3, 4, 5, 6)
_N3_5 = (3, 4, 5)

# The caps a row's check reaches: enumerating S_n; a solve enumerates it too.
_ENUM = ("enum_max",)
_BOTH = _ENUM + ("linalg_max",)

# One row per statement: id stem, check, degrees, the caps its check
# reaches, statement ({n} is the degree, {m} = n+1) and the flag note of a
# statement whose printed source is known to be off.
_TABLE = (
    ("01-murphy-commute", _chk_murphy_commute, _N3_6, (),
     "Murphy elements pairwise commute (n={n})", None),
    ("02-dual-flip", _chk_dual_flip, _N3_6, (),
     "dual family is the diagram flip of the normalized family (n={n})", None),
    ("02-dual-sum", _chk_dual_sum, _N3_6, (),
     "dual and plain families have equal sums (n={n})", None),
    ("02-dual-nested", _chk_dual_nested, _N3_6, (),
     "top dual elements nest one transposition at a time (n={n})", None),
    ("02-dual-cyclepair", _chk_dual_cyclepair, _N3_6, (),
     "forward/backward cycle product expands via the top dual element "
     "(n={n}, ambient n={m})", None),
    ("03-esym-recursion", _chk_esym_recursion, _N3_6, (),
     "normalized symmetric functions satisfy the top-row recursion (n={n})",
     None),
    ("03-esym-flip", _chk_esym_rho, _N3_6, (),
     "normalized symmetric functions are flip-invariant (n={n})", None),
    ("03-esym-central", _chk_esym_central, _N3_6, (),
     "symmetric functions in Murphy elements are central (n={n})", None),
    ("03-esym-gamma", _chk_esym_gamma, _N3_5, _ENUM,
     "each symmetric function is the sum of its minimal-basis slice (n={n})",
     None),
    ("04-longestsq-esym", _chk_longestsq_esym, _N3_6, (),
     "longest-element square equals the xi-weighted symmetric sum (n={n})",
     None),
    ("04-longestsq-twist", _chk_longestsq_twist, _N3_6, (),
     "longest-element square equals the braid Murphy product (n={n})", None),
    ("04-braidmurphy-linear", _chk_braidmurphy_linear, _N3_6, (),
     "braid Murphy elements are affine in the normalized ones (n={n})", None),
    ("04-longestsq-qform", partial(_chk_closed_forms, ("T_w0^2",), False),
     _N3_5, _ENUM,
     "longest-element square has the stated minimal-basis coordinates (n={n})",
     None),
    ("04-longestsq-printed-scale", _chk_longestsq_printed_scale, (3,), _ENUM,
     "the listed degree-3 expansion needs the q^3 factor restored",
     "the reference table at degree 3 omits the overall q^3 factor; the "
     "computation confirms the form that carries the factor"),
    ("05-xy-action", _chk_xy_action, _N3_5, _ENUM,
     "generators act on the symmetrizers by q and -1 (n={n})", None),
    ("05-xy-central", _chk_xy_central, _N3_5, _ENUM,
     "both symmetrizers are central and multiply to zero (n={n})", None),
    ("05-xy-squares", _chk_xy_squares, _N3_5, _ENUM,
     "symmetrizer squares are the right scalar multiples (n={n})", None),
    ("05-xy-gamma", partial(_chk_closed_forms, ("x", "y"), False),
     _N3_5, _ENUM,
     "symmetrizer coordinates over the minimal basis (n={n})", None),
    ("06-sqrt-membership", _chk_sqrt_membership, _N3_5, _ENUM,
     "the three truncations are non-central square roots (n={n})", None),
    ("06-sqrt-products", _chk_sqrt_products, _N3_5, _ENUM,
     "pairwise products of the three roots are central and commute (n={n})",
     None),
    ("06-sqrt-span", _chk_sqrt_span, _N3_5, _ENUM,
     "the span of the three roots stays in the square-root set (n={n})", None),
    ("06-sqrt-sumdiff", _chk_sqrt_sumdiff, _N3_5, _ENUM,
     "difference of the truncations is central, the sum is not (n={n})", None),
    ("06-sqrt-mixed-not", _chk_sqrt_mixed_not, _N3_5, _ENUM,
     "the twisted combination leaves the square-root set (n={n})", None),
    ("06-even-words", _chk_even_words, _N3_5, _ENUM,
     "even words in the roots are central, odd words are roots (n={n})", None),
    ("06-sqrt-increment", _chk_sqrt_increment, (3, 4), (),
     "no catalog root survives adding its own square (n={n})", None),
    ("06-sqrt-r4r5-span-note", _chk_r4r5_span_note, (3,), (),
     "the generator/braid difference pair anticommutes, so its span passes "
     "the span test",
     "R4 and R5 anticommute exactly, so their span passes the operational "
     "span test; the source remark asserting the span leaves the "
     "square-root set does not hold under this test"),
    ("07-truncation-squares",
     partial(_chk_closed_forms, ("xbar^2", "ybar^2"), True), _N3_5, _ENUM,
     "closed forms of both truncation squares, in both bases (n={n})", None),
    ("07-xbarsq-printed", _chk_xbarsq_printed, (3,), _ENUM,
     "listed degree-3 coefficients of the q-truncation square", None),
    ("07-ybarsq-printed", _chk_ybarsq_printed, (3,), _ENUM,
     "listed degree-3 coefficients of the signed truncation square",
     "the listed square matches the unscaled truncation, not the rescaled "
     "catalog element; the catalog square is q^-6 times the listed values, "
     "as confirmed here"),
    ("08-h3-fixtures", _chk_h3_fixtures, (3,), _ENUM,
     "degree-3 catalog entries match their defining expressions", None),
    ("08-h3-checks", _chk_h3_checks, (3,), _ENUM,
     "every recorded property of the degree-3 catalog", None),
    ("08-h3-eigen-search", _chk_h3_eigen_search, (3,), _BOTH,
     "eigen search recovers the catalog eigenvectors", None),
    ("09-h4-checks", _chk_h4_checks, (4,), (),
     "every recorded property of the degree-4 catalog", None),
    ("10-branch-random", _chk_h3_branch_random, (3,), (),
     "100 random elements of the square-root branch behave as claimed", None),
    ("10-classify-fixtures", _chk_h3_classify, (3,), (),
     "catalog elements classify onto the square-root branch", None),
    ("10-central-branch", _chk_h3_central_branch, (3,), _ENUM,
     "the central-branch relations cut out exactly the minimal basis", None),
    ("11-oracle-products", _chk_oracle_products, (4,), (),
     "1000 random products match the group-algebra oracle at q=1", None),
    ("11-gamma-classsums", partial(_chk_rebuilt_gamma, _check_class_sum),
     _N3_5, _ENUM,
     "at q=1 the minimal basis collapses to class sums (n={n})", None),
    ("12-nonzerodivisor", _chk_nonzerodivisor, (3, 4), _BOTH,
     "both truncations are nonzerodivisors (n={n})", None),
    ("13-gamma-integrality", partial(_chk_rebuilt_gamma, _check_integral),
     _N3_5, _ENUM,
     "minimal-basis coefficients stay in Z[q, q^-1] (n={n})", None),
    ("13-gamma-pinning", partial(_chk_rebuilt_gamma, _check_pinning),
     _N3_5, _ENUM,
     "minimal-length coefficients are Kronecker deltas (n={n})", None),
    ("14-commutative", _chk_h2_commutative, (2,), _BOTH,
     "degree 2 is commutative and its centre is everything", None),
    ("14-sqrt-is-everything", _chk_h2_sqrt_all, (2,), (),
     "at degree 2 every element is a central square root", None),
)


def build_registry(n_max: int, caps: Caps = DEFAULT_CAPS) -> list[VerifyItem]:
    """All registered statements for degrees up to n_max, in id order.

    Each statement runs at its own degrees up to n_max and up to each cap
    its check reaches, so no item stops on a ResourceCapError.  n_max = 2
    leaves only the degenerate commutative checks.  The items are built
    once per (n_max, caps); each call returns a new list of them.
    """
    return list(_registry(n_max, caps))


@lru_cache(maxsize=32)
def _registry(n_max: int, caps: Caps) -> tuple[VerifyItem, ...]:
    items = [VerifyItem(f"{stem}-n{n}", statement.format(n=n, m=n + 1), n,
                        partial(fn, n=n), note)
             for stem, fn, degrees, reached, statement, note in _TABLE
             for n in degrees
             if n <= n_max and all(n <= getattr(caps, cap) for cap in reached)]
    return tuple(sorted(items, key=lambda it: it.item_id))


def statement_ids(n_max: int = 6, caps: Caps = DEFAULT_CAPS,
                  only: list[str] | None = None) -> list[str]:
    """The ids run_verify runs with the same arguments, in id order.

    n_max below 2 or an unknown id in only raises ValueError, as a run does.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    ids = [item.item_id for item in _registry(n_max, caps)]
    if only is None:
        return ids
    unknown = set(only) - set(ids)
    if unknown:
        raise ValueError(f"unknown statement ids: "
                         f"{', '.join(map(repr, sorted(unknown)))}; "
                         f"known ids come from statement_ids(n_max)")
    return [item_id for item_id in ids if item_id in only]


def _run_item(item: VerifyItem, env: _Env) -> ItemResult:
    start = time.perf_counter()
    try:
        item.fn(env)
        status, detail = ("flag" if item.flag_note else "pass",
                          item.flag_note or "")
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return ItemResult(item.item_id, item.statement, item.n, status, detail,
                      time.perf_counter() - start)


def run_verify(n_max: int = 6, seed: int = 0, caps: Caps = DEFAULT_CAPS,
               only: list[str] | None = None) -> VerificationReport:
    """Run the registered statements and collect a deterministic report.

    `only` restricts the run to the named statement ids, each run once; an
    unknown id is an error.  The report order is fixed by statement id.
    """
    wanted = set(statement_ids(n_max, caps, only))
    env = _Env(seed, caps)
    results = [_run_item(item, env) for item in _registry(n_max, caps)
               if item.item_id in wanted]
    return VerificationReport(n_max=n_max, seed=seed, results=tuple(results))
