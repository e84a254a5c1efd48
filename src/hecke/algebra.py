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
    T_w T_{s_i} = q T_{w s_i} + (q - 1) T_w      otherwise,

and a general product a * b walks the trie of the canonical reduced words
of the support of b depth first, one step of this primitive per trie edge:
the words are prefix-closed, so a T_w = (a T_{w s_d}) T_{s_d} reuses the
partial product of the parent node.  Everything else (commutators,
centrality, the q = 1 group-algebra specialisation, matrices of
multiplication operators) is built on top of that.

>>> ts = HeckeElement.generator(2, 1)
>>> print(ts * ts)
q*T[] + (q - 1)*T[1]
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DegreeMismatchError, ResourceCapError, TermTypeError
from .laurent import ONE, Q, Q_MINUS_1, ZERO, LaurentPoly, v_power
from .permutations import (Partition, Permutation, _all_permutations,
                           _classes, _minimal_classes)


@dataclass(frozen=True)
class Caps:
    """Size limits for the expensive operations.

    enum_max bounds anything that walks all of S_n; linalg_max bounds the
    operations that build n! x n! matrices or solve for the centre.  Each
    is compared in one place, AlgebraContext.check_enum / check_linalg.
    """

    enum_max: int = 7
    linalg_max: int = 5


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class AlgebraContext:
    """A degree n together with the resource caps in force."""

    n: int
    caps: Caps = field(default=DEFAULT_CAPS)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be at least 1, got {self.n}")

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
    if isinstance(ctx, AlgebraContext):
        return ctx
    return AlgebraContext(int(ctx))


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
    """Right-multiply a term dict by T_{s_i}."""
    out: dict[Permutation, LaurentPoly] = {}
    j = i - 1
    for w, c in terms.items():
        ws = w.right_simple(i)
        if w[j] < w[j + 1]:
            _acc(out, ws, c)
        else:
            _acc(out, ws, c * Q)
            _acc(out, w, c * Q_MINUS_1)
    return out


def _lmul_gen(terms: dict[Permutation, LaurentPoly], i: int) -> dict:
    """Left-multiply a term dict by T_{s_i}."""
    out: dict[Permutation, LaurentPoly] = {}
    for w, c in terms.items():
        sw = w.left_simple(i)
        if w.index(i) < w.index(i + 1):
            _acc(out, sw, c)
        else:
            _acc(out, sw, c * Q)
            _acc(out, w, c * Q_MINUS_1)
    return out


def _prefix_products(terms: dict[Permutation, LaurentPoly], keyed):
    """Yield (terms * T_w, x) for every pair (w, x) in keyed; x is not None.

    The canonical reduced words are prefix-closed: word(w) = word(w s_d) + (d)
    for the smallest right descent d.  So the words of the keys form a trie,
    and terms * T_w is one _rmul_gen away from the product at its parent
    node: one generator step per trie edge instead of length(w) per key.
    """
    # a node is [x or None, {generator: child node}, number of keys below it]
    root: list = [None, {}, 0]
    for w, x in keyed:
        node = root
        node[2] += 1
        for i in w.reduced_word():
            child = node[1].get(i)
            if child is None:
                child = node[1][i] = [None, {}, 0]
            node = child
            node[2] += 1
        node[0] = x
    return _walk(terms, root)


def _walk(acc: dict, node: list):
    # Depth first.  The child with the most keys below it is followed in this
    # frame instead of recursed into, so a partial product is held only while
    # a sibling still needs it, and the recursion is at most log2(#keys) deep.
    while True:
        x, children, _ = node
        if x is not None:
            yield acc, x
        if not children:
            return
        if len(children) == 1:
            (heavy, node), = children.items()
        else:
            heavy = max(children, key=lambda i: children[i][2])
            for j, child in children.items():
                if j != heavy:
                    yield from _walk(_rmul_gen(acc, j), child)
            node = children[heavy]
        acc = _rmul_gen(acc, heavy)


def _check_key(n: int, w) -> None:
    if not isinstance(w, Permutation):
        raise TermTypeError(
            f"support element {w!r} is a {type(w).__name__}, not a Permutation")
    if len(w) != n:
        raise DegreeMismatchError(f"support element of degree {len(w)} in H_{n}")


class HeckeElement:
    """An element of H_n, stored over the standard basis {T_w}."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[Permutation, LaurentPoly] | None = None):
        """Keys must be Permutations of degree n; coefficients LaurentPolys
        or ints.  Zero coefficients are dropped."""
        self.n = n
        clean: dict[Permutation, LaurentPoly] = {}
        if terms:
            for w, c in terms.items():
                _check_key(n, w)
                if isinstance(c, int):
                    c = LaurentPoly(c)
                elif not isinstance(c, LaurentPoly):
                    raise TermTypeError(
                        f"coefficient {c!r} is a {type(c).__name__}, "
                        f"not a LaurentPoly")
                if c:
                    clean[w] = c
        self._terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict[Permutation, LaurentPoly]) -> "HeckeElement":
        h = object.__new__(cls)
        h.n = n
        h._terms = terms
        return h

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls._raw(n, {Permutation.identity(n): ONE})

    @classmethod
    def basis(cls, n: int, w: Permutation) -> "HeckeElement":
        _check_key(n, w)
        return cls._raw(n, {w: ONE})

    @classmethod
    def basis_normalized(cls, n: int, w: Permutation) -> "HeckeElement":
        """The normalised basis element T~_w = v^(-length(w)) T_w."""
        _check_key(n, w)
        return cls._raw(n, {w: v_power(-w.length())})

    @classmethod
    def generator(cls, n: int, i: int) -> "HeckeElement":
        return cls.basis(n, Permutation.simple(n, i))

    @classmethod
    def from_word(cls, n: int, word) -> "HeckeElement":
        """The product T_{s_{i_1}} T_{s_{i_2}} ... (any word, not necessarily
        reduced; non-reduced words multiply out through the quadratic relation).
        """
        terms = {Permutation.identity(n): ONE}
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for degree {n}")
            terms = _rmul_gen(terms, i)
        return cls._raw(n, terms)

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
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            _acc(out, w, -c)
        return HeckeElement._raw(self.n, out)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement._raw(self.n, {w: -c for w, c in self._terms.items()})

    def scale(self, c) -> "HeckeElement":
        if isinstance(c, int):
            c = LaurentPoly(c)
        if not c:
            return HeckeElement.zero(self.n)
        return HeckeElement._raw(self.n,
                                 {w: d * c for w, d in self._terms.items()})

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        out: dict[Permutation, LaurentPoly] = {}
        for acc, c in _prefix_products(self._terms, other._terms.items()):
            if c.is_one():
                for u, d in acc.items():
                    _acc(out, u, d)
            else:
                for u, d in acc.items():
                    _acc(out, u, d * c)
        return HeckeElement._raw(self.n, out)

    def __rmul__(self, other) -> "HeckeElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "HeckeElement":
        if k < 0:
            raise ValueError("negative powers of Hecke elements are not supported")
        result = HeckeElement.one(self.n)
        for _ in range(k):
            result = result * self
        return result

    # -- algebra maps -------------------------------------------------------------

    def to_normalized(self) -> "HeckeElement":
        """Rescale the coefficient of each w by v^(-length(w)).

        This is the module map T_w -> T~_w; products of images of the
        generators satisfy the normalised quadratic relation.
        """
        return HeckeElement._raw(
            self.n, {w: c * v_power(-w.length()) for w, c in self._terms.items()})

    def from_normalized(self) -> "HeckeElement":
        """Inverse of to_normalized: rescale by v^(+length(w))."""
        return HeckeElement._raw(
            self.n, {w: c * v_power(w.length()) for w, c in self._terms.items()})

    def apply_diagram_flip(self) -> "HeckeElement":
        """The algebra automorphism T_{s_i} -> T_{s_{n-i}} applied termwise."""
        return HeckeElement._raw(
            self.n, {w.apply_diagram_flip(): c for w, c in self._terms.items()})

    def embed(self, m: int) -> "HeckeElement":
        """The same element inside H_m under the standard inclusion."""
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
            val = c.evaluate(1)
            if val:
                out[w] = int(val)
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
    the algebra.  Single-generator products on both sides keep this cheap.
    """
    for i in range(1, h.n):
        if _rmul_gen(h._terms, i) != _lmul_gen(h._terms, i):
            return False
    return True


def left_mult_matrix(h: HeckeElement, caps: Caps = DEFAULT_CAPS
                     ) -> dict[Permutation, dict[Permutation, LaurentPoly]]:
    """The matrix of g -> h*g over the standard basis, as sparse rows.

    Entry [u][w] is the coefficient of T_u in h * T_w; zero entries, and
    rows that are zero throughout, are left out.
    """
    AlgebraContext(h.n, caps).check_linalg()
    basis = _all_permutations(h.n)
    rows: dict[Permutation, dict[Permutation, LaurentPoly]] = {}
    for acc, w in _prefix_products(h._terms, zip(basis, basis)):
        for u, c in acc.items():
            rows.setdefault(u, {})[w] = c
    return rows
