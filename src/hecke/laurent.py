"""Exact scalar arithmetic: Laurent polynomials over Z.

Every scalar in this package lives in Z[v, v^-1], the ring of Laurent
polynomials with integer coefficients in a single variable v.  The Hecke
parameter is q = v^2, so half-integral powers of q are honest monomials
and the normalised presentation (whose quadratic relation involves
xi = v - v^-1) never forces us out of the ring.

A polynomial is stored sparsely as {exponent: coefficient} with zero
coefficients stripped, so structural equality coincides with equality in
the ring.  Coefficients are Python ints and never overflow.

No fractions of Laurent polynomials are formed: the exact linear algebra
is fraction-free, and the eigenvalues it searches for lie in the ring.
lp_gcd, a content-and-primitive-part gcd, is the one gcd the package uses.

It also states the package's two argument rules once each, raising
TermTypeError in one message form: _check_ints (an int, not a bool) and
_scalar (a LaurentPoly, or such an int taken as one).
"""

from __future__ import annotations

from math import gcd as _igcd

from .errors import TermTypeError


# Decimal strings of at most this many digits convert directly: every
# interpreter with a limit on int/str conversion (Python 3.11 and later)
# allows at least 640 digits.  Longer ones are split in halves.
_DECIMAL_CHUNK = 600
_DECIMAL_SMALL = 10 ** _DECIMAL_CHUNK


def _to_decimal(x: int) -> str:
    """str(x) for an int of any size, whatever the conversion limit."""
    if -_DECIMAL_SMALL < x < _DECIMAL_SMALL:
        return str(x)
    if x < 0:
        return "-" + _to_decimal(-x)
    # x < 2^b has at most b log10(2) + 1 digits, and 0.30103 > log10(2)
    k = (x.bit_length() * 30103 // 100000 + 1) // 2
    hi, lo = divmod(x, 10 ** k)
    return _to_decimal(hi) + _to_decimal(lo).zfill(k)


# The token of v^e for |e| below this bound is kept in _TOKENS once written,
# so the cache holds at most 2 * _TOKEN_BOUND - 1 short strings; a wider
# exponent converts through _to_decimal on every use.
_TOKEN_BOUND = 1024
_TOKENS: dict[int, str] = {}


def _power_token(e: int) -> str:
    """'' for v^0, 'q' or 'q^h' for v^(2h), 'v' or 'v^e' for odd e."""
    if e == 0:
        token = ""
    elif e % 2 == 0:
        token = "q" if e == 2 else f"q^{_to_decimal(e // 2)}"
    else:
        token = "v" if e == 1 else f"v^{_to_decimal(e)}"
    if -_TOKEN_BOUND < e < _TOKEN_BOUND:
        _TOKENS[e] = token
    return token


def _from_decimal(text: str) -> int:
    """int(text) for a decimal string of any length, whatever the
    conversion limit; ValueError if it is not one."""
    if len(text) <= _DECIMAL_CHUNK:
        return int(text)
    body = text.lstrip("+-")
    if len(text) - len(body) > 1 or not body.isdecimal():
        raise ValueError(f"invalid decimal of {len(text)} characters")
    k = len(body) // 2
    x = _from_decimal(body[:-k]) * 10 ** k + _from_decimal(body[-k:])
    return -x if text.startswith("-") else x


def _is_int(x) -> bool:
    """Whether x is an int and not a bool (which subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ints(what: str, *xs) -> None:
    """The package's int rule: each x is an int, not a bool."""
    for x in xs:
        if not _is_int(x):
            raise TermTypeError(
                f"{what} {x!r} is a {type(x).__name__}, not an int")


def _scalar(c, what: str) -> "LaurentPoly":
    """The package's scalar rule: c as a LaurentPoly, c being one or an int
    (not a bool)."""
    if isinstance(c, LaurentPoly):
        return c
    if not _is_int(c):
        raise TermTypeError(
            f"{what} {c!r} is a {type(c).__name__}, not a LaurentPoly")
    return LaurentPoly(c)


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical sparse form.

    A polynomial is never changed after it is built: every operation
    returns a new one.  So one object may be the coefficient of many terms,
    and the products and scalings of hecke.algebra give the equal
    coefficients of a result one shared object, converting each distinct
    object once.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | int = 0):
        """An int, or a mapping of int exponents to int coefficients;
        anything else, a bool included, raises TermTypeError."""
        if _is_int(terms):
            self._terms = {0: terms} if terms else {}
            return
        if not hasattr(terms, "items"):  # nor a mapping: this raises
            _check_ints("scalar", terms)
        out = {}
        for e, c in terms.items():
            _check_ints("scalar exponent or coefficient", e, c)
            if c:
                out[e] = c
        self._terms = out

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPoly":
        # internal: terms already canonical, not shared with callers
        p = object.__new__(cls)
        p._terms = terms
        return p

    # -- queries ---------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """Term list sorted by ascending exponent."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_unit(self) -> bool:
        """Units of Z[v, v^-1] are +-v^k."""
        if len(self._terms) != 1:
            return False
        c = next(iter(self._terms.values()))
        return c in (1, -1)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def num_terms(self) -> int:
        return len(self._terms)

    def leading_coeff(self) -> int:
        """Coefficient of the highest power of v."""
        return self._terms[self.max_exp()]

    def has_even_exponents(self) -> bool:
        """True iff the scalar lies in Z[q, q^-1], q = v^2."""
        return all(e % 2 == 0 for e in self._terms)

    def content(self) -> int:
        """Non-negative gcd of the integer coefficients (0 for the zero poly)."""
        return _content(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(b) == 1:
            (eb, cb), = b.items()
            return LaurentPoly._raw({e + eb: c * cb for e, c in a.items()})
        if len(a) == 1:
            (ea, ca), = a.items()
            return LaurentPoly._raw({ea + e: ca * c for e, c in b.items()})
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = get(e, 0) + ca * cb
                out[e] = s
        return LaurentPoly._raw({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        _check_ints("power", k)
        if k < 0:
            if not self.is_unit():
                raise ArithmeticError("negative power of a non-unit scalar")
            (e, c), = self._terms.items()
            return LaurentPoly._raw({-e: c}) ** (-k)
        return _power(self, k, LaurentPoly.__mul__) if k else ONE

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k; k is an int, not a bool (TermTypeError)."""
        _check_ints("power of v", k)
        if k == 0:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self._terms.items()})

    def divide_int(self, k: int) -> "LaurentPoly":
        """Exact division by a nonzero int, which the package's int rule
        takes (a bool raises TermTypeError): divexact by the constant k."""
        return self.divexact(LaurentPoly(k))

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[v, v^-1]; raises if the division is inexact."""
        if other.is_zero():
            raise ZeroDivisionError("division of a scalar by zero")
        if self.is_zero():
            return ZERO
        if len(other._terms) == 1:
            (eb, cb), = other._terms.items()
            out = {}
            for e, c in self._terms.items():
                q, r = divmod(c, cb)
                if r:
                    raise ArithmeticError("inexact scalar division")
                out[e - eb] = q
            return LaurentPoly._raw(out)
        sa, sb = self.min_exp(), other.min_exp()
        rem = {e - sa: c for e, c in self._terms.items()}
        db = other.max_exp() - sb
        bterms = {e - sb: c for e, c in other._terms.items()}
        lb = bterms[db]
        quot: dict[int, int] = {}
        while rem:
            da = max(rem)
            if da < db:
                raise ArithmeticError("inexact scalar division")
            qc, r = divmod(rem[da], lb)
            if r:
                raise ArithmeticError("inexact scalar division")
            shift = da - db
            quot[shift] = qc
            for e, c in bterms.items():
                ne = e + shift
                s = rem.get(ne, 0) - qc * c
                if s:
                    rem[ne] = s
                else:
                    rem.pop(ne, None)
        return LaurentPoly._raw({e + sa - sb: c for e, c in quot.items()})

    # -- evaluation and display -------------------------------------------

    def evaluate(self, v0) -> Fraction:
        """Evaluate at a nonzero rational point v = v0."""
        from fractions import Fraction  # imported on use: it pulls in decimal
        v0 = Fraction(v0)
        if v0 == 0:
            raise ZeroDivisionError("evaluation of a Laurent polynomial at v = 0")
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * v0 ** e
        return total

    def _text(self, negate: bool = False) -> str:
        """The canonical text of self, or of -self when negate is set,
        written in one pass: terms by descending exponent, each power token
        read from _TOKENS, and one join."""
        terms = self._terms
        if not terms:
            return "0"
        out = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            power = _TOKENS.get(e)
            if power is None:
                power = _power_token(e)
            if c < 0:
                c = -c
                out.append(" + " if negate else " - ")
            else:
                out.append(" - " if negate else " + ")
            if c == 1 and power:
                out.append(power)
            else:
                out.append(str(c) if c < _DECIMAL_SMALL else _to_decimal(c))
                if power:
                    out.append("*" + power)
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    __str__ = _text

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"

    # -- serialisation ------------------------------------------------------

    def to_pairs(self) -> list[list]:
        """JSON form: ascending [exponent, coefficient-as-string] pairs."""
        return [[e, _to_decimal(c)] for e, c in sorted(self._terms.items())]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        """Inverse of to_pairs: a list of [exponent, coefficient] pairs,
        the exponent an int and the coefficient an int or a string of
        ASCII digits after an optional '-'.  Anything else, a bool or a
        float included, raises ValueError."""
        if not isinstance(pairs, (list, tuple)):
            raise ValueError("scalar must be a list of pairs")
        terms: dict[int, int] = {}
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("malformed scalar pair")
            e, c = pair
            if not _is_int(e):
                raise ValueError("exponent must be an int")
            if isinstance(c, str):
                digits = c[1:] if c.startswith("-") else c
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError("coefficient must be a decimal string")
                c = _from_decimal(c)
            elif not _is_int(c):
                raise ValueError("coefficient must be a decimal string or "
                                 "an int")
            if e in terms:
                raise ValueError(f"duplicate exponent {e} in scalar")
            if c:
                terms[e] = c
        return cls._raw(terms)


# Shared constants.  LaurentPoly is immutable by convention, so these are
# safe to reuse everywhere.
ZERO = LaurentPoly()
ONE = LaurentPoly(1)
V = LaurentPoly({1: 1})
Q = LaurentPoly({2: 1})
Q_MINUS_1 = LaurentPoly({2: 1, 0: -1})
XI = LaurentPoly({1: 1, -1: -1})


def v_power(k: int) -> LaurentPoly:
    _check_ints("power of v", k)
    return LaurentPoly._raw({k: 1})


def q_power(k: int) -> LaurentPoly:
    _check_ints("power of q", k)
    return LaurentPoly._raw({2 * k: 1})


def _power(base, k: int, mul):
    """base ** k for k >= 1 by square and multiply from base, each of the
    k.bit_length() + k.bit_count() - 2 products taken by mul: the parser's
    mul charges its budget before each one runs."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else mul(out, base)
        k >>= 1
        if not k:
            return out
        base = mul(base, base)


# -- gcd machinery -----------------------------------------------------------
#
# Pseudo-remainder sequences on the sparse representation.  Primitive parts
# are taken in the Laurent sense: strip the integer content and the common
# power of v, keeping the sign of the leading coefficient.


def _content(terms: dict[int, int]) -> int:
    """LaurentPoly.content of a term dict."""
    g = 0
    for c in terms.values():
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def _strip(terms: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(content, terms divided by it and by v^(min exponent)): (0, {}) for
    {}, and terms themselves, not a copy, when there is nothing to divide."""
    if not terms:
        return 0, terms
    g = _content(terms)
    m = min(terms)
    if g == 1 and m == 0:
        return 1, terms
    return g, {e - m: c // g for e, c in terms.items()}


def _prem(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Pseudo-remainder of a by b (deg a >= deg b >= 0, min exps 0)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shift = dr - db
        nr = {e: lb * c for e, c in r.items()}
        for e, c in b.items():
            ne = e + shift
            s = nr.get(ne, 0) - lr * c
            if s:
                nr[ne] = s
            else:
                nr.pop(ne, None)
        r = nr
    return r


def lp_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """A gcd in Z[v, v^-1], canonicalised: min exponent 0, leading coeff > 0.

    The gcd of Laurent polynomials is only defined up to a unit +-v^k;
    this canonical choice makes the function deterministic.  Integer
    content is included: lp_gcd(2, 2q) = 2.
    """
    if a.is_zero() and b.is_zero():
        return ZERO
    ca, pa = _strip(a._terms)
    cb, pb = _strip(b._terms)
    c = _igcd(ca, cb)
    # a zero operand strips to {}, which sorts below every other
    if max(pa, default=-1) < max(pb, default=-1):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb)
        pa, pb = pb, _strip(r)[1]
    if pa[max(pa)] < 0:
        pa = {e: -k for e, k in pa.items()}
    return LaurentPoly._raw({e: k * c for e, k in pa.items()})
