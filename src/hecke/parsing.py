"""Text and JSON forms for scalars and algebra elements.

Scalar grammar (whitespace-insensitive):

    sum     := ['-'] product (('+'|'-') product)*
    product := power ('*' power)*
    power   := atom ['^' ['-'] INT]
    atom    := INT | 'q' | 'v' | 'xi' | '(' sum ')'

Negative powers need a unit base (a single term with coefficient +-1).
A power whose result could have more than MAX_POWER_TERMS terms, or
coefficients of more than MAX_POWER_BITS bits, raises ResourceCapError,
since its cost grows with the square of the one and with the other, and
so do parentheses nested more than MAX_NESTING deep, which the recursive
descent could not parse.
Coefficient literals may have any number of digits; an exponent must
convert with int(), within the interpreter's limit on int/str conversion
(4,300 digits by default), since JSON writes it as a number.  A product
can pass that limit: its text still prints, and element_to_json raises
ResourceCapError.

Element grammar:

    elem  := ['-'] term (('+'|'-') term)*
    term  := [product ['*']] part | part
    part  := 'T' '[' [INT (',' INT)*] ']' | '@' ref

T[i1,...,ik] is the product of the generators with those indices; the word
need not be reduced, so T[1,1] parses to q*T[] + (q-1)*T[1].  A word of
more than MAX_WORD_LENGTH letters raises ResourceCapError: the bound
belongs to HeckeElement.from_word, which multiplies an unreduced word out
one generator at a time.  A term-level scalar is a product, not a sum:
sums need parentheses, as in (q+1)*T[2].

The degree comes from the parse call and falls under the enumeration cap.
References: @x @y @xbar @ybar @Twn @fulltwist; @L:i @Lt:i @calL:i @Mt:i
@e:i @et:i; @catalog:NAME; @gamma:p1,p2,... for a minimal-basis element
by partition.
"""

from __future__ import annotations

# MAX_WORD_LENGTH is the grammar's word bound, kept importable from here
from .algebra import (AlgebraContext, Caps, DEFAULT_CAPS, HeckeElement,
                      MAX_WORD_LENGTH)
from .elements import INDEXED_KINDS, PLAIN_KINDS, named_element
from .errors import FormatError, ParseError, ResourceCapError
from .laurent import (LaurentPoly, Q, V, XI, _DECIMAL_SMALL,
                      _from_decimal, _is_int, v_power)
from .permutations import Permutation

# Allows (v - 1)^512, which takes about 0.04 s; (v - 1)^2000 takes about
# 2 s (Python 3.11, 2-core Xeon).
MAX_POWER_TERMS = 513
# |b^e|_1 <= |b|_1^e, so no coefficient of b^e passes
# 2^(e * ceil(log2 |b|_1)).  Allows 3^10000 (20,000 bits); 3^10000000
# took 5.7 s.
MAX_POWER_BITS = 1 << 16
# Each level of parentheses takes four frames of the recursive descent, so
# about 250 levels reach the interpreter's default recursion limit.
MAX_NESTING = 100
_SYMBOLS = "+-*^()[],@:"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", len(text)))
    return tokens


def _power_terms(base: LaurentPoly, exp: int) -> int:
    """A bound on the number of terms of base^exp, exact as to whether it
    passes MAX_POWER_TERMS.

    The exponents of base^exp lie in a window of exp * span + 1, and they
    are sums of exp exponents of base, of which there are at most
    C(exp + t - 1, t - 1) for t terms.  The binomial grows with every
    factor, so it is built only until it passes the cap.
    """
    window = exp * (base.max_exp() - base.min_exp()) + 1
    sums = 1
    for k in range(1, base.num_terms()):
        sums = sums * (exp + k) // k
        if sums > MAX_POWER_TERMS:
            break
    return min(window, sums)


class _Parser:
    def __init__(self, text: str, n: int | None = None,
                 caps: Caps = DEFAULT_CAPS):
        self.tokens = _tokenize(text)
        self.k = 0
        self.n = n
        self.caps = caps
        self.depth = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        if tok[0] != "EOF":
            self.k += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def at_end(self) -> bool:
        return self.peek()[0] == "EOF"

    # -- scalars -------------------------------------------------------------

    def _starts_part(self, ahead: int = 0) -> bool:
        kind, val, _ = self.peek(ahead)
        return (kind == "NAME" and val == "T"
                and self.peek(ahead + 1)[0] == "[") or kind == "@"

    def scalar_sum(self) -> LaurentPoly:
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        out = self.scalar_product()
        if negate:
            out = -out
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.scalar_product()
            out = out + rhs if op == "+" else out - rhs
        return out

    def scalar_product(self, stop_at_part: bool = False) -> LaurentPoly:
        out = self.scalar_power()
        while True:
            if self.peek()[0] == "*":
                if stop_at_part and self._starts_part(1):
                    return out
                self.next()
                out = out * self.scalar_power()
            else:
                return out

    def scalar_power(self) -> LaurentPoly:
        base = self.scalar_atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        neg = False
        if self.peek()[0] == "-":
            self.next()
            neg = True
        tok = self.expect("INT")
        try:
            # exponents are JSON numbers, so they keep the interpreter's
            # limit on int/str conversion
            exp = int(tok[1])
        except ValueError:
            raise ParseError(f"exponent of {len(tok[1])} digits is too long",
                             tok[2]) from None
        if neg and not base.is_unit():
            raise ParseError("negative power of a non-unit scalar", tok[2])
        if not base.is_unit():
            norm = sum(abs(c) for _, c in base.items())
            if exp * max(norm - 1, 0).bit_length() > MAX_POWER_BITS:
                raise ResourceCapError(
                    f"power could have coefficients of more than "
                    f"{MAX_POWER_BITS} bits")
        if exp > 1 and base and _power_terms(base, exp) > MAX_POWER_TERMS:
            raise ResourceCapError(
                f"power {exp} of a {base.num_terms()}-term scalar could have "
                f"more than {MAX_POWER_TERMS} terms")
        if not neg:
            return base ** exp
        (e, c), = base.items()
        return LaurentPoly({-e: c}) ** exp

    def scalar_atom(self) -> LaurentPoly:
        kind, val, pos = self.next()
        if kind == "INT":
            return LaurentPoly(_from_decimal(val))
        if kind == "NAME":
            if val == "q":
                return Q
            if val == "v":
                return V
            if val == "xi":
                return XI
            raise ParseError(f"unknown scalar name {val!r}", pos)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ResourceCapError(
                    f"scalar nested more than {MAX_NESTING} parentheses deep")
            self.depth += 1
            inner = self.scalar_sum()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a scalar, found {val or 'end of input'!r}", pos)

    # -- elements ------------------------------------------------------------

    def element(self) -> HeckeElement:
        negate = self.peek()[0] == "-"
        if negate:
            self.next()
        out = self.term()
        if negate:
            out = -out
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> HeckeElement:
        if self._starts_part():
            return self.part()
        scalar = self.scalar_product(stop_at_part=True)
        if self.peek()[0] == "*":
            self.next()
        if not self._starts_part():
            tok = self.peek()
            raise ParseError("expected T[...] or an @reference after the scalar",
                             tok[2])
        return self.part().scale(scalar)

    def part(self) -> HeckeElement:
        kind, val, pos = self.next()
        if kind == "NAME" and val == "T":
            self.expect("[")
            word = []
            if self.peek()[0] != "]":
                while True:
                    tok = self.expect("INT")
                    i = int(tok[1])
                    if not 1 <= i <= self.n - 1:
                        raise ParseError(
                            f"generator index {i} out of range for degree {self.n}",
                            tok[2])
                    word.append(i)
                    if self.peek()[0] != ",":
                        break
                    self.next()
            self.expect("]")
            # from_word refuses a word of more than MAX_WORD_LENGTH letters
            return HeckeElement.from_word(self.n, word)
        if kind == "@":
            return self.reference()
        raise ParseError(f"expected T[...] or an @reference, found "
                         f"{val or 'end of input'!r}", pos)

    def reference(self) -> HeckeElement:
        name_tok = self.expect("NAME")
        ref, pos = name_tok[1], name_tok[2]
        args: list[str] = []
        if self.peek()[0] == ":":
            self.next()
            while True:
                tok = self.next()
                if tok[0] not in ("INT", "NAME"):
                    raise ParseError("expected a reference argument", tok[2])
                args.append(tok[1])
                if self.peek()[0] != ",":
                    break
                self.next()
        try:
            return _resolve_reference(ref, args, self.n, self.caps)
        except (ValueError, KeyError, IndexError) as exc:
            raise ParseError(str(exc), pos) from exc


def _resolve_reference(ref: str, args: list[str], n: int,
                       caps: Caps) -> HeckeElement:
    ctx = AlgebraContext(n, caps)
    if ref == "catalog":
        if len(args) != 1:
            raise ValueError("@catalog takes one name, e.g. @catalog:R4")
        from .sqrtcenter import catalog
        table = catalog(n)
        if args[0] not in table:
            raise ValueError(f"unknown catalog element {args[0]!r} at degree {n}; "
                             f"names: {', '.join(sorted(table))}")
        return table[args[0]]
    if ref == "gamma":
        from .center import gamma_basis
        parts = tuple(int(a) for a in args)
        if sum(parts) != n:
            raise ValueError(f"{parts} is not a partition of {n}")
        return gamma_basis(ctx)[parts]
    if ref in INDEXED_KINDS:
        if len(args) != 1:
            raise ValueError(f"@{ref} takes one index, e.g. @{ref}:2")
        return named_element(ref, ctx, int(args[0]))
    if ref in PLAIN_KINDS:
        if args:
            raise ValueError(f"@{ref} takes no arguments")
        return named_element(ref, ctx)
    raise ValueError(f"unknown element reference @{ref}")


def parse_scalar(text: str) -> LaurentPoly:
    """Parse a scalar expression over Z[v, v^-1]."""
    p = _Parser(text)
    out = p.scalar_sum()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return out


def parse_element(text: str, n: int, caps: Caps = DEFAULT_CAPS) -> HeckeElement:
    """Parse an element expression at the given degree.

    A degree above the enumeration cap raises ResourceCapError, as in
    element_from_json: a permutation's length costs about n^2, and a word
    of commuting squares expands to 2^(letters / 2) terms.
    """
    AlgebraContext(n, caps).check_enum()
    p = _Parser(text, n, caps)
    out = p.element()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return out


def format_scalar(p: LaurentPoly) -> str:
    """Canonical text for a scalar; parse_scalar round-trips it."""
    return p._text()


# T[...] for each basis permutation of degree at most the default
# enumeration cap, written once: at most 1! + 2! + ... + 7! strings
_T_WORDS: dict[Permutation, str] = {}


def _t_word(w: Permutation) -> str:
    word = "T[" + ",".join(map(str, w.reduced_word())) + "]"
    if len(w) <= DEFAULT_CAPS.enum_max:
        _T_WORDS[w] = word
    return word


def format_element(el: HeckeElement) -> str:
    """Canonical text for an element; parse_element round-trips it.

    Terms are ordered by (length, one-line notation) of the basis
    permutation; coefficients print bare when they are single terms and
    parenthesized otherwise.  A negative single term, or a sum with a
    negative leading coefficient, prints its sign between the terms.
    """
    terms = el._terms
    if not terms:
        return "0*T[]"
    out = []
    for w in el.support():
        t_part = _T_WORDS.get(w) or _t_word(w)
        c = terms[w]
        cterms = c._terms
        if len(cterms) == 1:
            (e, a), = cterms.items()
            neg = a < 0
            body = (t_part if e == 0 and (a == 1 or a == -1)
                    else f"{c._text(neg)}*{t_part}")
        else:
            neg = cterms[max(cterms)] < 0
            body = f"({c._text(neg)})*{t_part}"
        out.append(" - " if neg else " + ")
        out.append(body)
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


# -- JSON --------------------------------------------------------------------

def element_to_json(el: HeckeElement, basis: str = "T") -> dict:
    """JSON document for an element, in T or normalized-T coordinates.

    Exponents are JSON numbers, so one with more digits than the
    interpreter converts to a string (4,300 by default from Python 3.11
    on) raises ResourceCapError.
    """
    if basis not in ("T", "Ttilde"):
        raise ValueError(f"basis must be 'T' or 'Ttilde', got {basis!r}")
    terms = []
    for w, c in el.items():
        if basis == "Ttilde":
            c = c * v_power(w.length())
        pairs = c.to_pairs()
        # ascending, so the widest exponent is at one end; every limit
        # converts numbers below _DECIMAL_SMALL
        lo, hi = pairs[0][0], pairs[-1][0]
        if not -_DECIMAL_SMALL < lo <= hi < _DECIMAL_SMALL:
            try:
                str(lo), str(hi)
            except ValueError:
                raise ResourceCapError(
                    f"an exponent of the coefficient of {list(w)} has too "
                    f"many digits to write as a JSON number") from None
        terms.append({"perm": list(w), "coeff": pairs})
    return {"n": el.n, "basis": basis, "terms": terms}


def element_from_json(doc, caps: Caps = DEFAULT_CAPS) -> HeckeElement:
    """Rebuild an element from its JSON document, validating as it goes.

    It takes exactly what element_to_json writes: the degree, each
    permutation entry and each exponent a JSON integer (not a bool, not a
    float), each coefficient a list of [exponent, coefficient] pairs with
    the coefficient a decimal string or an integer.  Anything else raises
    FormatError.  A degree above the enumeration cap raises
    ResourceCapError: lengths and reduced words cost about n^3, so an
    unbounded degree never finishes.
    """
    if not isinstance(doc, dict):
        raise FormatError("element document must be an object")
    missing = {"n", "basis", "terms"} - set(doc)
    if missing:
        raise FormatError(f"element document missing keys {sorted(missing)}")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise FormatError("degree must be a positive JSON integer")
    AlgebraContext(n, caps).check_enum()
    basis = doc["basis"]
    if basis not in ("T", "Ttilde"):
        raise FormatError("basis must be 'T' or 'Ttilde'")
    if not isinstance(doc["terms"], list):
        raise FormatError("terms must be a list")
    terms: dict[Permutation, LaurentPoly] = {}
    for i, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict) or set(entry) != {"perm", "coeff"}:
            raise FormatError(f"term {i} is not an object with keys "
                              f"'perm' and 'coeff'")
        perm = entry["perm"]
        if (not isinstance(perm, (list, tuple)) or len(perm) != n
                or not all(_is_int(x) for x in perm)):
            raise FormatError(f"term {i}: permutation must be a list of "
                              f"{n} JSON integers")
        try:
            w = Permutation(perm)
        except ValueError as exc:
            raise FormatError(f"bad permutation in term {i}: {exc}")
        if w in terms:
            raise FormatError(f"duplicate permutation {list(w)}")
        try:
            c = LaurentPoly.from_pairs(entry["coeff"])
        except ValueError as exc:
            raise FormatError(f"bad coefficient for {list(w)}: {exc}")
        if basis == "Ttilde":
            c = c * v_power(-w.length())
        if c:
            terms[w] = c
    return HeckeElement._raw(n, terms)
