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
descent could not parse.  No scalar built from text or JSON has more than
MAX_TERMS terms: a product whose result could pass it raises
ResourceCapError before it is multiplied, a scalar times each coefficient
of a part (c*@ref) included, and so does a sum that passes it; a power
stays below it by MAX_POWER_TERMS.  A sum is built in place, in one term
dict.  The scalar products of one parse, of both kinds and those inside a
power of a multi-term base, multiply at most MAX_PAIRS pairs of terms in
all, a pair of wide coefficients counted by its 64-bit words whatever the
size of the product, and a power of a non-unit monomial is charged the
square of its words: the one that would pass it raises ResourceCapError
before it is multiplied.
Coefficient literals may have any number of digits; an exponent must
convert with int(), within the interpreter's limit on int/str conversion
(4,300 digits by default), since JSON writes it as a number.  A power
whose result has an exponent of v past MAX_EXPONENT in absolute value
raises ResourceCapError, as element_from_json does for such an exponent
in a JSON pair.  A product of powers can pass that bound, by as much as
its text is long: its text still prints, and element_to_json raises
ResourceCapError once an exponent has too many digits for a JSON number.

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

Tokens: INT is ASCII digits 0-9, NAME an ASCII letter and then ASCII
letters, digits and '_', and any other token one of + - * ^ ( ) [ ] , @ :.
Whitespace (str.isspace) separates tokens.  Any other character, a
non-ASCII digit or letter included, raises ParseError at its position, as
does a generator index or an integer reference argument too long to
convert, and a NAME where @gamma or an indexed reference wants an INT.
One scan makes the list of token strings, which the parser walks by
index; a token's character position is worked out only when an error is
raised there.  A power of a monomial is built as its one term, and each
term's scalar times part goes straight into one term dict, with one
product (and one negation) per distinct coefficient object of the part,
which the terms holding it share, as HeckeElement.scale does.  A text that
is one unscaled, unnegated part returns that part's element as it is: @x
is the memoized x, not a copy.
"""

from __future__ import annotations

import re

# MAX_WORD_LENGTH is the grammar's word bound, kept importable from here
from .algebra import (AlgebraContext, Caps, DEFAULT_CAPS, HeckeElement,
                      MAX_WORD_LENGTH, _per_object)
from .elements import NAMED_KINDS, named_element
from .errors import FormatError, ParseError, ResourceCapError
from .laurent import (LaurentPoly, ONE, Q, V, XI, _DECIMAL_SMALL,
                      _from_decimal, _is_int, _power)
from .permutations import Partition, Permutation

# Allows (v - 1)^512, which takes about 0.04 s; (v - 1)^2000 takes about
# 2 s (Python 3.11, 2-core Xeon).
MAX_POWER_TERMS = 513
# |b^e|_1 <= |b|_1^e, so no coefficient of b^e passes
# 2^(e * ceil(log2 |b|_1)).  Allows 3^10000 (20,000 bits); 3^10000000
# took 5.7 s.
MAX_POWER_BITS = 1 << 16
# The largest |e| of a power v^e that a text power yields or a JSON pair
# carries: q^500000000 is read, q^10000000000 is refused.
MAX_EXPONENT = 10 ** 9
# The most terms a scalar read from text or JSON may have.  A product or
# power whose result could pass it raises ResourceCapError before it is
# multiplied, a sum that passes it once it is built (a sum costs no more
# than its terms), and a JSON coefficient with more pairs before it is
# read.  (1+v)^255*(1+v^256)^255, with exactly this many terms, parses in
# about 0.04 s; multiplying out (1+v)^512*(1+v^513)^512, 263,169 terms,
# took 0.13 s (Python 3.11, 2-core Xeon).  Apart from the tests of this
# bound, no scalar that the tests, CI or the benchmark read has more than
# 600 terms.
MAX_TERMS = 1 << 16
# The most pairs of terms t_a * t_b the scalar products of one parse may
# multiply, the squares and products of a power included, a pair of wide
# coefficients counted by its 64-bit words (_Parser.product), and a power
# of a non-unit monomial charged the square of its words over 64: 20
# factors (1+v)^255, under every other bound, took 17 s, (N+N*v)^255 with
# N = 2^255 - 19 9.0 s, 200 factors 3^10000 3.0 s and a sum of 4,000
# 7^21000 2.3 s.  The slowest texts measured under it take about 0.25 s,
# such as (1+2*v)^512*(1+2*v)^512, or 0.4 s for a text of 55 KB, 11,000
# factors 2^60 (Python 3.11, 2-core Xeon).
MAX_PAIRS = 1 << 20
# Each level of parentheses takes four frames of the recursive descent, so
# about 250 levels reach the interpreter's default recursion limit.
MAX_NESTING = 100
# An INT, a NAME or one other character; a token that starts with none of
# _PLAIN is stray, and a text of _PLAIN characters alone holds none
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|\S")
_PLAIN = frozenset("0123456789abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ+-*^()[],@: \t\n\r")
_NAMES = {"q": Q, "v": V, "xi": XI}


def _tokens(text: str) -> list[str]:
    """The tokens of text, then '' for its end; a stray character raises
    ParseError at its position."""
    if not _PLAIN.issuperset(text):
        for m in _TOKEN.finditer(text):
            if m.group()[0] not in _PLAIN:
                raise ParseError(f"unexpected character {m.group()!r}",
                                 m.start())
    tokens = _TOKEN.findall(text)
    tokens.append("")
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


def _words(terms: dict[int, int]) -> int:
    """The 64-bit words of the widest coefficient of terms."""
    return (max(map(int.bit_length, terms.values()), default=0) + 63) >> 6


def _past_max_terms() -> ResourceCapError:
    return ResourceCapError(f"a sum of scalars has more than {MAX_TERMS} "
                            f"terms")


class _Parser:
    """Recursive descent over the token list; k indexes the next token."""

    def __init__(self, text: str, n: int | None = None,
                 caps: Caps = DEFAULT_CAPS):
        self.text = text
        self.toks = _tokens(text)
        self.k = 0
        self.n = n
        self.caps = caps
        self.depth = 0
        self.pairs = 0
        # a product's pairs count 1 each, with no widths read, while the
        # pairs counted, its own included, stay below this: until then
        # every coefficient is made by fewer than 64 products of narrow
        # literals and powers, and has at most about 64 words.  A literal
        # or power that may pass 64 bits sets it to 0
        self.plain = 64

    def fail(self, message: str, k: int) -> ParseError:
        """A ParseError at the start of token k, found by scanning again."""
        for i, m in enumerate(_TOKEN.finditer(self.text)):
            if i == k:
                return ParseError(message, m.start())
        return ParseError(message, len(self.text))

    def expected(self, kind: str, k: int) -> ParseError:
        return self.fail(f"expected {kind!r}, found "
                         f"{self.toks[k] or 'end of input'!r}", k)

    def finish(self) -> None:
        tok = self.toks[self.k]
        if tok:
            raise self.fail(f"unexpected trailing input {tok!r}", self.k)

    def charge(self, pairs: int) -> None:
        """Count pairs against MAX_PAIRS: ResourceCapError once the parse
        passes it."""
        self.pairs += pairs
        if self.pairs > MAX_PAIRS:
            raise ResourceCapError(f"the scalar products of one text would "
                                   f"multiply more than {MAX_PAIRS} pairs")

    def product(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        """a * b, refused with ResourceCapError before it is multiplied when
        it takes the parse past MAX_PAIRS.

        Each pair of terms is charged 1 plus the product of the 64-bit
        words of the widest coefficient of each factor, over 64.  While the
        parse may hold no wide coefficient (self.plain) a pair is charged
        1, with no widths read, which would cost more than the product.
        """
        ta, tb = a._terms, b._terms
        pairs = len(ta) * len(tb)
        if self.pairs + pairs >= self.plain:
            pairs *= 1 + (_words(ta) * _words(tb) >> 6)
        self.charge(pairs)
        return a * b

    def multiply(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        """product(a, b), refused with ResourceCapError before it is
        multiplied when it could have more than MAX_TERMS terms.

        Its exponents are sums of one exponent of each factor, so it has at
        most as many terms as there are such sums and as their window holds:
        a bound as exact as to whether it passes MAX_TERMS as _power_terms'.
        """
        ta, tb = a._terms, b._terms
        if (len(ta) * len(tb) > MAX_TERMS
                and max(ta) - min(ta) + max(tb) - min(tb) >= MAX_TERMS):
            raise ResourceCapError(
                f"a product of a {len(ta)}-term and a {len(tb)}-term scalar "
                f"could have more than {MAX_TERMS} terms")
        return self.product(a, b)

    def _starts_part(self, k: int) -> bool:
        tok = self.toks[k]
        return tok == "@" or (tok == "T" and self.toks[k + 1] == "[")

    # -- scalars -------------------------------------------------------------

    def scalar_sum(self) -> LaurentPoly:
        """The sum of the products, added in place into one term dict, in
        the order, key order included, that adding them one by one gives;
        a lone product is returned as it is."""
        toks = self.toks
        negate = toks[self.k] == "-"
        if negate:
            self.k += 1
        first = self.scalar_product()
        op = toks[self.k]
        if op != "+" and op != "-":
            return -first if negate else first
        out = ({e: -c for e, c in first._terms.items()} if negate
               else dict(first._terms))
        get, pop = out.get, out.pop
        while op == "+" or op == "-":
            self.k += 1
            minus = op == "-"
            for e, c in self.scalar_product()._terms.items():
                s = get(e, 0) - c if minus else get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    pop(e, None)
            if len(out) > MAX_TERMS:
                raise _past_max_terms()
            op = toks[self.k]
        return LaurentPoly._raw(out)

    def scalar_product(self, stop_at_part: bool = False) -> LaurentPoly:
        out = self.scalar_power()
        toks = self.toks
        while toks[self.k] == "*":
            if stop_at_part and self._starts_part(self.k + 1):
                break
            self.k += 1
            out = self.multiply(out, self.scalar_power())
        return out

    def scalar_power(self) -> LaurentPoly:
        base = self.scalar_atom()
        toks = self.toks
        k = self.k
        if toks[k] != "^":
            return base
        k += 1
        neg = toks[k] == "-"
        if neg:
            k += 1
        digits = toks[k]
        if not digits.isdigit():
            raise self.expected("INT", k)
        self.k = k + 1
        try:
            # exponents are JSON numbers, so they keep the interpreter's
            # limit on int/str conversion
            exp = int(digits)
        except ValueError:
            raise self.fail(f"exponent of {len(digits)} digits is too long",
                            k) from None
        unit = base.is_unit()
        if neg and not unit:
            raise self.fail("negative power of a non-unit scalar", k)
        if not unit:
            norm = sum(abs(c) for _, c in base.items())
            bits = exp * max(norm - 1, 0).bit_length()
            if bits > MAX_POWER_BITS:
                raise ResourceCapError(
                    f"power could have coefficients of more than "
                    f"{MAX_POWER_BITS} bits")
            if bits >= 64:
                self.plain = 0
        # a monomial's power has one term, so only a wider base is bounded
        if (exp > 1 and len(base._terms) > 1
                and _power_terms(base, exp) > MAX_POWER_TERMS):
            raise ResourceCapError(
                f"power {exp} of a {base.num_terms()}-term scalar could have "
                f"more than {MAX_POWER_TERMS} terms")
        if base and exp * max(-base.min_exp(), base.max_exp()) > MAX_EXPONENT:
            raise ResourceCapError(
                f"power {exp} yields an exponent of v past {MAX_EXPONENT}")
        if len(base._terms) != 1:
            # the products of LaurentPoly.__pow__, each charged to the parse
            # by product.  The bounds above hold the terms of every partial
            # power, which the sums of multiply would not: a square inside
            # (1+v^513)^512, of 513 terms, has 66,049 sums in a window of
            # 262,657
            return _power(base, exp, self.product) if exp else ONE
        # a monomial's power is its one term, charged as the square of its
        # words when it is not a unit's
        (e, c), = base._terms.items()
        if not unit:
            words = (bits + 63) >> 6
            self.charge(1 + (words * words >> 6))
        return LaurentPoly._raw({(-e if neg else e) * exp: c ** exp})

    def scalar_atom(self) -> LaurentPoly:
        k = self.k
        tok = self.toks[k]
        if tok.isdigit():
            self.k = k + 1
            if len(tok) > 19:   # may pass 64 bits
                self.plain = 0
            return LaurentPoly(_from_decimal(tok))
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ResourceCapError(
                    f"scalar nested more than {MAX_NESTING} parentheses deep")
            self.depth += 1
            self.k = k + 1
            inner = self.scalar_sum()
            if self.toks[self.k] != ")":
                raise self.expected(")", self.k)
            self.k += 1
            self.depth -= 1
            return inner
        named = _NAMES.get(tok)
        if named is not None:
            self.k = k + 1
            return named
        if tok.isidentifier():
            raise self.fail(f"unknown scalar name {tok!r}", k)
        raise self.fail(f"expected a scalar, found {tok or 'end of input'!r}",
                        k)

    # -- elements ------------------------------------------------------------

    def element(self) -> HeckeElement:
        """The sum of the terms, each scalar times part added straight into
        one term dict; a lone unscaled part is returned as it is."""
        toks = self.toks
        negate = toks[self.k] == "-"
        if negate:
            self.k += 1
        scalar, part = self.term()
        op = toks[self.k]
        if not negate and scalar is None and op != "+" and op != "-":
            return part
        terms: dict[Permutation, LaurentPoly] = {}
        get = terms.get
        while True:
            if scalar is None or scalar:
                if negate:
                    scalar = -(ONE if scalar is None else scalar)
                # each coefficient object of part scaled once, and shared by
                # every term that holds it; a reduced word's one
                # coefficient is ONE itself
                signed = _per_object(
                    lambda c: c if scalar is None else scalar if c is ONE
                    else self.multiply(c, scalar), part._terms.values())
                for w, c in part._terms.items():
                    d = signed[id(c)]
                    cur = get(w)
                    if cur is None:
                        terms[w] = d
                    else:
                        d = cur + d
                        if len(d._terms) > MAX_TERMS:
                            raise _past_max_terms()
                        if d:
                            terms[w] = d
                        else:
                            del terms[w]
            if op != "+" and op != "-":
                return HeckeElement._raw(self.n, terms)
            self.k += 1
            negate = op == "-"
            scalar, part = self.term()
            op = toks[self.k]

    def term(self) -> tuple[LaurentPoly | None, HeckeElement]:
        """(scalar, part), the scalar None when the term has none."""
        if self._starts_part(self.k):
            return None, self.part()
        scalar = self.scalar_product(stop_at_part=True)
        k = self.k
        if self.toks[k] == "*":
            k += 1
        if not self._starts_part(k):
            raise self.fail("expected T[...] or an @reference after the scalar",
                            k)
        self.k = k
        return scalar, self.part()

    def part(self) -> HeckeElement:
        toks = self.toks
        k = self.k
        if toks[k] == "@":
            return self.reference()
        k += 2
        n = self.n
        word = []
        if toks[k] != "]":
            while True:
                tok = toks[k]
                if not tok.isdigit():
                    raise self.expected("INT", k)
                try:
                    i = int(tok)
                except ValueError:
                    raise self.fail(f"generator index of {len(tok)} digits "
                                    f"out of range for degree {n}", k) from None
                if not 0 < i < n:
                    raise self.fail(
                        f"generator index {i} out of range for degree {n}", k)
                word.append(i)
                k += 1
                if toks[k] != ",":
                    break
                k += 1
        if toks[k] != "]":
            raise self.expected("]", k)
        self.k = k + 1
        # from_word refuses a word of more than MAX_WORD_LENGTH letters
        return HeckeElement.from_word(n, word)

    def reference(self) -> HeckeElement:
        toks = self.toks
        at = self.k + 1
        ref = toks[at]
        if not ref.isidentifier():
            raise self.expected("NAME", at)
        k = at + 1
        args: list[str] = []
        if toks[k] == ":":
            while True:
                k += 1
                arg = toks[k]
                if not (arg.isdigit() or arg.isidentifier()):
                    raise self.fail("expected a reference argument", k)
                args.append(arg)
                k += 1
                if toks[k] != ",":
                    break
        self.k = k
        try:
            return _resolve_reference(ref, args, self.n, self.caps)
        except (ValueError, KeyError, IndexError) as exc:
            raise self.fail(str(exc), at) from exc


def _index(what: str, arg: str, n: int) -> int:
    """An integer argument of what, read as a generator index is read."""
    # str.isdigit() also holds for non-ASCII digits, which int() reads
    if not (arg.isdigit() and arg.isascii()):
        raise ValueError(f"{what} argument {arg!r} is not an integer")
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"{what} argument of {len(arg)} digits out of range "
                         f"for degree {n}") from None


def read_partition(what: str, parts: list[str], n: int) -> Partition:
    """The partition of n with the given parts, each ASCII digits with
    whitespace allowed around it, as @gamma: reads them; anything else
    raises ValueError."""
    lam = tuple(_index(what, p.strip(), n) for p in parts)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    return Partition(lam)


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
        lam = read_partition("@gamma", args, n)
        return gamma_basis(ctx)[lam]
    if ref not in NAMED_KINDS:
        raise ValueError(f"unknown element reference @{ref}")
    indexed, _ = NAMED_KINDS[ref]
    if indexed:
        if len(args) != 1:
            raise ValueError(f"@{ref} takes one index, e.g. @{ref}:2")
        return named_element(ref, ctx, _index(f"@{ref}", args[0], n))
    if args:
        raise ValueError(f"@{ref} takes no arguments")
    return named_element(ref, ctx)


def parse_scalar(text: str) -> LaurentPoly:
    """Parse a scalar expression over Z[v, v^-1]."""
    p = _Parser(text)
    out = p.scalar_sum()
    p.finish()
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
    p.finish()
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
    for w, c in (el.from_normalized() if basis == "Ttilde" else el).items():
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
    unbounded degree never finishes.  So does an exponent past
    MAX_EXPONENT in absolute value, the grammar's bound on powers, and a
    coefficient of more than MAX_TERMS pairs, the grammar's bound on terms.
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
        pairs = entry["coeff"]
        if isinstance(pairs, list) and len(pairs) > MAX_TERMS:
            raise ResourceCapError(f"the coefficient of {list(w)} has "
                                   f"{len(pairs)} pairs, more than {MAX_TERMS}")
        try:
            c = LaurentPoly.from_pairs(pairs)
        except ValueError as exc:
            raise FormatError(f"bad coefficient for {list(w)}: {exc}")
        if c and max(-c.min_exp(), c.max_exp()) > MAX_EXPONENT:
            raise ResourceCapError(f"an exponent of the coefficient of "
                                   f"{list(w)} is past {MAX_EXPONENT}")
        if c:
            terms[w] = c
    el = HeckeElement._raw(n, terms)
    return el.to_normalized() if basis == "Ttilde" else el
