"""The earlier parser, kept as the reference for the one-pass parser.

``oracle_scalar`` is the old ``parse_scalar`` and ``oracle_element`` the old
``parse_element``: a tokenizer that walks the text one character at a time
into (kind, value, position) tuples, ``peek`` and ``next`` calls that clamp
the cursor, square-and-multiply for every power, and a ``HeckeElement`` per
term, scaled and then added with a copy of the running sum.  Digits and
names follow ``str.isdigit`` and ``str.isalnum``, so non-ASCII digits and
letters form tokens here, where the package refuses them as stray
characters.  The package's parser must return the same elements, key order
included, and raise the same errors where this one raises a HeckeError.
"""

from hecke.algebra import AlgebraContext, Caps, DEFAULT_CAPS, HeckeElement
from hecke.errors import ParseError, ResourceCapError
from hecke.laurent import LaurentPoly, Q, V, XI, _from_decimal
from hecke.parsing import (MAX_EXPONENT, MAX_NESTING, MAX_POWER_BITS,
                           MAX_POWER_TERMS, _power_terms, _resolve_reference)

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
        if base and exp * max(-base.min_exp(), base.max_exp()) > MAX_EXPONENT:
            raise ResourceCapError(
                f"power {exp} yields an exponent of v past {MAX_EXPONENT}")
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


def oracle_scalar(text: str) -> LaurentPoly:
    """Parse a scalar expression over Z[v, v^-1]."""
    p = _Parser(text)
    out = p.scalar_sum()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return out


def oracle_element(text: str, n: int, caps: Caps = DEFAULT_CAPS) -> HeckeElement:
    """Parse an element expression at the given degree."""
    AlgebraContext(n, caps).check_enum()
    p = _Parser(text, n, caps)
    out = p.element()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return out
