"""Exception types shared across the package."""


class HeckeError(Exception):
    """Base class for errors raised by this package."""


class DegreeMismatchError(HeckeError, ValueError):
    """Operands live in algebras of different degrees, or a degree is below 1."""


class TermTypeError(HeckeError, TypeError):
    """A Hecke element term whose key is not a Permutation or whose
    coefficient is not a LaurentPoly, a scalar term whose exponent or
    coefficient is not an int, or a degree or generator index that is not
    an int (bools included)."""


class ResourceCapError(HeckeError, RuntimeError):
    """A computation exceeds a configured size cap."""


class ParseError(HeckeError, ValueError):
    """Bad element or scalar text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class NotCentralError(HeckeError, ValueError):
    """An operation requiring a central element got a non-central one."""


class MismatchError(HeckeError, ValueError):
    """An exact identity failed; the message carries the differing term."""


class FormatError(HeckeError, ValueError):
    """Malformed serialised data."""
