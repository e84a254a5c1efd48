"""The minimal-basis expansion checked on LaurentPoly coefficients: the
reference for hecke.center.express_in_gamma, which tests centrality with
is_central and then reads one minimal-length coefficient per class.

The coordinates are read off the minimal-length coefficients class by
class, then each c * gamma is taken off one copy of the terms of z by
LaurentPoly arithmetic, without a product when c is 1, so an expansion
that leaves no residual proves z central without is_central.  A failed
expansion tests centrality, so against the true minimal basis the
exceptions and their messages are the ones express_in_gamma must raise.
"""

from hecke.algebra import _acc, is_central
from hecke.errors import DegreeMismatchError, MismatchError, NotCentralError
from hecke.permutations import _minimal_classes, partitions_of


def express_by_laurent(z, gb):
    """express_in_gamma(z, gb) with the residual kept as LaurentPolys."""
    if z.n != gb.n:
        raise DegreeMismatchError(
            f"element of degree {z.n} against a basis for degree {gb.n}")
    coeffs = {}
    residual = dict(z._terms)
    try:
        for lam in partitions_of(gb.n):
            minimals = _minimal_classes(gb.n)[lam]
            c0 = z.coeff(minimals[0])
            for w in minimals[1:]:
                if z.coeff(w) != c0:
                    raise MismatchError(
                        f"coefficients differ across minimal elements of "
                        f"{lam}: {c0} vs {z.coeff(w)}")
            coeffs[lam] = c0
            if c0:
                one, minus = c0.is_one(), -c0
                for w, a in gb.elements[lam]._terms.items():
                    _acc(residual, w, -a if one else a * minus)
        if residual:
            raise MismatchError(
                "element is central but is not an R-combination of the "
                f"basis (residual has {len(residual)} terms)")
    except MismatchError:
        if not is_central(z):
            raise NotCentralError("element is not central") from None
        raise
    return coeffs


def outcome(express, z, gb):
    """('ok', coordinates with key order) or (exception type, message)."""
    try:
        coords = express(z, gb)
    except Exception as exc:    # the type and message are compared
        return type(exc), str(exc)
    return "ok", list(coords.items())
