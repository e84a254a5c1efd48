"""Exact symbolic computation in the Hecke algebra of the symmetric group.

Everything is computed over Z[v, v^-1] with q = v^2; there is no floating
point anywhere.  The package constructs the classical special elements
(Murphy elements and their duals, elementary symmetric functions in them,
the two symmetrizers and their truncations, the longest basis element),
computes the minimal basis of the centre, tests membership in the set of
square roots of central elements, and mechanically verifies every identity
it implements at small degrees.
"""

from .algebra import (AlgebraContext, Caps, DEFAULT_CAPS, HeckeElement,
                      all_permutations, as_context, commutator,
                      conjugacy_class, group_algebra_mul, is_central,
                      minimal_class_elements)
from .center import (CentreBasis, GammaBasis, centre_basis, express_in_gamma,
                     gamma_basis, verify_gamma_invariants)
from .elements import (braid_murphy, dual_murphy, elem_sym,
                       elem_sym_normalized, full_twist_product, murphy,
                       murphy_normalized, named_element, poincare, t_longest,
                       x_elem, xbar, y_elem, ybar)
from .errors import (DegreeMismatchError, FormatError, HeckeError,
                     MismatchError, NotCentralError, ParseError,
                     ResourceCapError, TermTypeError)
from .laurent import LaurentPoly, q_power, v_power
from .parsing import (element_from_json, element_to_json, format_element,
                      format_scalar, parse_element, parse_scalar)
from .permutations import Partition, Permutation, partitions_of
from .sqrtcenter import (SqrtReport, catalog, catalog_h3, catalog_h4,
                         eigen_search, even_word_centrality,
                         h3_constraint_check, in_sqrt_centre, sample_sqrt_h3,
                         span_in_sqrt, sqrt_h3_from_coeffs,
                         verify_xbar_ybar_squares)
from .verify import VerificationReport, build_registry, run_verify, statement_ids

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext", "Caps", "DEFAULT_CAPS", "HeckeElement",
    "all_permutations", "as_context", "commutator", "conjugacy_class",
    "group_algebra_mul", "is_central", "minimal_class_elements",
    "CentreBasis", "GammaBasis", "centre_basis", "express_in_gamma",
    "gamma_basis", "verify_gamma_invariants",
    "braid_murphy", "dual_murphy", "elem_sym", "elem_sym_normalized",
    "full_twist_product", "murphy", "murphy_normalized", "named_element",
    "poincare", "t_longest", "x_elem", "xbar", "y_elem", "ybar",
    "DegreeMismatchError", "FormatError", "HeckeError", "MismatchError",
    "NotCentralError", "ParseError", "ResourceCapError", "TermTypeError",
    "LaurentPoly", "q_power", "v_power",
    "element_from_json", "element_to_json", "format_element", "format_scalar",
    "parse_element", "parse_scalar",
    "Partition", "Permutation", "partitions_of",
    "SqrtReport", "catalog", "catalog_h3", "catalog_h4", "eigen_search",
    "even_word_centrality", "h3_constraint_check", "in_sqrt_centre",
    "sample_sqrt_h3", "span_in_sqrt", "sqrt_h3_from_coeffs",
    "verify_xbar_ybar_squares",
    "VerificationReport", "build_registry", "run_verify", "statement_ids",
    "__version__",
]
