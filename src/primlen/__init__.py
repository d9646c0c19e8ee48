"""primlen: additive primitive decompositions with automorphism certificates.

Decomposes polynomials (characteristic 0) and elements of free metabelian
Lie algebras (d >= 3, any prime field or Q) into sums of primitive
elements, each witnessed by an explicit chain of elementary automorphisms,
and verifies such decompositions exactly.
"""

__version__ = "0.1.0"

from .errors import (
    ArityMismatchError,
    DegreeCapError,
    FieldMismatchError,
    ParseError,
    PrimlenError,
    SingularMatrixError,
    UnsupportedInputError,
)
from .field import GF, QQ, FieldDescriptor, FieldScalar, field_from_flag
from .liedecomp import decompose_lie, lie_bound, verify_lie
from .linalg import DenseMatrix, OpCounter, bareiss_determinant, solve_square, vandermonde_power_matrix
from .metalie import LieElement, bracket, inner_auto, normalize_word
from .multipoly import Polynomial, multinomial
from .parsing import lie_to_str, parse_lie, parse_poly, poly_to_str
from .polydecomp import Decomposition, decompose, plength_bound, verify

__all__ = [
    "ArityMismatchError",
    "Decomposition",
    "DegreeCapError",
    "DenseMatrix",
    "FieldDescriptor",
    "FieldMismatchError",
    "FieldScalar",
    "GF",
    "LieElement",
    "OpCounter",
    "ParseError",
    "Polynomial",
    "PrimlenError",
    "QQ",
    "SingularMatrixError",
    "UnsupportedInputError",
    "bareiss_determinant",
    "bracket",
    "decompose",
    "decompose_lie",
    "field_from_flag",
    "inner_auto",
    "lie_bound",
    "lie_to_str",
    "multinomial",
    "normalize_word",
    "parse_lie",
    "parse_poly",
    "plength_bound",
    "poly_to_str",
    "solve_square",
    "vandermonde_power_matrix",
    "verify",
    "verify_lie",
]
