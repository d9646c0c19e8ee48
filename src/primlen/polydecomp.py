"""Decomposition of polynomials into sums of certified primitive summands.

Over a field of characteristic 0, a polynomial f of degree n > 1 in d > 1
variables is a sum of at most binom(n+d-1, d-1) primitive polynomials.  The
construction:

1. normalize the linear part to delta * x1 (delta in {0, 1}) by a linear
   automorphism psi;
2. pick N = binom(n+d-1, d-1) nodes alpha_k = k+1 and the linear forms
   s(alpha) = x1 + sum_i alpha^((n+1)^(i-2)) x_i, whose powers s^p(alpha)
   carry pairwise distinct alpha-exponents on the degree-p monomials;
3. per degree p solve a generalized Vandermonde system for coefficients
   xi_kp with sum_k xi_kp s^p(alpha_k) equal to the degree-p component;
4. assemble summands u_k = xi_k1 x1 + sum_p xi_kp s^p(alpha_k) (u_1 also
   absorbs the constant), each certified primitive as the image of x1 under
   a triangular automorphism followed by an affine one, and map everything
   back through psi^-1.

Only the empty sum represents 0, so zero inputs get an empty summand list
with an explanatory note.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb

from .errors import InternalError, SingularMatrixError, UnsupportedInputError
from .field import QQ
from .linalg import DenseMatrix, OpCounter, matrix_inverse, solve_square, vandermonde_power_matrix
from .multipoly import Polynomial, monomials_of_degree, multinomial
from .polyauto import (
    AffineAuto,
    PolyCertificate,
    TriangularAuto,
    apply_auto,
    certify_apply,
    invert_auto,
    validate_certificate,
)

FINITE = "finite"
INFINITE = "infinite"

ZERO_NOTE = "the zero element is reported as the empty sum (additive primitive length 0)"


@dataclass
class PolyDecomposition:
    input: Polynomial
    status: str
    summands: list  # of (Polynomial, PolyCertificate)
    bound: int | None
    notes: list = dc_field(default_factory=list)
    ops: OpCounter = dc_field(default_factory=OpCounter)

    @property
    def count(self):
        return len(self.summands)


@dataclass
class VerifyResult:
    ok: bool
    problems: list

    def __bool__(self):
        return self.ok


def plength_bound(n, d):
    """The bound binom(n+d-1, d-1) for degree n > 1 and arity d > 1."""
    if n <= 1 or d <= 1:
        raise UnsupportedInputError(f"bound needs degree > 1 and arity > 1, got n={n}, d={d}")
    return comb(n + d - 1, d - 1)


def poly_bound(f):
    """The summand-count bound decompose reaches for f, or None when f has no finite length.

    1 for zero and for linear inputs, 2 for a nonzero constant, None for
    degree > 1 in one variable, binom(n+d-1, d-1) otherwise.
    """
    n, d = f.total_degree(), f.arity
    if n is None or n == 1:
        return 1
    if n == 0:
        return 2
    if d == 1:
        return None
    return plength_bound(n, d)


def exponent_code(mono, n):
    """Base-(n+1) digit code of an exponent vector: sum a_i (n+1)^(i-1).

    Injective on monomials of total degree <= n, since every digit is then
    at most n.
    """
    code = 0
    weight = 1
    for e in mono:
        code += e * weight
        weight *= n + 1
    return code


def alpha_exponent(mono, n):
    """The power of alpha carried by x^a in s(alpha)^|a|.

    x_1 contributes nothing and x_i contributes a_i * (n+1)^(i-2); on
    monomials of one fixed total degree these values are pairwise distinct
    (base-(n+1) digits again) and at most n*(n+1)^(d-2).
    """
    power = 0
    weight = 1
    for e in mono[1:]:
        power += e * weight
        weight *= n + 1
    return power


def choose_alphas(count, field=QQ):
    """Nodes alpha_k = k+1, k = 1..count.

    Positive, pairwise distinct, with all powers of each node distinct, so
    every square minor of the node-power matrix is nonzero.
    """
    if not field.is_rationals:
        raise UnsupportedInputError("node selection is defined over Q")
    return [field(k + 1) for k in range(1, count + 1)]


def build_s(alpha, n, d):
    """The linear form s(alpha) = x1 + sum_{i=2}^d alpha^((n+1)^(i-2)) x_i."""
    if d < 2:
        raise UnsupportedInputError("s(alpha) needs at least two variables")
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    field = alpha.field
    terms = {tuple(1 if j == 0 else 0 for j in range(d)): field.one()}
    for i in range(2, d + 1):
        mono = tuple(1 if j == i - 1 else 0 for j in range(d))
        terms[mono] = alpha ** ((n + 1) ** (i - 2))
    return Polynomial(d, field, terms)


def linearize(f):
    """A linear automorphism psi with psi(f) having linear part delta * x1.

    If the linear component f_1 is nonzero, psi maps f_1 to x1: its matrix
    is the inverse transpose of the basis (f_1, standard vectors off the
    pivot).  Otherwise psi is the identity.  Returns (psi, psi(f)).
    """
    d, field = f.arity, f.field
    coeffs = f.linear_coefficients()
    identity = AffineAuto(DenseMatrix.identity(d, field), [field.zero()] * d, check=False)
    if all(c.is_zero() for c in coeffs):
        return identity, f
    pivot = next(i for i, c in enumerate(coeffs) if not c.is_zero())
    rows = [coeffs]
    for m in range(d):
        if m != pivot:
            rows.append([field.one() if i == m else field.zero() for i in range(d)])
    matrix = matrix_inverse(DenseMatrix.from_rows(field, rows))
    psi = AffineAuto(matrix, [field.zero()] * d)
    return psi, apply_auto(psi, f)


def assign_linear_coeffs(count, delta, field=QQ):
    """count nonzero scalars summing to delta (delta in {0, 1})."""
    if not field.is_rationals:
        raise UnsupportedInputError("linear coefficients are chosen over Q")
    delta = field(delta)
    if count < 1:
        raise ValueError("need at least one coefficient")
    if count == 1:
        if delta.is_zero():
            raise ValueError("a single nonzero coefficient cannot sum to 0")
        return [delta]
    one = field.one()
    coeffs = [one] * (count - 1)
    last = delta - field(count - 1)
    if last.is_zero():
        coeffs[-1] = field(2)
        last = delta - field(count)
    return coeffs + [last]


def solve_degree(p, g_p, alphas, n, counter=None):
    """Coefficients xi_kp with sum_k xi_kp s^p(alpha_k) = g_p, k = 1..len(alphas).

    One equation per monomial of degree p (missing monomials contribute a
    zero right-hand side, divided by the multinomial coefficient up front);
    the square subsystem on the first N_p = binom(p+d-1, d-1) nodes is
    solved exactly and the remaining coefficients are set to zero.  Rows
    are ordered by increasing alpha-exponent, which keeps the Bareiss
    intermediates small and never needs a row swap.
    """
    if counter is None:
        counter = OpCounter()
    d = g_p.arity
    field = g_p.field
    if p < 2:
        raise ValueError("solve_degree handles degrees 2..n")
    if any(sum(m) != p for m in g_p.terms):
        raise ValueError("component is not homogeneous of the requested degree")
    n_unknowns = len(alphas)
    if g_p.is_zero():
        return [field.zero()] * n_unknowns
    block = comb(p + d - 1, d - 1)
    monos = sorted(monomials_of_degree(d, p), key=lambda a: alpha_exponent(a, n))
    exponents = [alpha_exponent(a, n) for a in monos]
    matrix = vandermonde_power_matrix(alphas[:block], exponents)
    rhs = [g_p.coefficient(a) / field(multinomial(a)) for a in monos]
    try:
        solution = solve_square(matrix, rhs, counter)
    except SingularMatrixError as exc:  # impossible: distinct positive nodes
        raise InternalError(f"node-power subsystem reported singular: {exc}") from exc
    return solution + [field.zero()] * (n_unknowns - block)


def _affine_sending_x1_to(f_linear_coeffs, beta, field):
    """An affine automorphism whose image of x1 is beta + sum c_i x_i."""
    d = len(f_linear_coeffs)
    pivot = next(i for i, c in enumerate(f_linear_coeffs) if not c.is_zero())
    rows = [f_linear_coeffs]
    for m in range(d):
        if m != pivot:
            rows.append([field.one() if i == m else field.zero() for i in range(d)])
    offset = [beta] + [field.zero()] * (d - 1)
    return AffineAuto(DenseMatrix.from_rows(field, rows), offset)


def decompose(f):
    """Decompose f into certified primitive summands within the binomial bound."""
    d, field = f.arity, f.field
    if field.characteristic() != 0:
        raise UnsupportedInputError(
            "polynomial decomposition requires characteristic 0 "
            f"(got {field!r}); the construction fails when multinomial "
            "coefficients vanish modulo p"
        )
    bound = poly_bound(f)
    if f.is_zero():
        return PolyDecomposition(f, FINITE, [], bound=bound, notes=[ZERO_NOTE])
    n = f.total_degree()
    if n == 0:
        beta = f.constant_term()
        one = field.one()
        first = Polynomial(d, field, {(0,) * d: beta, (1,) + (0,) * (d - 1): one})
        pos = AffineAuto(DenseMatrix.identity(d, field), [beta] + [field.zero()] * (d - 1))
        neg_matrix = DenseMatrix.from_rows(
            field,
            [
                [-one if i == j == 0 else (one if i == j else field.zero()) for i in range(d)]
                for j in range(d)
            ],
        )
        second = Polynomial(d, field, {(1,) + (0,) * (d - 1): -one})
        neg = AffineAuto(neg_matrix, [field.zero()] * d)
        return PolyDecomposition(
            f,
            FINITE,
            [(first, PolyCertificate([pos], 1)), (second, PolyCertificate([neg], 1))],
            bound=bound,
        )
    if n == 1:
        auto = _affine_sending_x1_to(f.linear_coefficients(), f.constant_term(), field)
        return PolyDecomposition(f, FINITE, [(f, PolyCertificate([auto], 1))], bound=bound)
    if d == 1:
        return PolyDecomposition(f, INFINITE, [], bound=bound)

    counter = OpCounter()
    psi, g = linearize(f)
    psi_is_identity = psi.is_identity()
    delta = 0 if g.homogeneous_component(1).is_zero() else 1
    beta = g.constant_term()
    alphas = choose_alphas(bound, field)
    xi_linear = assign_linear_coeffs(bound, delta, field)
    xi = {
        p: solve_degree(p, g.homogeneous_component(p), alphas, n, counter)
        for p in range(2, n + 1)
    }

    psi_inv = None if psi_is_identity else invert_auto(psi)
    one = field.one()
    summands = []
    for k in range(bound):
        tail_terms = {}
        if k == 0 and not beta.is_zero():
            tail_terms[(0,) * d] = beta
        for p in range(2, n + 1):
            c = xi[p][k]
            if not c.is_zero():
                tail_terms[(0, p) + (0,) * (d - 2)] = c
        theta = TriangularAuto(
            [xi_linear[k]] + [one] * (d - 1),
            [Polynomial(d, field, tail_terms)] + [Polynomial.zero(d, field)] * (d - 1),
        )
        s_rows = [[one if i == 0 else field.zero() for i in range(d)]]
        s_row = [one] + [alphas[k] ** ((n + 1) ** (i - 2)) for i in range(2, d + 1)]
        s_rows.append(s_row)
        for j in range(2, d):
            s_rows.append([one if i == j else field.zero() for i in range(d)])
        phi = AffineAuto(DenseMatrix.from_rows(field, s_rows), [field.zero()] * d)
        chain = [theta, phi]
        if psi_inv is not None:
            chain.append(psi_inv)
        cert = PolyCertificate(chain, 1)
        summands.append((certify_apply(cert, d, field), cert))
    return PolyDecomposition(f, FINITE, summands, bound=bound, ops=counter)


def verify(dec):
    """Independent check of a finite decomposition.

    Validates every elementary factor, replays every certificate, re-sums
    the summands and compares counts against the bound.  Returns a
    VerifyResult carrying human-readable diagnostics.
    """
    if dec.status != FINITE:
        raise ValueError("verify expects a finite decomposition")
    problems = []
    d, fld = dec.input.arity, dec.input.field
    for i, (summand, cert) in enumerate(dec.summands, start=1):
        issues = validate_certificate(cert, d)
        if issues:
            problems.append(f"summand {i}: invalid elementary factor ({'; '.join(issues)})")
            continue
        if certify_apply(cert, d, fld) != summand:
            problems.append(f"summand {i}: certificate replay mismatch")
    total = Polynomial.zero(d, fld)
    for summand, _ in dec.summands:
        total = total + summand
    if total != dec.input:
        problems.append("sum mismatch: summands do not add up to the input")
    if dec.bound is not None and len(dec.summands) > dec.bound:
        problems.append(f"count {len(dec.summands)} exceeds bound {dec.bound}")
    return VerifyResult(not problems, problems)
