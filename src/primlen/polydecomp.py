"""Decomposition of polynomials into sums of certified primitive summands.

Over a field of characteristic 0, a polynomial f of degree n > 1 in d > 1
variables is a sum of at most binom(n+d-1, d-1) primitive polynomials.  The
construction:

1. normalize the linear part to delta * x1 (delta in {0, 1}) by a linear
   automorphism psi (``polyauto.linearize``);
2. take the N = binom(n+d-1, d-1) points a of the principal lattice
   {a in N^(d-1) : |a| <= n}, ordered by level |a|, and the linear forms
   s_a = x1 + sum_i (a_i+1) x_{i+1};
3. per degree p solve the square system on the lattice levels <= p, which
   is unisolvent for degree p (Chung & Yao 1977), for coefficients xi_kp
   with sum_k xi_kp s_{a_k}^p equal to the degree-p component;
4. assemble summands u_k = xi_k1 x1 + sum_p xi_kp s_{a_k}^p (u_1 also
   absorbs the constant), each certified primitive as the image of x1 under
   a triangular automorphism followed by the linear map phi with
   x2 -> s_a, and map everything back through psi^-1.  phi and psi^-1 are
   ``linalg.basis_from_rows`` matrices, like every linear factor.

The factors are plain records, checked by nothing when built:
``check_summands`` runs ``polyauto.validate_certificate`` on every
certificate before it replays it, and that is the only validity check.

The paper's proof uses nodes alpha = 2..N+1 and the forms
s(alpha) = x1 + sum_i alpha^((n+1)^(i-2)) x_i instead; those work too but
make coefficients thousands of digits long.  The lattice keeps matrix
entries at most (n+1)^n.  The bound, the certificate shape and the document
format are the same either way.

Only the empty sum represents 0, so zero inputs get an empty summand list
with an explanatory note.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb, prod

from .errors import InternalError, SingularMatrixError, UnsupportedInputError
from .field import QQ, int_to_str
from .linalg import DenseMatrix, basis_from_rows, solve_square
from .multipoly import Polynomial, monomials_of_degree, multinomial
from .polyauto import (
    AffineAuto,
    Certificate,
    TriangularAuto,
    certify_apply,
    linear_certificate,
    linearize,
    validate_certificate,
)

FINITE = "finite"
INFINITE = "infinite"

ZERO_NOTE = "the zero element is reported as the empty sum (additive primitive length 0)"

#: The largest degree, and the most summands N = binom(n+d-1, d-1), that
#: poly_bound accepts for degree n > 1 in d > 1 variables, so that decompose
#: and the verifier's rebuild refuse larger inputs at one site.  Decompose
#: plus verify of (d, n), fractions backend, 2-vCPU container: (4,6) N = 84
#: 0.4 s, (2,16) 0.1 s, (2,40) 1.3 s, (2,60) 9 s, (3,16) N = 153 5.9 s,
#: (3,20) N = 231 29 s, (6,5) N = 252 3.7 s, (6,6) N = 462 11.5 s.  The
#: degree cap is set by d = 3, where N stays under MAX_NODES up to degree
#: 20; together the caps keep every accepted input to a few seconds.
MAX_DEGREE = 16
MAX_NODES = 252

#: The reader refuses a constant power a^k when k times the bit length of a
#: exceeds this (a 65,536-bit number has 19,729 digits).  Produce plus
#: verify of 2^m*x1^2 + x2 and 2^m*x1^3 + x1*x2 + x2^3, fractions backend,
#: 2-vCPU container: m = 2^16 0.13-0.2 s, 2^18 2.0-3.3 s, 2^20 20-30 s
#: (printing the coefficients dominates, and grows about quadratically).
MAX_POWER_BITS = 65536


@dataclass
class PolyDecomposition:
    input: Polynomial
    status: str
    summands: list  # of (Polynomial, Certificate)
    bound: int | None
    notes: list = dc_field(default_factory=list)

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
    degree > 1 in one variable, binom(n+d-1, d-1) otherwise.  Raises
    UnsupportedInputError above MAX_DEGREE, checked before the binomial is
    computed, or above MAX_NODES.
    """
    n, d = f.total_degree(), f.arity
    if n is None or n == 1:
        return 1
    if n == 0:
        return 2
    if d == 1:
        return None
    if n > MAX_DEGREE:
        raise UnsupportedInputError(f"degree {int_to_str(n)} exceeds the ceiling of {MAX_DEGREE}")
    bound = plength_bound(n, d)
    if bound > MAX_NODES:
        raise UnsupportedInputError(
            f"{bound} summands for degree {n} in {d} variables exceed the ceiling of {MAX_NODES}"
        )
    return bound


def lattice_nodes(n, d):
    """The principal lattice {a in N^(d-1) : |a| <= n}, ordered by level |a|.

    It has binom(n+d-1, d-1) points, and its first binom(p+d-1, d-1) points
    are exactly the levels <= p.
    """
    return [a for q in range(n + 1) for a in monomials_of_degree(d - 1, q)]


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


def lattice_matrix(p, d, nodes, field=QQ):
    """The degree-p monomials m and the matrix (prod_i (a_i+1)^(m_{i+1})), rows m, columns nodes a."""
    monos = list(monomials_of_degree(d, p))
    rows = [[prod((a_i + 1) ** e for a_i, e in zip(a, m[1:])) for a in nodes] for m in monos]
    return monos, DenseMatrix.from_rows(field, rows)


def solve_degree(p, g_p, nodes):
    """Coefficients xi_kp with sum_k xi_kp s_{a_k}^p = g_p, k = 1..len(nodes).

    s_a = x1 + sum_i (a_i+1) x_{i+1}, so the coefficient of x^m in s_a^p is
    multinomial(m) * prod_i (a_i+1)^(m_{i+1}).  One equation per monomial m
    of degree p (missing monomials give a zero right-hand side, divided by
    the multinomial coefficient up front); the square subsystem on the
    first N_p = binom(p+d-1, d-1) nodes, the lattice levels <= p, is
    unisolvent and solved exactly, and the remaining coefficients are zero.
    """
    d = g_p.arity
    field = g_p.field
    if p < 2:
        raise ValueError("solve_degree handles degrees 2..n")
    if any(sum(m) != p for m in g_p.terms):
        raise ValueError("component is not homogeneous of the requested degree")
    n_unknowns = len(nodes)
    if g_p.is_zero():
        return [field.zero()] * n_unknowns
    block = comb(p + d - 1, d - 1)
    monos, matrix = lattice_matrix(p, d, nodes[:block], field)
    rhs = [g_p.coefficient(m) / field(multinomial(m)) for m in monos]
    try:
        solution = solve_square(matrix, rhs)
    except SingularMatrixError as exc:  # impossible: the lattice levels <= p are unisolvent
        raise InternalError(f"lattice subsystem reported singular: {exc}") from exc
    return solution + [field.zero()] * (n_unknowns - block)


def decompose(f):
    """Decompose f into certified primitive summands within the binomial bound."""
    d, field = f.arity, f.field
    if field.characteristic() != 0:
        raise UnsupportedInputError(
            "polynomial decomposition requires characteristic 0 "
            f"(got {field!r}); the construction fails when multinomial "
            "coefficients vanish modulo p"
        )
    n = f.total_degree()
    bound = poly_bound(f)
    if f.is_zero():
        return PolyDecomposition(f, FINITE, [], bound=bound, notes=[ZERO_NOTE])
    if n == 0:
        beta, one = f.constant_term(), field.one()
        first, second = f.linear_form([(1, one)], beta), f.linear_form([(1, -one)])
        summands = [(first, linear_certificate(first, beta)), (second, linear_certificate(second))]
        return PolyDecomposition(f, FINITE, summands, bound=bound)
    if n == 1:
        return PolyDecomposition(f, FINITE, [(f, linear_certificate(f, f.constant_term()))], bound=bound)
    if d == 1:
        return PolyDecomposition(f, INFINITE, [], bound=bound)

    psi_inv, g = linearize(f)
    delta = 0 if psi_inv is None else 1
    beta = g.constant_term()
    nodes = lattice_nodes(n, d)
    xi_linear = assign_linear_coeffs(bound, delta, field)
    xi = {p: solve_degree(p, g.homogeneous_component(p), nodes) for p in range(2, n + 1)}

    one, zero = field.one(), field.zero()
    e1 = [one] + [zero] * (d - 1)
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
        s_a = [one] + [field(a_i + 1) for a_i in nodes[k]]
        phi = AffineAuto(basis_from_rows([e1, s_a], field))
        chain = [theta, phi]
        if psi_inv is not None:
            chain.append(psi_inv)
        cert = Certificate(chain, 1)
        summands.append((certify_apply(cert, f), cert))
    return PolyDecomposition(f, FINITE, summands, bound=bound)


def check_summands(dec):
    """The four checks of a finite decomposition of either algebra.

    Validates every elementary factor, replays every certificate in the
    algebra of the input, re-sums the summands and compares the count
    against the bound.  Returns a VerifyResult carrying human-readable
    diagnostics.
    """
    problems = []
    d, fld = dec.input.arity, dec.input.field
    for i, (summand, cert) in enumerate(dec.summands, start=1):
        issues = validate_certificate(cert, d)
        if issues:
            problems.append(f"summand {i}: invalid elementary factor ({'; '.join(issues)})")
            continue
        if certify_apply(cert, dec.input) != summand:
            problems.append(f"summand {i}: certificate replay mismatch")
    total = dec.input.zero(d, fld)
    for summand, _ in dec.summands:
        total = total + summand
    if total != dec.input:
        problems.append("sum mismatch: summands do not add up to the input")
    if dec.bound is not None and len(dec.summands) > dec.bound:
        problems.append(f"count {len(dec.summands)} exceeds bound {dec.bound}")
    return VerifyResult(not problems, problems)


def verify(dec):
    """Independent check of a finite polynomial decomposition (see check_summands)."""
    if dec.status != FINITE:
        raise ValueError("verify expects a finite decomposition")
    return check_summands(dec)
