"""Elementary polynomial automorphisms and primitivity certificates.

Two elementary classes generate the tame automorphism group of K[x_1..x_d]:

* affine: x_j -> b_j + sum_i C[i][j] x_i with C invertible;
* triangular: x_j -> gamma_j x_j + v_j(x_{j+1}, ..., x_d) with gamma_j != 0.

A certificate is a chain of elementary automorphisms plus a generator index;
replaying the chain (innermost first) on that generator reproduces a
primitive polynomial.  The Lie pipeline uses the same Certificate and
validate_certificate with its own elementary automorphisms.
"""

from __future__ import annotations

from .errors import ArityMismatchError
from .linalg import DenseMatrix, matrix_inverse, matrix_problems
from .multipoly import Polynomial


def _unit_vectors(d):
    """The exponent vectors of x_1, ..., x_d."""
    return [tuple(int(m == i) for m in range(d)) for i in range(d)]


def require_valid(auto):
    """Raise ValueError naming every problem of an elementary automorphism, if it has any."""
    problems = auto.validate()
    if problems:
        raise ValueError("; ".join(problems))


class AffineAuto:
    """x_j -> offset[j] + sum_i matrix[j][i] * x_i (row j holds the image of x_j)."""

    __slots__ = ("matrix", "offset")

    def __init__(self, matrix, offset, check=True):
        self.matrix = matrix
        self.offset = list(offset)
        if check:
            require_valid(self)

    @property
    def arity(self):
        return self.matrix.rows

    @property
    def field(self):
        return self.matrix.field

    def validate(self):
        problems = matrix_problems(self.matrix, "affine")
        if self.matrix.rows == self.matrix.cols and len(self.offset) != self.matrix.rows:
            problems.insert(0, "affine offset has wrong length")
        return problems

    def is_identity(self):
        return self.matrix == DenseMatrix.identity(self.arity, self.field) and all(
            b.is_zero() for b in self.offset
        )

    def images(self):
        d = self.arity
        zero = Polynomial.zero(d, self.field)
        monos = _unit_vectors(d)
        out = []
        for j in range(d):
            offset = self.offset[j]
            terms = {(0,) * d: offset} if offset else {}
            for mono, c in zip(monos, self.matrix.row(j)):
                if c:
                    terms[mono] = c
            out.append(zero._wrap(terms))
        return out


class TriangularAuto:
    """x_j -> gammas[j] * x_j + tails[j], tail in the later variables only."""

    __slots__ = ("gammas", "tails")

    def __init__(self, gammas, tails, check=True):
        self.gammas = list(gammas)
        self.tails = list(tails)
        if check:
            require_valid(self)

    @property
    def arity(self):
        return len(self.gammas)

    @property
    def field(self):
        return self.gammas[0].field

    def validate(self):
        problems = []
        d = len(self.gammas)
        if len(self.tails) != d:
            problems.append("triangular tail count mismatch")
            return problems
        for j, g in enumerate(self.gammas):
            if g.is_zero():
                problems.append(f"triangular gamma_{j + 1} is zero")
        for j, tail in enumerate(self.tails):
            if tail.arity != d:
                problems.append(f"tail {j + 1} has wrong arity")
                continue
            for mono in tail.terms:
                if any(mono[i] for i in range(j + 1)):
                    problems.append(f"tail {j + 1} involves a forbidden variable")
                    break
        return problems

    def images(self):
        out = []
        for mono, gamma, tail in zip(_unit_vectors(self.arity), self.gammas, self.tails):
            out.append(tail._wrap({mono: gamma}) + tail if gamma else tail)
        return out


def apply_auto(auto, f):
    """Image of the polynomial f under an elementary automorphism."""
    if auto.arity != f.arity:
        raise ArityMismatchError("automorphism arity mismatch")
    return f.substitute(auto.images())


def invert_auto(auto):
    """Inverse within the same elementary class: Affine{C,b} -> Affine{C^-1, -C^-1 b}."""
    if isinstance(auto, AffineAuto):
        inv = matrix_inverse(auto.matrix)
        b_inv = [-b for b in inv.mul_vector(auto.offset)]
        return AffineAuto(inv, b_inv)
    d, field = auto.arity, auto.field
    inv_images = [None] * d
    for j in range(d - 1, -1, -1):
        xj = Polynomial.variable(d, field, j + 1)
        shifted = auto.tails[j].substitute(
            [inv_images[i] if i > j else Polynomial.variable(d, field, i + 1) for i in range(d)]
        )
        inv_images[j] = (xj - shifted).scale(auto.gammas[j].inverse())
    gammas = [g.inverse() for g in auto.gammas]
    tails = [inv_images[j] - Polynomial.variable(d, field, j + 1).scale(gammas[j]) for j in range(d)]
    return TriangularAuto(gammas, tails)


def compose_affine(outer, inner):
    """The affine automorphism equal to outer applied after inner.

    With images in rows, substituting outer into inner's images gives the
    matrix inner * outer and the offset inner.offset + inner.matrix * outer.offset.
    """
    matrix = inner.matrix.mul_matrix(outer.matrix)
    shifted = inner.matrix.mul_vector(outer.offset)
    offset = [inner.offset[j] + shifted[j] for j in range(outer.arity)]
    return AffineAuto(matrix, offset, check=False)


class Certificate:
    """Chain of elementary automorphisms witnessing primitivity, for either algebra.

    The chain is listed innermost first: certify_apply([A, B], j) computes
    B(A(x_j)), matching the composition B . A read right to left.  Every
    factor has an ``arity`` and a ``validate()`` listing its problems.
    """

    __slots__ = ("chain", "generator_index")

    def __init__(self, chain, generator_index):
        self.chain = list(chain)
        self.generator_index = generator_index


def certify_apply(cert, arity, field):
    """Replay the certificate chain on its generator.

    Runs of consecutive affine factors are composed into a single affine
    map before substitution; by associativity the result is identical and
    the expansion of large intermediate polynomials happens only once.
    """
    if not 1 <= cert.generator_index <= arity:
        raise ArityMismatchError("generator index out of range")
    f = Polynomial.variable(arity, field, cert.generator_index)
    pending = None
    for auto in cert.chain:
        if auto.arity != arity:
            raise ArityMismatchError("certificate chain arity mismatch")
        if isinstance(auto, AffineAuto):
            pending = auto if pending is None else compose_affine(auto, pending)
            continue
        if pending is not None:
            f = apply_auto(pending, f)
            pending = None
        f = apply_auto(auto, f)
    if pending is not None:
        f = apply_auto(pending, f)
    return f


def validate_certificate(cert, arity):
    """Structural problems of the generator index and of every elementary factor, as strings."""
    problems = []
    if not 1 <= cert.generator_index <= arity:
        problems.append("generator index out of range")
    for pos, auto in enumerate(cert.chain):
        if auto.arity != arity:
            problems.append(f"factor {pos + 1} has wrong arity")
            continue
        for msg in auto.validate():
            problems.append(f"factor {pos + 1}: {msg}")
    return problems
