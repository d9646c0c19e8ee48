"""Elementary automorphisms and primitivity certificates for both algebras.

The certificates of polynomials and of free metabelian Lie elements use
one family of elementary automorphisms:

* affine: x_j -> b_j + sum_i C[j][i] x_i with C invertible; a Lie algebra
  has no constants, so there b = 0 and the map is linear;
* triangular with respect to an ordering (a permutation of 1..d, by default
  the identity): x_{o_j} -> gamma_j x_{o_j} + v_j(x_{o_{j+1}}, ..., x_{o_d})
  with gamma_j != 0;
* inner, Lie only: exp(ad v) (``liedecomp.InnerLieAuto``).

Factors are plain records: constructing one checks nothing.  Each lists
its own problems in ``validate()``, and ``validate_certificate``, which the
verifier runs before any replay, is the only place that calls it.

A factor does not know its algebra: ``raw_images(like)`` gives the
images of the generators in the algebra of the element ``like`` as (den,
raw) pairs, ints over one denominator in the layout of
``FieldDescriptor.to_raw``, read with one ``to_raw`` per factor (its
``raw()``): an affine factor from its matrix and offset (the read its
invertibility check also runs on), a triangular factor from its gammas
and tails, an inner factor from its element.  ``apply_images`` applies
them with the element's raw core (``multipoly._substitute_raw`` or
``metalie._apply_endo_raw``, within ``metalie.DEGREE_CAP``).  A
certificate is a chain of factors plus a generator index; replaying the
chain (innermost first) on that generator reproduces a primitive
element.
``replay_raw`` replays on ints from the factors' entries to the result:
runs of consecutive affine factors are composed on their int rows, and
every element, the result included, stays a (den, raw) pair.  The
verifier compares that pair with its summand on ints and builds no scalar;
``certify_apply`` wraps it for callers that want the element, with one
scalar per term of the result.  Every linear factor is a
``linalg.basis_from_rows`` matrix: the basis changes of the polynomial
summands (``polydecomp``) and of the Lie quadratic summand, and
``linearize`` for the Lie pipeline's map that sends a linear part to x1.

One builder serves the simplest primitive shape of both algebras, gamma
x_j + v with v free of x_j: ``triangular_summand`` recognizes it and
``triangular_certificate`` certifies it by one triangular factor ordering
x_j first.
"""

from __future__ import annotations

from itertools import compress

from .errors import ArityMismatchError
from .linalg import basis_from_rows, is_singular, matrix_inverse


def _generator(like, index):
    """x_index in the algebra of like."""
    return like._wrap({like._generator_key(like.arity, index): like.field.one()})


def _affine_images(raw, like):
    """The (den, raw) generator images, keyed for like, of the affine map raw = (den, rows, offset)."""
    den, rows, offset = raw
    d = like.arity
    keys = [like._generator_key(d, i) for i in range(1, d + 1)]
    images = []
    for row, b in zip(rows, offset):
        image = {key: c for key, c in zip(keys, row) if c}
        if b:
            image[like._constant_key(d)] = b
        images.append((den, image))
    return images


def _compose_raw(outer, inner, p):
    """The raw affine map (den, rows, offset) equal to outer applied after inner, on ints.

    With images in rows, substituting outer into inner's images gives the
    matrix inner * outer over the product of the denominators, and the
    offset inner.offset * den(outer) + inner.matrix * outer.offset.  Each
    inner row combines the outer rows at its nonzero entries only, so a
    unit row of a basis change costs one pass over one outer row.  Over
    GF(p) (``p`` not None) every entry is reduced mod p, which keeps the
    ints of a long run small.
    """
    den_in, rows_in, offset_in = inner
    den_out, rows_out, offset_out = outer
    width = len(rows_out[0])
    rows, offset = [], []
    for row, b in zip(rows_in, offset_in):
        acc = [0] * width
        b *= den_out
        for c, out_row, out_b in compress(zip(row, rows_out, offset_out), row):
            acc = [a + c * v for a, v in zip(acc, out_row)]
            b += c * out_b
        rows.append(acc)
        offset.append(b)
    if p is not None:
        rows = [[c % p for c in row] for row in rows]
        offset = [b % p for b in offset]
    return den_in * den_out, rows, offset


class AffineAuto:
    """x_j -> offset[j] + sum_i matrix[j][i] * x_i (row j holds the image of x_j).

    The offset defaults to zero, which makes the map linear.  The matrix
    and the offset are read to ints once (``raw``), on first use, and the
    invertibility check and the replay both run on that read.
    """

    __slots__ = ("matrix", "offset", "_ints")

    def __init__(self, matrix, offset=None):
        self.matrix = matrix
        self.offset = [matrix.field.zero()] * matrix.rows if offset is None else list(offset)
        self._ints = None

    @property
    def arity(self):
        return self.matrix.rows

    def validate(self):
        matrix = self.matrix
        if matrix.rows != matrix.cols:
            return ["matrix is not square"]
        problems = [] if len(self.offset) == matrix.rows else ["offset has wrong length"]
        if is_singular(self.raw()[1], matrix.field.p):
            problems.append("matrix is singular")
        return problems

    def raw(self):
        """(den, rows, offset): the matrix rows and the offset as ints over one denominator."""
        if self._ints is None:
            n, m = self.matrix.rows, self.matrix.cols
            den, ints = self.matrix.field.to_raw(self.matrix.entries + self.offset)
            self._ints = den, [ints[j * m : (j + 1) * m] for j in range(n)], ints[n * m :]
        return self._ints

    def raw_images(self, like):
        return _affine_images(self.raw(), like)


class TriangularAuto:
    """x_{ordering[j]} -> gammas[j] * x_{ordering[j]} + tails[j].

    ``ordering`` is a permutation of 1..d, by default 1..d in order, and
    tails[j] may only mention the generators ordering[j+1:].
    """

    __slots__ = ("gammas", "tails", "ordering")

    def __init__(self, gammas, tails, ordering=None):
        self.gammas = list(gammas)
        self.tails = list(tails)
        self.ordering = tuple(range(1, len(self.gammas) + 1) if ordering is None else ordering)

    @property
    def arity(self):
        return len(self.ordering)

    def validate(self):
        d = len(self.ordering)
        if sorted(self.ordering) != list(range(1, d + 1)):
            return [f"ordering {self.ordering} is not a permutation of 1..{d}"]
        if len(self.gammas) != d or len(self.tails) != d:
            return ["triangular gamma/tail count mismatch"]
        problems = []
        for gen, g in zip(self.ordering, self.gammas):
            if g.is_zero():
                problems.append(f"triangular gamma of x{gen} is zero")
        position = {gen: j for j, gen in enumerate(self.ordering)}
        for j, (gen, tail) in enumerate(zip(self.ordering, self.tails)):
            if tail.arity != d:
                problems.append(f"tail of x{gen} has wrong arity")
                continue
            forbidden = [i for i in tail.mentioned() if position[i] <= j]
            if forbidden:
                problems.append(f"tail of x{gen} mentions forbidden generator x{min(forbidden)}")
        return problems

    def raw(self):
        """(den, ints): the gammas, then every tail's coefficients, read with one ``to_raw``."""
        return self.tails[0].field.to_raw(self.gammas + [c for tail in self.tails for c in tail.terms.values()])

    def raw_images(self, like):
        """The images gamma x_gen + tail; a tail never mentions its own generator (``validate``)."""
        d = like.arity
        den, ints = self.raw()
        rest = iter(ints[len(self.gammas) :])
        images = [None] * d
        for gen, gamma, tail in zip(self.ordering, ints, self.tails):
            image = dict(zip(tail.terms, rest))
            if gamma:
                image[like._generator_key(d, gen)] = gamma
            images[gen - 1] = (den, image)
        return images


def apply_images(images, f):
    """The image of the element f under the (den, raw) generator images, in the algebra of f."""
    return f._wrap_raw(*f._endo_raw(f._raw(), images))


def apply_auto(auto, f):
    """Image of the element f under an elementary automorphism, in the algebra of f."""
    if auto.arity != f.arity:
        raise ArityMismatchError("automorphism arity mismatch")
    return apply_images(auto.raw_images(f), f)


def invert_auto(auto):
    """Inverse within the same elementary class.

    Affine{C, b} -> Affine{C^-1, -C^-1 b}.  A triangular map is inverted in
    its own ordering, from the last generator to the first: the tail of
    x_{o_j} only mentions later generators, whose inverse images are known.
    """
    if isinstance(auto, AffineAuto):
        inv = matrix_inverse(auto.matrix)
        b_inv = [-b for b in inv.mul_vector(auto.offset)]
        return AffineAuto(inv, b_inv)
    like = auto.tails[0]
    inv_images = [_generator(like, i) for i in range(1, auto.arity + 1)]
    gammas, tails = [], []
    for gen, gamma, tail in reversed(list(zip(auto.ordering, auto.gammas, auto.tails))):
        x = inv_images[gen - 1]
        inv_gamma = gamma.inverse()
        inv_images[gen - 1] = (x - tail.substitute(inv_images)).scale(inv_gamma)
        gammas.append(inv_gamma)
        tails.append(inv_images[gen - 1] - x.scale(inv_gamma))
    return TriangularAuto(gammas[::-1], tails[::-1], auto.ordering)


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


def linearize(f):
    """(psi^-1, psi(f)) for the linear automorphism psi sending the linear part of f to x1.

    The Lie pipeline normalizes its input with it (its rho); the polynomial
    pipeline keeps the input's coordinates.  psi^-1 is the basis change
    x1 -> the linear part l,
    ``basis_from_rows([l])``: the row l, then the unit rows e_m for every
    column m off the pivot (the first nonzero l_i), in index order.  So psi
    is read off its ints without an inverse: x_m -> x_j where e_m is row j,
    and x_pivot -> (x1 - sum_j l_(m_j) x_j) / l_pivot.  psi^-1 is returned
    whenever l is nonzero, the identity included; without a linear part psi
    is the identity and psi^-1 is None.
    """
    coeffs = f.linear_coefficients()
    if not any(coeffs):
        return None, f
    psi_inv = AffineAuto(basis_from_rows([coeffs], f.field))
    den, (ell, *_), _ = psi_inv.raw()
    d = f.arity
    key = [f._generator_key(d, i) for i in range(1, d + 1)]
    pivot = next(m for m, c in enumerate(ell) if c)
    sign = -1 if ell[pivot] < 0 else 1  # a positive denominator, as in the layout of to_raw
    solved = {key[0]: sign * den}
    images = [None] * d
    for j, m in enumerate((m for m in range(d) if m != pivot), start=1):
        images[m] = (1, {key[j]: 1})
        if ell[m]:
            solved[key[j]] = -sign * ell[m]
    images[pivot] = (sign * ell[pivot], solved)
    return psi_inv, apply_images(images, f)


def triangular_certificate(j, gamma, tail):
    """The certificate of gamma x_j + tail, tail free of x_j: one triangular factor ordering x_j first.

    The ordering is j, then 1..d without j; the tail of x_j is ``tail``,
    every other gamma is 1 and every other tail zero.
    """
    d = tail.arity
    ordering = (j,) + tuple(i for i in range(1, d + 1) if i != j)
    auto = TriangularAuto([gamma] + [tail.field.one()] * (d - 1), [tail] + [tail._wrap({})] * (d - 1), ordering)
    return Certificate([auto], j)


def triangular_summand(u):
    """(u, ``triangular_certificate(j, gamma, v)``) when u = gamma x_j + v with v free of x_j, else None.

    j is the least index whose generator has a nonzero linear coefficient
    and occurs in no other term of u (a polynomial's constant term mentions
    none), so every element of degree 1 has this shape.
    """
    d, terms = u.arity, u.terms
    units = {u._generator_key(d, i): i for i in range(1, d + 1)}
    others = u._wrap({key: c for key, c in terms.items() if key not in units}).mentioned()
    j = min((units[key] for key in terms if key in units and units[key] not in others), default=None)
    if j is None:
        return None
    unit = u._generator_key(d, j)
    return u, triangular_certificate(j, terms[unit], u._wrap({key: c for key, c in terms.items() if key != unit}))


def replay_raw(cert, like):
    """The (den, raw) pair of the certificate chain replayed on its generator, in the algebra of ``like``.

    The element being replayed stays a (den, raw) pair from the generator
    to the result.  Runs of consecutive affine factors are composed on
    their int rows (``_compose_raw``) before substitution; by associativity
    the result is identical and the expansion of large intermediate
    elements happens only once.  No scalar is built, and the raw map holds
    no zero (the generator's, or pruned by ``sparse.combine_raw``).
    """
    arity, p = like.arity, like.field.p
    if not 1 <= cert.generator_index <= arity:
        raise ArityMismatchError("generator index out of range")
    f = (1, {like._generator_key(arity, cert.generator_index): 1})
    pending = None
    for auto in cert.chain:
        if auto.arity != arity:
            raise ArityMismatchError("certificate chain arity mismatch")
        if isinstance(auto, AffineAuto):
            raw = auto.raw()
            pending = raw if pending is None else _compose_raw(raw, pending, p)
            continue
        if pending is not None:
            f = like._endo_raw(f, _affine_images(pending, like))
            pending = None
        f = like._endo_raw(f, auto.raw_images(like))
    if pending is not None:
        f = like._endo_raw(f, _affine_images(pending, like))
    return f


def certify_apply(cert, like):
    """The element the certificate chain replays to, in the algebra of ``like`` (``replay_raw``).

    Scalars are built once, for the result.
    """
    return like._wrap_raw(*replay_raw(cert, like))


def validate_certificate(cert, arity, checked=None):
    """Structural problems of the generator index and of every elementary factor, as strings.

    ``checked`` maps id(factor) to the factor's own problems.  Certificates
    that share factor objects and pass one such dict run ``validate()``
    once per object, and each still reports the problems at its own
    position.
    """
    checked = {} if checked is None else checked
    problems = []
    if not 1 <= cert.generator_index <= arity:
        problems.append("generator index out of range")
    for pos, auto in enumerate(cert.chain):
        if auto.arity != arity:
            problems.append(f"factor {pos + 1} has wrong arity")
            continue
        key = id(auto)
        if key not in checked:
            checked[key] = auto.validate()
        for msg in checked[key]:
            problems.append(f"factor {pos + 1}: {msg}")
    return problems
