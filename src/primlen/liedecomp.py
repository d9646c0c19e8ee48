"""Decomposition in free metabelian Lie algebras, d >= 3, over Q or GF(p).

Every element is a sum of at most 5 certified primitive elements for d = 3
(6 when the field has only two elements) and at most 6 for d > 3 (7 over
GF(2)).  Three certificate shapes cover all summands:

* gamma x_j + v, v in the other generators: one triangular automorphism
  with respect to an ordering that puts x_j first;
* gamma x_j + [w, x_j], w in the commutator ideal: the scaling x_j ->
  gamma x_j, a triangular automorphism that puts x_j first, followed by
  the inner automorphism exp(-(1/gamma) ad w);
* y_1 + [y_2, y_3] for linearly independent linear forms y_1, y_2, y_3: a
  triangular automorphism followed by the basis change x_i -> y_i.

Every basis change, this one and those of linear summands and of the
normalization, is ``linalg.basis_from_rows``: the given rows, then the
standard vectors off their pivot columns, in index order.  The pivot
columns are the first columns on which the rows stay independent; one row
pivots on its first nonzero coefficient.  The same elimination
(``linalg.pivot_columns``) decides whether the linear coefficients (1, 1),
and over GF(2) (1, 0), are independent from the quadratic part; on that
answer ``choose_lie_coeffs`` follows the paper's case split, with no
search.  The linear summands use the builder the polynomial pipeline
uses, ``polyauto.linear_certificate``, and the normalization
``polyauto.linearize``.

The factors, ``InnerLieAuto`` included, are plain records, checked by
nothing when built; ``polyauto.validate_certificate``, which
``check_summands`` runs before any replay, is the only validity check.

The pipeline normalizes the linear part to delta x1, splits off the
commutator words containing x1, buckets them by a trailing generator that
can be stripped, picks the remaining linear coefficients by that case
split, and maps everything back.  Last, ``_merge_triangular`` merges every
pair of summands whose sum has the first shape, gamma x_j + v with no
word of v mentioning x_j, into that sum, until no pair merges, and gives
the one-factor triangular certificate to every summand of that shape with
a longer chain; the triangular factor may put any generator first.  An
input of that shape is one summand.  Merging only lowers the count, so it
stays within the bound.
"""

from __future__ import annotations

from .errors import UnsupportedInputError
from .linalg import basis_from_rows, pivot_columns
from .metalie import LieElement, _inner_raw, bracket, split_parts
from .polyauto import AffineAuto, Certificate, TriangularAuto, apply_images, linear_certificate, linearize
from .polydecomp import ZERO_NOTE, Decomposition, Record, check_summands


# -- the inner automorphism ----------------------------------------------------


class InnerLieAuto:
    """exp(ad v) for v in the commutator ideal."""

    __slots__ = ("element",)

    def __init__(self, element):
        self.element = element

    @property
    def arity(self):
        return self.element.arity

    def validate(self):
        if self.element.has_linear_part():
            return ["inner automorphism element has a linear part"]
        return []

    def raw_images(self, like):
        return _inner_raw(self.element._raw(), self.arity, like.field.p)


def lie_bound(d, field):
    """The summand-count bound: 5/6 for d = 3, 6/7 for d > 3 (two-element fields)."""
    if d < 3:
        raise UnsupportedInputError("the Lie pipeline needs at least three generators")
    if d == 3:
        return 5 if field.has_more_than_two_elements() else 6
    return 6 if field.has_more_than_two_elements() else 7


# -- bucketing ---------------------------------------------------------------


def _check_bucket_input(t):
    for word in t.terms:
        if len(word) < 3 or word[1] != 1:
            raise ValueError(f"bucket input must have words of length >= 3 containing x1, got {word}")


def bucket_d3(t):
    """Split t into (w1, w2, w3) with [w1,x1] + [w2,x2] + [w3,x3] = t.

    Each word ends in its largest tail index, so stripping that index leaves
    a normal word and re-bracketing restores the original exactly.
    """
    _check_bucket_input(t)
    buckets = [dict(), dict(), dict()]
    for word, coeff in t.terms.items():
        buckets[word[-1] - 1][word[:-1]] = coeff
    return tuple(t._wrap(b) for b in buckets)


def bucket_dgt3(t, d):
    """Split t into (w1, w2, w3, w4) with [w1,x_d] + [w2,x_{d-1}] + w3 + w4 = t.

    Words ending in x_d or x_{d-1} are stripped; of the rest, those leading
    with x_d form w3 (they cannot mention x_{d-1}) and the others w4 (they
    cannot mention x_d).
    """
    if d <= 3:
        raise ValueError("bucket_dgt3 needs d > 3")
    _check_bucket_input(t)
    w1, w2, w3, w4 = {}, {}, {}, {}
    for word, coeff in t.terms.items():
        if word[-1] == d:
            w1[word[:-1]] = coeff
        elif word[-1] == d - 1:
            w2[word[:-1]] = coeff
        elif word[0] == d:
            w3[word] = coeff
        else:
            w4[word] = coeff
    return t._wrap(w1), t._wrap(w2), t._wrap(w3), t._wrap(w4)


# -- coefficient selection ---------------------------------------------------


class D3Coefficients(Record):
    __slots__ = ("xi", "xi_by_gen", "zeta", "extra")

    def __init__(self, xi, xi_by_gen, zeta, extra=None):
        self.xi = xi  # a FieldScalar
        self.xi_by_gen = xi_by_gen  # (xi_1, xi_2, xi_3), all nonzero
        self.zeta = zeta  # (zeta_1, zeta_2, zeta_3)
        self.extra = extra  # (z'_2, z'_3) when the last summand splits, over two-element fields


class HighDCoefficients(Record):
    __slots__ = ("xi", "eta_pair", "xi_pair", "zeta", "extra")

    def __init__(self, xi, eta_pair, xi_pair, zeta, extra=None):
        self.xi = xi  # a FieldScalar
        self.eta_pair = eta_pair  # (eta_{d-1}, eta_d), nonzero
        self.xi_pair = xi_pair  # (xi_{d-1}, xi_d), nonzero
        self.zeta = zeta  # (zeta_1, zeta_{d-1}, zeta_d)
        self.extra = extra  # (z'_{d-1}, z'_d) when one more linear summand is needed


def _independent_from_beta(pair, beta, slots):
    """Is the vector with `pair` in the two `slots` independent from beta?

    beta lists the coefficients on x_2..x_d and is nonzero.  The two
    vectors are independent when one elimination finds a pivot for each.
    """
    field = beta[0].field
    vector = [field.zero()] * len(beta)
    for slot, z in zip(slots, pair):
        vector[slot - 2] = z
    return len(pivot_columns([vector, beta], field)) == 2


def _nonzero_sum_pair(target, field):
    """Two nonzero scalars summing to target, in a field with more than two elements."""
    one = field.one()
    if target != one:
        return one, target - one
    return field(2), target - field(2)


def choose_lie_coeffs(d, delta, beta, field):
    """The free coefficients of the summand system, by the paper's case split.

    The linear coefficients z of the quadratic summand on x_{d-1}, x_d must
    be independent from beta, the coefficients of [x_j, x1] for j = 2..d:

    * more than two elements: z = (1, 1), or (1, 2) when (1, 1) depends on
      beta; beta is then a multiple of (..., 0, 1, 1), and
      det[(1, 1), (1, 2)] = 1.  For d = 3 z is negated, as it is -(xi_2, xi_3);
    * GF(2), where 2 = 0: for d = 3 when beta = (1, 1), and for d > 3
      whenever beta != 0 (the nonzero eta + xi then force z = 0), ``extra``
      holds the coefficients z' of the quadratic summand, (1, 0) or else
      (0, 1), and zeta - z' becomes one more linear summand;
    * d > 3 and beta = 0: there is no quadratic summand, and z = -2 with
      eta = xi = (1, 1).
    """
    one, zero = field.one(), field.zero()
    delta = field(delta)
    beta_zero = all(b.is_zero() for b in beta)
    slots = (d - 1, d)
    parallel = not beta_zero and not _independent_from_beta((one, one), beta, slots)
    extra = None
    if not field.has_more_than_two_elements() and (parallel or (d > 3 and not beta_zero)):
        extra = (one, zero) if _independent_from_beta((one, zero), beta, slots) else (zero, one)

    if d == 3:
        xi_3 = field(2) if parallel and extra is None else one
        return D3Coefficients(one, (one, one, xi_3), (delta - one - one, -one, -xi_3), extra)
    if beta_zero or extra is not None:
        z = -field(2)
        return HighDCoefficients(one, (one, one), (one, one), (delta - one, z, z), extra)
    pair = (one, field(2)) if parallel else (one, one)
    first, second = (_nonzero_sum_pair(-z, field) for z in pair)
    return HighDCoefficients(one, (first[0], second[0]), (first[1], second[1]), (delta - one,) + pair)


# -- certificates for the three summand shapes --------------------------------


def _triangular_cert(gen, gamma, tail):
    """Certificate for gamma x_gen + tail, tail avoiding x_gen."""
    d = tail.arity
    ordering = (gen,) + tuple(i for i in range(1, d + 1) if i != gen)
    gammas = [gamma] + [tail.field.one()] * (d - 1)
    tails = [tail] + [tail._wrap({})] * (d - 1)
    return Certificate([TriangularAuto(gammas, tails, ordering)], gen)


def _inner_cert(gen, gamma, w):
    """Certificate for gamma x_gen + [w, x_gen]: the scaling x_gen -> gamma x_gen, then inner."""
    inner = InnerLieAuto(w.scale(-gamma.inverse()))
    return Certificate(_triangular_cert(gen, gamma, w._wrap({})).chain + [inner], gen)


def _quadratic_cert(zeta_coeffs, beta, d, field):
    """Certificate for y_1 + [y_2, y_3]: triangular then basis change.

    y_1 has coefficients zeta_coeffs, y_2 = sum beta_j x_j (j >= 2),
    y_3 = x_1; the three must be linearly independent.
    """
    y1 = list(zeta_coeffs)
    y2 = [field.zero()] + list(beta)
    y3 = [field.one()] + [field.zero()] * (d - 1)
    basis_change = AffineAuto(basis_from_rows([y1, y2, y3], field))
    tail = bracket(
        LieElement.generator(d, field, 2), LieElement.generator(d, field, 3)
    )
    gammas = [field.one()] * d
    tails = [tail] + [LieElement.zero(d, field)] * (d - 1)
    triangular = TriangularAuto(gammas, tails)
    return Certificate([triangular, basis_change], 1)


# -- merging summands whose sum is triangular ----------------------------------


def _parts(u):
    """(linear, words) of u: the coefficient of x_j by j, and by j the longer words mentioning x_j.

    A word maps to the value of its coefficient (``FieldScalar.value``).
    """
    linear, words = {}, {}
    for word, c in u.terms.items():
        if len(word) == 1:
            linear[word[0]] = c
            continue
        value = c.value
        for i in word:
            if i in words:
                words[i][word] = value
            else:
                words[i] = {word: value}
    return linear, words


def _lead(parts):
    """The least j with u = gamma x_j + v, gamma != 0 and v free of x_j, as (j, gamma), or None.

    u is given by its ``_parts``.
    """
    linear, words = parts
    for j in sorted(linear):
        if j not in words:
            return j, linear[j]
    return None


def _merges(a, b, p):
    """Whether a + b = gamma x_j + v for some j (see ``_lead``), for a and b given by their ``_parts``.

    The sum is not built: on x_j, the longer words of a and b mentioning
    x_j must cancel exactly (over GF(p) mod p, ``p`` not None), and their
    x_j coefficients must not.
    """
    (lin_a, words_a), (lin_b, words_b) = a, b
    empty = {}
    for j in {*lin_a, *lin_b}:
        wa = words_a[j] if j in words_a else empty
        wb = words_b[j] if j in words_b else empty
        if len(wa) != len(wb):
            continue
        for w, v in wa.items():
            if w not in wb or (v + wb[w] if p is None else (v + wb[w]) % p):
                break
        else:
            if j not in lin_a or j not in lin_b or not (lin_a[j] + lin_b[j]).is_zero():
                return True
    return False


def _triangular_summand(u, lead):
    """(u, its one-factor triangular certificate) for u = gamma x_j + v, lead = (j, gamma)."""
    j, gamma = lead
    tail = u._wrap({w: c for w, c in u.terms.items() if w != (j,)})
    return u, _triangular_cert(j, gamma, tail)


def _merge_triangular(summands, p):
    """The summands with every pair whose sum is gamma x_j + v merged into one, v free of x_j.

    The summands are kept in order, and each is tried against the kept
    ones, first to last; the first it merges with (``_merges``) leaves
    the list, and their sum is tried in its place.  So no two kept
    summands merge.  A sum is certified by one triangular automorphism
    that puts x_j first, for the least such j, and so is every kept
    summand of that shape whose certificate chain is longer.  ``p`` is the
    characteristic, None over Q.
    """
    kept = []  # (summand, certificate, parts), with no certificate for a sum
    for u, cert in summands:
        parts = _parts(u)
        while True:
            for m, (_, _, other) in enumerate(kept):
                if _merges(other, parts, p):
                    break
            else:
                break
            u, cert = kept.pop(m)[0] + u, None
            parts = _parts(u)
        kept.append((u, cert, parts))
    merged = []
    for u, cert, parts in kept:
        lead = None if cert is not None and len(cert.chain) == 1 else _lead(parts)
        merged.append((u, cert) if lead is None else _triangular_summand(u, lead))
    return merged


# -- the pipeline --------------------------------------------------------------


def decompose_lie(f):
    """Decompose f into certified primitive summands within the table bound."""
    d, field = f.arity, f.field
    bound = lie_bound(d, field)
    if f.is_zero():
        return Decomposition(f, [], bound, notes=[ZERO_NOTE])
    if f.degree() == 1:
        return Decomposition(f, [(f, linear_certificate(f))], bound)
    lead = _lead(_parts(f))
    if lead is not None:
        return Decomposition(f, [_triangular_summand(f, lead)], bound)

    rho_inv, g = linearize(f)
    delta = 0 if rho_inv is None else 1
    _, with_x1, v = split_parts(g)
    quad = with_x1.homogeneous_component(2)
    beta = [quad.terms.get((j, 1), field.zero()) for j in range(2, d + 1)]
    t = with_x1 - quad

    gen = lambda i: LieElement.generator(d, field, i)
    coeffs = choose_lie_coeffs(d, delta, beta, field)
    summands = [(gen(1).scale(coeffs.xi) + v, _triangular_cert(1, coeffs.xi, v))]
    if d == 3:
        for k, (xi_k, w_k) in enumerate(zip(coeffs.xi_by_gen, bucket_d3(t)), start=1):
            summands.append((gen(k).scale(xi_k) + bracket(w_k, gen(k)), _inner_cert(k, xi_k, w_k)))
    else:
        w1, w2, w3, w4 = bucket_dgt3(t, d)
        eta_dm1, eta_d = coeffs.eta_pair
        xi_dm1, xi_d = coeffs.xi_pair
        summands += [
            (gen(d - 1).scale(eta_dm1) + w3, _triangular_cert(d - 1, eta_dm1, w3)),
            (gen(d).scale(eta_d) + w4, _triangular_cert(d, eta_d, w4)),
            (gen(d).scale(xi_d) + bracket(w1, gen(d)), _inner_cert(d, xi_d, w1)),
            (gen(d - 1).scale(xi_dm1) + bracket(w2, gen(d - 1)), _inner_cert(d - 1, xi_dm1, w2)),
        ]

    # The last summand, y_1 + [y_2, y_3] or linear, has its linear part on
    # x1, x_{d-1} and x_d; with ``extra`` it splits into two summands.
    zeta_1, zeta_dm1, zeta_d = coeffs.zeta
    prime = (zeta_dm1, zeta_d) if coeffs.extra is None else coeffs.extra
    zeta_vec = [zeta_1] + [field.zero()] * (d - 3) + list(prime)
    beta_part = LieElement(d, field, {(j, 1): b for j, b in zip(range(2, d + 1), beta)})
    u3 = LieElement(d, field, {(i,): c for i, c in enumerate(zeta_vec, start=1)}) + beta_part
    if not beta_part.is_zero():
        summands.append((u3, _quadratic_cert(zeta_vec, beta, d, field)))
    elif not u3.is_zero():
        summands.append((u3, linear_certificate(u3)))
    if coeffs.extra is not None:
        u4 = LieElement(d, field, {(d - 1,): zeta_dm1 - prime[0], (d,): zeta_d - prime[1]})
        if not u4.is_zero():
            summands.append((u4, linear_certificate(u4)))

    if rho_inv is not None:
        images = rho_inv.raw_images(f)
        summands = [
            (apply_images(images, element), Certificate(cert.chain + [rho_inv], cert.generator_index))
            for element, cert in summands
        ]
    return Decomposition(f, _merge_triangular(summands, field.p), bound)


def verify_lie(dec):
    """Replay certificates, re-sum summands and check the count bound (see check_summands)."""
    return check_summands(dec)
