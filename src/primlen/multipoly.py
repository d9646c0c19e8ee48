"""Sparse multivariate polynomial arithmetic over a FieldScalar coefficient field.

A polynomial in d variables is a map from exponent vectors (length-d tuples
of nonnegative integers) to nonzero FieldScalar coefficients.  All
operations are exact and return canonical values: zero coefficients are
pruned eagerly, so two equal polynomials compare equal structurally.

Products and substitution compute on plain ints.  Each operand is read
once into a (den, raw) pair (``FieldDescriptor.to_raw``): over Q one common
denominator and a map from exponent vectors to integer numerators, over
GF(p) den 1 and the residues.  Products of pairs multiply the
denominators and convolve the maps, reduced mod p over GF(p).
Substitution has one raw core, ``_substitute_raw``, which takes the
element and the images as such pairs and returns one; it keeps every
power of an image and every monomial's image as a pair too.
``Polynomial.substitute`` wraps it for scalars in and out, and the
certificate replay (``polyauto.replay_raw``) calls it directly, so a
replay builds no scalar; ``polyauto.certify_apply`` turns its result into
scalars, one per nonzero coefficient (``SparseElement._wrap_raw``).
"""

from __future__ import annotations

from itertools import compress, count
from math import comb
from operator import add

from .errors import ArityMismatchError, FieldMismatchError
from .field import FieldScalar
from .sparse import SparseElement, combine_raw


def multinomial(mono):
    """(a_1+...+a_d)! / (a_1! ... a_d!), computed as a product of binomials.

    Iterating ``comb(partial_sum, a_i)`` avoids building the full factorials.
    """
    total = 0
    result = 1
    for e in mono:
        total += e
        result *= comb(total, e)
    return result


def monomials_of_degree(d, p):
    """All exponent vectors of length d with total degree exactly p."""
    if d == 1:
        yield (p,)
        return
    for first in range(p, -1, -1):
        for rest in monomials_of_degree(d - 1, p - first):
            yield (first,) + rest


def grlex_key(mono):
    """Graded lexicographic sort key (degree first, then lex)."""
    return (sum(mono), mono)


def _raw_product(a, b, p):
    """The product of two (den, raw) pairs; over GF(p) (``p`` not None) reduced mod p."""
    den_a, terms_a = a
    den_b, terms_b = b
    pairs_b = list(terms_b.items())
    acc = {}
    get = acc.get
    for m1, c1 in terms_a.items():
        for m2, c2 in pairs_b:
            mono = tuple(map(add, m1, m2))
            acc[mono] = get(mono, 0) + c1 * c2
    if p is not None:
        acc = {mono: r for mono, c in acc.items() if (r := c % p)}
    return den_a * den_b, acc


def _substitute_raw(f, images, arity, p):
    """The (den, raw) pair of f under x_i -> images[i - 1], everything on ints.

    f and every image are (den, raw) pairs, the images in ``arity``
    variables; over GF(p) (``p`` not None) products are reduced mod p.
    The powers of each image are cached, so repeated exponents cost one
    product each, and the image of each monomial is a product of those
    powers, its denominator the product of theirs.  The coefficient-weighted
    sum of the monomial images is taken over the least common multiple of
    their denominators (``sparse.combine_raw``).
    """
    den, terms = f
    one = (1, {(0,) * arity: 1})
    power_cache = [{0: one, 1: g} for g in images]

    def img_power(i, e):
        cache = power_cache[i]
        if e not in cache:
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for k in range(best + 1, e + 1):
                acc = _raw_product(acc, images[i], p)
                cache[k] = acc
        return cache[e]

    pieces = []
    for mono in terms:
        piece = one
        for i, e in enumerate(mono):
            if e:
                piece = img_power(i, e) if piece is one else _raw_product(piece, img_power(i, e), p)
        pieces.append(piece)
    return combine_raw(den, terms.values(), pieces, p)


class Polynomial(SparseElement):
    """Immutable sparse polynomial in ``arity`` variables over ``field``."""

    __slots__ = ()

    @staticmethod
    def _key(arity, mono):
        mono = tuple(mono)
        if len(mono) != arity:
            raise ArityMismatchError(f"monomial {mono} has wrong length for arity {arity}")
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in {mono}")
        return mono

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, arity, field, c):
        return cls(arity, field, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity, field, index):
        """The generator x_index (1-based)."""
        if not 1 <= index <= arity:
            raise ArityMismatchError(f"variable x{index} out of range for arity {arity}")
        return cls(arity, field, {cls._generator_key(arity, index): field.one()})

    # -- helpers -----------------------------------------------------------

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.field.zero())

    def constant_term(self):
        return self.coefficient((0,) * self.arity)

    def iter_sorted(self):
        """Terms in canonical order: graded lexicographic, highest first."""
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            yield mono, self.terms[mono]

    def total_degree(self):
        """Maximal total degree, or None (the "minus infinity" marker) for 0."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def homogeneous_component(self, p):
        return Polynomial(
            self.arity,
            self.field,
            {m: c for m, c in self.terms.items() if sum(m) == p},
        )

    def mentioned(self):
        """The indices of the variables that occur in a stored monomial."""
        return {i for mono in self.terms for i in compress(count(1), mono)}

    def linear_coefficients(self):
        """Coefficients (c_1, ..., c_d) of the degree-1 component."""
        zero, d = self.field.zero(), self.arity
        return [self.terms.get(self._generator_key(d, i), zero) for i in range(1, d + 1)]

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (FieldScalar, int)):
            return self.scale(other)
        self._check_compatible(other)
        den, raw = _raw_product(self._raw(), other._raw(), self.field.p)
        return self._wrap_raw(den, raw)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.arity, self.field, self.field.one())
        for _ in range(k):
            result = result * self
        return result

    def substitute(self, images):
        """Apply the ring endomorphism x_i -> images[i].

        ``images`` must be ``arity`` polynomials over the same field (their
        common arity may differ from ``self.arity``).  Each is read once
        with ``to_raw``, ``_substitute_raw`` does the rest on ints, and
        scalars are built once, for the result.
        """
        if len(images) != self.arity:
            raise ArityMismatchError(f"expected {self.arity} images, got {len(images)}")
        if not images:
            raise ArityMismatchError("empty image list")
        target_arity = images[0].arity
        for g in images:
            if g.arity != target_arity:
                raise ArityMismatchError("images have mixed arities")
            if g.field != self.field:
                raise FieldMismatchError("image field mismatch")
        raw = _substitute_raw(self._raw(), [g._raw() for g in images], target_arity, self.field.p)
        return images[0]._wrap_raw(*raw)

    def _endo_raw(self, raw, images):
        """The (den, raw) image of the pair raw under the (den, raw) generator images, in d = arity."""
        return _substitute_raw(raw, images, self.arity, self.field.p)

    @staticmethod
    def _generator_key(arity, index):
        return (0,) * (index - 1) + (1,) + (0,) * (arity - index)

    @staticmethod
    def _constant_key(arity):
        return (0,) * arity

    def __repr__(self):
        from .parsing import poly_to_str

        return f"Polynomial({self.arity}, {self.field!r}, {poly_to_str(self)!r})"
