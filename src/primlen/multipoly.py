"""Sparse multivariate polynomial arithmetic over a FieldScalar coefficient field.

A polynomial in d variables is a map from exponent vectors (length-d tuples
of nonnegative integers) to nonzero FieldScalar coefficients.  All
operations are exact and return canonical values: zero coefficients are
pruned eagerly, so two equal polynomials compare equal structurally.

Products and substitution compute on plain ints: each operand's
coefficients become one common denominator and integer numerators over Q,
or residues over GF(p) (``FieldDescriptor.to_raw``), and one scalar is
built per result coefficient (``SparseElement._wrap_raw``).
"""

from __future__ import annotations

from math import comb
from operator import add

from .errors import ArityMismatchError, FieldMismatchError
from .field import FieldScalar
from .sparse import SparseElement


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
        mono = tuple(1 if i == index - 1 else 0 for i in range(arity))
        return cls(arity, field, {mono: field.one()})

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

    def mentions(self, index):
        """Whether the variable x_index occurs in any stored monomial."""
        return any(mono[index - 1] for mono in self.terms)

    def linear_form(self, pairs, constant=None):
        """constant + sum c x_i over the (i, c) in pairs, from scalars over the field of self."""
        d = self.arity
        terms = {(0,) * d: constant} if constant else {}
        for i, c in pairs:
            if c:
                terms[tuple(int(m == i) for m in range(1, d + 1))] = c
        return self._wrap(terms)

    def linear_coefficients(self):
        """Coefficients (c_1, ..., c_d) of the degree-1 component."""
        coeffs = []
        for i in range(self.arity):
            mono = tuple(1 if j == i else 0 for j in range(self.arity))
            coeffs.append(self.terms.get(mono, self.field.zero()))
        return coeffs

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (FieldScalar, int)):
            return self.scale(other)
        self._check_compatible(other)
        den1, ints1 = self.field.to_raw(self.terms.values())
        den2, ints2 = self.field.to_raw(other.terms.values())
        pairs2 = list(zip(other.terms, ints2))
        acc = {}
        get = acc.get
        for m1, c1 in zip(self.terms, ints1):
            for m2, c2 in pairs2:
                mono = tuple(map(add, m1, m2))
                acc[mono] = get(mono, 0) + c1 * c2
        return self._wrap_raw(den1 * den2, acc)

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
        common arity may differ from ``self.arity``).  Powers of each image
        are cached, so repeated exponents cost one multiplication each.  The
        image of each monomial is a product of those powers, and the
        coefficient-weighted sum of the images is taken on integer
        numerators over one common denominator.
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
        one = Polynomial.constant(target_arity, self.field, self.field.one())
        power_cache = [{0: one, 1: g} for g in images]

        def img_power(i, e):
            cache = power_cache[i]
            if e not in cache:
                best = max(k for k in cache if k <= e)
                acc = cache[best]
                for k in range(best + 1, e + 1):
                    acc = acc * images[i]
                    cache[k] = acc
            return cache[e]

        pieces = []
        for mono in self.terms:
            piece = one
            for i, e in enumerate(mono):
                if e:
                    piece = img_power(i, e) if piece is one else piece * img_power(i, e)
            pieces.append(piece)
        # One common denominator for the coefficients of self and one for
        # those of all the pieces; the sum runs on their numerators.
        den, coeffs = self.field.to_raw(self.terms.values())
        piece_den, piece_ints = self.field.to_raw(c for piece in pieces for c in piece.terms.values())
        piece_ints = iter(piece_ints)
        acc = {}
        get = acc.get
        for coeff, piece in zip(coeffs, pieces):
            for mono, v in zip(piece.terms, piece_ints):
                acc[mono] = get(mono, 0) + coeff * v
        return one._wrap_raw(den * piece_den, acc)

    def __repr__(self):
        from .parsing import poly_to_str

        return f"Polynomial({self.arity}, {self.field!r}, {poly_to_str(self)!r})"
