"""The sparse container both algebras share.

An element is an immutable map from keys to nonzero coefficients over one
field, in a fixed number of generators: exponent vectors for a Polynomial,
normal words for a LieElement.  Everything that does not look inside a key
lives here.  Zero coefficients are pruned eagerly, so two equal elements
compare equal structurally.

The verifier's summand check runs on ints, on terms held as maps from keys
to (num, den) pairs (``element_pairs``): ``pairs_sum`` re-sums summands
by key and ``pairs_equal`` compares two such maps by cross-multiplication.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ArityMismatchError, FieldMismatchError, UnsupportedInputError
from .field import FieldScalar, check_raw_bits

#: The most generators an element may have.  Every key of a polynomial is
#: an exponent vector with one slot per generator, so this bounds the memory
#: of one term; it is checked before any term is built.
MAX_ARITY = 1024


def check_arity(arity):
    """Raise UnsupportedInputError when arity exceeds MAX_ARITY."""
    if arity > MAX_ARITY:
        raise UnsupportedInputError(f"{arity} generators exceed the ceiling of {MAX_ARITY}")


class SparseElement:
    """Immutable sparse element in ``arity`` generators over ``field``.

    Subclasses give ``_key(arity, key)``, which returns the canonical form
    of a key or raises when the key is invalid for the arity.
    """

    __slots__ = ("arity", "field", "terms")

    def __init__(self, arity, field, terms=None):
        if arity < 1:
            raise ArityMismatchError("arity must be at least 1")
        check_arity(arity)
        clean = {}
        for key, coeff in (terms or {}).items():
            key = self._key(arity, key)
            if not isinstance(coeff, FieldScalar):
                coeff = field(coeff)
            elif coeff.field != field:
                raise FieldMismatchError("coefficient field mismatch")
            if not coeff.is_zero():
                clean[key] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, arity, field):
        return cls(arity, field, {})

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.arity != self.arity:
            raise ArityMismatchError(f"arity {self.arity} vs {other.arity}")
        if other.field != self.field:
            raise FieldMismatchError("elements over different fields")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            s = coeff if acc is None else acc + coeff
            if s.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = s
        return self._wrap(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        if not isinstance(c, FieldScalar):
            c = self.field(c)
        if c.is_zero():
            return self._wrap({})
        return self._wrap({k: c * v for k, v in self.terms.items()})

    @classmethod
    def _new(cls, arity, field, terms):
        """An element holding terms, which must already be canonical and nonzero; nothing is checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "arity", arity)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "terms", terms)
        return out

    def _wrap(self, terms):
        """An element like self holding terms, which must already be canonical and nonzero."""
        return self._new(self.arity, self.field, terms)

    def _raw(self):
        """(den, raw): raw maps each key of self to its int in the layout of ``FieldDescriptor.to_raw``."""
        den, ints = self.field.to_raw(self.terms.values())
        return den, dict(zip(self.terms, ints))

    def _wrap_raw(self, den, raw):
        """An element like self whose coefficient at each key of raw is raw[key] / den.

        raw maps keys to ints in the layout of ``FieldDescriptor.to_raw``;
        zero coefficients are dropped on the ints, so one scalar is built
        per term of the result.
        """
        raw = prune_raw(raw, self.field.p)
        return self._wrap(dict(zip(raw, self.field.from_raw(den, raw.values()))))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.arity, self.field, self.terms) == (other.arity, other.field, other.terms)

    __hash__ = None


def prune_raw(raw, p):
    """raw without its zero coefficients; over GF(p) (``p`` not None) reduced mod p first."""
    if p is None:
        return {key: v for key, v in raw.items() if v}
    return {key: r for key, v in raw.items() if (r := v % p)}


def combine_raw(den, coeffs, pieces, p):
    """The (den, raw) pair of sum_k coeffs[k] / den * pieces[k].

    ``coeffs`` are ints over ``den`` and each piece is a (den, raw) pair;
    the sum is taken over the least common multiple of the piece
    denominators and returned pruned (``prune_raw``).
    """
    common = lcm(*(piece_den for piece_den, _ in pieces))
    acc = {}
    get = acc.get
    for c, (piece_den, piece) in zip(coeffs, pieces):
        c *= common // piece_den
        for key, v in piece.items():
            acc[key] = get(key, 0) + c * v
    return den * common, prune_raw(acc, p)


def element_pairs(element):
    """The terms of element as a {key: (num, den)} map: each coefficient's numerator and denominator.

    Over GF(p) that is its residue over 1.  It is the form in which the
    verifier reads summand texts (``parsing.poly_pairs``, ``parsing.lie_pairs``).
    """
    return {key: (c.numerator, c.denominator) for key, c in element.terms.items()}


def pairs_sum(maps, p):
    """The sum of {key: (num, den)} maps without zero pairs, by key, as one such map without zeros.

    A key held by one map keeps its pair.  The pairs of a shared key are
    added over the least common multiple of their denominators, under the
    ceiling of ``FieldDescriptor.to_raw`` (``field.check_raw_bits``), so a
    denominator spans the pairs of one key, never those of two.  Over
    GF(p) (``p`` not None) a sum is reduced mod p.
    """
    runs = {}
    for pairs in maps:
        for key, pair in pairs.items():
            run = runs.get(key)
            if run is None:
                runs[key] = [pair]
            else:
                run.append(pair)
    total = {}
    for key, run in runs.items():
        if len(run) == 1:
            total[key] = run[0]
            continue
        common = 1
        for _, den in run:
            if den != 1 and common % den:
                common = common // gcd(common, den) * den
                check_raw_bits(common, len(run))
        num = sum(n * (common // den) for n, den in run)
        if p is not None:
            num %= p
        if num:
            total[key] = (num, common)
    return total


def pairs_equal(a, b, p):
    """Whether two {key: (num, den)} maps without zeros hold equal coefficients.

    They must have the same keys, and at each key n_a * d_b = n_b * d_a,
    over GF(p) (``p`` not None) mod p.  This is the verifier's one
    comparison, of a replay with its summand and of the re-sum with the
    input.
    """
    if a.keys() != b.keys():
        return False
    for key, (num, den) in a.items():
        other_num, other_den = b[key]
        diff = num * other_den - other_num * den
        if diff if p is None else diff % p:
            return False
    return True
