"""Exact scalar arithmetic over Q and over prime fields GF(p).

``FieldScalar`` is the coefficient type at every public boundary: the
``terms`` of a polynomial or Lie element and the entries of a matrix.  A
scalar is an exact rational (arbitrary precision, always in lowest terms)
or a residue in [0, p); it is immutable, its operations return fresh
values in canonical form, and equality is structural.

The hot kernels (polynomial products and substitution, matrix products,
Bareiss elimination) do not compute on scalars.  ``FieldDescriptor.to_raw``
turns a run of scalars into plain integers: over Q one common denominator
and integer numerators, over GF(p) the residues.  The kernel works on those
ints, and ``FieldDescriptor.from_raw`` builds one canonical scalar per
result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import FieldMismatchError, ParseError, UnsupportedInputError

#: The integer type of the arithmetic; ``perfbench/run.py`` records the backend from it.
big_int = int

#: ``FieldDescriptor.to_raw`` refuses a run of scalars when the bit length
#: of their common denominator times the number of nonzero ones, about the
#: bits of the ints it would return, exceeds this (2^29 bits are 64 MB).
#: The check runs as the denominator grows, before any numerator is scaled
#: (``check_raw_bits``); the verifier's re-sum (``sparse.pairs_sum``) holds
#: the run of one key's summand coefficients to it as well.  Peaks of that
#: product over one to_raw, fractions backend, in decompose / in verify:
#: seed 43 poly-small 374 / 374, poly-large 340 / 340, lie-mixed 806 /
#: 988; with every monomial present and coefficients a/b, |a|, b <= B, at
#: (6,5) 35 K / 35 K (B = 100) and 0.53 M / 0.53 M (B = 10^4), at (3,16)
#: 28 K / 28 K (B = 100), 0.50 M / 0.50 M (B = 10^4), up to 1.0 M / 1.0 M
#: (B = 10^5: decompose 0.2 s, verify 0.14-0.16 s).  A polynomial's
#: decompose reads every factor through the reads of the verifier's replay,
#: so its peak covers the verifier's.  The re-sum, which adds by key, peaks
#: lower (4,471 at (3,16), B = 10^5); over one common denominator it
#: reached 737 M there.
#: A triangular tail of 16,000 terms with distinct prime denominators near
#: 2^20 would reach 5.1 G; it is refused in under a second.
MAX_RAW_BITS = 1 << 29


def check_raw_bits(den, count):
    """Raise UnsupportedInputError when count nonzero ints over den pass MAX_RAW_BITS."""
    if den.bit_length() * count > MAX_RAW_BITS:
        raise UnsupportedInputError(
            f"{count} nonzero scalars over a common denominator of at least "
            f"{den.bit_length()} bits exceed the ceiling of {MAX_RAW_BITS} bits"
        )


def _is_prime(p):
    """Deterministic Miller-Rabin; the prime bases 2..37 make it exact below 2^64."""
    if p < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Python refuses int <-> decimal str conversions above a digit limit
# (sys.get_int_max_str_digits(), 4300 by default).  The two helpers below use
# the built-in conversion whenever it is allowed and split longer numbers
# into halves that are.


def str_to_int(text):
    """int(text) for an optionally signed string of ASCII digits of any length."""
    try:
        return int(text)
    except ValueError:
        digits = text.lstrip("-")
        if len(text) - len(digits) > 1 or not (digits.isascii() and digits.isdigit()):
            raise
    half = len(digits) // 2
    value = str_to_int(digits[:half]) * 10 ** (len(digits) - half) + str_to_int(digits[half:])
    return -value if text[0] == "-" else value


def int_to_str(n):
    """str(n) for an integer of any size."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_to_str(-n)
    k = int(n.bit_length() * 0.30103) // 2  # about half the decimal digits of n
    high, low = divmod(n, 10**k)
    return int_to_str(high) + int_to_str(low).zfill(k)


class FieldDescriptor:
    """The coefficient field: Q (``p is None``) or GF(p) for a prime p.

    Descriptors double as element factories: ``F(3)``, ``F(3, 4)``.
    """

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if p >= 1 << 63:
                raise UnsupportedInputError(f"a modulus of {p.bit_length()} bits does not fit a machine word")
            if not _is_prime(p):
                raise UnsupportedInputError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FieldDescriptor is immutable")

    @property
    def is_rationals(self):
        return self.p is None

    def characteristic(self):
        return 0 if self.p is None else self.p

    def has_more_than_two_elements(self):
        return self.p != 2

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def __call__(self, num, den=None):
        """Build the scalar num (or num/den over Q)."""
        if isinstance(num, FieldScalar):
            if num.field != self:
                raise FieldMismatchError(f"scalar of {num.field} given to {self}")
            return num
        if self.p is None:
            value = Fraction(num) if den is None else Fraction(num, den)
            return FieldScalar(self, value)
        if den not in (None, 1):
            return FieldScalar(self, num % self.p) / self(den)
        return FieldScalar(self, num % self.p)

    def to_raw(self, scalars):
        """(den, ints) with scalars[i] == ints[i] / den.

        Over Q, den is the least common denominator and ints are integer
        numerators; over GF(p), den is 1 and ints are the residues.  Raises
        UnsupportedInputError when den.bit_length() times the number of
        nonzero scalars exceeds MAX_RAW_BITS.
        """
        if self.p is not None:
            return 1, [s.value for s in scalars]
        values = [s.value for s in scalars]
        count = len(values)  # until the ceiling is passed; then the nonzero values, which need scaling
        den = 1
        for v in values:
            d = v.denominator
            if d != 1 and den % d:
                den = den // gcd(den, d) * d
                if den.bit_length() * count > MAX_RAW_BITS:
                    count = sum(1 for x in values if x)
                    check_raw_bits(den, count)
        if den == 1:
            return 1, [v.numerator for v in values]
        return den, [v.numerator * (den // v.denominator) for v in values]

    def from_raw(self, den, ints):
        """The canonical scalars ints[i] / den, for den nonzero in the field."""
        p = self.p
        if p is not None:
            if den != 1:
                inv = pow(den, -1, p)
                return [FieldScalar(self, n * inv % p) for n in ints]
            return [FieldScalar(self, n % p) for n in ints]
        if den == 1:
            return [FieldScalar(self, Fraction(n)) for n in ints]
        return [FieldScalar(self, Fraction(n, den)) for n in ints]

    def __eq__(self, other):
        return isinstance(other, FieldDescriptor) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    def flag(self):
        """The textual field flag used on the command line ("Q", "F2", ...)."""
        return repr(self)


QQ = FieldDescriptor()

_gf_cache = {}


def GF(p):
    """The prime field GF(p); descriptors are cached so identity checks work."""
    if p not in _gf_cache:
        _gf_cache[p] = FieldDescriptor(p)
    return _gf_cache[p]


_FLAG = re.compile(r"F[0-9]+")


def field_from_flag(flag):
    """Parse "Q" or "F<p>" into a descriptor."""
    if flag == "Q":
        return QQ
    if _FLAG.fullmatch(flag):
        return GF(str_to_int(flag[1:]))
    raise UnsupportedInputError(f"unknown field flag {flag!r}")


class FieldScalar:
    """An element of Q or GF(p), stored in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldScalar is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.field is self.field or other.field == self.field:
                return other
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return FieldScalar(self.field, self.value + other.value)
        return FieldScalar(self.field, (self.value + other.value) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return FieldScalar(self.field, self.value - other.value)
        return FieldScalar(self.field, (self.value - other.value) % self.field.p)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return FieldScalar(self.field, self.value * other.value)
        return FieldScalar(self.field, (self.value * other.value) % self.field.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __neg__(self):
        if self.field.p is None:
            return FieldScalar(self.field, -self.value)
        return FieldScalar(self.field, (-self.value) % self.field.p)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        if self.field.p is None:
            return FieldScalar(self.field, self.value**k)
        return FieldScalar(self.field, pow(self.value, k, self.field.p))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.p is None:
            return FieldScalar(self.field, 1 / self.value)
        return FieldScalar(self.field, pow(self.value, -1, self.field.p))

    def is_zero(self):
        return self.value == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __str__(self):
        try:
            return str(self.value)
        except ValueError:  # beyond the digit limit
            pass
        if self.denominator == 1:
            return int_to_str(self.numerator)
        return f"{int_to_str(self.numerator)}/{int_to_str(self.denominator)}"

    def __repr__(self):
        return f"FieldScalar({self.field!r}, {self})"

    @property
    def numerator(self):
        if self.field.p is None:
            return int(self.value.numerator)
        return int(self.value)

    @property
    def denominator(self):
        if self.field.p is None:
            return int(self.value.denominator)
        return 1


_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(field, text):
    """Parse the textual form: "a/b" or "a" over Q, a decimal residue over GF(p).

    Digits are ASCII; anything else, or a denominator that is zero in the
    field, is a ParseError.
    """
    if not isinstance(text, str):
        raise ParseError(f"scalar {text!r} is not a string", 0)
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise ParseError(f"malformed scalar {text!r}", 0)
    num, den = match.groups()
    if den is None:
        return field(str_to_int(num))
    den = str_to_int(den)
    if (den if field.p is None else den % field.p) == 0:
        raise ParseError(f"zero denominator in scalar {text!r}", match.start(2) - 1)
    return field(str_to_int(num), den)
