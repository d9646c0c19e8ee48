import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primlen.errors import FieldMismatchError, ParseError, UnsupportedInputError
from primlen import field
from primlen.field import GF, QQ, FieldDescriptor, _is_prime, field_from_flag, int_to_str, parse_scalar, str_to_int

from conftest import rand_scalar


def test_exact_fraction_addition():
    assert QQ(1, 3) + QQ(1, 6) == QQ(1, 2)


def test_gf5_multiplication_wraps():
    F = GF(5)
    assert F(2) * F(3) == F(1)


def test_construction_is_canonical():
    assert QQ(2, 4) == QQ(1, 2)
    assert str(QQ(2, 4)) == "1/2"
    assert QQ(-4, -6) == QQ(2, 3)
    assert str(QQ(0, 7)) == "0"


def test_inverse():
    assert QQ(3, 7).inverse() == QQ(7, 3)
    assert GF(5)(2).inverse() == GF(5)(3)
    assert GF(2)(1).inverse() == GF(2)(1)
    with pytest.raises(ZeroDivisionError):
        QQ(0).inverse()


def test_characteristic_and_cardinality():
    assert QQ.characteristic() == 0 and QQ.has_more_than_two_elements()
    assert GF(2).characteristic() == 2 and not GF(2).has_more_than_two_elements()
    assert GF(3).characteristic() == 3 and GF(3).has_more_than_two_elements()


def test_prime_check():
    with pytest.raises(UnsupportedInputError):
        FieldDescriptor(6)
    with pytest.raises(UnsupportedInputError):
        FieldDescriptor(1)
    GF(7919)  # large prime is fine


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [p for p in range(3000) if _is_prime(p)] == [p for p in range(3000) if trial_division_is_prime(p)]


@pytest.mark.parametrize(
    "p, prime",
    [
        (561, False),  # Carmichael numbers
        (41041, False),
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
        (2**61 - 1, True),
        (2**31 - 1, True),
        (100000000000031, True),
        (100000000000031 * 3, False),
        (2**63 - 25, True),  # the largest prime below 2^63
        (2**63 - 1, False),
        (2**63 - 27, False),
        (4294967291 * 4294967279, False),  # product of two primes near 2^32
    ],
)
def test_is_prime_large(p, prime):
    assert _is_prime(p) is prime


def test_modulus_near_the_cap():
    assert GF(2**63 - 25).p == 2**63 - 25
    with pytest.raises(UnsupportedInputError):
        GF(2**63 - 1)
    with pytest.raises(UnsupportedInputError):
        field_from_flag("F" + "7" * 5000)


@pytest.mark.parametrize("digits", [5000, 20000])
def test_int_text_round_trip_beyond_the_digit_limit(digits):
    rng = random.Random(digits)
    text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
    value = str_to_int(text)
    assert value.bit_length() > 3.3 * (digits - 1)
    assert int_to_str(value) == text
    assert str_to_int("-" + text) == -value and int_to_str(-value) == "-" + text
    assert int_to_str(10**digits) == "1" + "0" * digits
    c = parse_scalar(QQ, f"-{text}/{text[::-1].lstrip('0')}7")
    assert parse_scalar(QQ, str(c)) == c
    assert str(parse_scalar(GF(101), text)) == str(value % 101)


def test_str_to_int_rejects_what_int_rejects():
    for text in ["", "-", "--5", "12a", "1" * 5000 + "a", "--" + "1" * 5000]:
        with pytest.raises(ValueError):
            str_to_int(text)


def test_descriptor_mismatch():
    with pytest.raises(FieldMismatchError):
        QQ(1) + GF(3)(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ(1) / QQ(0)


def test_field_flags():
    assert field_from_flag("Q") is QQ
    assert field_from_flag("F2") is GF(2)
    assert field_from_flag("F17").p == 17
    with pytest.raises(UnsupportedInputError):
        field_from_flag("R")


def test_scalar_text_round_trip():
    for text in ["3", "-3", "1/2", "-7/3", "0"]:
        assert str(parse_scalar(QQ, text)) == text
    assert parse_scalar(GF(5), "7") == GF(5)(2)


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\u00b2", "+3", " 3", "1/-2", "3.0", "", "-", "1/", 3])
def test_parse_scalar_accepts_only_ascii_digits(text):
    for field in (QQ, GF(5)):
        with pytest.raises(ParseError):
            parse_scalar(field, text)


@pytest.mark.parametrize("field, text", [(QQ, "1/0"), (QQ, "-3/00"), (GF(5), "1/5"), (GF(5), "2/10")])
def test_parse_scalar_zero_denominator(field, text):
    with pytest.raises(ParseError):
        parse_scalar(field, text)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_field_laws(a, b, c, d):
    x, y = QQ(a, b), QQ(c, d)
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_field_axioms_randomized(field):
    rng = random.Random(1234)
    zero, one = field.zero(), field.one()
    for _ in range(1200):
        a = rand_scalar(rng, field)
        b = rand_scalar(rng, field)
        c = rand_scalar(rng, field)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one


def test_canonical_hash_equality():
    assert hash(QQ(2, 4)) == hash(QQ(1, 2))
    assert hash(GF(5)(7)) == hash(GF(5)(2))


def test_pow():
    assert QQ(2) ** 10 == QQ(1024)
    assert QQ(2) ** -1 == QQ(1, 2)
    assert GF(5)(2) ** 4 == GF(5)(1)


def test_to_raw_refuses_a_common_denominator_past_its_ceiling(monkeypatch):
    monkeypatch.setattr(field, "MAX_RAW_BITS", 100)
    assert QQ.to_raw([QQ(1, 2**24)] * 3 + [QQ(5)]) == (2**24, [1, 1, 1, 5 * 2**24])  # 25 bits x 4
    message = r"^{} nonzero scalars over a common denominator of at least {} bits exceed the ceiling of 100 bits$"
    with pytest.raises(UnsupportedInputError, match=message.format(4, 26)):
        QQ.to_raw([QQ(1, 2**25)] * 3 + [QQ(5)])
    with pytest.raises(UnsupportedInputError, match=message.format(3, 47)):
        QQ.to_raw([QQ(1, 3**12), QQ(1, 5**12), QQ(1, 7)])
    # zeros need no scaling: 2 nonzero values of 48 bits pass
    den = 15**12
    assert QQ.to_raw([QQ(1, 3**12), QQ(0), QQ(1, 5**12), QQ(0)]) == (den, [den // 3**12, 0, den // 5**12, 0])
    F = GF(2**61 - 1)
    assert F.to_raw([F(2**60)] * 4) == (1, [2**60] * 4)
