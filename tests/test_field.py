import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primlen.errors import FieldMismatchError, ParseError, UnsupportedInputError
from primlen.field import GF, QQ, FieldDescriptor, field_from_flag, parse_scalar

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
