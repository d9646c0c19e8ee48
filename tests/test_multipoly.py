import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primlen.errors import ArityMismatchError, FieldMismatchError
from primlen.field import GF, QQ
from primlen.multipoly import Polynomial, monomials_of_degree, multinomial

from conftest import KERNEL_FIELDS, rand_poly, rand_wide_scalar

x1 = Polynomial.variable(2, QQ, 1)
x2 = Polynomial.variable(2, QQ, 2)


def test_binomial_square():
    f = (x1 + x2) ** 2
    assert f == Polynomial(2, QQ, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_pow_zero_is_one():
    f = x1 * x2 - x2
    assert f**0 == Polynomial.constant(2, QQ, 1)


def test_total_degree():
    f = Polynomial(3, QQ, {(2, 1, 0): 1, (0, 0, 1): 1})
    assert f.total_degree() == 3
    assert Polynomial.zero(2, QQ).total_degree() is None
    assert Polynomial.constant(2, QQ, 7).total_degree() == 0


def test_homogeneous_component():
    f = x1**2 + x1 + Polynomial.constant(2, QQ, 1)
    assert f.homogeneous_component(1) == x1
    assert f.homogeneous_component(3).is_zero()
    g = (x1 + x2) ** 2
    assert g.homogeneous_component(2) == g


def test_components_resum():
    rng = random.Random(5)
    for _ in range(50):
        f = rand_poly(rng, 3, rng.randint(1, 5))
        total = Polynomial.zero(3, QQ)
        for p in range(f.total_degree() + 1):
            total = total + f.homogeneous_component(p)
        assert total == f


def test_substitute_example():
    f = x1**2
    image = f.substitute([x1 + x2, x2])
    assert image == x1**2 + (x1 * x2).scale(QQ(2)) + x2**2


def test_substitute_identity():
    rng = random.Random(6)
    identity = [x1, x2]
    for _ in range(20):
        f = rand_poly(rng, 2, rng.randint(0, 4))
        assert f.substitute(identity) == f


def test_substitution_is_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        f = rand_poly(rng, 2, rng.randint(0, 3), extra_terms=3)
        g = rand_poly(rng, 2, rng.randint(0, 3), extra_terms=3)
        phi = [rand_poly(rng, 2, rng.randint(0, 2), extra_terms=2) for _ in range(2)]
        assert (f * g).substitute(phi) == f.substitute(phi) * g.substitute(phi)
        assert (f + g).substitute(phi) == f.substitute(phi) + g.substitute(phi)


def test_multinomial_values():
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 0, 0)) == 1
    # direct factorial oracle
    assert multinomial((2, 1, 1)) == math.factorial(4) // (math.factorial(2) * 1 * 1) == 12


def test_multinomial_matches_factorials():
    rng = random.Random(8)
    for _ in range(200):
        mono = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 4)))
        expected = math.factorial(sum(mono))
        for e in mono:
            expected //= math.factorial(e)
        assert multinomial(mono) == expected


def test_ring_axioms_randomized():
    rng = random.Random(9)
    for _ in range(300):
        f = rand_poly(rng, 2, rng.randint(0, 3), extra_terms=3)
        g = rand_poly(rng, 2, rng.randint(0, 3), extra_terms=3)
        h = rand_poly(rng, 2, rng.randint(0, 3), extra_terms=3)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_degree_multiplicativity():
    rng = random.Random(10)
    for _ in range(100):
        f = rand_poly(rng, 2, rng.randint(0, 4))
        g = rand_poly(rng, 2, rng.randint(0, 4))
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_monomials_of_degree_count():
    assert len(list(monomials_of_degree(3, 4))) == math.comb(4 + 2, 2)
    assert list(monomials_of_degree(1, 5)) == [(5,)]


def test_mismatch_errors():
    with pytest.raises(ArityMismatchError):
        x1 + Polynomial.variable(3, QQ, 1)
    with pytest.raises(FieldMismatchError):
        x1 + Polynomial.variable(2, GF(3), 1)
    with pytest.raises(ArityMismatchError):
        Polynomial(2, QQ, {(1,): 1})


def test_zero_pruning():
    f = x1 - x1
    assert f.is_zero() and f.terms == {}


def test_gf_coefficients_normalize():
    F = GF(3)
    f = Polynomial(2, F, {(1, 0): 4})
    assert f == Polynomial.variable(2, F, 1)
    assert (f + f + f).is_zero()


# -- the integer kernels against plain FieldScalar loops ----------------------


def reference_mul(f, g):
    """The product computed on FieldScalar coefficients, term by term."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            terms[mono] = terms.get(mono, f.field.zero()) + c1 * c2
    return Polynomial(f.arity, f.field, terms)


def reference_substitute(f, images):
    """x_i -> images[i] by repeated reference products and FieldScalar scaling."""
    target = images[0].arity
    result = Polynomial.zero(target, f.field)
    for mono, coeff in f.terms.items():
        piece = Polynomial.constant(target, f.field, f.field.one())
        for i, e in enumerate(mono):
            for _ in range(e):
                piece = reference_mul(piece, images[i])
        result = result + piece.scale(coeff)
    return result


def wide_poly(rng, d, field, n_terms, max_degree=3):
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(0, max_degree) for _ in range(d))
        terms[mono] = rand_wide_scalar(rng, field)
    return Polynomial(d, field, terms)


def assert_same(got, expected):
    """Equal polynomials whose stored coefficients have the same canonical values."""
    assert got == expected
    for mono, c in got.terms.items():
        assert type(c.value) is type(expected.terms[mono].value)
        if c.field.p is not None:
            assert 0 < c.value < c.field.p


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_matches_the_scalar_reference(field):
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 3)
        f = wide_poly(rng, d, field, rng.randint(0, 5))
        g = wide_poly(rng, d, field, rng.randint(0, 5))
        assert_same(f * g, reference_mul(f, g))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_zero_and_cancelling_products(field):
    rng = random.Random(32)
    for _ in range(20):
        f = wide_poly(rng, 2, field, 4)
        c = rand_wide_scalar(rng, field)
        x, y = Polynomial.variable(2, field, 1), Polynomial.variable(2, field, 2)
        assert (f * Polynomial.zero(2, field)).is_zero()
        assert_same(f * (f - f), reference_mul(f, f - f))
        # (x + c y)(x - c y): the mixed terms cancel
        product = (x + y.scale(c)) * (x - y.scale(c))
        assert_same(product, reference_mul(x + y.scale(c), x - y.scale(c)))
        assert product == x * x - (y * y).scale(c * c)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_substitute_matches_the_scalar_reference(field):
    rng = random.Random(33)
    for _ in range(30):
        d = rng.randint(1, 3)
        target = rng.randint(1, 4)  # often not d
        f = wide_poly(rng, d, field, rng.randint(0, 5))
        images = [wide_poly(rng, target, field, rng.randint(0, 3), max_degree=2) for _ in range(d)]
        assert_same(f.substitute(images), reference_substitute(f, images))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_substitute_cancelling_and_zero_images(field):
    rng = random.Random(34)
    x, y = Polynomial.variable(2, field, 1), Polynomial.variable(2, field, 2)
    for _ in range(10):
        c = rand_wide_scalar(rng, field)
        f = (x - y).scale(c) + x * y
        z = Polynomial.variable(3, field, 3).scale(rand_wide_scalar(rng, field))
        # x, y -> z, z: the linear part cancels, x*y becomes z^2
        assert_same(f.substitute([z, z]), reference_substitute(f, [z, z]))
        assert f.substitute([z, z]) == z * z
        zero3 = Polynomial.zero(3, field)
        assert_same(f.substitute([zero3, z]), reference_substitute(f, [zero3, z]))
        assert Polynomial.zero(2, field).substitute([z, z]) == zero3


# -- substitution on (den, int-dict) pairs against plain ring operations -------


def ring_substitute(f, images):
    """x_i -> images[i] with nothing but +, * and scale on Polynomial values."""
    target = images[0].arity
    one = Polynomial.constant(target, f.field, f.field.one())
    result = Polynomial.zero(target, f.field)
    for mono, coeff in f.terms.items():
        piece = one
        for image, e in zip(images, mono):
            for _ in range(e):
                piece = piece * image
        result = result + piece.scale(coeff)
    return result


@st.composite
def field_scalars(draw, field):
    """Small scalars; over Q with denominators from a short list, so images mix them."""
    if field.is_rationals:
        return field(draw(st.integers(-20, 20)), draw(st.sampled_from([1, 1, 2, 3, 4, 6, 7, 9])))
    return field(draw(st.integers(0, field.p - 1)))


@st.composite
def polys(draw, arity, field, max_terms, max_exponent):
    monos = st.tuples(*[st.integers(0, max_exponent)] * arity)
    pairs = draw(st.lists(st.tuples(monos, field_scalars(field)), max_size=max_terms))
    return Polynomial(arity, field, dict(pairs))


@st.composite
def substitutions(draw):
    """(f, images): images of any shape, zero and constant ones included, in another arity."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    d = draw(st.integers(1, 3))
    target = draw(st.integers(1, 4))
    f = draw(polys(d, field, 5, 3))
    images = []
    for _ in range(d):
        shape = draw(st.sampled_from(["zero", "constant", "poly"]))
        if shape == "zero":
            images.append(Polynomial.zero(target, field))
        elif shape == "constant":
            images.append(Polynomial.constant(target, field, draw(field_scalars(field))))
        else:
            images.append(draw(polys(target, field, 3, 2)))
    return f, images


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_substitute_equals_the_ring_operations(case):
    f, images = case
    assert_same(f.substitute(images), ring_substitute(f, images))
