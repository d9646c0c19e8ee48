"""The sparse container shared by Polynomial and LieElement."""

from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primlen import field
from primlen.errors import UnsupportedInputError
from primlen.field import GF, QQ, _is_prime
from primlen.metalie import LieElement, normalize_word
from primlen.multipoly import Polynomial
from primlen.polyauto import Certificate
from primlen.polydecomp import Decomposition, verify
from primlen.sparse import element_pairs, pairs_equal, pairs_sum


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_a_polynomial_never_equals_a_lie_element(field):
    # In one generator x1 is stored under the key (1,) in both algebras.
    pairs = [
        (Polynomial.zero(1, field), LieElement.zero(1, field)),
        (Polynomial.variable(1, field, 1), LieElement.generator(1, field, 1)),
    ]
    for f, u in pairs:
        assert f.terms == u.terms
        assert f != u and u != f
        assert not f == u and not u == f


def test_adding_across_algebras_raises_type_error():
    f = Polynomial.variable(3, QQ, 1)
    u = LieElement.generator(3, QQ, 1)
    for a, b in ((f, u), (u, f)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


def test_elements_are_immutable_and_unhashable():
    for element in (Polynomial.variable(2, QQ, 1), LieElement.generator(3, QQ, 1)):
        with pytest.raises(AttributeError, match="immutable"):
            element.terms = {}
        with pytest.raises(TypeError):
            hash(element)
        assert not hasattr(element, "__dict__")


# -- the re-sum of check_summands, on (num, den) pairs ------------------------


@st.composite
def summand_lists(draw):
    """(zero, elements) in one algebra; some elements come with their negation, so sums cancel."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    d = draw(st.integers(3, 4))
    if field.is_rationals:
        scalar = st.builds(field, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 12]))
    else:
        scalar = st.builds(field, st.integers(0, field.p - 1))
    if draw(st.booleans()):
        zero = Polynomial.zero(d, field)
        keys = st.tuples(*[st.integers(0, 2)] * d)

        def element(pairs):
            return Polynomial(d, field, dict(pairs))
    else:
        zero = LieElement.zero(d, field)
        keys = st.lists(st.integers(1, d), min_size=1, max_size=4)

        def element(pairs):
            # the terms of a bracket of generators, rewritten to normal words, times c
            return reduce(add, (normalize_word(w, d, field).scale(c) for w, c in pairs), zero)

    elements = []
    for pairs in draw(st.lists(st.lists(st.tuples(keys, scalar), max_size=4), max_size=6)):
        elements.append(element(pairs))
        if draw(st.booleans()):
            elements.append(-elements[-1])
    return zero, draw(st.permutations(elements))


@settings(max_examples=200, deadline=None)
@given(summand_lists())
def test_pairs_sum_equals_the_sequential_sum(case):
    zero, elements = case
    expected = reduce(add, elements, zero)
    p = zero.field.p
    total = pairs_sum([element_pairs(e) for e in elements], p)
    assert pairs_equal(total, element_pairs(expected), p)
    assert total.keys() == expected.terms.keys()
    for key, (num, den) in total.items():
        assert num and den > 0
        if p is None:
            assert Fraction(num, den) == expected.terms[key].value
        else:
            assert den == 1 and 0 < num < p and num == expected.terms[key].value


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_pairs_sum_of_a_sum_and_its_negation_is_zero(field):
    f = Polynomial(2, field, {(1, 0): field(1), (0, 2): field(1)})
    assert pairs_sum([element_pairs(f), element_pairs(-f)], field.p) == {}
    assert pairs_sum([], field.p) == {}
    # a summand of the other algebra is refused before its terms are read
    dec = Decomposition(f, [(LieElement.generator(2, field, 1), Certificate([], 1))], 3)
    with pytest.raises(TypeError):
        verify(dec)


def test_pairs_sum_puts_no_two_keys_over_one_denominator(monkeypatch):
    # two maps on 40 keys whose denominators are powers q^8 of distinct
    # primes (up to 60 bits): over one common denominator the 80 pairs would
    # hold 1,814 bits each; added by key, each run is 2 pairs of <= 60 bits
    monkeypatch.setattr(field, "MAX_RAW_BITS", 400)
    primes = [q for q in range(2, 200) if _is_prime(q)][:40]
    maps = [{(k,): (1, q**8) for k, q in enumerate(primes)} for _ in range(2)]
    total = pairs_sum(maps, None)
    assert pairs_equal(total, {(k,): (2, q**8) for k, q in enumerate(primes)}, None)
    with pytest.raises(UnsupportedInputError):
        QQ.to_raw([QQ(num, den) for num, den in total.values()])
    # the ceiling holds for one key's run as it does for one to_raw
    run = [{(0,): (1, q**8)} for q in primes]
    with pytest.raises(UnsupportedInputError, match="40 nonzero scalars"):
        pairs_sum(run, None)


def test_pairs_equal_compares_by_cross_multiplication():
    assert pairs_equal({(1,): (2, 4)}, {(1,): (1, 2)}, None)
    assert pairs_equal({(1,): (-6, 3)}, {(1,): (2, -1)}, None)
    assert not pairs_equal({(1,): (1, 2)}, {(1,): (1, 3)}, None)
    assert not pairs_equal({(1,): (1, 2)}, {(2,): (1, 2)}, None)
    assert not pairs_equal({(1,): (1, 2)}, {(1,): (1, 2), (2,): (1, 1)}, None)
    assert pairs_equal({(1,): (102, 1)}, {(1,): (1, 1)}, 101)
    assert pairs_equal({(1,): (3, 1)}, {(1,): (1, 1)}, 2)
    assert not pairs_equal({(1,): (2, 1)}, {(1,): (1, 1)}, 101)
