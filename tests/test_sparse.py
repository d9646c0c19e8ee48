"""The sparse container shared by Polynomial and LieElement."""

import pytest

from primlen.field import GF, QQ
from primlen.metalie import LieElement
from primlen.multipoly import Polynomial


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

