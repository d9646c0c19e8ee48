import random

import pytest

from primlen.field import QQ
from primlen.linalg import DenseMatrix
from primlen.multipoly import Polynomial
from primlen.polyauto import (
    AffineAuto,
    Certificate,
    TriangularAuto,
    apply_auto,
    certify_apply,
    invert_auto,
    validate_certificate,
)

from conftest import rand_poly

d = 2
x1 = Polynomial.variable(d, QQ, 1)
x2 = Polynomial.variable(d, QQ, 2)
zero_tail = Polynomial.zero(d, QQ)


def shear():
    # x1 -> x1 + x2, x2 -> x2
    return AffineAuto(DenseMatrix.from_rows(QQ, [[1, 1], [0, 1]]), [QQ(0), QQ(0)])


def tri_example():
    # x1 -> 2 x1 + x2^2
    return TriangularAuto([QQ(2), QQ(1)], [x2**2, zero_tail])


def images_equal(a, b):
    return a.arity == b.arity and all(p == q for p, q in zip(a.images(), b.images()))


def test_apply_affine():
    assert apply_auto(shear(), x1 * x2) == x1 * x2 + x2**2


def test_apply_triangular():
    assert apply_auto(tri_example(), x1) == x1.scale(QQ(2)) + x2**2


def test_apply_is_ring_homomorphism():
    rng = random.Random(21)
    a = tri_example()
    for _ in range(100):
        f = rand_poly(rng, d, rng.randint(0, 3), extra_terms=3)
        g = rand_poly(rng, d, rng.randint(0, 3), extra_terms=3)
        assert apply_auto(a, f * g) == apply_auto(a, f) * apply_auto(a, g)
        assert apply_auto(a, f + g) == apply_auto(a, f) + apply_auto(a, g)


def test_invert_affine():
    inv = invert_auto(shear())
    assert apply_auto(inv, x1) == x1 - x2


def test_invert_affine_with_offset():
    auto = AffineAuto(DenseMatrix.from_rows(QQ, [[1, 0], [1, 1]]), [QQ(0), QQ(5)])
    inv = invert_auto(auto)
    for f in (x1, x2):
        assert apply_auto(inv, apply_auto(auto, f)) == f
        assert apply_auto(auto, apply_auto(inv, f)) == f


def test_invert_triangular():
    inv = invert_auto(tri_example())
    assert apply_auto(inv, x1) == x1.scale(QQ(1, 2)) - (x2**2).scale(QQ(1, 2))
    assert apply_auto(inv, apply_auto(tri_example(), x1)) == x1


def test_invert_random_triangular_round_trip():
    rng = random.Random(22)
    for _ in range(60):
        gammas, tails = [], []
        for j in range(3):
            g = QQ(0)
            while g.is_zero():
                g = QQ(rng.randint(-4, 4))
            gammas.append(g)
            terms = {}
            for _ in range(3):
                mono = [0, 0, 0]
                for i in range(j + 1, 3):
                    mono[i] = rng.randint(0, 3)
                terms[tuple(mono)] = QQ(rng.randint(-3, 3))
            tails.append(Polynomial(3, QQ, terms))
        auto = TriangularAuto(gammas, tails)
        inv = invert_auto(auto)
        for i in range(1, 4):
            xi = Polynomial.variable(3, QQ, i)
            assert apply_auto(inv, apply_auto(auto, xi)) == xi


def test_invert_is_involution():
    auto = shear()
    assert images_equal(invert_auto(invert_auto(auto)), auto)
    tri = tri_example()
    assert images_equal(invert_auto(invert_auto(tri)), tri)


def test_certify_apply_triangular_then_affine():
    # theta: x1 -> x1 + x2^2, phi: x2 -> x1 + 2 x2; the composition applied
    # to x1 must give x1 + (x1 + 2 x2)^2
    theta = TriangularAuto([QQ(1), QQ(1)], [x2**2, zero_tail])
    phi = AffineAuto(DenseMatrix.from_rows(QQ, [[1, 0], [1, 2]]), [QQ(0), QQ(0)])
    result = certify_apply(Certificate([theta, phi], 1), d, QQ)
    assert result == x1 + (x1 + x2.scale(QQ(2))) ** 2


def test_certify_empty_chain():
    assert certify_apply(Certificate([], 1), d, QQ) == x1


def test_certify_inverse_round_trip():
    auto = tri_example()
    cert = Certificate([auto, invert_auto(auto)], 2)
    assert certify_apply(cert, d, QQ) == x2


def test_composition_order_convention():
    theta = tri_example()
    phi = shear()
    chained = certify_apply(Certificate([theta, phi], 1), d, QQ)
    assert chained == apply_auto(phi, apply_auto(theta, x1))


def certify_apply_plain(cert, arity, field):
    """Reference replay without the affine-composition shortcut."""
    f = Polynomial.variable(arity, field, cert.generator_index)
    for auto in cert.chain:
        f = apply_auto(auto, f)
    return f


def test_optimized_replay_matches_plain():
    rng = random.Random(23)
    for _ in range(40):
        chain = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                chain.append(shear())
            else:
                chain.append(tri_example())
        cert = Certificate(chain, rng.randint(1, 2))
        assert certify_apply(cert, d, QQ) == certify_apply_plain(cert, d, QQ)


def test_construction_validation():
    with pytest.raises(ValueError):
        AffineAuto(DenseMatrix.from_rows(QQ, [[1, 2], [2, 4]]), [QQ(0), QQ(0)])
    with pytest.raises(ValueError):
        TriangularAuto([QQ(0), QQ(1)], [zero_tail, zero_tail])
    with pytest.raises(ValueError):
        # tail of x1 may not involve x1
        TriangularAuto([QQ(1), QQ(1)], [x1, zero_tail])


def test_validate_certificate_reports():
    bad = TriangularAuto([QQ(0), QQ(1)], [zero_tail, zero_tail], check=False)
    problems = validate_certificate(Certificate([bad], 1), d)
    assert problems and "gamma" in problems[0]
    assert validate_certificate(Certificate([], 9), d)
