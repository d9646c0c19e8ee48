"""Golden documents: the SHA-256 of the dumps output for a fixed corpus.

A change that should leave the produced documents alone (a refactor, a
faster codec, another scalar layer) must keep every digest below.  A
change that alters documents on purpose updates the digests and says why.
"""

import hashlib

import pytest

from primlen.document import dumps, lie_document, poly_document
from primlen.field import field_from_flag
from primlen.liedecomp import decompose_lie
from primlen.parsing import parse_lie, parse_poly
from primlen.polydecomp import decompose

POLY_CORPUS = {
    "d2-n3": (
        2, "x1^3 - 2*x1^2*x2 + 1/3*x2^3 + x1*x2 - x2 + 4",
        "5d4e1ac0446a2a93ad69f2595097dc25d53f3c16aee9fe9568d0848092506a43",
    ),
    "d3-n4": (
        3, "x1^4 + x2^2*x3^2 - 5/2*x1*x2*x3 + x3^3 - x1^2 + 7*x2 + x3 - 1",
        "1cd17f78e4200288c398e8b39c9d26f2baf8b866bdb0b6886c081d10d7f97499",
    ),
    "d4-n6": (
        4, "x1^6 - 3*x2^5*x3 + 2/7*x1*x2*x3*x4^3 + x4^6 - x1^2*x3^2 + x2*x4 + 5*x3 - 1",
        "164ee18b7055b98cdea33650ad16721fc485f38ffedc36d8b11ae8311177790d",
    ),
    "d5-n3": (
        5, "x1^3 + x2*x3*x4 - x5^3 + 3/4*x1*x5^2 + x2^2 - x4 + 2",
        "eb5de1b4c738692581b3e2369efacaddf64973aacbfbbeb750718e3bee2c87e7",
    ),
    "constant": (
        3, "-7/2",
        "43bdb45cfa140eb04b8d8bebbd0be6b9819f2f34f0301cadd190617081ff45ee",
    ),
    "linear": (
        3, "2*x1 - x2 + 3/5*x3 + 1",
        "1ebe27cfad23e376da1efa4a22755d30a51979ea3884459f53f4b2d16e11468b",
    ),
    # Coefficients of 40 digits and their reciprocals: every replayed
    # polynomial and affine matrix carries large common denominators.
    "d3-n4-tiny-coefficients": (
        3,
        f"1/{10**40}*x1^4 - 3/{10**41}*x1*x2^2*x3 + 7*x1*x3 + {10**40}*x3^2 - 1/{10**40}*x2 + 5/{10**39}",
        "d16e05922f21ebc3b45edf2258f14a31c14813e110868fc4bd6881a0b2c801a2",
    ),
    # A linear part with fractional coefficients: psi^-1 is a non-identity
    # affine factor, so certificate replay composes it with the lattice map.
    "d5-n3-linear-part": (
        5, "x1^3 - 2*x2*x3*x5 + 3/2*x1*x4^2 + x5^3 + 3/2*x1 - x2 + 2/3*x4 + x5 - 1/7",
        "4a24226dced74dc681d31e479b747d4157b7478371fe31114c4d1d892a9b869f",
    ),
}

LIE_CORPUS = {
    "Q-d3": (
        3, "Q", "[x2,x1,x3] - 3/2*[x3,x1] + x1 - 2*x3",
        "0cf8a8911460c33222f074cdf5dd75edd88d8c58650aa24a0a8f357811e2de0a",
    ),
    "F2-d4": (
        4, "F2", "[x2,x1,x1] + [x4,x3] + [x3,x1,x2,x4] + x2",
        "9f1fb96890a5b3d6a68f7e9d63476ffdb0bce8d68a37868b8a7d6a2b012c6fce",
    ),
    "F101-d5": (
        5, "F101", "7*[x5,x1,x2] - [x3,x2] + 50*[x4,x1,x3,x3] + x1 + 3*x5",
        "b17c4bee787458732fda105a7597d5417be67de6f00cb52d3b7da79d031d6b0b",
    ),
    # d = 4 inputs whose quadratic summand needs a basis completion of three
    # rows to a 4x4 matrix; the completion rule shows in these documents.
    # For [x2,x1] + x1 the rows x3 + x4, x2 and x1 take the pivot columns
    # 3, 2 and 1, so basis_from_rows appends e_4, not e_3.
    "Q-d4-quadratic": (
        4, "Q", "[x2,x1] + x1",
        "c8c8842ebc3d2cfcd52f3fa1359cd93298d878edf50aa076f18afc470b7e0305",
    ),
    "F2-d4-quadratic": (
        4, "F2", "[x2,x1] + [x4,x1]",
        "55b818e2961e87c9828625b6705c3c45d237942bd2039e0c465556508ada44d1",
    ),
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(POLY_CORPUS))
def test_polynomial_documents_are_pinned(name):
    arity, expr, expected = POLY_CORPUS[name]
    f = parse_poly(expr, arity, field_from_flag("Q"))
    assert digest(dumps(poly_document(decompose(f)))) == expected


@pytest.mark.parametrize("name", sorted(LIE_CORPUS))
def test_lie_documents_are_pinned(name):
    arity, flag, expr, expected = LIE_CORPUS[name]
    u = parse_lie(expr, arity, field_from_flag(flag))
    assert digest(dumps(lie_document(decompose_lie(u)))) == expected
