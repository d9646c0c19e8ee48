"""Golden documents: the SHA-256 of the dumps output for a fixed corpus.

A change that should leave the produced documents alone (a refactor, a
faster codec, another scalar layer) must keep every digest below.  A
change that alters documents on purpose updates the digests and says why.

A polynomial document of degree n holds one summand per node k = 0..n
with a tail, at most n + 1 against the bound binom(n+d-1, d-1): d3-n4,
d3-n4-dense and d3-n4-tiny-coefficients 5 of 15, d4-n6 7 of 84, d5-n3 4
of 35 and d5-n3-linear-part 2 of 35 (its nonlinear part becomes binary
forms in x1 + x2 and x2 alone, which only nodes 0 and 1 carry).  d2-n3
keeps every node, 4 of 4.

A Lie document holds the summands left once every pair whose sum is
gamma x_j + v, v free of x_j, has been merged, against the paper's bound:
Q-d3 3 of 5, F2-d4 3 of 7, F101-d5 and Q-d4-quadratic 2 of 6,
F2-d4-quadratic 2 of 7, F2-d3-extra 2 of 6, Q-d4-second-candidate 2 of 6
and F2-d4-second-prime 2 of 7.
"""

import hashlib

import pytest

from primlen.document import dumps, lie_document, loads, poly_document, verify_document
from primlen.field import field_from_flag
from primlen.liedecomp import decompose_lie
from primlen.parsing import parse_lie, parse_poly
from primlen.polydecomp import decompose

POLY_CORPUS = {
    "d2-n3": (
        2, "x1^3 - 2*x1^2*x2 + 1/3*x2^3 + x1*x2 - x2 + 4",
        "ec8eae08c981941b9cb52af40f710d11eff813c046e7d20a2e34313fd0db7ee7",
    ),
    "d3-n4": (
        3, "x1^4 + x2^2*x3^2 - 5/2*x1*x2*x3 + x3^3 - x1^2 + 7*x2 + x3 - 1",
        "fe28944b0dac1cd80f5a3c97870ad9d124365b2d2d369c629b804fd2519af6b9",
    ),
    "d4-n6": (
        4, "x1^6 - 3*x2^5*x3 + 2/7*x1*x2*x3*x4^3 + x4^6 - x1^2*x3^2 + x2*x4 + 5*x3 - 1",
        "1affb13ea592311c64cc3a07f22617288d10fee81bea989ca5202971580d5c54",
    ),
    "d5-n3": (
        5, "x1^3 + x2*x3*x4 - x5^3 + 3/4*x1*x5^2 + x2^2 - x4 + 2",
        "bd139bc912377dd7b57a148443c30aa2fa64a0225390e2189c479d17418cfcf1",
    ),
    "constant": (
        3, "-7/2",
        "63d904cb618bf7fb632233cd1e87de28a31ccc51df9547b760819c6c6205b1d5",
    ),
    "linear": (
        3, "2*x1 - x2 + 3/5*x3 + 1",
        "35461380907565f86fc1f6372831eb8a9de75793d0da45371d062c08784ee4c9",
    ),
    # Every monomial of degree <= 4 present: every node 0..4 keeps a tail,
    # so n + 1 = 5 summands against the bound of 15.
    "d3-n4-dense": (
        3,
        "-2*x1^4 + 3/2*x1^3*x2 - 4/3*x1^3*x3 + 5*x1^2*x2^2 - 1/2*x1^2*x2*x3 + 2/3*x1^2*x3^2"
        " - 3*x1*x2^3 + 2*x1*x2^2*x3 - 5/3*x1*x2*x3^2 + x1*x3^3 - x2^4 + x2^3*x3 - 4*x2^2*x3^2"
        " + 5/2*x2*x3^3 - 1/3*x3^4 - 2/3*x1^3 + 3*x1^2*x2 - 2*x1^2*x3 + 5/3*x1*x2^2 - x1*x2*x3"
        " + x1*x3^2 - x2^3 + 4*x2^2*x3 - 5/2*x2*x3^2 + 1/3*x3^3 - 1/3*x1^2 + 2*x1*x2"
        " - 3/2*x1*x3 + 4/3*x2^2 - 5*x2*x3 + 1/2*x3^2 + x1 - 4*x2 + 5/2*x3 - 1",
        "dc16731a7dfe470a1d3e9aadeb808e373e8450163af0791861d507b631ad3220",
    ),
    # Coefficients of 40 digits and their reciprocals: every replayed
    # polynomial and affine matrix carries large common denominators.
    "d3-n4-tiny-coefficients": (
        3,
        f"1/{10**40}*x1^4 - 3/{10**41}*x1*x2^2*x3 + 7*x1*x3 + {10**40}*x3^2 - 1/{10**40}*x2 + 5/{10**39}",
        "96bf5e4dd2413d211141781becebdf05f1976e0db76d2e55496a02c90e332693",
    ),
    # A linear part with fractional coefficients: psi^-1 is a non-identity
    # affine factor, so certificate replay composes it with the lattice map.
    "d5-n3-linear-part": (
        5, "x1^3 - 2*x2*x3*x5 + 3/2*x1*x4^2 + x5^3 + 3/2*x1 - x2 + 2/3*x4 + x5 - 1/7",
        "76614efa6f77c298d8b6cb5aaa89f3c5cf9557cf3ebca8303750c7f2f83af186",
    ),
}

LIE_CORPUS = {
    "Q-d3": (
        3, "Q", "[x2,x1,x3] - 3/2*[x3,x1] + x1 - 2*x3",
        "76006216daf7557c970030c8771706c09252ac1782ffc8553ff63bae6f241dd9",
    ),
    "F2-d4": (
        4, "F2", "[x2,x1,x1] + [x4,x3] + [x3,x1,x2,x4] + x2",
        "d49392061ba5b58de15cc8b0c3e5bae79d19a80892fdb4b2a9585c16e0f2c600",
    ),
    "F101-d5": (
        5, "F101", "7*[x5,x1,x2] - [x3,x2] + 50*[x4,x1,x3,x3] + x1 + 3*x5",
        "46a0a850d307c85825897e583add287747d945117d8232ef094be57596026693",
    ),
    # d = 4 inputs whose quadratic summand needs a basis completion of three
    # rows to a 4x4 matrix.  For [x2,x1] + x1 the rows x3 + x4, x2 and x1
    # take the pivot columns 3, 2 and 1, so basis_from_rows appends e_4, not
    # e_3.  That summand, x3 + x4 + [x2,x1], is gamma x3 + v with v free of
    # x3, so both documents certify it with one triangular factor that puts
    # x3 first; Q-d4-second-candidate below still shows a completion.
    "Q-d4-quadratic": (
        4, "Q", "[x2,x1] + x1",
        "a99f56266fa5e1aba8c711f588fa8ede6355ac362940c3abf7bdaca5bae69cff",
    ),
    "F2-d4-quadratic": (
        4, "F2", "[x2,x1] + [x4,x1]",
        "1d1cab7f25e43aebbe6eced1ac70f5659101272304a74d485549b575ef31dae0",
    ),
    # beta = (1, 1) over F2 is dependent on the only candidate pair, so the
    # last summand splits and the ``extra`` fallback chooses z' = (1, 0).
    "F2-d3-extra": (
        3, "F2", "[x2,x1] + [x3,x1]",
        "36839e84636c714c8e263b76591d4472ac4fb42a5db328b17dd2038c71242516",
    ),
    # beta = (0, 1, 1) is dependent on the first candidate (1, 1), so (1, 2) wins;
    # its quadratic summand keeps the triangular factor and the basis change.
    "Q-d4-second-candidate": (
        4, "Q", "[x3,x1] + [x4,x1] + x1",
        "292909cd027295f06b3835547c55c5f5a2d5f14ff50eec4a804626e1e86e12d4",
    ),
    # beta = (0, 1, 0) over F2: the last slots hold (1, 0), which depends on
    # the first prime (1, 0), so the ``extra`` split takes z' = (0, 1).
    "F2-d4-second-prime": (
        4, "F2", "[x3,x1] + x1",
        "d83bd4aae4ab1704a12f0528c2051bea143e847f4034ffeb60128ebf82046b29",
    ),
}


# Each of these Lie goldens' inputs with one or two words added, so that
# the merged document still has chains of a diagonal, an inner and a linear
# factor, and repeats a linear factor.  Over F2 the quadratic part stays
# [x3,x1], so z' = (0, 1) as in the golden.
LONG_CHAINS = {
    "Q-d3": (3, "Q", "[x2,x1,x3] + [x2,x1,x2] - 3/2*[x3,x1] + x1 - 2*x3"),
    "F101-d5": (5, "F101", "7*[x5,x1,x2] - [x3,x2] + 50*[x4,x1,x3,x3] + [x2,x1,x4] + x1 + 3*x5"),
    "F2-d4-second-prime": (4, "F2", "[x3,x1] + [x2,x1,x4] + [x4,x1,x3] + x1"),
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(POLY_CORPUS))
def test_polynomial_documents_are_pinned(name):
    arity, expr, expected = POLY_CORPUS[name]
    f = parse_poly(expr, arity, field_from_flag("Q"))
    text = dumps(poly_document(decompose(f)))
    assert digest(text) == expected
    assert verify_document(loads(text)).ok


@pytest.mark.parametrize("name", sorted(LIE_CORPUS))
def test_lie_documents_are_pinned(name):
    arity, flag, expr, expected = LIE_CORPUS[name]
    u = parse_lie(expr, arity, field_from_flag(flag))
    assert digest(dumps(lie_document(decompose_lie(u)))) == expected
