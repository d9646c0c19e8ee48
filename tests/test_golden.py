"""Golden documents: the SHA-256 of the dumps output for a fixed corpus.

A change that should leave the produced documents alone (a refactor, a
faster codec, another scalar layer) must keep every digest below.  A
change that alters documents on purpose updates the digests and says why.

A polynomial document of degree n holds one summand per node k = 0..n
with a tail, at most n + 1 against the bound binom(n+d-1, d-1): d3-n4,
d3-n4-dense and d3-n4-tiny-coefficients 5 of 15, d4-n6 7 of 84, and d5-n3
and d5-n3-linear-part 4 of 35.  d2-n3 keeps every node, 4 of 4.  Each
summand of degree > 1 is certified by a triangular factor and one basis
change B_k, whose rows are the input's linear part and s_k in the input's
own coordinates.

A Lie document holds the summands left once every pair whose sum is
gamma x_j + v, v free of x_j, has been merged, against the paper's bound
(the scaling in front of an inner factor, in Q-d3 and F2-d4, is a
triangular factor with gamma at x_j):
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
        "fba80d026e38bee692b8a5b054fd26c04dd832efdb9cc042ddb963111d90ff89",
    ),
    "d3-n4": (
        3, "x1^4 + x2^2*x3^2 - 5/2*x1*x2*x3 + x3^3 - x1^2 + 7*x2 + x3 - 1",
        "176eb4bdc5cab75a81f38ffc9cf3bd402d94b71c181f29d7451015e571b584ff",
    ),
    "d4-n6": (
        4, "x1^6 - 3*x2^5*x3 + 2/7*x1*x2*x3*x4^3 + x4^6 - x1^2*x3^2 + x2*x4 + 5*x3 - 1",
        "402688e4d087af230440dea2ebe0cdd18289c5dd0aaeb0330f84f545b8878b4b",
    ),
    "d5-n3": (
        5, "x1^3 + x2*x3*x4 - x5^3 + 3/4*x1*x5^2 + x2^2 - x4 + 2",
        "441144445b9412874850d7e225c1978c1ececc5d604e7f8a3427733784a00c7d",
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
        "fc3ae286681dac585a679aa16b37a36fc6916b6cf07d707c718bea3fce9a1435",
    ),
    # Coefficients of 40 digits and their reciprocals: every replayed
    # polynomial and affine matrix carries large common denominators.
    "d3-n4-tiny-coefficients": (
        3,
        f"1/{10**40}*x1^4 - 3/{10**41}*x1*x2^2*x3 + 7*x1*x3 + {10**40}*x3^2 - 1/{10**40}*x2 + 5/{10**39}",
        "0deca10a53527469a1d299db0fc0db30e167974f5d474e8b1f41f55053f894b6",
    ),
    # A linear part with fractional coefficients: every basis change B_k
    # carries it as its first row, over a common denominator.
    "d5-n3-linear-part": (
        5, "x1^3 - 2*x2*x3*x5 + 3/2*x1*x4^2 + x5^3 + 3/2*x1 - x2 + 2/3*x4 + x5 - 1/7",
        "915349c61a64b2c2a3f9ac3b6f554e8505df131aba48d37ba3b112b21ce0a2bc",
    ),
}

LIE_CORPUS = {
    "Q-d3": (
        3, "Q", "[x2,x1,x3] - 3/2*[x3,x1] + x1 - 2*x3",
        "54f926363af27652361edf209b6406117f7466a7d23404bea33a88a55c8c61e5",
    ),
    "F2-d4": (
        4, "F2", "[x2,x1,x1] + [x4,x3] + [x3,x1,x2,x4] + x2",
        "7ae59428e2bf07ff7a92d686e61a3e82bdd43a5a76ec7680acecb75e750b28fe",
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


# Each of these Lie goldens' inputs with one to three words added, so that
# the merged document still has chains of a scaling, an inner and a linear
# factor, and repeats a linear factor, rho^-1.  Over F2 the quadratic part
# stays [x3,x1], so z' = (0, 1) as in the golden.
LONG_CHAINS = {
    "Q-d3": (3, "Q", "[x2,x1,x3] + [x2,x1,x2] - 3/2*[x3,x1] + x1 - 2*x3"),
    "F101-d5": (5, "F101", "7*[x5,x1,x2] - [x3,x2] + 50*[x4,x1,x3,x3] + [x2,x1,x4] + x1 + 3*x5"),
    "F2-d4-second-prime": (4, "F2", "[x3,x1] + [x2,x1,x4] + [x4,x1,x3] + [x3,x1,x2] + x1"),
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
