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
        "c9d9c8022d3055adccd4c74651713213e8c464d1a8b71b0c3c293fcca268c57d",
    ),
    "d3-n4": (
        3, "x1^4 + x2^2*x3^2 - 5/2*x1*x2*x3 + x3^3 - x1^2 + 7*x2 + x3 - 1",
        "c67b3266d39de94a8e38e51e61fb7fe6328f0e05f44d843836a5dd1357e57d0c",
    ),
    "d4-n6": (
        4, "x1^6 - 3*x2^5*x3 + 2/7*x1*x2*x3*x4^3 + x4^6 - x1^2*x3^2 + x2*x4 + 5*x3 - 1",
        "bc30bd0e3b0b1466348180eeabf50b514f60594c33f920429bb06192191ef0b8",
    ),
    "d5-n3": (
        5, "x1^3 + x2*x3*x4 - x5^3 + 3/4*x1*x5^2 + x2^2 - x4 + 2",
        "1b92a0d691632077bf04dd1367a7178d7285c4e2e85724a952f81bae842ffa65",
    ),
    "constant": (
        3, "-7/2",
        "0e8e69915823a1a529a80712efa3481b346af83d1dd566382ff3c0beb1cdd10d",
    ),
    "linear": (
        3, "2*x1 - x2 + 3/5*x3 + 1",
        "8d59f58bcd75b97fc3dcee9c525513dd030e4d81f2aa0ba87cfa5af46510317b",
    ),
    # Coefficients of 40 digits and their reciprocals: every replayed
    # polynomial and affine matrix carries large common denominators.
    "d3-n4-tiny-coefficients": (
        3,
        f"1/{10**40}*x1^4 - 3/{10**41}*x1*x2^2*x3 + 7*x1*x3 + {10**40}*x3^2 - 1/{10**40}*x2 + 5/{10**39}",
        "1fc5b44608dd18288edd1914921f174dd7bb77c64601b40807c1c6681f3ec1d6",
    ),
    # A linear part with fractional coefficients: psi^-1 is a non-identity
    # affine factor, so certificate replay composes it with the lattice map.
    "d5-n3-linear-part": (
        5, "x1^3 - 2*x2*x3*x5 + 3/2*x1*x4^2 + x5^3 + 3/2*x1 - x2 + 2/3*x4 + x5 - 1/7",
        "058e4e2751009499782ce340250da1117af48273ef9ce11491d3bc830cc6a44e",
    ),
}

LIE_CORPUS = {
    "Q-d3": (
        3, "Q", "[x2,x1,x3] - 3/2*[x3,x1] + x1 - 2*x3",
        "c56e42a7352e5f933be5f52dd064f9ec831e82d30734488e050da2b1a1dd6e5f",
    ),
    "F2-d4": (
        4, "F2", "[x2,x1,x1] + [x4,x3] + [x3,x1,x2,x4] + x2",
        "faff48cdd0a170f37da822dc877e25b31e4c0ff5bfdf878dbdb0a17e56383832",
    ),
    "F101-d5": (
        5, "F101", "7*[x5,x1,x2] - [x3,x2] + 50*[x4,x1,x3,x3] + x1 + 3*x5",
        "30cb1f6eee9f0317a660eac37b1347338237dfa99046512a6969d492f5a34b56",
    ),
    # d = 4 inputs whose quadratic summand needs a basis completion of three
    # rows to a 4x4 matrix; the completion rule shows in these documents.
    # For [x2,x1] + x1 the rows x3 + x4, x2 and x1 take the pivot columns
    # 3, 2 and 1, so basis_from_rows appends e_4, not e_3.
    "Q-d4-quadratic": (
        4, "Q", "[x2,x1] + x1",
        "934b34eaacca3752eb4604d5971bc993e0d4e590121945fe5755948bb9c7a133",
    ),
    "F2-d4-quadratic": (
        4, "F2", "[x2,x1] + [x4,x1]",
        "e6be81c9ffc9f0130ad0dea72bcabea557a70df8e756b534ee5680f498ef2bef",
    ),
    # beta = (1, 1) over F2 is dependent on the only candidate pair, so the
    # last summand splits and the ``extra`` fallback chooses z' = (1, 0).
    "F2-d3-extra": (
        3, "F2", "[x2,x1] + [x3,x1]",
        "eff20e3389a67c383fe36d7a0b0fa7a77abe98e3abc1554f5181616c7e351f91",
    ),
    # beta = (0, 1, 1) is dependent on the first candidate (1, 1), so (1, 2) wins.
    "Q-d4-second-candidate": (
        4, "Q", "[x3,x1] + [x4,x1] + x1",
        "cd687fd7f43db0fb82b3fc8bea3c6945106adb21ebdbae456804e8d42914d44a",
    ),
    # beta = (0, 1, 0) over F2: the last slots hold (1, 0), which depends on
    # the first prime (1, 0), so the ``extra`` split takes z' = (0, 1).
    "F2-d4-second-prime": (
        4, "F2", "[x3,x1] + x1",
        "ad3b02f8b1be22809f7d99146591e01550223e12fa925589b63e33dcc7125f69",
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
