"""Seeded input generators for the benchmark workloads.

Standard library only, and deliberately independent of ``primlen``: the
program under test receives nothing but the expression strings built here.
The same (workload, seed) pair always yields byte-identical instances.

Each workload has a fixed composition (so many instances of each shape) and
random content, so seeds vary the inputs without varying how much work of
each kind a pass contains.
"""

from __future__ import annotations

import random
from math import gcd

# (arity, degree) -> instances per pass.  Shaped like acceptance criterion 1
# without its d = 4 tail: every system stays small (N <= 28), so the cost is
# per-call and per-scalar overhead rather than big-integer linear algebra.
POLY_SMALL = {(2, n): 30 for n in range(2, 7)}
POLY_SMALL.update({(3, n): 12 for n in range(2, 7)})

# Large systems (N = 28..56) with documents of 0.3-14 MB, plus the (4, 6)
# headline case (N = 84).  Each instance has a term of every degree, so that
# every per-degree system is solved and the cost of an instance depends on
# its shape, not on which degrees the seed happened to leave out.  The (5, 3)
# group sits in the middle of the latency order, so the medians are taken
# within one shape rather than on the boundary between two.
POLY_LARGE = {(3, 6): 2, (4, 4): 1, (5, 3): 9, (4, 5): 2, (4, 6): 1}

# (arity, field) -> instances per pass.
LIE_MIXED = {(d, field): 60 for d in (3, 5, 8) for field in ("Q", "F2", "F101")}

WORKLOADS = ("poly-small", "poly-large", "lie-mixed")


def monomials(arity, degree):
    """All exponent vectors of the given length and total degree."""
    if arity == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in monomials(arity - 1, degree - first)
    ]


def _rational(rng, bound):
    """A nonzero reduced fraction with |numerator|, denominator <= bound."""
    num = rng.choice([-1, 1]) * rng.randint(1, bound)
    den = rng.randint(1, bound)
    g = gcd(num, den)
    return num // g, den // g


def _scalar_text(num, den):
    return str(abs(num)) if den == 1 else f"{abs(num)}/{den}"


def _join(signed_terms):
    """Join (negative, body) pairs into "a - b + c"."""
    out = []
    for i, (negative, body) in enumerate(signed_terms):
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def poly_expr(rng, arity, degree, extra_degrees, bound=100):
    """A polynomial of total degree exactly ``degree``: one term of that degree
    plus one term of each degree in ``extra_degrees`` (distinct monomials)."""
    terms = {rng.choice(monomials(arity, degree)): _rational(rng, bound)}
    for p in extra_degrees:
        terms[rng.choice(monomials(arity, p))] = _rational(rng, bound)
    signed = []
    for mono, (num, den) in terms.items():
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e]
        body = "*".join([_scalar_text(num, den)] + factors)
        signed.append((num < 0, body))
    return _join(signed)


def lie_expr(rng, arity, field, n_terms, max_len=8, bound=10):
    """A sum of scaled generators and left-normed brackets."""
    signed = []
    for _ in range(n_terms):
        word = [rng.randint(1, arity) for _ in range(rng.randint(1, max_len))]
        body = f"x{word[0]}" if len(word) == 1 else "[" + ",".join(f"x{i}" for i in word) + "]"
        if field == "Q":
            num, den = _rational(rng, bound)
            signed.append((num < 0, f"{_scalar_text(num, den)}*{body}"))
        else:
            p = int(field[1:])
            signed.append((False, f"{rng.randint(1, p - 1)}*{body}"))
    return _join(signed)


def instances(workload, seed):
    """The instance list of one pass: dicts with id, algebra, arity, field, degree, expr.

    ``degree`` is the polynomial's total degree (None for Lie elements); the
    output check uses it to recompute the bound without reading the document.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload in ("poly-small", "poly-large"):
        shapes = POLY_SMALL if workload == "poly-small" else POLY_LARGE
        for (arity, degree), count in shapes.items():
            for _ in range(count):
                if workload == "poly-small":  # criterion 1: 4-12 extra terms of random degree
                    extra = [rng.randint(0, degree) for _ in range(rng.randint(4, 12))]
                else:
                    extra = list(range(degree)) + [rng.randint(1, degree) for _ in range(2)]
                expr = poly_expr(rng, arity, degree, extra)
                out.append(dict(algebra="poly", arity=arity, field="Q", degree=degree, expr=expr))
    elif workload == "lie-mixed":
        for (arity, field), count in LIE_MIXED.items():
            for _ in range(count):
                expr = lie_expr(rng, arity, field, rng.randint(4, 16))
                out.append(dict(algebra="lie", arity=arity, field=field, degree=None, expr=expr))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    for i, inst in enumerate(out):
        inst["id"] = f"{workload}-{i}"
    return out
