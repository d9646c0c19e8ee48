"""Shared generators and independent oracles.

The oracles work on plain ints and fractions.Fraction, so they share no
code path with the package's scalar layer or its Bareiss elimination.
"""

from fractions import Fraction

import pytest

from primlen.field import GF, QQ
from primlen.metalie import LieElement, normalize_word
from primlen.multipoly import Polynomial, monomials_of_degree


def rand_scalar(rng, field, bound=10):
    if field.is_rationals:
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        return field(num, den)
    return field(rng.randrange(field.p))


def rand_nonzero_scalar(rng, field, bound=10):
    while True:
        c = rand_scalar(rng, field, bound)
        if not c.is_zero():
            return c


# The fields of the kernel differential tests: Q, the two-element field, a
# small prime and the largest prime below 2^63.
KERNEL_FIELDS = [QQ, GF(2), GF(101), GF(2**63 - 25)]


def rand_wide_scalar(rng, field):
    """A scalar of any size: over Q, numerators up to 5,000 digits and denominators up to 10^50."""
    if not field.is_rationals:
        return field(rng.randrange(field.p))
    shape = rng.random()
    if shape < 0.2:
        return field(0)
    if shape < 0.4:
        return field(rng.randint(-9, 9), rng.randint(1, 9))
    num_digits = 5000 if shape < 0.5 else rng.randint(1, 60)
    num = rng.randint(-(10**num_digits), 10**num_digits)
    return field(num, rng.randint(1, 10**50))


def rand_poly(rng, d, degree, field=QQ, coeff_bound=10, extra_terms=6):
    """Random polynomial of total degree exactly ``degree``."""
    terms = {}
    top = list(monomials_of_degree(d, degree))
    terms[rng.choice(top)] = rand_nonzero_scalar(rng, field, coeff_bound)
    for _ in range(extra_terms):
        p = rng.randint(0, degree)
        mono = rng.choice(list(monomials_of_degree(d, p)))
        terms[mono] = rand_scalar(rng, field, coeff_bound)
    return Polynomial(d, field, terms)


def rand_lie(rng, d, degree, field=QQ, terms=6, coeff_bound=5):
    """Random Lie element with words of length up to ``degree``."""
    e = LieElement.zero(d, field)
    for _ in range(terms):
        length = rng.randint(1, degree)
        word = [rng.randint(1, d) for _ in range(length)]
        e = e + normalize_word(word, d, field).scale(rand_scalar(rng, field, coeff_bound))
    return e


# -- independent exact oracles (plain Fractions) -----------------------------


def cofactor_determinant(rows):
    """Cofactor expansion along the rows over Fractions.

    Minors are memoized by their set of remaining columns, so an n x n
    determinant costs O(2^n n) rather than O(n!).
    """
    n = len(rows)
    memo = {}

    def minor(r, cols):
        # determinant of rows r.. restricted to the sorted column tuple cols
        if r == n:
            return Fraction(1)
        if cols not in memo:
            total = Fraction(0)
            for pos, j in enumerate(cols):
                if rows[r][j] != 0:
                    term = Fraction(rows[r][j]) * minor(r + 1, cols[:pos] + cols[pos + 1 :])
                    total += term if pos % 2 == 0 else -term
            memo[cols] = total
        return memo[cols]

    return minor(0, tuple(range(n)))


def naive_fraction_solve(rows, rhs):
    """Plain Gaussian elimination over Fractions; None when singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot = None
        for r in range(k, n):
            if aug[r][k] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        aug[k], aug[pivot] = aug[pivot], aug[k]
        for r in range(k + 1, n):
            if aug[r][k] != 0:
                factor = aug[r][k] / aug[k][k]
                for c in range(k, n + 1):
                    aug[r][c] -= factor * aug[k][c]
    xs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc -= aug[i][j] * xs[j]
        xs[i] = acc / aug[i][i]
    return xs


@pytest.fixture
def report(capsys):
    """Print a line to the real terminal even while pytest captures output."""

    def _report(line):
        with capsys.disabled():
            print(line)

    return _report


ALL_FIELDS = [QQ, GF(2), GF(3), GF(5)]
