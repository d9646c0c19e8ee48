import random
from fractions import Fraction
from itertools import combinations

import pytest

from primlen.errors import SingularMatrixError
from primlen.field import GF, QQ
from primlen.linalg import (
    DenseMatrix,
    OpCounter,
    bareiss_determinant,
    basis_from_rows,
    matrix_inverse,
    solve_square,
    vandermonde_power_matrix,
)

from conftest import KERNEL_FIELDS, cofactor_determinant, rand_nonzero_scalar, rand_scalar, rand_wide_scalar


def qmat(rows):
    return DenseMatrix.from_rows(QQ, rows)


def test_determinant_2x2():
    det, _ = bareiss_determinant(qmat([[1, 2], [3, 4]]))
    assert det == QQ(-2)


def test_determinant_identity():
    det, _ = bareiss_determinant(DenseMatrix.identity(4, QQ))
    assert det == QQ(1)


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        det, _ = bareiss_determinant(qmat(rows))
        expected = cofactor_determinant(rows)
        assert Fraction(det.numerator, det.denominator) == expected


def test_determinant_rational_entries():
    rng = random.Random(12)
    for _ in range(10):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            for _ in range(4)
        ]
        det, _ = bareiss_determinant(qmat([[QQ(f.numerator, f.denominator) for f in row] for row in rows]))
        assert Fraction(det.numerator, det.denominator) == cofactor_determinant(rows)


def test_solve_hand_example():
    A = qmat([[2, 1], [-1, 1]])
    x = solve_square(A, [QQ(3), QQ(0)])
    assert x == [QQ(1), QQ(1)]


def test_solve_identity():
    A = DenseMatrix.identity(3, QQ)
    b = [QQ(5), QQ(-1, 3), QQ(0)]
    assert solve_square(A, b) == b


def test_solve_residual_zero():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        if cofactor_determinant(rows) == 0:
            continue
        A = qmat(rows)
        b = [QQ(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
        x = A.mul_vector(solve_square(A, b))
        assert x == b


def test_solve_singular_raises():
    A = qmat([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve_square(A, [QQ(1), QQ(1)])


def test_fraction_free_property_observable():
    rng = random.Random(14)
    collected = []
    rows = [[rng.randint(-20, 20) for _ in range(8)] for _ in range(8)]
    if cofactor_determinant(rows) == 0:
        rows[0][0] += 1
    solve_square(qmat(rows), [QQ(rng.randint(-20, 20)) for _ in range(8)], collect=collected)
    assert collected, "elimination produced no intermediates?"
    # the integer kernel hands back big-int values; all must be integral
    assert all(int(v) == v for v in collected)


def test_op_counter_bound():
    rng = random.Random(15)
    n = 12
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    counter = OpCounter()
    try:
        solve_square(qmat(rows), [QQ(1)] * n, counter)
    except SingularMatrixError:
        pytest.skip("unlucky singular sample")
    assert counter.multiplications + counter.divisions <= 2 * n**3


def test_gf_solve_and_det():
    F = GF(7)
    rng = random.Random(16)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(4)]
        oracle = cofactor_determinant(rows) % 7
        det, _ = bareiss_determinant(DenseMatrix.from_rows(F, rows))
        assert det == F(oracle)
        if oracle == 0:
            continue
        b = [F(rng.randrange(7)) for _ in range(4)]
        A = DenseMatrix.from_rows(F, rows)
        assert A.mul_vector(solve_square(A, b)) == b


def test_matrix_inverse():
    A = qmat([[2, 1], [1, 1]])
    inv = matrix_inverse(A)
    assert reference_mul_matrix(A, inv) == DenseMatrix.identity(2, QQ)
    assert reference_mul_matrix(inv, A) == DenseMatrix.identity(2, QQ)


def test_vandermonde_small():
    alphas = [QQ(2), QQ(3)]
    M = vandermonde_power_matrix(alphas, [0, 1])
    assert M.row(0) == [QQ(1), QQ(1)]
    assert M.row(1) == [QQ(2), QQ(3)]


def test_vandermonde_single():
    M = vandermonde_power_matrix([QQ(2)], [5])
    assert M.get(0, 0) == QQ(32)


def test_vandermonde_validation():
    with pytest.raises(ValueError):
        vandermonde_power_matrix([QQ(2), QQ(2)], [0, 1])
    with pytest.raises(ValueError):
        vandermonde_power_matrix([QQ(2), QQ(3)], [1, 1])
    with pytest.raises(ValueError):
        vandermonde_power_matrix([QQ(2), QQ(3)], [2, 1])


def test_vandermonde_minors_sample():
    # small sample here; the full 715-minor sweep runs in the acceptance suite
    alphas = [QQ(a) for a in (2, 3, 4, 5)]
    for exponents in [(0, 1, 2, 3), (0, 2, 5, 9), (1, 4, 8, 12), (3, 7, 10, 11)]:
        det, _ = bareiss_determinant(vandermonde_power_matrix(alphas, list(exponents)))
        assert not det.is_zero()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("d", range(1, 7))
def test_basis_from_row_keeps_the_row_and_adds_standard_vectors(field, d):
    rng = random.Random(1000 * d + (field.p or 0))
    for pivot in range(d):
        row = [field.zero()] * pivot + [rand_nonzero_scalar(rng, field)]
        row += [rand_scalar(rng, field) for _ in range(d - pivot - 1)]
        matrix = basis_from_rows([row], field)
        assert matrix.row(0) == row
        standard = [m for m in range(d) if m != pivot]
        for r, m in enumerate(standard, start=1):
            assert matrix.row(r) == [field(int(i == m)) for i in range(d)]
        det, _ = bareiss_determinant(matrix)
        assert det == (row[pivot] if pivot % 2 == 0 else -row[pivot])
        assert not det.is_zero()


def test_basis_from_row_rejects_the_zero_row():
    with pytest.raises(ValueError):
        basis_from_rows([[QQ(0), QQ(0)]], QQ)



def laplace_determinant(rows):
    """Cofactor expansion along the first row, on FieldScalar entries."""
    if len(rows) == 1:
        return rows[0][0]
    det = None
    for j, head in enumerate(rows[0]):
        term = head * laplace_determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        term = term if j % 2 == 0 else -term
        det = term if det is None else det + term
    return det


def reference_pivots(rows):
    """The lexicographically first k columns on which the k rows have a nonzero minor."""
    for cols in combinations(range(len(rows[0])), len(rows)):
        if not laplace_determinant([[row[j] for j in cols] for row in rows]).is_zero():
            return list(cols)
    return None


def sparse_rows(rng, field, k, d):
    """k random rows of length d with about half of the entries zero."""
    return [
        [rand_scalar(rng, field) if rng.random() < 0.5 else field.zero() for _ in range(d)]
        for _ in range(k)
    ]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", range(3, 9))
def test_basis_from_rows_completes_off_the_first_independent_columns(field, k, d):
    rng = random.Random(100 * d + 10 * k + (field.p or 0))
    checked = 0
    while checked < 12:
        rows = sparse_rows(rng, field, k, d)
        pivots = reference_pivots(rows)
        if pivots is None:
            with pytest.raises(ValueError):
                basis_from_rows(rows, field)
            continue
        matrix = basis_from_rows(rows, field)
        assert [matrix.row(i) for i in range(k)] == rows
        det, _ = bareiss_determinant(matrix)
        assert not det.is_zero()
        standard = [m for m in range(d) if m not in pivots]
        for r, m in enumerate(standard, start=k):
            assert matrix.row(r) == [field(int(i == m)) for i in range(d)]
        checked += 1


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("d", range(3, 9))
def test_basis_from_rows_rejects_dependent_rows(field, d):
    rng = random.Random(d + (field.p or 0))
    row = [rand_nonzero_scalar(rng, field) for _ in range(d)]
    other = [rand_scalar(rng, field) for _ in range(d)]
    scale = rand_nonzero_scalar(rng, field)
    zero = [field.zero()] * d
    for rows in ([zero], [row, zero], [other, row, zero], [row, [scale * c for c in row]], [row, other, row]):
        with pytest.raises(ValueError):
            basis_from_rows(rows, field)

# -- the integer kernels against plain FieldScalar loops ----------------------


def reference_mul_vector(A, vec):
    """A * vec computed on FieldScalar entries."""
    out = []
    for i in range(A.rows):
        acc = A.field.zero()
        for j in range(A.cols):
            acc = acc + A.get(i, j) * vec[j]
        out.append(acc)
    return out


def reference_mul_matrix(A, B):
    """A * B computed on FieldScalar entries."""
    flat = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = A.field.zero()
            for k in range(A.cols):
                acc = acc + A.get(i, k) * B.get(k, j)
            flat.append(acc)
    return DenseMatrix(A.rows, B.cols, A.field, flat)


def wide_matrix(rng, rows, cols, field):
    return DenseMatrix(rows, cols, field, [rand_wide_scalar(rng, field) for _ in range(rows * cols)])


def assert_same_scalars(got, expected):
    assert got == expected
    for c, e in zip(got, expected):
        assert type(c.value) is type(e.value)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_matrix_and_vector_match_the_scalar_reference(field):
    rng = random.Random(41)
    for _ in range(40):
        n, m = (rng.randint(1, 4) for _ in range(2))
        A = wide_matrix(rng, n, m, field)
        vec = [rand_wide_scalar(rng, field) for _ in range(m)]
        assert_same_scalars(A.mul_vector(vec), reference_mul_vector(A, vec))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_matrix_and_vector_zero_and_cancelling_results(field):
    rng = random.Random(42)
    for _ in range(10):
        c = rand_wide_scalar(rng, field)
        row = DenseMatrix.from_rows(field, [[c, c]])
        assert row.mul_vector([field.one(), -field.one()]) == [field.zero()]
        A = wide_matrix(rng, 3, 2, field)
        assert_same_scalars(A.mul_vector([field.zero()] * 2), [field.zero()] * 3)


def test_determinant_of_wide_rationals_matches_the_cofactor_oracle():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [[rand_wide_scalar(rng, QQ) for _ in range(n)] for _ in range(n)]
        det, _ = bareiss_determinant(DenseMatrix.from_rows(QQ, rows))
        oracle = cofactor_determinant([[Fraction(e.numerator, e.denominator) for e in row] for row in rows])
        assert Fraction(det.numerator, det.denominator) == oracle


# -- elimination, solving and inversion against FieldScalar references ------


def reference_solve(A, rhs):
    """x with A x = rhs by Gauss-Jordan elimination on FieldScalar entries; None when A is singular."""
    n = A.rows
    rows = [A.row(i) + [rhs[i]] for i in range(n)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if not rows[r][k].is_zero()), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = rows[k][k].inverse()
        rows[k] = [a * inv for a in rows[k]]
        for r in range(n):
            if r != k and not rows[r][k].is_zero():
                factor = rows[r][k]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    return [row[n] for row in rows]


def reference_determinant(A):
    """Product of the pivots of Gaussian elimination on FieldScalar entries, with the swap signs."""
    n = A.rows
    rows = [A.row(i) for i in range(n)]
    det = A.field.one()
    for k in range(n):
        pivot = next((r for r in range(k, n) if not rows[r][k].is_zero()), None)
        if pivot is None:
            return A.field.zero()
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k]
        inv = rows[k][k].inverse()
        for r in range(k + 1, n):
            factor = rows[r][k] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    return det


def reference_inverse(A):
    """The inverse column by column, one reference solve per unit vector; None when A is singular."""
    n, field = A.rows, A.field
    columns = [reference_solve(A, [field(int(i == j)) for i in range(n)]) for j in range(n)]
    if columns[0] is None:
        return None
    return DenseMatrix(n, n, field, [columns[j][i] for i in range(n) for j in range(n)])


def assert_kernel_matches_reference(A, rhs):
    det, _ = bareiss_determinant(A)
    assert_same_scalars([det], [reference_determinant(A)])
    expected = reference_solve(A, rhs)
    if expected is None:
        assert det.is_zero()
        with pytest.raises(SingularMatrixError):
            solve_square(A, rhs)
        with pytest.raises(SingularMatrixError):
            matrix_inverse(A)
        return
    assert_same_scalars(solve_square(A, rhs), expected)
    assert_same_scalars(matrix_inverse(A).entries, reference_inverse(A).entries)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_elimination_matches_the_scalar_reference(field):
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = DenseMatrix(n, n, field, [rand_scalar(rng, field, 30) for _ in range(n * n)])
        assert_kernel_matches_reference(A, [rand_scalar(rng, field, 30) for _ in range(n)])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_elimination_of_wide_scalars_matches_the_scalar_reference(field):
    # over Q: numerators up to 5,000 digits and row denominators up to 10^50
    rng = random.Random(45)
    for _ in range(12):
        n = rng.randint(1, 4)
        A = wide_matrix(rng, n, n, field)
        assert_kernel_matches_reference(A, [rand_wide_scalar(rng, field) for _ in range(n)])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_singular_matrices(field):
    rng = random.Random(46)
    for n in range(1, 5):
        row = [rand_nonzero_scalar(rng, field) for _ in range(n)]
        c = rand_nonzero_scalar(rng, field)
        rhs = [field.one()] * n
        zero = DenseMatrix(n, n, field, [field.zero()] * (n * n))
        assert_kernel_matches_reference(zero, rhs)
        if n > 1:
            # the last row a multiple of the first: the zero shows only in the last pivot
            rows = [row] + [[rand_scalar(rng, field) for _ in range(n)] for _ in range(n - 2)]
            rows.append([c * a for a in row])
            A = DenseMatrix.from_rows(field, rows)
            assert bareiss_determinant(A)[0].is_zero()
            assert_kernel_matches_reference(A, rhs)
            # a zero column in the middle: no pivot during elimination
            rows = [[rand_nonzero_scalar(rng, field) if j != n - 2 else field.zero() for j in range(n)] for _ in range(n)]
            assert_kernel_matches_reference(DenseMatrix.from_rows(field, rows), rhs)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_forced_row_swap_flips_the_sign(field):
    rng = random.Random(47)
    a, b, c = (rand_nonzero_scalar(rng, field) for _ in range(3))
    A = DenseMatrix.from_rows(field, [[field.zero(), a], [b, c]])
    det, _ = bareiss_determinant(A)
    assert det == -(a * b)
    assert_kernel_matches_reference(A, [field.one(), field.zero()])
    # a cyclic permutation matrix swaps twice: determinant +1
    P = DenseMatrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert bareiss_determinant(P)[0] == field.one()
    assert reference_mul_matrix(matrix_inverse(P), P) == DenseMatrix.identity(3, field)
    assert_kernel_matches_reference(P, [field(1), field(2), field(3)])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_one_by_one_matrices(field):
    rng = random.Random(48)
    for _ in range(10):
        a = rand_nonzero_scalar(rng, field, 10**6)
        b = rand_scalar(rng, field, 10**6)
        A = DenseMatrix.from_rows(field, [[a]])
        assert bareiss_determinant(A)[0] == a
        assert solve_square(A, [b]) == [b / a]
        assert matrix_inverse(A).entries == [a.inverse()]
        assert_kernel_matches_reference(A, [b])
    assert_kernel_matches_reference(DenseMatrix.from_rows(field, [[0]]), [field.one()])


def test_inverse_with_row_denominators_up_to_10_to_the_50():
    rng = random.Random(49)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [
            [QQ(rng.randint(-(10**30), 10**30), rng.randint(1, 10**50)) for _ in range(n)]
            for _ in range(n)
        ]
        A = DenseMatrix.from_rows(QQ, rows)
        inv = matrix_inverse(A)
        assert reference_mul_matrix(A, inv) == DenseMatrix.identity(n, QQ)
        assert_same_scalars(inv.entries, reference_inverse(A).entries)
