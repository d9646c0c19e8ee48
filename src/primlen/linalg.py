"""Exact dense linear algebra: Bareiss fraction-free elimination.

Determinants and square-system solving over a FieldScalar field, with
arithmetic-operation counting.  Matrix entries are FieldScalar values;
products and elimination compute on the ints of ``FieldDescriptor.to_raw``
and build scalars only for their results.  Over Q every row is first
scaled to integers by its common denominator; the Bareiss recurrence

    a[i][j] <- (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev_pivot

then keeps every intermediate value integral (the division is exact by
Sylvester's determinant identity), which bounds the bit growth of the
entries by the size of the corresponding minors.  Pivoting always takes
the first row with a nonzero entry in column order, so elimination is
deterministic.
"""

from __future__ import annotations

from operator import mul

from .errors import FieldMismatchError, InternalError, SingularMatrixError
from .field import FieldScalar, big_int


class OpCounter:
    """Counts of arithmetic operations performed during an elimination."""

    __slots__ = ("multiplications", "divisions", "additions")

    def __init__(self):
        self.multiplications = 0
        self.divisions = 0
        self.additions = 0

    def merge(self, other):
        self.multiplications += other.multiplications
        self.divisions += other.divisions
        self.additions += other.additions

    def as_dict(self):
        return {
            "multiplications": self.multiplications,
            "divisions": self.divisions,
            "additions": self.additions,
        }

    def __repr__(self):
        return f"OpCounter(mul={self.multiplications}, div={self.divisions}, add={self.additions})"


class DenseMatrix:
    """Row-major dense matrix of FieldScalar entries over one field."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows, cols, field, entries):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if not isinstance(e, FieldScalar) or e.field != field:
                raise FieldMismatchError("matrix entry over wrong field")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = entries

    @classmethod
    def from_rows(cls, field, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0])
        flat = []
        for row in row_lists:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(field(e) if not isinstance(e, FieldScalar) else e for e in row)
        return cls(rows, cols, field, flat)

    @classmethod
    def identity(cls, n, field):
        one, zero = field.one(), field.zero()
        return cls(n, n, field, [one if i == j else zero for i in range(n) for j in range(n)])

    def get(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        field = self.field
        den_a, a = field.to_raw(self.entries)
        den_v, v = field.to_raw([field(x) for x in vec])
        m = self.cols
        out = [sum(map(mul, a[i * m : (i + 1) * m], v)) for i in range(self.rows)]
        return field.from_raw(den_a * den_v, out)

    def mul_matrix(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        if other.field != self.field:
            raise FieldMismatchError("matrices over different fields")
        field = self.field
        den_a, a = field.to_raw(self.entries)
        den_b, b = field.to_raw(other.entries)
        m, q = self.cols, other.cols
        b_cols = [b[j::q] for j in range(q)]
        flat = [sum(map(mul, a[i * m : (i + 1) * m], col)) for i in range(self.rows) for col in b_cols]
        return DenseMatrix(self.rows, q, field, field.from_raw(den_a * den_b, flat))

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over {self.field!r})"


# -- integer kernel (Q) ----------------------------------------------------


def _bareiss_forward_int(aug, counter, collect=None):
    """Fraction-free forward elimination on integer rows, in place.

    Returns the sign of the implied row permutation.  ``collect``, when
    given, receives every intermediate value the recurrence produces so the
    integrality property can be observed from outside.  A fractional
    intermediate would indicate a broken invariant and raises.
    """
    n = len(aug)
    width = len(aug[0])
    prev = big_int(1)
    sign = 1
    for k in range(n - 1):
        if aug[k][k] == 0:
            for r in range(k + 1, n):
                if aug[r][k] != 0:
                    aug[k], aug[r] = aug[r], aug[k]
                    sign = -sign
                    break
            else:
                raise SingularMatrixError("zero pivot column during elimination")
        pivot = aug[k][k]
        for i in range(k + 1, n):
            head = aug[i][k]
            row_i = aug[i]
            row_k = aug[k]
            for j in range(k + 1, width):
                num = pivot * row_i[j] - head * row_k[j]
                q, r = divmod(num, prev)
                if r != 0:
                    raise InternalError("Bareiss intermediate is not an integer")
                row_i[j] = q
                if collect is not None:
                    collect.append(q)
            row_i[k] = big_int(0)
            counter.multiplications += 2 * (width - k - 1)
            counter.divisions += width - k - 1
            counter.additions += width - k - 1
        prev = pivot
    return sign


def _back_substitute_int(aug, counter):
    """Solve the eliminated integer system; returns (numerators, denominator).

    Every solution component equals y_i / det where det is the last pivot,
    so back substitution stays in integers with one exact division per row.
    """
    n = len(aug)
    det = aug[n - 1][n - 1]
    if det == 0:
        raise SingularMatrixError("zero determinant")
    ys = [big_int(0)] * n
    for i in range(n - 1, -1, -1):
        acc = det * aug[i][n]
        counter.multiplications += 1
        for j in range(i + 1, n):
            acc -= aug[i][j] * ys[j]
            counter.multiplications += 1
            counter.additions += 1
        q, r = divmod(acc, aug[i][i])
        if r != 0:
            raise InternalError("non-integer value in integer back substitution")
        counter.divisions += 1
        ys[i] = q
    return ys, det


# -- field kernel (GF(p) and generic fallback) ------------------------------


def _bareiss_forward_field(aug, field, counter):
    """The same recurrence over an arbitrary field (division always exact)."""
    n = len(aug)
    width = len(aug[0])
    prev = field.one()
    sign = field.one()
    for k in range(n - 1):
        if aug[k][k].is_zero():
            for r in range(k + 1, n):
                if not aug[r][k].is_zero():
                    aug[k], aug[r] = aug[r], aug[k]
                    sign = -sign
                    break
            else:
                raise SingularMatrixError("zero pivot column during elimination")
        pivot = aug[k][k]
        inv_prev = prev.inverse()
        for i in range(k + 1, n):
            head = aug[i][k]
            for j in range(k + 1, width):
                aug[i][j] = (pivot * aug[i][j] - head * aug[k][j]) * inv_prev
            aug[i][k] = field.zero()
            counter.multiplications += 2 * (width - k - 1)
            counter.divisions += width - k - 1
            counter.additions += width - k - 1
        prev = pivot
    return sign


def _back_substitute_field(aug, field, counter):
    n = len(aug)
    xs = [field.zero()] * n
    for i in range(n - 1, -1, -1):
        if aug[i][i].is_zero():
            raise SingularMatrixError("zero diagonal after elimination")
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc = acc - aug[i][j] * xs[j]
            counter.multiplications += 1
            counter.additions += 1
        xs[i] = acc / aug[i][i]
        counter.divisions += 1
    return xs


# -- public operations -------------------------------------------------------


def bareiss_determinant(matrix, collect=None):
    """Exact determinant via fraction-free elimination.

    Returns ``(det, OpCounter)``.  ``collect`` receives the integer
    intermediates when the computation runs over Q.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    counter = OpCounter()
    n = matrix.rows
    field = matrix.field
    if n == 1:
        return matrix.get(0, 0), counter
    rows = [matrix.row(i) for i in range(n)]
    if field.is_rationals:
        scale = 1
        int_rows = []
        for row in rows:
            den, ints = field.to_raw(row)
            scale *= den
            int_rows.append(ints)
        try:
            sign = _bareiss_forward_int(int_rows, counter, collect)
        except SingularMatrixError:
            return field.zero(), counter
        det = int_rows[n - 1][n - 1]
        return field(sign * det, scale), counter
    aug = [list(r) for r in rows]
    try:
        sign = _bareiss_forward_field(aug, field, counter)
    except SingularMatrixError:
        return field.zero(), counter
    return sign * aug[n - 1][n - 1], counter


def solve_square(matrix, rhs, counter=None, collect=None):
    """Exact solution of A x = b for square nonsingular A.

    Raises SingularMatrixError when A is singular.  ``counter`` accumulates
    arithmetic-operation counts when provided.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("solve_square needs a square matrix")
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length mismatch")
    if counter is None:
        counter = OpCounter()
    n = matrix.rows
    field = matrix.field
    rows = [matrix.row(i) + [rhs[i]] for i in range(n)]
    if n == 1:
        if matrix.get(0, 0).is_zero():
            raise SingularMatrixError("singular 1x1 system")
        return [rhs[0] / matrix.get(0, 0)]
    if field.is_rationals:
        int_rows = [field.to_raw(row)[1] for row in rows]
        _bareiss_forward_int(int_rows, counter, collect)
        ys, det = _back_substitute_int(int_rows, counter)
        return [field(y, det) for y in ys]
    _bareiss_forward_field(rows, field, counter)
    return _back_substitute_field(rows, field, counter)


def matrix_inverse(matrix):
    """Inverse of a square nonsingular matrix (column-by-column solve)."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.rows
    field = matrix.field
    columns = []
    for j in range(n):
        e_j = [field.one() if i == j else field.zero() for i in range(n)]
        columns.append(solve_square(matrix, e_j))
    flat = [columns[j][i] for i in range(n) for j in range(n)]
    return DenseMatrix(n, n, field, flat)


def matrix_problems(matrix, kind):
    """Why matrix cannot be the matrix of an automorphism, as strings naming it by kind."""
    if matrix.rows != matrix.cols:
        return [f"{kind} matrix is not square"]
    det, _ = bareiss_determinant(matrix)
    if det.is_zero():
        return [f"{kind} matrix is singular"]
    return []


def basis_from_row(row, field):
    """The invertible matrix with first row ``row``, then e_m for every m but the pivot.

    The pivot is the index of the first nonzero entry of row; the standard
    vectors follow in index order.
    """
    pivot = next((i for i, c in enumerate(row) if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("cannot complete a zero row to a basis")
    d = len(row)
    rows = [list(row)]
    for m in range(d):
        if m != pivot:
            rows.append([field.one() if i == m else field.zero() for i in range(d)])
    return DenseMatrix.from_rows(field, rows)


def vandermonde_power_matrix(alphas, exponents):
    """The generalized Vandermonde matrix (alpha_k ** p_j).

    Rows are indexed by the exponents, columns by the nodes.  Nodes must be
    pairwise distinct and exponents strictly increasing; with distinct
    positive rational nodes every square minor of this matrix is nonzero.
    """
    if not alphas:
        raise ValueError("need at least one node")
    field = alphas[0].field
    if len({a.value for a in alphas}) != len(alphas):
        raise ValueError("duplicate node")
    if any(e < 0 for e in exponents):
        raise ValueError("negative exponent")
    if any(b <= a for a, b in zip(exponents, exponents[1:])):
        raise ValueError("exponents must be strictly increasing")
    flat = []
    for p in exponents:
        for a in alphas:
            flat.append(a**p)
    return DenseMatrix(len(exponents), len(alphas), field, flat)
