"""Exact dense linear algebra: Bareiss fraction-free elimination.

Determinants, square-system solving and inverses over a FieldScalar field,
with arithmetic-operation counting.  Matrix entries are FieldScalar values;
products and elimination compute on the ints of ``FieldDescriptor.to_raw``
and build scalars only for their results.  One recurrence serves Q and
GF(p):

    a[i][j] <- (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev_pivot

Over Q every row is first scaled to integers by its common denominator,
and the division is exact (Sylvester's determinant identity), which keeps
every intermediate integral and bounds the bit growth of the entries by
the size of the corresponding minors.  Over GF(p) the entries are residues
and the division is a multiply by the modular inverse of the previous
pivot, taken once per elimination step.  Back substitution solves for
det * x on ints in the same way.  Pivoting always takes the first row with
a nonzero entry in column order, so elimination is deterministic.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import FieldMismatchError, InternalError, SingularMatrixError
from .field import FieldScalar


class OpCounter:
    """Counts of arithmetic operations performed during an elimination."""

    __slots__ = ("multiplications", "divisions", "additions")

    def __init__(self):
        self.multiplications = 0
        self.divisions = 0
        self.additions = 0

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
            if not isinstance(e, FieldScalar) or (e.field is not field and e.field != field):
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

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        field = self.field
        den_a, a = field.to_raw(self.entries)
        den_v, v = field.to_raw([field(x) for x in vec])
        m = self.cols
        out = [sum(map(mul, a[i * m : (i + 1) * m], v)) for i in range(self.rows)]
        return field.from_raw(den_a * den_v, out)

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


# -- the integer kernel --------------------------------------------------------


def _bareiss_forward(aug, cols, p, counter, collect=None):
    """Fraction-free forward elimination on rows of ints, in place.

    Pivots are searched in the first ``cols`` columns, in column order; a
    column with no nonzero entry left in the rows not yet used is skipped.
    Over Q (``p is None``) the division by the previous pivot is exact;
    over GF(p) it is a multiply by that pivot's inverse mod p.  Returns the
    sign of the implied row permutation and the pivot columns.  For a
    square part of rank below its size the last row ends all zero there,
    so a missing pivot reads as a zero determinant.  ``collect``, when
    given, receives every value the recurrence produces, so the integrality
    property can be observed from outside.  A fractional intermediate over
    Q would indicate a broken invariant and raises.
    """
    n = len(aug)
    width = len(aug[0])
    prev = 1
    sign = 1
    pivots = []
    for c in range(cols):
        k = len(pivots)
        if k == n:
            break
        if aug[k][c] == 0:
            for r in range(k + 1, n):
                if aug[r][c] != 0:
                    aug[k], aug[r] = aug[r], aug[k]
                    sign = -sign
                    break
            else:
                continue
        pivots.append(c)
        if k + 1 == n:
            break
        row_k = aug[k]
        pivot = row_k[c]
        inv_prev = None if p is None else pow(prev, -1, p)
        for i in range(k + 1, n):
            row_i = aug[i]
            head = row_i[c]
            for j in range(c + 1, width):
                num = pivot * row_i[j] - head * row_k[j]
                if inv_prev is None:
                    q, r = divmod(num, prev)
                    if r != 0:
                        raise InternalError("Bareiss intermediate is not an integer")
                else:
                    q = num * inv_prev % p
                row_i[j] = q
            if collect is not None:
                collect.extend(row_i[c + 1 :])
            row_i[c] = 0
            counter.multiplications += 2 * (width - c - 1)
            counter.divisions += width - c - 1
            counter.additions += width - c - 1
        prev = pivot
    return sign, pivots


def _back_substitute(aug, p, counter):
    """Solve the eliminated system for every column right of the square part.

    Returns (columns, det): column c of the solution is columns[c] / det,
    det being the last pivot.  Every component of det * x is an integer
    over Q, so back substitution stays in ints with one exact division per
    entry; over GF(p) the division is a multiply by the row pivot's inverse.
    """
    n = len(aug)
    det = aug[n - 1][n - 1]
    if det == 0:
        raise SingularMatrixError("zero determinant")
    inverses = None if p is None else [pow(aug[i][i], -1, p) for i in range(n)]
    columns = []
    for c in range(n, len(aug[0])):
        ys = [0] * n
        for i in range(n - 1, -1, -1):
            row = aug[i]
            acc = det * row[c] - sum(map(mul, row[i + 1 : n], ys[i + 1 :]))
            if inverses is None:
                q, r = divmod(acc, row[i])
                if r != 0:
                    raise InternalError("non-integer value in integer back substitution")
            else:
                q = acc * inverses[i] % p
            ys[i] = q
        columns.append(ys)
        counter.multiplications += n + n * (n - 1) // 2
        counter.additions += n * (n - 1) // 2
        counter.divisions += n
    return columns, det


# -- public operations -------------------------------------------------------


def bareiss_determinant(matrix, collect=None):
    """Exact determinant via fraction-free elimination.

    Returns ``(det, OpCounter)``.  ``collect`` receives the intermediates
    of the recurrence.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    counter = OpCounter()
    field = matrix.field
    scale = 1
    rows = []
    for i in range(matrix.rows):
        den, ints = field.to_raw(matrix.row(i))
        scale *= den
        rows.append(ints)
    sign, _ = _bareiss_forward(rows, matrix.cols, field.p, counter, collect)
    return field.from_raw(scale, [sign * rows[-1][-1]])[0], counter


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
    field = matrix.field
    rows = [field.to_raw(matrix.row(i) + [rhs[i]])[1] for i in range(matrix.rows)]
    _bareiss_forward(rows, matrix.cols, field.p, counter, collect)
    (ys,), det = _back_substitute(rows, field.p, counter)
    return field.from_raw(det, ys)


def matrix_inverse(matrix):
    """Inverse of a square nonsingular matrix.

    One elimination of the block [A | D], where row i of A is scaled to
    ints by its denominator D[i][i], then one back substitution per column.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.rows
    field = matrix.field
    aug = []
    for i in range(n):
        den, ints = field.to_raw(matrix.row(i))
        aug.append(ints + [den if j == i else 0 for j in range(n)])
    counter = OpCounter()
    _bareiss_forward(aug, n, field.p, counter)
    columns, det = _back_substitute(aug, field.p, counter)
    flat = field.from_raw(det, [columns[j][i] for i in range(n) for j in range(n)])
    return DenseMatrix(n, n, field, flat)


def is_singular(rows, p):
    """Whether the square matrix of int rows is singular.

    The rows are in the layout of ``FieldDescriptor.to_raw`` (``p`` None
    over Q, else the characteristic).  Every row with exactly one nonzero
    entry is struck first, with that entry's column: by Laplace expansion
    along the row this changes the determinant only by a nonzero factor,
    and a second such row on a struck column makes the matrix singular.
    So a basis change of k given rows and unit rows costs one reading of
    its entries and a k x k elimination.  One fraction-free elimination of
    what is left finds fewer pivots than rows exactly when it is singular.
    Over Q each row left is first divided by the gcd of its entries, so a
    row that the common denominator scaled up enters at its own size.
    """
    struck = set()
    rest = []
    for row in rows:
        if len(row) - row.count(0) == 1:
            column = row.index(max(row) or min(row))  # the one nonzero entry, of either sign
            if column in struck:
                return True
            struck.add(column)
        else:
            rest.append(row)
    if not rest:
        return False
    keep = [j for j in range(len(rows)) if j not in struck]
    rest = [[row[j] for j in keep] for row in rest]
    if p is None:
        rest = [[v // g for v in row] if (g := gcd(*row)) > 1 else row for row in rest]
    _, pivots = _bareiss_forward(rest, len(rest), p, OpCounter())
    return len(pivots) < len(rest)


def pivot_columns(rows, field):
    """The pivot columns of one fraction-free elimination of ``rows``.

    They are the first columns, in index order, that keep the chosen set
    independent; for one row, its first nonzero entry.  There are as many
    as the rank, so the rows are independent exactly when every row has one.
    """
    _, pivots = _bareiss_forward([field.to_raw(r)[1] for r in rows], len(rows[0]), field.p, OpCounter())
    return pivots


def basis_from_rows(rows, field):
    """The invertible matrix made of ``rows``, then e_m for every column m off their pivots.

    The pivot columns are those of ``pivot_columns``; the standard vectors
    follow in index order.  Raises ValueError when the rows are linearly
    dependent.
    """
    d = len(rows[0])
    pivots = pivot_columns(rows, field)
    if len(pivots) < len(rows):
        raise ValueError("rows to complete to a basis are linearly dependent")
    entries = [c for row in rows for c in row]
    one, zero = field.one(), field.zero()
    for m in range(d):
        if m not in pivots:
            entries += [zero] * m + [one] + [zero] * (d - m - 1)
    return DenseMatrix(d, d, field, entries)


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
