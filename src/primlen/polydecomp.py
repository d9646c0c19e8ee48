"""Decomposition of polynomials into sums of certified primitive summands.

Over a field of characteristic 0, a polynomial f of degree n > 1 in d > 1
variables is a sum of at most binom(n+d-1, d-1) primitive polynomials.  The
construction:

1. normalize the linear part to delta * x1 (delta in {0, 1}) by a linear
   automorphism psi (``polyauto.linearize``);
2. take the N = binom(n+d-1, d-1) points a of the principal lattice
   {a in N^(d-1) : |a| <= n}, ordered by level |a|, and the linear forms
   s_a = x1 + sum_i (a_i+1) x_{i+1};
3. per degree p solve the square system on the lattice levels <= p, which
   is unisolvent for degree p (Chung & Yao 1977), for coefficients xi_kp
   with sum_k xi_kp s_{a_k}^p equal to the degree-p component.  Written in
   the binomial basis of the lattice the system is unit triangular (Newton
   interpolation on a lower set), so ``solve_degree`` eliminates nothing:
   it runs two integer transforms, one coordinate at a time;
4. keep the M nodes with a tail, some xi_kp != 0 for p >= 2; a node
   without one would add only a multiple of the same linear form.  The
   kept nodes get nonzero linear coefficients xi_k1 summing to delta
   (``assign_linear_coeffs(M, delta)``), and the first of them the
   constant beta.  When M = 1 and delta = 0 a second summand, -x1 with its
   ``linear_certificate``, cancels the lone xi_k1.  So the count is M, or
   2 in that case, at most N, and N when every node has a tail;
5. certify each kept summand u_k primitive as the image of x1 under the
   triangular automorphism theta: x1 -> xi_k1 x1 + beta [k = 1] +
   sum_p xi_kp x2^p (k = 1 the first kept node), followed by the linear map
   phi with x2 -> s_{a_k} and then by psi^-1.  Both are
   ``linalg.basis_from_rows`` matrices, like every linear factor; phi is
   ``basis_from_rows([e_1, s_{a_k}])``, built once per (d, n)
   (``_lattice_phis``).  The summand is assembled from that closed form
   rather than by replaying the chain: u_k = xi_k1 l + beta [k = 1] +
   sum_p xi_kp L_k^p, with l the image of x1 under psi^-1 and
   L_k = s_{a_k} psi^-1, each power expanded by the multinomial theorem
   on the ints of psi^-1 (``AffineAuto.raw``) over one denominator.

The factors are plain records, checked by nothing when built, and the
producer never replays them: ``check_summands`` runs
``polyauto.validate_certificate`` on every certificate before it replays
it, and that is the only validity check.  The verifier, the same
``check_summands`` for both algebras, compares on ints and builds no
scalar: each replay and the re-sum are set against the summands' and the
input's (num, den) pairs by cross-multiplication.

The paper's proof uses nodes alpha = 2..N+1 and the forms
s(alpha) = x1 + sum_i alpha^((n+1)^(i-2)) x_i instead; those work too but
make coefficients thousands of digits long.  On the lattice every
coefficient of s_a is at most n+1.  The bound, the certificate shape and
the document format are the same either way.

Only the empty sum represents 0, so zero inputs get an empty summand list
with an explanatory note.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod
from operator import getitem, mul

from .errors import UnsupportedInputError
from .field import QQ, int_to_str
from .linalg import basis_from_rows
from .multipoly import Polynomial, monomials_of_degree, multinomial
from .polyauto import (
    AffineAuto,
    Certificate,
    TriangularAuto,
    linear_certificate,
    linearize,
    replay_raw,
    validate_certificate,
)
from .sparse import MAX_ARITY, element_pairs, pairs_equal, pairs_sum

FINITE = "finite"
INFINITE = "infinite"

ZERO_NOTE = "the zero element is reported as the empty sum (additive primitive length 0)"

#: The largest degree, and the most summands N = binom(n+d-1, d-1), that
#: poly_bound accepts for degree n > 1 in d > 1 variables, so that decompose
#: and the verifier's rebuild refuse larger inputs at one site.  decompose
#: / verify_document of the loaded document for (d, n) with every monomial
#: of degree <= n present (coefficients a/b with |a|, b <= 100), best of
#: two, fractions backend, Python 3.11, 2-vCPU container: (4,6) N = 84
#: 0.06 / 0.26 s, (2,16) 0.02 / 0.04 s, (3,16) N = 153 0.7 / 1.9 s, (6,5)
#: N = 252 0.4 / 1.3 s; above the caps, measured before the term reader,
#: (2,40) 0.3 / 1.1 s, (2,60) 2.1 / 5.6 s, (3,20) N = 231 2.6 / 10.7 s,
#: (6,6) N = 462 2.4 / 11.3 s.  Verify dominates: at (3,16) the 15.9 MB
#: document takes 0.8 s to rebuild (2.55 s before the term reader) and
#: the rest to replay and re-sum.  The degree cap is set by d = 3, where N
#: stays under MAX_NODES up to degree 20; together the caps keep every
#: accepted input to a few seconds.
MAX_DEGREE = 16
MAX_NODES = 252

#: The most terms a polynomial of degree <= MAX_DEGREE that poly_bound
#: accepts can hold, so that the reader can refuse a product of groups that
#: grows past it before computing the next product.  A constant plus a linear
#: form in MAX_ARITY variables has MAX_ARITY + 1 = 1,025 terms.  Degree n > 1
#: in d > 1 variables has at most binom(n+d, d) terms, with binom(n+d-1, d-1)
#: <= MAX_NODES and n <= MAX_DEGREE, the most being 969 at (d, n) = (3, 16);
#: one variable has at most MAX_DEGREE + 1.
MAX_TERMS = MAX_ARITY + 1

#: The reader refuses a constant power a^k, and ``plength_bound`` a bound
#: binom(a, k) <= a^k, when k times the bit length of a exceeds this (a
#: 65,536-bit number has 19,729 digits).  Produce plus verify of
#: 2^m*x1^2 + x2 and 2^m*x1^3 + x1*x2 + x2^3, fractions backend,
#: 2-vCPU container: m = 2^16 0.13-0.2 s, 2^18 2.0-3.3 s, 2^20 20-30 s
#: (printing the coefficients dominates, and grows about quadratically).
MAX_POWER_BITS = 65536


class Record:
    """A plain record: its ``__slots__`` are its fields, compared by ``==`` and listed by ``repr``.

    It stands in for a dataclass, whose module costs about half the import
    time of the package.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Decomposition(Record):
    """A decomposition of a polynomial or a Lie element; only a polynomial can be INFINITE.

    ``summands`` lists (summand, Certificate) pairs.  A producer's summand
    is an element; a summand read from a document is the terms of its text
    as a {key: (num, den)} map (``parsing.poly_pairs``,
    ``parsing.lie_pairs``), which is all the verifier compares.
    """

    __slots__ = ("input", "summands", "bound", "status", "notes")

    def __init__(self, input, summands, bound, status=FINITE, notes=None):
        self.input = input  # Polynomial or LieElement
        self.summands = summands
        self.bound = bound  # int or None
        self.status = status
        self.notes = [] if notes is None else notes

    @property
    def count(self):
        return len(self.summands)


class VerifyResult(Record):
    __slots__ = ("ok", "problems")

    def __init__(self, ok, problems):
        self.ok = ok
        self.problems = problems

    def __bool__(self):
        return self.ok


def plength_bound(n, d):
    """The bound binom(n+d-1, d-1) for degree n > 1 and arity d > 1, refused past MAX_POWER_BITS."""
    if n <= 1 or d <= 1:
        raise UnsupportedInputError(f"bound needs degree > 1 and arity > 1, got n={n}, d={d}")
    bits = (d - 1) * (n + d - 1).bit_length()
    if bits > MAX_POWER_BITS:
        raise UnsupportedInputError(
            f"a bound of up to {bits} bits for {d} variables exceeds the ceiling of {MAX_POWER_BITS}"
        )
    return comb(n + d - 1, d - 1)


def poly_bound(f):
    """The summand-count bound decompose reaches for f, or None when f has no finite length.

    1 for zero and for linear inputs, 2 for a nonzero constant, None for
    degree > 1 in one variable, binom(n+d-1, d-1) otherwise.  Raises
    UnsupportedInputError above MAX_DEGREE, checked before the binomial is
    computed, or above MAX_NODES.
    """
    n, d = f.total_degree(), f.arity
    if n is None or n == 1:
        return 1
    if n == 0:
        return 2
    if d == 1:
        return None
    if n > MAX_DEGREE:
        raise UnsupportedInputError(f"degree {int_to_str(n)} exceeds the ceiling of {MAX_DEGREE}")
    bound = plength_bound(n, d)
    if bound > MAX_NODES:
        raise UnsupportedInputError(
            f"{bound} summands for degree {n} in {d} variables exceed the ceiling of {MAX_NODES}"
        )
    return bound


def lattice_nodes(n, d):
    """The principal lattice {a in N^(d-1) : |a| <= n}, ordered by level |a|.

    It has binom(n+d-1, d-1) points, and its first binom(p+d-1, d-1) points
    are exactly the levels <= p.
    """
    return [a for q in range(n + 1) for a in monomials_of_degree(d - 1, q)]


def assign_linear_coeffs(count, delta):
    """count nonzero scalars of Q summing to delta (delta in {0, 1}).

    They are 1, ..., 1 and a last one that makes the sum, with a 2 before
    it when that last one would be zero.  ``decompose`` asks for one per
    summand that carries a tail; one nonzero scalar cannot sum to 0, so a
    lone tail with delta = 0 asks for two, the second for the summand -x1.
    """
    delta = QQ(delta)
    if count < 1:
        raise ValueError("need at least one coefficient")
    if count == 1:
        if delta.is_zero():
            raise ValueError("a single nonzero coefficient cannot sum to 0")
        return [delta]
    coeffs = [QQ.one()] * (count - 1)
    last = delta - QQ(count - 1)
    if last.is_zero():
        coeffs[-1] = QQ(2)
        last = delta - QQ(count)
    return coeffs + [last]


@cache
def _newton_plan(d, p):
    """The integer data of solve_degree for degree p in d variables, built once.

    ``index`` maps each degree-p monomial m = x1^(p-|c|) x^c to its point c
    of the simplex {c in N^(d-1) : |c| <= p}, in lattice order; ``weights``
    holds p!/multinomial(m), which makes r_c an integer over p!; ``lines``
    lists, axis after axis, the runs of points that differ only in that
    axis's coordinate, in increasing order of it.  ``lower[c]`` is
    p!/c! times the coefficients of (b-1)(b-2)...(b-c) in b^0..b^c, which
    with b = a+1 turn the powers b^j into c! binom(a, c); ``upper[k]`` holds
    (-1)^(j-k) binom(j, k) for j = 0..p (zero below k), the inverse binomial
    matrix.
    """
    points = lattice_nodes(p, d)
    fact = factorial(p)
    index = {(p - sum(c),) + c: k for k, c in enumerate(points)}
    weights = [fact // multinomial(m) for m in index]
    lines = []
    for axis in range(d - 1):
        runs = {}
        for k, c in enumerate(points):
            runs.setdefault(c[:axis] + c[axis + 1 :], []).append(k)
        lines += runs.values()
    falling = [[1]]
    for c in range(1, p + 1):
        prev = falling[-1] + [0]
        falling.append([(prev[j - 1] if j else 0) - c * prev[j] for j in range(c + 1)])
    lower = [[fact // factorial(c) * t for t in row] for c, row in enumerate(falling)]
    upper = [[(-1) ** (j + k) * comb(j, k) for j in range(p + 1)] for k in range(p + 1)]
    return index, weights, lines, lower, upper


def _line_pass(values, lines, rows):
    """Apply the 1-D transform ``rows`` (row k: the weights of positions 0, 1, ...) along every line, in place."""
    for line in lines:
        run = [values[i] for i in line]
        for k, i in enumerate(line):
            values[i] = sum(map(mul, rows[k], run))


def solve_degree(p, g_p, nodes):
    """Coefficients xi_kp with sum_k xi_kp s_{a_k}^p = g_p, k = 1..len(nodes).

    nodes is ``lattice_nodes(n, d)`` for some n >= p.  s_a = x1 + sum_i
    (a_i+1) x_{i+1}, so the coefficient of x^m in s_a^p is multinomial(m)
    times prod_i (a_i+1)^(c_i) with c = (m_2, ..., m_d): one equation
    sum_a xi_a (a+1)^c = r_c, r_c = coeff(m)/multinomial(m), per point c of
    the simplex |c| <= p, on the unknowns of the first N_p = binom(p+d-1,
    d-1) nodes, the same simplex (Chung & Yao 1977); the remaining
    coefficients are zero.

    Written in the binomial basis the system is unit upper triangular
    (Newton interpolation on a lower set, Gasca & Sauer 2000), so it is
    solved on the ints of one ``to_raw`` by two tensor-product transforms,
    each applied one coordinate at a time along the lines of the simplex:
    the lower one gives (p!)^(d-1) nu_c with nu_c = sum_a xi_a binom(a, c),
    and the upper one inverts the binomial matrix,
    xi_a = sum_(b >= a, |b| <= p) (-1)^|b-a| binom(b, a) nu_b.  Both stay in
    the simplex because it is a lower set.
    """
    d = g_p.arity
    field = g_p.field
    if p < 2:
        raise ValueError("solve_degree handles degrees 2..n")
    if any(sum(m) != p for m in g_p.terms):
        raise ValueError("component is not homogeneous of the requested degree")
    zero = field.zero()
    if g_p.is_zero():
        return [zero] * len(nodes)
    index, weights, lines, lower, upper = _newton_plan(d, p)
    den, ints = field.to_raw(g_p.terms.values())
    values = [0] * len(weights)
    for m, c in zip(g_p.terms, ints):
        k = index[m]
        values[k] = c * weights[k]
    _line_pass(values, lines, lower)
    _line_pass(values, lines, upper)
    return field.from_raw(den * factorial(p) ** d, values) + [zero] * (len(nodes) - len(values))


@cache
def _power_terms(d, p):
    """The degree-p monomials m of d variables with multinomial(m): the terms of (sum_i l_i x_i)^p."""
    return [(m, multinomial(m)) for m in monomials_of_degree(d, p)]


@cache
def _lattice_phis(d, n):
    """The factor phi, ``basis_from_rows([e_1, s_a])``, of each point a of ``lattice_nodes(n, d)``.

    Factors are immutable records, so every decomposition shares them.
    """
    e1 = [QQ.one()] + [QQ.zero()] * (d - 1)
    forms = [[QQ.one()] + [QQ(a_i + 1) for a_i in a] for a in lattice_nodes(n, d)]
    return [AffineAuto(basis_from_rows([e1, s_a], QQ)) for s_a in forms]


def decompose(f):
    """Decompose f into certified primitive summands within the binomial bound."""
    d, field = f.arity, f.field
    if field.characteristic() != 0:
        raise UnsupportedInputError(
            "polynomial decomposition requires characteristic 0 "
            f"(got {field!r}); the construction fails when multinomial "
            "coefficients vanish modulo p"
        )
    n = f.total_degree()
    bound = poly_bound(f)
    if f.is_zero():
        return Decomposition(f, [], bound, notes=[ZERO_NOTE])
    if n == 0:
        x1 = Polynomial.variable(d, field, 1)
        first, second = x1 + f, -x1  # f is the constant
        summands = [(first, linear_certificate(first, f.constant_term())), (second, linear_certificate(second))]
        return Decomposition(f, summands, bound)
    if n == 1:
        return Decomposition(f, [(f, linear_certificate(f, f.constant_term()))], bound)
    if d == 1:
        return Decomposition(f, [], bound, INFINITE)

    psi_inv, g = linearize(f)
    delta = 0 if psi_inv is None else 1
    beta = g.constant_term()
    nodes = lattice_nodes(n, d)
    phis = _lattice_phis(d, n)
    xi = [solve_degree(p, g.homogeneous_component(p), nodes) for p in range(2, n + 1)]
    # The tail sum_p xi_kp x2^p of each node; one summand per node with a
    # tail, and -x1 when a lone one has delta = 0.
    x2_powers = [(0, p) + (0,) * (d - 2) for p in range(2, n + 1)]
    tails = [{m: c for m, c in zip(x2_powers, column) if not c.is_zero()} for column in zip(*xi)]
    kept = [k for k, tail in enumerate(tails) if tail]
    extra = len(kept) == 1 and delta == 0
    xi_linear = assign_linear_coeffs(len(kept) + extra, delta)

    # The rows of psi^-1 (the identity when it is None) as ints over psi_den:
    # the summand is xi_k1 * row_1 + beta [j = 0] + sum_p xi_kp * L_k^p with
    # L_k = s_(a_k) psi^-1, all over one denominator.
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    if psi_inv is None:
        psi_den, psi_rows = 1, units
    else:
        psi_den, psi_rows, _ = psi_inv.raw()
    psi_cols = list(zip(*psi_rows))
    psi_powers = [psi_den**e for e in range(n + 1)]
    power_terms = [_power_terms(d, p) for p in range(2, n + 1)]

    one, zero = field.one(), field.zero()
    summands = []
    for j, k in enumerate(kept):
        tail_terms = tails[k]
        if j == 0 and not beta.is_zero():
            tail_terms[(0,) * d] = beta
        theta = TriangularAuto(
            [xi_linear[j]] + [one] * (d - 1),
            [Polynomial(d, field, tail_terms)] + [Polynomial.zero(d, field)] * (d - 1),
        )
        s_a = [1] + [a_i + 1 for a_i in nodes[k]]
        chain = [theta, phis[k]]
        if psi_inv is not None:
            chain.append(psi_inv)
        cert = Certificate(chain, 1)

        den, (lin, const, *coeffs) = field.to_raw(
            [xi_linear[j], beta if j == 0 else zero] + [xi_p[k] for xi_p in xi]
        )
        form = [sum(map(mul, s_a, col)) for col in psi_cols]
        powers = [[l**e for e in range(n + 1)] for l in form]
        raw = {u: lin * psi_powers[n - 1] * c for u, c in zip(units, psi_rows[0])}
        if const:
            raw[(0,) * d] = const * psi_powers[n]
        for p, c, terms in zip(range(2, n + 1), coeffs, power_terms):
            if c:
                scale = c * psi_powers[n - p]
                for m, mult in terms:
                    raw[m] = scale * mult * prod(map(getitem, powers, m))
        summands.append((f._wrap_raw(den * psi_powers[n], raw), cert))
    if extra:
        minus_x1 = -Polynomial.variable(d, field, 1)
        summands.append((minus_x1, linear_certificate(minus_x1)))
    return Decomposition(f, summands, bound)


def check_summands(dec):
    """The checks of a decomposition of either algebra.

    An INFINITE status needs an empty summand list and a univariate input
    of degree > 1 (Lie inputs have at least three generators).  Otherwise
    the status must be FINITE, and the checks validate every elementary
    factor, once per factor object however many certificates share it,
    replay every certificate in the algebra of the input, re-sum the
    summands and compare the count against the bound.  Returns a
    VerifyResult carrying human-readable diagnostics.

    Everything is compared on ints, with no scalar built.  A summand is a
    {key: (num, den)} map, as a document's summand texts are read, or an
    element of the input's algebra, as ``decompose`` writes it, whose terms
    are read into such a map (``sparse.element_pairs``).  Each replay
    (``polyauto.replay_raw``, a (den, raw) pair) and the re-sum of the
    summand maps by key (``sparse.pairs_sum``) are compared with the
    summand and the input by cross-multiplication (``sparse.pairs_equal``).
    """
    problems = []
    like = dec.input
    d, p = like.arity, like.field.p
    if dec.status == INFINITE:
        if dec.summands:
            problems.append("infinite status with a nonempty summand list")
        if d != 1 or (like.total_degree() or 0) <= 1:
            problems.append("infinite status claimed for a decomposable input")
        return VerifyResult(not problems, problems)
    if dec.status != FINITE:
        problems.append(f"status {dec.status!r} is neither {FINITE!r} nor {INFINITE!r}")
    maps = []
    checked = {}
    for i, (summand, cert) in enumerate(dec.summands, start=1):
        if type(summand) is not dict:
            like._check_compatible(summand)
            summand = element_pairs(summand)
        maps.append(summand)
        issues = validate_certificate(cert, d, checked)
        if issues:
            problems.append(f"summand {i}: invalid elementary factor ({'; '.join(issues)})")
            continue
        den, raw = replay_raw(cert, like)
        if not pairs_equal({key: (n, den) for key, n in raw.items()}, summand, p):
            problems.append(f"summand {i}: certificate replay mismatch")
    if not pairs_equal(pairs_sum(maps, p), element_pairs(like), p):
        problems.append("sum mismatch: summands do not add up to the input")
    if dec.bound is not None and len(dec.summands) > dec.bound:
        problems.append(f"count {len(dec.summands)} exceeds bound {dec.bound}")
    return VerifyResult(not problems, problems)


def verify(dec):
    """Independent check of a polynomial decomposition (see check_summands)."""
    return check_summands(dec)
