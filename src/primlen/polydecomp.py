"""Decomposition of polynomials into sums of certified primitive summands.

Over a field of characteristic 0, a polynomial f of degree n > 1 in d > 1
variables is a sum of at most n + 1 primitive polynomials; the paper's
bound, binom(n+d-1, d-1), is the same at d = 2 and larger above it.  The
construction keeps f's own coordinates:

1. write f = delta l + beta + G, with l the linear part (delta = 1), or
   e_1 when f has none (delta = 0), beta the constant and G the terms of
   degree >= 2.  p is l's first nonzero column and q is x1 when p is past
   it, else x2; the lattice forms are s_k = x_p + sigma (k+1) x_q, with
   sigma = -1 when l_q / l_p > 0 and +1 otherwise, so that l and s_k are
   independent at every node k = 0..n;
2. group G's monomials x_p^e_p x_q^e_q m by e = e_p + e_q and by their
   part m in the other variables, so G = sum_(e, m) B_(e,m)(x_p, x_q) m
   with each B_(e,m) a binary form of degree e;
3. write each binary form on the lattice forms, B_(e,m) = sum_(k <= e)
   lambda_(k,e,m) s_k^e.  The e+1 powers s_k^e are a basis of the binary
   forms of degree e, and in the binomial basis the system is unit
   triangular (Newton interpolation), so ``solve_degree`` eliminates
   nothing: it applies one cached int matrix per e, to the form read with
   x_q -> sigma x_q;
4. give node k = 0..n the tail T_k = sum_(e, m) lambda_(k,e,m) x2^e m,
   with m's exponents on x3..xd in index order, and keep the M nodes with
   a tail.  The kept nodes get nonzero linear coefficients xi_k1 summing
   to delta (``assign_linear_coeffs(M, delta)``), and the first of them
   the constant beta.  When M = 1 and delta = 0 a second summand, -x1 with
   its ``linear_certificate``, cancels the lone xi_k1.  So the count is
   M <= n + 1, or 2 in that case;
5. certify each kept summand u_k primitive as the image of x1 under two
   factors: the triangular automorphism theta_k: x1 -> xi_k1 x1 +
   beta [k = 1] + T_k (k = 1 the first kept node), followed by the one
   basis change B_k = ``basis_from_rows([l, s_k])``.  Its pivot columns
   are p and q, so its unit rows send x3..xd to the other variables in
   index order, and u_k = xi_k1 l + beta [k = 1] + sum_(e, m)
   lambda_(k,e,m) s_k^e m in f's coordinates.  The summand is assembled
   from that closed form, each power expanded by the binomial theorem,
   rather than by replaying the chain, but on the ints of the same reads
   the verifier's replay makes (``TriangularAuto.raw_images`` and
   ``AffineAuto.raw``), so decompose meets the ceiling of
   ``FieldDescriptor.to_raw`` on every run of factor scalars the verifier
   reads.  Summed over k the tails give sum_(e, m) B_(e,m) m = G, so the
   summands add up to f.

The factors are plain records, checked by nothing when built, and the
producer never replays them: ``check_summands`` runs
``polyauto.validate_certificate`` on every certificate before it replays
it, and that is the only validity check.  The verifier, the same
``check_summands`` for both algebras, compares on ints and builds no
scalar: each replay and the re-sum are set against the summands' and the
input's (num, den) pairs by cross-multiplication.

The paper's proof writes each homogeneous component on N = binom(n+d-1,
d-1) forms s(alpha) = x1 + sum_i alpha^((n+1)^(i-2)) x_i in all d
variables, alpha = 2..N+1, whose coefficients run to thousands of digits.
Here the part in the other variables rides in the tail of the triangular
factor, so n+1 forms in x_p and x_q suffice, with coefficients at most
n+1.  A document's ``bound`` is still the paper's binomial, and the
certificate shape and the document format are the same.

Only the empty sum represents 0, so zero inputs get an empty summand list
with an explanatory note.  An input of degree > 1 that is already
gamma x_j + v + c, v in x_(j+1..d) and c a constant, is one summand,
certified by one triangular automorphism in the ordering 1..d
(``_triangular_summand``); it is recognized after ``poly_bound``, so the
ceilings refuse what they refused before.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial

from .errors import UnsupportedInputError
from .field import QQ, int_to_str
from .linalg import basis_from_rows
from .multipoly import Polynomial
from .polyauto import (
    AffineAuto,
    Certificate,
    TriangularAuto,
    linear_certificate,
    replay_raw,
    validate_certificate,
)
from .sparse import MAX_ARITY, element_pairs, pairs_equal, pairs_sum

FINITE = "finite"
INFINITE = "infinite"

ZERO_NOTE = "the zero element is reported as the empty sum (additive primitive length 0)"

#: The largest degree, and the largest bound N = binom(n+d-1, d-1), that
#: poly_bound accepts for degree n > 1 in d > 1 variables, so that decompose
#: and the verifier's rebuild refuse larger inputs at one site.  decompose
#: / verify_document of the loaded document for (d, n) with every monomial
#: of degree <= n present (coefficients a/b with |a|, b <= 100), best of
#: two, fractions backend, Python 3.11, 2-vCPU container: (4,6) N = 84, 7
#: summands, 30 KB, 0.009 / 0.010 s; (2,16) 17 summands, 0.11 MB, 0.014 /
#: 0.019 s; (3,16) N = 153, 17 summands, 0.50 MB, 0.05-0.07 / 0.05-0.07 s;
#: (6,5) N = 252, 6 summands, 47 KB, 0.012-0.015 / 0.012-0.016 s.  A
#: decomposition holds at most n + 1 summands, so the work grows with the
#: input's terms and the degree rather than with N.
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
    """The summand-count bound a decomposition of f states, or None when f has no finite length.

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
def _newton_plan(p):
    """The int matrix of solve_degree for degree p, built once.

    With c_e the coefficient of x1^(p-e) x2^e, sum_k lambda_k s_k^p = B asks
    sum_k lambda_k (k+1)^e = r_e, r_e = c_e / binom(p, e), for e = 0..p: a
    Vandermonde system on the nodes 1..p+1.  Written in the binomial basis
    it is unit upper triangular (Newton interpolation).  ``lower`` row c,
    p!/c! times the coefficients of (b-1)(b-2)...(b-c) in b^0..b^c, with
    b = k+1 turns the powers b^e into c! binom(k, c), so it takes p! r to
    (p!)^2 nu with nu_c = sum_k lambda_k binom(k, c); the upper matrix,
    (-1)^(j-k) binom(j, k) for j >= k, inverts the binomial matrix.  The
    plan is their product, its columns times the weights p!/binom(p, e), so
    that it takes (c_0, ..., c_p) to (p!)^2 lambda.
    """
    fact = factorial(p)
    falling = [[1]]
    for c in range(1, p + 1):
        prev = falling[-1] + [0]
        falling.append([(prev[j - 1] if j else 0) - c * prev[j] for j in range(c + 1)])
    weights = [fact // comb(p, e) for e in range(p + 1)]
    lower = [[fact // factorial(c) * t * w for t, w in zip(row, weights)] for c, row in enumerate(falling)]
    return [
        [sum((-1) ** (j + k) * comb(j, k) * lower[j][e] for j in range(max(k, e), p + 1)) for e in range(p + 1)]
        for k in range(p + 1)
    ]


def solve_degree(p, g_p):
    """Coefficients lambda_0..lambda_p with sum_k lambda_k s_k^p = g_p, s_k = x1 + (k+1) x2.

    g_p is a binary form: a homogeneous polynomial of degree p >= 0 in two
    variables.  The p+1 powers s_k^p are a basis of those forms, so the
    coefficients exist and are unique.  Nothing is eliminated: they are the
    plan of ``_newton_plan(p)`` applied to the ints of one ``to_raw``, over
    its denominator times (p!)^2.
    """
    if g_p.arity != 2:
        raise ValueError("solve_degree takes a form in two variables")
    if any(sum(m) != p for m in g_p.terms):
        raise ValueError("component is not homogeneous of the requested degree")
    field = g_p.field
    if g_p.is_zero():
        return [field.zero()] * (p + 1)
    den, ints = field.to_raw(g_p.terms.values())
    column = [(e, c) for (_, e), c in zip(g_p.terms, ints)]
    values = [sum(row[e] * c for e, c in column) for row in _newton_plan(p)]
    return field.from_raw(den * factorial(p) ** 2, values)


def _spread(d, pairs):
    """The exponent vector of d variables with exponent e at each (index, e) of pairs, 0 elsewhere."""
    mono = [0] * d
    for i, e in pairs:
        mono[i] = e
    return tuple(mono)


def _triangular_summand(f):
    """(f, its certificate) when f = gamma x_j + v + c, v in x_(j+1..d) and c a constant, else None.

    The certificate is one triangular automorphism in the identity
    ordering, x_j -> gamma x_j + v + c, on generator j.
    """
    d, terms = f.arity, f.terms
    j = min(f.mentioned()) - 1
    unit = _spread(d, [(j, 1)])
    if unit not in terms or any(mono[j] for mono in terms if mono != unit):
        return None
    gammas, tails = [f.field.one()] * d, [Polynomial.zero(d, f.field)] * d
    gammas[j] = terms[unit]
    tails[j] = f._wrap({mono: c for mono, c in terms.items() if mono != unit})
    return f, Certificate([TriangularAuto(gammas, tails)], j + 1)


def decompose(f):
    """Decompose f into certified primitive summands, at most n + 1 of them for degree n > 1."""
    d, field = f.arity, f.field
    if field.characteristic() != 0:
        raise UnsupportedInputError(
            "polynomial decomposition requires characteristic 0 "
            f"(got {field!r}); the construction fails when binomial "
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
    summand = _triangular_summand(f)
    if summand is not None:
        return Decomposition(f, [summand], bound)

    # l, the linear part or e_1 without one, pivots on p; q is x1 when p is
    # past it and x2 otherwise, and s_k = x_p + sigma (k+1) x_q, with sigma
    # keeping det [[l_p, l_q], [1, sigma (k+1)]] nonzero at every node.
    # The terms of degree >= 2 are binary forms in (x_p, x_q) of degree e
    # times monomials m in the ``rest`` of the variables, read with x_q ->
    # sigma x_q so that solve_degree's s_k, x1 + (k+1) x2, stands for this
    # one.  Node k's tail is sum_(e, m) lambda_(k,e,m) x2^e m.  One summand
    # per node with a tail, and -x1 when a lone one has delta = 0.
    one, zero = field.one(), field.zero()
    ell = f.linear_coefficients()
    delta = int(any(ell))
    if not delta:
        ell = [one] + [zero] * (d - 1)
    p = next(i for i, c in enumerate(ell) if c)
    q = int(p == 0)
    sigma = -1 if ell[p].value * ell[q].value > 0 else 1
    rest = [i for i in range(d) if i != p and i != q]
    forms = {}
    for mono, c in f.terms.items():
        if sum(mono) >= 2:
            e_p, e_q = mono[p], mono[q]
            form = forms.setdefault((e_p + e_q, tuple(mono[i] for i in rest)), {})
            form[e_p, e_q] = -c if sigma < 0 and e_q % 2 else c
    tails = [{} for _ in range(n + 1)]
    spread = {}  # tail monomial x2^e m -> f's monomials x_p^(e-i) x_q^i m', i = 0..e
    for (e, m), form in forms.items():
        key = (0, e) + m
        spread[key] = [_spread(d, [(p, e - i), (q, i), *zip(rest, m)]) for i in range(e + 1)]
        for tail, c in zip(tails, solve_degree(e, Polynomial._new(2, field, form))):
            if not c.is_zero():
                tail[key] = c
    kept = [k for k, tail in enumerate(tails) if tail]
    extra = len(kept) == 1 and delta == 0
    xi_linear = assign_linear_coeffs(len(kept) + extra, delta)

    # Node k's summand is theta_k's image of x1 under B_k, which sends x1
    # to l, x2 to s_k and x_3..x_d to the ``rest`` by its unit rows:
    # xi_k l + beta [j = 0] + sum_(e, m) lambda_(k,e,m) s_k^e m', each
    # power expanded by the binomial theorem.  It is read from the ints of
    # ``raw_images`` and ``raw``, the reads the verifier's replay makes,
    # over den_t den_b^n; a unit row is den_b x_m, so a tail term of degree
    # e in x2 takes den_b^(n-e) and the powers of s_k's ints a and b.
    beta = f.constant_term()
    units = [f._generator_key(d, i) for i in range(1, d + 1)]
    origin = f._constant_key(d)
    no_tail = Polynomial.zero(d, field)
    summands = []
    for j, k in enumerate(kept):
        tail = tails[k]
        if j == 0 and not beta.is_zero():
            tail[origin] = beta
        theta = TriangularAuto([xi_linear[j]] + [one] * (d - 1), [Polynomial(d, field, tail)] + [no_tail] * (d - 1))
        s_k = [zero] * d
        s_k[p], s_k[q] = one, field(sigma * (k + 1))
        basis = AffineAuto(basis_from_rows([ell, s_k], field))
        den_t, image = theta.raw_images(f)[0]
        den_b, (row_l, row_s, *_), _ = basis.raw()
        a, b = row_s[p], row_s[q]
        weights = [[den_b ** (n - e) * comb(e, i) * a ** (e - i) * b**i for i in range(e + 1)] for e in range(n + 1)]
        raw = {}
        for mono, c in image.items():
            if mono == units[0]:
                c *= den_b ** (n - 1)
                raw.update((u, c * v) for u, v in zip(units, row_l) if v)
            elif mono == origin:
                raw[origin] = c * den_b**n
            else:
                raw.update(zip(spread[mono], (c * w for w in weights[mono[1]])))
        summands.append((f._wrap_raw(den_t * den_b**n, raw), Certificate([theta, basis], 1)))
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
