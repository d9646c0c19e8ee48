import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primlen import linalg, polyauto, polydecomp
from primlen.document import dumps, loads, poly_document, verify_document
from primlen.errors import UnsupportedInputError
from primlen.field import GF, QQ
from primlen.liedecomp import decompose_lie, lie_bound
from primlen.multipoly import Polynomial, monomials_of_degree, multinomial
from primlen.parsing import parse_lie, parse_poly, poly_to_str
from primlen.metalie import LieElement
from primlen.polyauto import AffineAuto, Certificate, TriangularAuto, apply_auto, certify_apply, invert_auto, linearize
from primlen.linalg import DenseMatrix, bareiss_determinant, solve_square
from primlen.polydecomp import (
    FINITE,
    INFINITE,
    Decomposition,
    MAX_DEGREE,
    assign_linear_coeffs,
    decompose,
    plength_bound,
    poly_bound,
    solve_degree,
    verify,
)

from conftest import cofactor_determinant, rand_lie, rand_nonzero_scalar, rand_poly


def poly(text_terms, d=2):
    return Polynomial(d, QQ, text_terms)


def test_plength_bound_values():
    assert plength_bound(2, 2) == 3
    assert plength_bound(2, 3) == 6
    assert plength_bound(5, 2) == 6
    with pytest.raises(UnsupportedInputError):
        plength_bound(1, 2)
    with pytest.raises(UnsupportedInputError):
        plength_bound(3, 1)


def test_plength_bound_is_refused_past_the_power_ceiling():
    # binom(m, k) <= m^k: k times the bit length of m is held to MAX_POWER_BITS
    top = 2**polydecomp.MAX_POWER_BITS
    assert plength_bound(top - 2, 2) == top - 1
    with pytest.raises(UnsupportedInputError, match=r"^a bound of up to 65537 bits for 2 variables"):
        plength_bound(top - 1, 2)


@pytest.mark.parametrize(
    "f, bound",
    [
        (Polynomial.zero(2, QQ), 1),
        (Polynomial.constant(3, QQ, 7), 2),
        (Polynomial(2, QQ, {(0, 0): 5, (1, 0): 2, (0, 1): -3}), 1),
        (Polynomial(1, QQ, {(1,): 1}), 1),
        (Polynomial(1, QQ, {(2,): 1}), None),
        (Polynomial(3, QQ, {(1, 1, 2): 1, (0, 1, 0): 1}), plength_bound(4, 3)),
    ],
)
def test_poly_bound_matches_decompose(f, bound):
    assert poly_bound(f) == bound
    assert decompose(f).bound == bound


def linear_part(d, coeffs):
    """The linear form sum_i coeffs[i] x_(i+1) in d variables."""
    return Polynomial(d, QQ, {tuple(int(j == i) for j in range(d)): c for i, c in enumerate(coeffs)})


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lattice_nodes_levels(n, d):
    # Node k is s_k = x_p + sigma*(k+1)*x_q, with p the pivot of the linear
    # part l (e_1 without one), q = x1 past it and x2 otherwise, and sigma
    # = -1 when l_q/l_p > 0.  B_k has the rows l and s_k and then the unit
    # rows off {p, q} in index order, and is invertible at every node:
    # l = x1 + x2 + x3 takes sigma = -1, x1 + 3*x2 a ratio equal to k + 1
    # for k = 2, and x2 + x3 its pivot past x1.  x1^n keeps the input off
    # the one-summand shape gamma x_j + v.  The nodes 0..e serve degree e.
    rng = random.Random(f"nodes:{n}:{d}")
    cases = [
        ([], 0, 1, 1),
        ([1, 1, 1][:d], 0, 1, -1),
        ([1, 3], 0, 1, -1),
        ([-2, 5], 0, 1, 1),
        ([0, 1, 1][:d], 1, 0, 1),
    ]
    for coeffs, p, q, sigma in cases:
        terms = {m: c for m, c in seeded_input(rng, d, n, dense=False).terms.items() if sum(m) != 1}
        terms[(n,) + (0,) * (d - 1)] = QQ(1)
        f = Polynomial(d, QQ, terms) + linear_part(d, [QQ(c) for c in coeffs])
        dec = decompose(f)
        ell = coeffs + [0] * (d - len(coeffs)) if coeffs else [1] + [0] * (d - 1)
        units = [[int(i == j) for j in range(d)] for i in range(d) if i not in (p, q)]
        nodes = []
        for summand, cert in dec.summands:
            if len(cert.chain) == 1:  # the summand -x1 of a lone node without a linear part
                assert summand == -Polynomial.variable(d, QQ, 1) and not coeffs
                continue
            theta, basis = cert.chain
            rows = [[basis.matrix.get(i, j).value for j in range(d)] for i in range(d)]
            k = abs(rows[1][q]) - 1
            nodes.append(k)
            assert rows == [ell, [int(j == p) + (sigma * (k + 1) if j == q else 0) for j in range(d)]] + units
            assert ell[p] * sigma * (k + 1) - ell[q] != 0
            assert not bareiss_determinant(basis.matrix)[0].is_zero()
        assert nodes == sorted(set(nodes)) and all(0 <= k <= n for k in nodes), (coeffs, nodes)
        assert_verifies(dec)
    for e in range(n + 1):
        _, matrix = reference_lattice_matrix(e)
        assert not bareiss_determinant(matrix)[0].is_zero()


def reference_lattice_matrix(p):
    """The binary monomials x1^(p-e) x2^e and the matrix ((k+1)^e), rows e = 0..p, columns nodes k = 0..p."""
    monos = [(p - e, e) for e in range(p + 1)]
    return monos, DenseMatrix.from_rows(QQ, [[(k + 1) ** e for k in range(p + 1)] for e in range(p + 1)])


def binary_forms(g):
    """The binary forms B_(q,m) of g's terms of degree >= 2: {(q, m): {(e1, e2): c}}."""
    forms = {}
    for mono, c in g.terms.items():
        if sum(mono) >= 2:
            forms.setdefault((mono[0] + mono[1], mono[2:]), {})[mono[:2]] = c
    return forms


def degree_components(rng, d, p):
    """A random component of degree p, the zero component and a single monomial."""
    monos = list(monomials_of_degree(d, p))
    dense = {m: QQ(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for m in monos if rng.random() < 0.7}
    single = {rng.choice(monos): QQ(rng.randint(1, 99), rng.randint(1, 99))}
    return [Polynomial(d, QQ, terms) for terms in (dense, {}, single)]


def check_against_elimination(p, g_p):
    """solve_degree on the binary form g_p against Bareiss (degree <= MAX_DEGREE) or the exact residual."""
    monos, matrix = reference_lattice_matrix(p)
    lam = solve_degree(p, g_p)
    assert len(lam) == p + 1
    rhs = [g_p.coefficient(m) / QQ(multinomial(m)) for m in monos]
    if p <= MAX_DEGREE:
        assert lam == solve_square(matrix, rhs), p
    else:
        assert matrix.mul_vector(lam) == rhs, p
    return lam


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_solve_degree_matches_the_reference_elimination(d):
    # The powers s_k^p, k = 0..p, are a basis of the binary forms of degree
    # p, so the Newton-basis solve must give exactly the Bareiss solution of
    # the Vandermonde system.  d = 2 runs every binary degree up to 83,
    # checked above MAX_DEGREE, where Bareiss takes seconds per system and
    # decompose never goes, by its exact residual; d > 2 solves the binary
    # forms B_(q,m) of random components in d variables and re-sums
    # sum lambda_(k,q,m) s_k^q m to the component.
    rng = random.Random(76 + d)
    if d == 2:
        for p in range(84):
            if p <= 10:
                monos, matrix = reference_lattice_matrix(p)
                rows = [[matrix.get(i, j).value for j in range(p + 1)] for i in range(p + 1)]
                assert cofactor_determinant(rows) == bareiss_determinant(matrix)[0].value
            for g_p in degree_components(rng, 2, p):
                check_against_elimination(p, g_p)
        return
    for p in range(2, 8 - d // 2):
        for g_p in degree_components(rng, d, p):
            total = Polynomial.zero(d, QQ)
            for (q, m), form in binary_forms(g_p).items():
                lam = check_against_elimination(q, Polynomial(2, QQ, form))
                shift = Polynomial(d, QQ, {(0, 0) + m: 1})
                total = total + reexpand(lam, q, d) * shift
            assert total == g_p, (d, p)


def test_solve_degree_takes_one_binary_form():
    with pytest.raises(ValueError, match="two variables"):
        solve_degree(2, poly({(2, 0, 0): 1}, d=3))
    with pytest.raises(ValueError, match="not homogeneous"):
        solve_degree(2, poly({(2, 0): 1, (0, 1): 1}))
    # degrees 0 and 1 arise from the monomials m in x3..xd of degree >= 1
    assert solve_degree(0, poly({(0, 0): 3})) == [QQ(3)]
    assert solve_degree(1, poly({(1, 0): 1})) == [QQ(2), QQ(-1)]  # 2*(x1 + x2) - (x1 + 2*x2)


def test_linearize_zero_linear_part():
    f = poly({(2, 0): 1, (0, 0): 3})
    psi_inv, g = linearize(f)
    assert psi_inv is None and g == f


def test_linearize_sends_linear_part_to_x1():
    # pivots past column 1, with negative and fractional l_pivot, and Lie elements over Q, F2 and F101
    cases = [
        (parse_poly, 2, QQ, "3*x2 + x1^2"),
        (parse_poly, 3, QQ, "-x1 + x2 + x2*x3"),
        (parse_poly, 3, QQ, "-2/3*x2 + 5*x3 + x1*x2 + x3^2"),
        (parse_poly, 4, QQ, "1 - 1/2*x3 + 7/3*x4 - x1*x4 + x2^3"),
        (parse_poly, 3, QQ, "4/5*x3 + x1^2"),
        (parse_lie, 4, QQ, "-3/2*x2 + x4 + [x2,x1] + [x3,x1,x2]"),
        (parse_lie, 3, GF(2), "x3 + [x2,x1] + [x3,x2,x1]"),
        (parse_lie, 4, GF(101), "-5*x3 + 7*x4 + [x4,x3] + 2*[x3,x1,x4]"),
        (parse_lie, 3, GF(101), "x2 - x3 + [x3,x1]"),
    ]
    for parse, arity, field, text in cases:
        f = parse(text, arity, field)
        psi_inv, g = linearize(f)
        assert g.linear_coefficients() == [field.one()] + [field.zero()] * (arity - 1), text
        assert apply_auto(invert_auto(psi_inv), f) == g
        assert apply_auto(psi_inv, g) == f


def test_linearize_already_normalized():
    # psi^-1 is returned whenever the linear part is nonzero, even when it is the identity
    f = Polynomial.variable(2, QQ, 1)
    psi_inv, g = linearize(f)
    assert g == f and psi_inv.matrix == DenseMatrix.identity(2, QQ)


@pytest.mark.parametrize(
    "arity, text, count",
    [
        (2, "x1 + x1*x2", 3),
        (2, "x1*x2", 3),
        (3, "x3^2", 2),
        (3, "x1 + x2 + x3 + x1*x2*x3", 3),
        (3, "2*x3 - x2 + x1^2 + x2^2*x3", 3),
        (4, "1/2*x1 + 3/2*x2 - x4 + x1^3 + x3^2 + 7", 4),
    ],
)
def test_every_polynomial_certificate_is_triangular_then_affine(arity, text, count):
    # theta_k, then the one basis change B_k; a lone node without a linear
    # part (x3^2) adds -x1, whose certificate is its one affine factor
    dec = decompose(parse_poly(text, arity, QQ))
    assert dec.count == count
    for summand, cert in dec.summands:
        kinds = [type(factor) for factor in cert.chain]
        if summand == -Polynomial.variable(arity, QQ, 1):
            assert kinds == [AffineAuto]
        else:
            assert kinds == [TriangularAuto, AffineAuto] and cert.generator_index == 1
    assert_verifies(dec)


@pytest.mark.parametrize(
    "expr, arity, generator",
    [
        ("x1 + x2^5", 2, 1),
        ("x1 + x2^2*x3^3", 3, 1),
        ("-3/2*x2 + x3^2*x4 - x4^3 + 7", 4, 2),
        ("x1 + x3 - 2*x2*x3^4", 3, 1),
    ],
)
def test_an_input_that_is_gamma_xj_plus_later_variables_is_one_summand(expr, arity, generator):
    f = parse_poly(expr, arity, QQ)
    dec = decompose(f)
    assert dec.count == 1 and dec.summands[0][0] == f
    (theta,), j = dec.summands[0][1].chain, dec.summands[0][1].generator_index
    assert j == generator and theta.ordering == tuple(range(1, arity + 1))
    assert verify_document(loads(dumps(poly_document(dec)))).ok


def test_x1_to_the_16_plus_x2_still_takes_every_node():
    # x2 + v with v in x1: in the ordering 1..d the tail of x2 may not mention x1
    assert decompose(parse_poly("x1^16 + x2", 2, QQ)).count == 17


def test_assign_linear_coeffs():
    assert [c.value for c in assign_linear_coeffs(3, 1)] == [1, 1, -1]
    assert [c.value for c in assign_linear_coeffs(3, 0)] == [1, 1, -2]
    assert [c.value for c in assign_linear_coeffs(2, 1)] == [2, -1]
    for count, delta in [(3, 1), (3, 0), (2, 1), (5, 0), (7, 1)]:
        coeffs = assign_linear_coeffs(count, delta)
        assert all(not c.is_zero() for c in coeffs)
        total = QQ(0)
        for c in coeffs:
            total = total + c
        assert total == QQ(delta)


def test_solve_degree_zero_component():
    zeros = solve_degree(2, Polynomial.zero(2, QQ))
    assert len(zeros) == 3 and all(c.is_zero() for c in zeros)


def lattice_form(k, d):
    """s_k = x1 + (k+1)*x2 in d variables."""
    return Polynomial(d, QQ, {(1, 0) + (0,) * (d - 2): QQ(1), (0, 1) + (0,) * (d - 2): QQ(k + 1)})


def reexpand(lam, p, d=2):
    total = Polynomial.zero(d, QQ)
    for k, c in enumerate(lam):
        if not c.is_zero():
            total = total + (lattice_form(k, d) ** p).scale(c)
    return total


def test_solve_degree_reexpansion_d2():
    g2 = poly({(2, 0): 1})
    assert reexpand(solve_degree(2, g2), 2) == g2


def test_solve_degree_reexpansion_x1x2sq():
    g3 = poly({(1, 2): 3})
    assert reexpand(solve_degree(3, g3), 3) == g3


def test_solve_degree_reexpansion_random():
    rng = random.Random(32)
    for _ in range(30):
        p = rng.randint(0, 8)
        g = rand_poly(rng, 2, p, extra_terms=4).homogeneous_component(p)
        lam = solve_degree(p, g)
        assert len(lam) == p + 1 and reexpand(lam, p) == g


def test_decompose_constant_golden():
    dec = decompose(Polynomial.constant(2, QQ, 7))
    assert dec.status == FINITE and dec.count == 2
    assert [poly_to_str(s) for s, _ in dec.summands] == ["x1 + 7", "-x1"]
    assert verify(dec).ok


def test_decompose_univariate_infinite():
    dec = decompose(Polynomial(1, QQ, {(2,): 1}))
    assert dec.status == INFINITE and dec.bound is None and not dec.summands
    assert verify(dec).ok


@pytest.mark.parametrize(
    "dec, message",
    [
        (Decomposition(Polynomial(2, QQ, {(2, 0): 1}), [], None, INFINITE), "claimed for a decomposable input"),
        (Decomposition(Polynomial(1, QQ, {(1,): 1}), [], None, INFINITE), "claimed for a decomposable input"),
        (Decomposition(LieElement.generator(3, QQ, 1), [], 5, INFINITE), "claimed for a decomposable input"),
        (Decomposition(Polynomial.zero(1, QQ), [], 1, "bogus"), "status 'bogus' is neither"),
    ],
    ids=["bivariate", "linear", "lie", "unknown"],
)
def test_check_summands_owns_the_status_rule(dec, message):
    problems = verify(dec).problems
    assert any(message in p for p in problems), problems


def test_an_infinite_status_needs_an_empty_summand_list():
    f = Polynomial(1, QQ, {(3,): 1})
    dec = Decomposition(f, [(f, Certificate([], 1))], None, INFINITE)
    assert verify(dec).problems == ["infinite status with a nonempty summand list"]


def test_decompose_simple():
    dec = decompose(poly({(2, 0): 1, (0, 1): 1}))
    assert dec.status == FINITE and dec.count <= 3
    assert verify(dec).ok


def test_decompose_zero():
    dec = decompose(Polynomial.zero(2, QQ))
    assert dec.status == FINITE and dec.count == 0 and dec.notes


def test_decompose_linear():
    dec = decompose(poly({(0, 0): 5, (1, 0): 2, (0, 1): -3}))
    assert dec.count == 1 and verify(dec).ok


def test_decompose_rejects_positive_characteristic():
    with pytest.raises(UnsupportedInputError):
        decompose(Polynomial(2, GF(3), {(2, 0): 1}))


def test_decompose_randomized_corpus():
    rng = random.Random(33)
    for _ in range(25):
        d = rng.choice([2, 3])
        n = rng.randint(2, 4)
        f = rand_poly(rng, d, n)
        dec = decompose(f)
        assert dec.status == FINITE
        assert dec.count <= plength_bound(n, d)
        result = verify(dec)
        assert result.ok, result.problems


def test_decompose_invariant_under_elementary_automorphism():
    from primlen.linalg import DenseMatrix
    from primlen.polyauto import AffineAuto, TriangularAuto

    rng = random.Random(34)
    for _ in range(10):
        f = rand_poly(rng, 2, rng.randint(2, 3))
        if rng.random() < 0.5:
            chi = AffineAuto(DenseMatrix.from_rows(QQ, [[1, 2], [1, 3]]), [QQ(1), QQ(0)])
        else:
            chi = TriangularAuto(
                [QQ(3), QQ(1)],
                [Polynomial(2, QQ, {(0, 2): 1}), Polynomial.zero(2, QQ)],
            )
        g = apply_auto(chi, f)
        dec = decompose(g)
        assert verify(dec).ok
        assert dec.count <= plength_bound(g.total_degree(), 2)


def test_verify_detects_tampered_summand():
    dec = decompose(poly({(2, 0): 1, (0, 1): 1}))
    summand, cert = dec.summands[0]
    dec.summands[0] = (summand + Polynomial.constant(2, QQ, 1), cert)
    result = verify(dec)
    assert not result.ok
    assert any("sum mismatch" in p for p in result.problems)


def test_verify_detects_invalid_factor():
    from primlen.polyauto import TriangularAuto

    dec = decompose(poly({(2, 0): 1, (0, 1): 1}))
    summand, cert = dec.summands[0]
    broken = TriangularAuto([QQ(0)] + [QQ(1)], [Polynomial.zero(2, QQ)] * 2)
    cert.chain[0] = broken
    result = verify(dec)
    assert not result.ok
    assert any("invalid elementary factor" in p for p in result.problems)


def coefficients(digits):
    return st.builds(
        lambda num, den: QQ(num, den),
        st.integers(-(10**digits), 10**digits),
        st.integers(1, 10**digits),
    )


@st.composite
def decomposable_polys(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(2, 5))
    coeff = coefficients(draw(st.sampled_from([2, 40])))
    top = list(monomials_of_degree(d, n))
    terms = {draw(st.sampled_from(top)): draw(coeff.filter(bool))}
    for p in range(2, n):
        for m in draw(st.lists(st.sampled_from(list(monomials_of_degree(d, p))), max_size=3)):
            terms[m] = draw(coeff)
    if draw(st.booleans()):
        for m in draw(st.lists(st.sampled_from(list(monomials_of_degree(d, 1))), min_size=1, max_size=d)):
            terms[m] = draw(coeff)
    if draw(st.booleans()):
        terms[(0,) * d] = draw(coeff)
    return Polynomial(d, QQ, terms)


def is_triangular(f):
    """Whether f = gamma x_j + v + c with gamma != 0, v in x_(j+1..d) and c a constant."""
    j = min(min(i for i, e in enumerate(m) if e) for m in f.terms if any(m))
    return [m for m in f.terms if m[j]] == [tuple(int(i == j) for i in range(f.arity))]


def tailed_count(f):
    """The summand count decompose reaches for f of degree n > 1 in d > 1 variables.

    One for f of the shape ``is_triangular``.  Otherwise one summand per node
    k with a tail (some lambda_(k,e,m) != 0 over the binary forms B_(e,m)
    in x_p and x_q, p the pivot of the linear part l, or x1 without one,
    and q = x1 past it or x2, read with x_q -> -x_q when l_q/l_p > 0), and
    one more, -x1, when a single node has a tail and f has no linear part.
    """
    if is_triangular(f):
        return 1
    ell = [c.value for c in f.linear_coefficients()]
    delta = any(ell)
    p = next(i for i, c in enumerate(ell) if c) if delta else 0
    q = int(p == 0)
    sign = -1 if ell[p] * ell[q] > 0 else 1
    rest = [i for i in range(f.arity) if i not in (p, q)]
    forms = {}
    for mono, c in f.terms.items():
        if sum(mono) >= 2:
            form = forms.setdefault((mono[p] + mono[q], tuple(mono[i] for i in rest)), {})
            form[mono[p], mono[q]] = c * sign ** mono[q]
    tailed = set()
    for (e, _), form in forms.items():
        tailed.update(k for k, c in enumerate(solve_degree(e, Polynomial(2, QQ, form))) if not c.is_zero())
    return len(tailed) + (len(tailed) == 1 and not delta)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(decomposable_polys())
def test_every_assembled_summand_is_its_certificate_replayed(f):
    dec = decompose(f)
    assert dec.count == tailed_count(f)
    for summand, cert in dec.summands:
        assert certify_apply(cert, f) == summand
    assert verify(dec).ok


@st.composite
def dense_polys(draw):
    """Every monomial of degree <= n present, each with a nonzero coefficient."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(2, 5))
    coeff = coefficients(draw(st.sampled_from([2, 40]))).filter(bool)
    return Polynomial(d, QQ, {m: draw(coeff) for p in range(n + 1) for m in monomials_of_degree(d, p)})


def assert_verifies(dec):
    result = verify(dec)
    assert result.ok, result.problems
    result = verify_document(loads(dumps(poly_document(dec))))
    assert result.ok, result.problems


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(decomposable_polys(), dense_polys()))
def test_the_count_is_the_number_of_nodes_with_a_tail(f):
    dec = decompose(f)
    assert dec.count == tailed_count(f) <= f.total_degree() + 1 <= plength_bound(f.total_degree(), f.arity)
    for _, cert in dec.summands:
        if isinstance(cert.chain[0], TriangularAuto):
            assert not any(gamma.is_zero() for gamma in cert.chain[0].gammas)
    assert_verifies(dec)


@st.composite
def polys_with_node_ratios(draw):
    """A polynomial whose linear part is c times ints r_i, r_i = 0 or +-1..n+1, its pivot's r = 1.

    So the ratio l_q/l_p that decides sigma lands on the nodes' k + 1 as
    often as not, with either sign, and the pivot may lie past x1.
    """
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, 6))
    coeff = coefficients(draw(st.sampled_from([2, 20])))
    terms = {draw(st.sampled_from(list(monomials_of_degree(d, n)))): draw(coeff.filter(bool))}
    for p in [0] + list(range(2, n)):
        for m in draw(st.lists(st.sampled_from(list(monomials_of_degree(d, p))), max_size=3)):
            terms[m] = draw(coeff)
    ratio = st.sampled_from([0] + [sign * r for r in range(1, n + 2) for sign in (1, -1)])
    pivot = draw(st.integers(0, d - 1))
    scale = draw(coeff.filter(bool))
    for i in range(pivot, d):
        r = 1 if i == pivot else draw(ratio)
        terms[tuple(int(j == i) for j in range(d))] = scale * QQ(r)
    return Polynomial(d, QQ, terms)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(polys_with_node_ratios())
def test_a_linear_part_with_ratios_on_the_nodes_verifies_within_n_plus_one(f):
    dec = decompose(f)
    assert dec.count <= max(f.total_degree() + 1, 2)
    assert_verifies(dec)


@pytest.mark.parametrize(
    "arity, text, count, bound, shown",
    [
        (3, "x1*x2", 3, 6, None),
        # One node and no linear part: -x1 cancels the node's linear coefficient.
        (2, "(x1+x2)^2", 2, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1", "-x1"]),
        # The input is primitive, and its one summand is the input.
        (2, "x1 + (x1+x2)^2", 1, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1"]),
        # The constant goes on the first kept node.
        (2, "3 + (x1+x2)^2", 2, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1 + 3", "-x1"]),
        # One binary form, x1*x2, times m = x3*x4: the three nodes of degree 2.
        (4, "7 + x1*x2*x3*x4", 3, 35, None),
        # x1^3 + x2^3 on nodes 0..3; x3^3 (q = 0) rides on node 0.
        (3, "x1^3 + x2^3 + x3^3", 4, 10, None),
        # Every monomial present, but the input is s_0^2 + s_1^2, so the
        # node of s_2 = x1 + 3*x2 has no tail.
        (2, "2*x1^2 + 6*x1*x2 + 5*x2^2", 2, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1", "x1^2 + 4*x1*x2 + 4*x2^2 - x1"]),
        # q = 0: x3^2 is node 0's whole tail.
        (3, "x3^2", 2, 6, ["x3^2 + x1", "-x1"]),
        # q = 1: x1 = 2*s_0 - s_1, so x1*x3 = 2*s_0*x3 - s_1*x3.
        (3, "x1*x3", 2, 6, ["2*x1*x3 + 2*x2*x3 + x1", "-x1*x3 - 2*x2*x3 - x1"]),
        # The linear part x3 has its pivot past x1: s_k = x3 + (k+1)*x1.
        (3, "x3 + x1*x2 + x2^2*x3", 2, 10, None),
    ],
)
def test_only_the_nodes_with_a_tail_get_a_summand(arity, text, count, bound, shown):
    dec = decompose(parse_poly(text, arity, QQ))
    assert (dec.count, dec.bound) == (count, bound)
    if shown is not None:
        assert [poly_to_str(s) for s, _ in dec.summands] == shown
    assert_verifies(dec)


@pytest.mark.parametrize("d, n", [(2, 5), (3, 4), (4, 3), (3, 6), (4, 5)])
def test_dense_inputs_with_large_coefficients_keep_every_node(d, n):
    # Node k loses its tail only when its lambda_(k,q,m) vanish for every
    # binary form, which the seeded 9-digit coefficients below avoid; small
    # coefficients do not (the pinned s_0^2 + s_1^2 above).  Every node
    # 0..n keeps one, so the count is n + 1, the paper's bound only at d = 2.
    rng = random.Random(f"dense:{d}:{n}")
    terms = {m: rand_nonzero_scalar(rng, QQ, 10**9) for p in range(n + 1) for m in monomials_of_degree(d, p)}
    dec = decompose(Polynomial(d, QQ, terms))
    assert dec.count == n + 1 and dec.bound == plength_bound(n, d)
    assert_verifies(dec)


def seeded_input(rng, d, n, dense):
    """Degree exactly n in d variables, coefficients a/b with |a|, b <= 100.

    Dense inputs hold every monomial of degree <= n; sparse ones a top
    monomial, a few lower ones and, half the time, a linear part that may
    leave out x1.
    """
    def coeff():
        return QQ(rng.choice([-1, 1]) * rng.randint(1, 100), rng.randint(1, 100))

    if dense:
        return Polynomial(d, QQ, {m: coeff() for p in range(n + 1) for m in monomials_of_degree(d, p)})
    terms = {rng.choice(list(monomials_of_degree(d, n))): coeff()}
    for _ in range(rng.randint(1, 6)):
        terms[rng.choice(list(monomials_of_degree(d, rng.randint(0, n))))] = coeff()
    if rng.random() < 0.5:
        for i in rng.sample(range(d), rng.randint(1, d)):
            terms[tuple(int(j == i) for j in range(d))] = coeff()
    return Polynomial(d, QQ, terms)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_at_most_n_plus_one_summands_at_every_arity(d):
    # Every (d, n) with n = 2..7: each accepted input, sparse or with every
    # monomial present, gets at most n + 1 summands and a document that
    # verifies after a round trip through its text.  Where the paper's bound
    # passes MAX_NODES (d = 5, n = 7 and d = 6, n >= 6) decompose refuses.
    rng = random.Random(f"n-plus-one:{d}")
    for n in range(2, 8):
        for dense in (False, True, False):
            f = seeded_input(rng, d, n, dense)
            if plength_bound(n, d) > polydecomp.MAX_NODES:
                with pytest.raises(UnsupportedInputError, match="exceed the ceiling"):
                    decompose(f)
                continue
            dec = decompose(f)
            assert dec.count <= n + 1, (d, n, poly_to_str(f))
            assert_verifies(dec)


def test_decompose_neither_replays_nor_eliminates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose must not call this")

    assert not hasattr(polydecomp, "solve_square")
    monkeypatch.setattr(polydecomp, "replay_raw", refuse)
    monkeypatch.setattr(polyauto, "replay_raw", refuse)  # certify_apply replays through it
    monkeypatch.setattr(linalg, "solve_square", refuse)
    monkeypatch.setattr(polyauto, "matrix_inverse", refuse)  # linearize reads rho off rho^-1
    rng = random.Random(35)
    for d, n in [(2, 5), (3, 4), (4, 3), (5, 2)]:
        f = rand_poly(rng, d, n, coeff_bound=10**40)
        assert decompose(f).count == tailed_count(f)
        g = f + Polynomial.variable(d, QQ, d)  # a linear part, pivoting past x1 for d > 1
        assert decompose(g).count == tailed_count(g)
    for field in (QQ, GF(2), GF(101)):
        f = rand_lie(rng, 4, 4, field) + LieElement.generator(4, field, 2)
        assert any(f.linear_coefficients())
        assert decompose_lie(f).count <= lie_bound(4, field)
