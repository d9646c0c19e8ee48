import random
from math import comb, prod

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
from primlen.polyauto import Certificate, TriangularAuto, apply_auto, certify_apply, invert_auto, linearize
from primlen.linalg import DenseMatrix, bareiss_determinant, solve_square
from primlen.polydecomp import (
    FINITE,
    INFINITE,
    Decomposition,
    MAX_DEGREE,
    assign_linear_coeffs,
    decompose,
    lattice_nodes,
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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lattice_nodes_levels(n, d):
    nodes = lattice_nodes(n, d)
    assert len(nodes) == len(set(nodes)) == plength_bound(n, d)
    assert all(len(a) == d - 1 and min(a) >= 0 for a in nodes)
    for p in range(n + 1):
        block = comb(p + d - 1, d - 1)
        assert all(sum(a) <= p for a in nodes[:block])
        assert all(sum(a) > p for a in nodes[block:])


def reference_lattice_matrix(p, d, nodes):
    """The degree-p monomials m and the matrix (prod_i (a_i+1)^(m_{i+1})), rows m, columns nodes a."""
    monos = list(monomials_of_degree(d, p))
    rows = [[prod((a_i + 1) ** e for a_i, e in zip(a, m[1:])) for a in nodes] for m in monos]
    return monos, DenseMatrix.from_rows(QQ, rows)


def lattice_levels(d):
    """Every degree p >= 2 whose lattice levels <= p hold at most 84 nodes, the N of (4,6)."""
    p = 2
    while comb(p + d - 1, d - 1) <= 84:
        yield p
        p += 1


def degree_components(rng, d, p):
    """A random component of degree p, the zero component and a single monomial."""
    monos = list(monomials_of_degree(d, p))
    dense = {m: QQ(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for m in monos if rng.random() < 0.7}
    single = {rng.choice(monos): QQ(rng.randint(1, 99), rng.randint(1, 99))}
    return [Polynomial(d, QQ, terms) for terms in (dense, {}, single)]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_solve_degree_matches_the_reference_elimination(d):
    # The lattice levels <= p are unisolvent, so the Newton-basis solve must
    # give exactly the Bareiss solution of the dense lattice system.  d = 2
    # above MAX_DEGREE, where Bareiss takes seconds per system and decompose
    # never goes, is checked by its exact residual instead.
    rng = random.Random(76 + d)
    for p in lattice_levels(d):
        block = comb(p + d - 1, d - 1)
        nodes = lattice_nodes(p + 1, d)
        monos, matrix = reference_lattice_matrix(p, d, nodes[:block])
        if p <= MAX_DEGREE:
            det, _ = bareiss_determinant(matrix)
            assert not det.is_zero(), (d, p)
            if block <= 10:
                rows = [[matrix.get(i, j).value for j in range(block)] for i in range(block)]
                assert cofactor_determinant(rows) == det.value
        for g_p in degree_components(rng, d, p):
            xi = solve_degree(p, g_p, nodes)
            assert len(xi) == len(nodes) and all(c.is_zero() for c in xi[block:])
            rhs = [g_p.coefficient(m) / QQ(multinomial(m)) for m in monos]
            if p <= MAX_DEGREE:
                assert xi[:block] == solve_square(matrix, rhs), (d, p)
            else:
                assert matrix.mul_vector(xi[:block]) == rhs, (d, p)


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


def test_a_linear_part_of_exactly_x1_carries_an_identity_psi_inverse():
    dec = decompose(poly({(1, 0): 1, (0, 2): 1}))  # x1 + x2^2
    assert dec.count == 3
    for _, cert in dec.summands:
        assert len(cert.chain) == 3 and cert.chain[-1].matrix == DenseMatrix.identity(2, QQ)
    assert verify(dec).ok


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
    zeros = solve_degree(2, Polynomial.zero(2, QQ), lattice_nodes(2, 2))
    assert len(zeros) == 3 and all(c.is_zero() for c in zeros)


def lattice_form(a, d):
    """s_a = x1 + sum_i (a_i+1) x_{i+1}."""
    terms = {tuple(1 if j == 0 else 0 for j in range(d)): QQ(1)}
    for i, a_i in enumerate(a):
        terms[tuple(1 if j == i + 1 else 0 for j in range(d))] = QQ(a_i + 1)
    return Polynomial(d, QQ, terms)


def reexpand(xi, nodes, p, d):
    total = Polynomial.zero(d, QQ)
    for c, a in zip(xi, nodes):
        if not c.is_zero():
            total = total + (lattice_form(a, d) ** p).scale(c)
    return total


def test_solve_degree_reexpansion_d2():
    nodes = lattice_nodes(2, 2)
    g2 = poly({(2, 0): 1})
    xi = solve_degree(2, g2, nodes)
    assert reexpand(xi, nodes, 2, 2) == g2


def test_solve_degree_reexpansion_x1x2sq():
    nodes = lattice_nodes(3, 2)
    g3 = poly({(1, 2): 3})
    xi = solve_degree(3, g3, nodes)
    assert reexpand(xi, nodes, 3, 2) == g3


def test_solve_degree_reexpansion_random():
    rng = random.Random(32)
    for d, n in [(2, 4), (3, 3), (4, 4)]:
        nodes = lattice_nodes(n, d)
        for _ in range(10):
            p = rng.randint(2, n)
            g = rand_poly(rng, d, p, extra_terms=4).homogeneous_component(p)
            xi = solve_degree(p, g, nodes)
            assert reexpand(xi, nodes, p, d) == g
            # unknowns beyond the lattice levels <= p stay zero
            assert all(c.is_zero() for c in xi[comb(p + d - 1, d - 1):])


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


def tailed_count(f):
    """The summand count decompose reaches for f of degree n > 1 in d > 1 variables.

    One summand per lattice node with a tail (some xi_kp != 0, p >= 2), and
    one more, -x1, when a single node has a tail and f has no linear part.
    """
    n, d = f.total_degree(), f.arity
    psi_inv, g = linearize(f)
    nodes = lattice_nodes(n, d)
    xi = [solve_degree(p, g.homogeneous_component(p), nodes) for p in range(2, n + 1)]
    tailed = sum(any(not xi_p[k].is_zero() for xi_p in xi) for k in range(len(nodes)))
    return tailed + (tailed == 1 and psi_inv is None)


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
    assert dec.count == tailed_count(f) <= plength_bound(f.total_degree(), f.arity)
    for _, cert in dec.summands:
        if isinstance(cert.chain[0], TriangularAuto):
            assert not any(gamma.is_zero() for gamma in cert.chain[0].gammas)
    assert_verifies(dec)


@pytest.mark.parametrize(
    "arity, text, count, bound, shown",
    [
        (3, "x1*x2", 5, 6, None),
        # One node and no linear part: -x1 cancels the node's linear coefficient.
        (2, "(x1+x2)^2", 2, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1", "-x1"]),
        # The input is primitive, and its one summand is the input.
        (2, "x1 + (x1+x2)^2", 1, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1"]),
        # The constant goes on the first kept node.
        (2, "3 + (x1+x2)^2", 2, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1 + 3", "-x1"]),
        (4, "7 + x1*x2*x3*x4", 20, 35, None),
        (3, "x1^3 + x2^3 + x3^3", 10, 10, None),
        # Every monomial present, but the input is s_0^2 + s_1^2, so the
        # node of s_2 = x1 + 3*x2 has no tail.
        (2, "2*x1^2 + 6*x1*x2 + 5*x2^2", 2, 3, ["x1^2 + 2*x1*x2 + x2^2 + x1", "x1^2 + 4*x1*x2 + 4*x2^2 - x1"]),
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
    # A node loses its tail only when its xi_kp vanish for every p, which
    # the seeded 9-digit coefficients below avoid; small coefficients do
    # not (the pinned s_0^2 + s_1^2 above).
    rng = random.Random(f"dense:{d}:{n}")
    terms = {m: rand_nonzero_scalar(rng, QQ, 10**9) for p in range(n + 1) for m in monomials_of_degree(d, p)}
    dec = decompose(Polynomial(d, QQ, terms))
    assert dec.count == dec.bound == plength_bound(n, d)
    assert_verifies(dec)


def test_decompose_neither_replays_nor_eliminates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose must not call this")

    assert not hasattr(polydecomp, "solve_square")
    monkeypatch.setattr(polydecomp, "replay_raw", refuse)
    monkeypatch.setattr(polyauto, "replay_raw", refuse)  # certify_apply replays through it
    monkeypatch.setattr(linalg, "solve_square", refuse)
    monkeypatch.setattr(polyauto, "matrix_inverse", refuse)  # psi is read off psi^-1
    rng = random.Random(35)
    for d, n in [(2, 5), (3, 4), (4, 3), (5, 2)]:
        f = rand_poly(rng, d, n, coeff_bound=10**40)
        assert decompose(f).count == tailed_count(f)
        g = f + Polynomial.variable(d, QQ, d)  # a linear part, so decompose runs linearize
        assert decompose(g).count == tailed_count(g)
    for field in (QQ, GF(2), GF(101)):
        f = rand_lie(rng, 4, 4, field) + LieElement.generator(4, field, 2)
        assert any(f.linear_coefficients())
        assert decompose_lie(f).count <= lie_bound(4, field)
