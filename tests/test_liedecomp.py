import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primlen import liedecomp
from primlen.document import dumps, lie_document, loads, verify_document
from primlen.errors import DegreeCapError, UnsupportedInputError
from primlen.field import GF, QQ
from primlen.liedecomp import (
    D3Coefficients,
    HighDCoefficients,
    InnerLieAuto,
    bucket_d3,
    bucket_dgt3,
    choose_lie_coeffs,
    decompose_lie,
    lie_bound,
    verify_lie,
)
from primlen.metalie import LieElement, bracket, normalize_word
from primlen.multipoly import Polynomial
from primlen.parsing import parse_lie
from primlen.polyauto import AffineAuto, Certificate, TriangularAuto, apply_auto, certify_apply

from conftest import rand_lie


def gen(i, d=3, F=QQ):
    return LieElement.generator(d, F, i)


def word(indices, d=3, F=QQ):
    return normalize_word(indices, d, F)


def test_bound_table():
    assert lie_bound(3, QQ) == 5
    assert lie_bound(3, GF(3)) == 5
    assert lie_bound(3, GF(2)) == 6
    assert lie_bound(4, QQ) == 6
    assert lie_bound(5, GF(2)) == 7
    with pytest.raises(UnsupportedInputError):
        lie_bound(2, QQ)


def test_bucket_d3_examples():
    t = word((2, 1, 1, 3))
    w1, w2, w3 = bucket_d3(t)
    assert w1.is_zero() and w2.is_zero()
    assert w3 == word((2, 1, 1))

    t = word((2, 1, 1))
    w1, w2, w3 = bucket_d3(t)
    assert w1 == word((2, 1)) and w2.is_zero() and w3.is_zero()


def test_bucket_d3_resums():
    rng = random.Random(51)
    for _ in range(50):
        t = LieElement.zero(3, QQ)
        for _ in range(5):
            length = rng.randint(3, 6)
            w = [rng.randint(2, 3), 1] + sorted(rng.randint(1, 3) for _ in range(length - 2))
            t = t + word(tuple(w)).scale(QQ(rng.randint(-3, 3)))
        w1, w2, w3 = bucket_d3(t)
        rebuilt = (
            bracket(w1, gen(1)) + bracket(w2, gen(2)) + bracket(w3, gen(3))
        )
        assert rebuilt == t


def test_bucket_dgt3_examples():
    d = 4
    t = word((4, 1, 1, 4), d)
    w1, w2, w3, w4 = bucket_dgt3(t, d)
    assert w1 == word((4, 1, 1), d) and w2.is_zero() and w3.is_zero() and w4.is_zero()

    t = word((4, 1, 2), d)
    w1, w2, w3, w4 = bucket_dgt3(t, d)
    assert w3 == t and 3 not in w3.mentioned()

    t = word((3, 1, 2), d)
    w1, w2, w3, w4 = bucket_dgt3(t, d)
    assert w4 == t and 4 not in w4.mentioned()


def test_bucket_dgt3_resums_and_constraints():
    rng = random.Random(52)
    d = 5
    for _ in range(50):
        t = LieElement.zero(d, QQ)
        for _ in range(6):
            length = rng.randint(3, 6)
            w = [rng.randint(2, d), 1] + sorted(rng.randint(1, d) for _ in range(length - 2))
            t = t + word(tuple(w), d).scale(QQ(rng.randint(-3, 3)))
        w1, w2, w3, w4 = bucket_dgt3(t, d)
        rebuilt = bracket(w1, gen(d, d)) + bracket(w2, gen(d - 1, d)) + w3 + w4
        assert rebuilt == t
        assert d - 1 not in w3.mentioned()
        assert d not in w4.mentioned()


def check_d3_system(coeffs, delta, field):
    xi_1, xi_2, xi_3 = coeffs.xi_by_gen
    zeta_1, zeta_2, zeta_3 = coeffs.zeta
    assert not coeffs.xi.is_zero()
    assert all(not c.is_zero() for c in coeffs.xi_by_gen)
    # linear components: x1, x2, x3 sums
    assert coeffs.xi + xi_1 + zeta_1 == field(delta)
    assert xi_2 + zeta_2 == field(0)
    assert xi_3 + zeta_3 == field(0)


def test_choose_coeffs_d3_q_no_beta():
    coeffs = choose_lie_coeffs(3, 1, [QQ(0), QQ(0)], QQ)
    assert isinstance(coeffs, D3Coefficients) and coeffs.extra is None
    check_d3_system(coeffs, 1, QQ)


def test_choose_coeffs_d3_beta_dependence_rejection():
    beta = [QQ(1), QQ(1)]
    coeffs = choose_lie_coeffs(3, 1, beta, QQ)
    check_d3_system(coeffs, 1, QQ)
    z2, z3 = coeffs.zeta[1], coeffs.zeta[2]
    # (1, 1) depends on beta, so the pair is (1, 2), which is independent
    assert not (z2 * beta[1] - z3 * beta[0]).is_zero()


def test_choose_coeffs_gf2_split():
    F = GF(2)
    beta = [F(1), F(1)]
    coeffs = choose_lie_coeffs(3, 1, beta, F)
    assert coeffs.extra is not None
    prime = coeffs.extra
    rest = (coeffs.zeta[1] - prime[0], coeffs.zeta[2] - prime[1])
    assert (prime[0].value, prime[1].value) in {(1, 0), (0, 1)}
    assert prime[0] + rest[0] == coeffs.zeta[1]
    assert prime[1] + rest[1] == coeffs.zeta[2]
    assert not (prime[0] * beta[1] - prime[1] * beta[0]).is_zero()


def test_choose_coeffs_high_d():
    for field in (QQ, GF(3)):
        for beta in ([field(0)] * 3, [field(1), field(0), field(1)]):
            coeffs = choose_lie_coeffs(4, 1, beta, field)
            assert isinstance(coeffs, HighDCoefficients)
            assert coeffs.extra is None
            eta_dm1, eta_d = coeffs.eta_pair
            xi_dm1, xi_d = coeffs.xi_pair
            zeta_1, zeta_dm1, zeta_d = coeffs.zeta
            for c in (coeffs.xi, eta_dm1, eta_d, xi_dm1, xi_d):
                assert not c.is_zero()
            assert coeffs.xi + zeta_1 == field(1)
            assert eta_dm1 + xi_dm1 + zeta_dm1 == field(0)
            assert eta_d + xi_d + zeta_d == field(0)


def reference_independent_from_beta(pair, beta, slots):
    """The independence test choose_lie_coeffs used before it read independence off an elimination."""
    z1, z2 = pair
    if z1.is_zero() and z2.is_zero():
        return False
    if all(c.is_zero() for c in beta):
        return True
    a, b = slots
    if any(not c.is_zero() and j not in (a, b) for j, c in enumerate(beta, start=2)):
        return True
    b1, b2 = beta[a - 2], beta[b - 2]
    return not (z1 * b2 - z2 * b1).is_zero()


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_choose_coeffs_matches_the_determinant_reference(monkeypatch, d, field):
    # every beta in F_p^(d-1), the zero vector and the two-element fallbacks included
    cases = [
        ([field(b) for b in beta], delta)
        for beta in itertools.product(range(field.p), repeat=d - 1)
        for delta in (0, 1)
    ]
    choices = [choose_lie_coeffs(d, delta, beta, field) for beta, delta in cases]
    monkeypatch.setattr(liedecomp, "_independent_from_beta", reference_independent_from_beta)
    assert choices == [choose_lie_coeffs(d, delta, beta, field) for beta, delta in cases]


def reference_nonzero_sum_pair(target, field):
    """Two nonzero scalars summing to target, or None when impossible (GF(2))."""
    one = field.one()
    second = target - one
    if not second.is_zero():
        return one, second
    two = field(2)
    if two.is_zero():
        return None
    second = target - two
    if second.is_zero():
        return None
    return two, second


def reference_choose_lie_coeffs(d, delta, beta, field):
    """The candidate search choose_lie_coeffs ran before it followed the case split.

    The first candidate pair passing the nonzero and independence
    requirements wins; over GF(2) the first independent "prime" becomes
    the ``extra`` split.
    """
    independent = liedecomp._independent_from_beta
    one = field.one()
    delta = field(delta)
    beta_zero = all(b.is_zero() for b in beta)
    if d == 3:
        xi_1 = one
        zeta_1 = delta - one - xi_1
        for xi_2, xi_3 in [(one, one), (one, field(2)), (field(2), one)]:
            if xi_2.is_zero() or xi_3.is_zero():
                continue
            pair = (-xi_2, -xi_3)
            if beta_zero or independent(pair, beta, (2, 3)):
                return D3Coefficients(one, (xi_1, xi_2, xi_3), (zeta_1,) + pair)
        for prime in [(one, field.zero()), (field.zero(), one)]:
            if independent(prime, beta, (2, 3)):
                return D3Coefficients(one, (xi_1, one, one), (zeta_1, -one, -one), extra=prime)
        raise AssertionError("no admissible coefficient choice found")
    zeta_1 = delta - one
    slots = (d - 1, d)
    z = -(one + one)
    if beta_zero:
        return HighDCoefficients(one, (one, one), (one, one), (zeta_1, z, z))
    candidates = [(one, one), (one, field(2)), (field(2), one), (one, field.zero()), (field.zero(), one)]
    for z_pair in candidates:
        if not independent(z_pair, beta, slots):
            continue
        first = reference_nonzero_sum_pair(-z_pair[0], field)
        second = reference_nonzero_sum_pair(-z_pair[1], field)
        if first is None or second is None:
            continue
        return HighDCoefficients(one, (first[0], second[0]), (first[1], second[1]), (zeta_1,) + z_pair)
    for prime in [(one, field.zero()), (field.zero(), one), (one, one)]:
        if independent(prime, beta, slots):
            return HighDCoefficients(one, (one, one), (one, one), (zeta_1, z, z), extra=prime)
    raise AssertionError("no admissible coefficient choice found")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_the_case_split_matches_the_candidate_search(d, p):
    field = GF(p)
    for beta in itertools.product(range(p), repeat=d - 1):
        beta = [field(b) for b in beta]
        for delta in (0, 1):
            assert choose_lie_coeffs(d, delta, beta, field) == reference_choose_lie_coeffs(d, delta, beta, field)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_the_case_split_runs_at_most_two_eliminations(monkeypatch, field):
    calls = []
    real = liedecomp._independent_from_beta

    def counted(pair, beta, slots):
        calls.append(pair)
        return real(pair, beta, slots)

    monkeypatch.setattr(liedecomp, "_independent_from_beta", counted)
    for d in (3, 4, 5):
        for beta in itertools.product(range(field.p), repeat=d - 1):
            calls.clear()
            choose_lie_coeffs(d, 1, [field(b) for b in beta], field)
            assert len(calls) <= 2, (d, beta)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_the_case_split_matches_the_candidate_search_over_q(d):
    # betas parallel to (..., 0, 1, 1), (..., 0, 1, 2) and (1, 0, ...), plus random ones
    rng = random.Random(56)
    shapes = [(0,) * (d - 3) + (1, 1), (0,) * (d - 3) + (1, 2), (1,) + (0,) * (d - 2)]
    for _ in range(200):
        scale = QQ(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
        betas = [[scale * QQ(b) for b in shape] for shape in shapes]
        betas.append([QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d - 1)])
        for beta in betas:
            for delta in (0, 1):
                assert choose_lie_coeffs(d, delta, beta, QQ) == reference_choose_lie_coeffs(d, delta, beta, QQ)


def test_choose_coeffs_gf2_high_d_extra():
    F = GF(2)
    coeffs = choose_lie_coeffs(4, 0, [F(1), F(0), F(0)], F)
    assert coeffs.extra is not None


def test_decompose_single_generator():
    for d in (3, 4, 5):
        f = LieElement.generator(d, QQ, 1)
        dec = decompose_lie(f)
        assert dec.count == 1
        assert verify_lie(dec).ok


def test_decompose_simple_bracket():
    f = word((2, 1))
    dec = decompose_lie(f)
    assert dec.count <= 5
    result = verify_lie(dec)
    assert result.ok, result.problems


def test_decompose_zero():
    dec = decompose_lie(LieElement.zero(3, QQ))
    assert dec.count == 0 and dec.notes


@pytest.mark.parametrize(
    "expr, field, generator",
    [
        ("x2 + [x3,x1]", QQ, 2),
        ("3*x1 + x2 + [x3,x2,x2]", GF(101), 1),
        ("x1 + x3 + [x3,x2,x2]", GF(2), 1),
    ],
)
def test_an_input_that_is_gamma_xj_plus_v_is_one_summand(expr, field, generator):
    f = parse_lie(expr, 3, field)
    dec = decompose_lie(f)
    assert dec.count == 1 and dec.summands[0][0] == f
    (theta,) = dec.summands[0][1].chain
    assert isinstance(theta, TriangularAuto) and theta.ordering[0] == generator
    assert verify_document(loads(dumps(lie_document(dec)))).ok


def triangular_generators(u):
    """The j with u = gamma x_j + v, gamma != 0 and no word of v mentioning x_j."""
    longer = {i for w in u.terms if len(w) > 1 for i in w}
    return [w[0] for w in u.terms if len(w) == 1 and w[0] not in longer]


@st.composite
def lie_elements(draw):
    d = draw(st.integers(3, 8))
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101)]))
    den = st.integers(1, 9) if field.is_rationals else st.just(1)
    scalar = st.builds(field, st.integers(-20, 20), den)
    words = st.lists(st.integers(1, d), min_size=1, max_size=6)
    f = LieElement.zero(d, field)
    for indices, c in draw(st.lists(st.tuples(words, scalar), min_size=1, max_size=10)):
        f = f + normalize_word(indices, d, field).scale(c)
    return f


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lie_elements())
def test_merged_decompositions_verify_within_the_bound_at_a_fixed_point(f):
    dec = decompose_lie(f)
    text = dumps(lie_document(dec))
    result = verify_document(loads(text))
    assert result.ok, result.problems
    assert dec.count <= lie_bound(f.arity, f.field)
    summands = [u for u, _ in dec.summands]
    for a, b in itertools.combinations(summands, 2):
        assert not triangular_generators(a + b), (a, b)
    assert dumps(lie_document(decompose_lie(f))) == text


def test_decompose_rejects_small_arity():
    with pytest.raises(UnsupportedInputError):
        decompose_lie(LieElement.generator(2, QQ, 1))


def test_decompose_randomized_all_fields():
    rng = random.Random(53)
    for field in (QQ, GF(2), GF(3)):
        for d in (3, 4, 5):
            for _ in range(8):
                f = rand_lie(rng, d, 5, field=field)
                dec = decompose_lie(f)
                assert dec.count <= lie_bound(d, field)
                result = verify_lie(dec)
                assert result.ok, (field, d, result.problems)


def test_emitted_quadratic_certificates_have_independent_forms():
    # whenever a summand certificate is [triangular, linear], the linear
    # basis change must be invertible, which encodes the independence of
    # y1, y2, y3 demanded by the certificate construction
    rng = random.Random(54)
    seen = 0
    for _ in range(30):
        f = rand_lie(rng, 3, 4)
        dec = decompose_lie(f)
        for _, cert in dec.summands:
            kinds = [type(a).__name__ for a in cert.chain]
            if kinds[:2] == ["TriangularAuto", "AffineAuto"]:
                assert not cert.chain[1].validate()
                seen += 1
    assert seen > 0


def test_verify_rejects_inner_with_linear_part():
    f = word((2, 1))
    dec = decompose_lie(f)
    broken = InnerLieAuto(gen(1))
    dec.summands[0][1].chain.insert(0, broken)
    result = verify_lie(dec)
    assert not result.ok
    assert any("invalid elementary factor" in p for p in result.problems)


def test_verify_rejects_excess_count():
    f = word((2, 1))
    dec = decompose_lie(f)
    zero = LieElement.zero(3, QQ)
    extra = (zero + gen(1), Certificate([AffineAuto(_identity_matrix(3))], 1))
    dec.summands.extend([extra] * (dec.bound + 1 - dec.count))
    result = verify_lie(dec)
    assert not result.ok
    assert any("sum mismatch" in p or "exceeds bound" in p for p in result.problems)


def _identity_matrix(d):
    from primlen.linalg import DenseMatrix

    return DenseMatrix.identity(d, QQ)


def test_certificate_replay_matches_summands():
    rng = random.Random(55)
    for field in (QQ, GF(3)):
        f = rand_lie(rng, 4, 4, field=field)
        dec = decompose_lie(f)
        for summand, cert in dec.summands:
            assert certify_apply(cert, f) == summand


def test_a_replay_beyond_the_degree_cap_raises():
    f = word((2, 1, 3)) + word((3, 1)).scale(QQ(-3, 2)) + gen(1) + gen(3).scale(QQ(-2))
    dec = decompose_lie(f)
    assert any(isinstance(a, InnerLieAuto) for _, cert in dec.summands for a in cert.chain)
    for summand, cert in dec.summands:
        assert certify_apply(cert, f) == summand
    assert apply_auto(dec.summands[-1][1].chain[0], f) is not None
    x1 = Polynomial.variable(3, QQ, 1)
    assert apply_auto(AffineAuto(_identity_matrix(3)), x1) == x1  # polynomials have no cap
    inner = InnerLieAuto(word((2,) + (1,) * 11))
    with pytest.raises(DegreeCapError, match=r"^bracket would reach degree 13 beyond the cap 12$"):
        certify_apply(Certificate([inner], 1), f)
