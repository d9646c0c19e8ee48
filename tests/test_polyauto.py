import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primlen.field import GF, QQ, FieldDescriptor, FieldScalar, field_from_flag
from primlen.liedecomp import InnerLieAuto, decompose_lie
from primlen.linalg import DenseMatrix, bareiss_determinant
from primlen.metalie import LieElement, bracket, normalize_word
from primlen.multipoly import Polynomial
from primlen.parsing import parse_lie, parse_poly
from primlen.polydecomp import decompose
from primlen.polyauto import (
    AffineAuto,
    Certificate,
    TriangularAuto,
    apply_auto,
    certify_apply,
    invert_auto,
    validate_certificate,
)

from conftest import KERNEL_FIELDS, rand_lie, rand_nonzero_scalar, rand_poly, rand_scalar
from test_golden import LONG_CHAINS, POLY_CORPUS

d = 2
x1 = Polynomial.variable(d, QQ, 1)
x2 = Polynomial.variable(d, QQ, 2)
zero_tail = Polynomial.zero(d, QQ)


def shear():
    # x1 -> x1 + x2, x2 -> x2
    return AffineAuto(DenseMatrix.from_rows(QQ, [[1, 1], [0, 1]]), [QQ(0), QQ(0)])


def tri_example():
    # x1 -> 2 x1 + x2^2
    return TriangularAuto([QQ(2), QQ(1)], [x2**2, zero_tail])


def images_equal(a, b):
    return a.arity == b.arity and all(apply_auto(a, x) == apply_auto(b, x) for x in (x1, x2))


def test_apply_affine():
    assert apply_auto(shear(), x1 * x2) == x1 * x2 + x2**2


def test_apply_triangular():
    assert apply_auto(tri_example(), x1) == x1.scale(QQ(2)) + x2**2


def test_apply_is_ring_homomorphism():
    rng = random.Random(21)
    a = tri_example()
    for _ in range(100):
        f = rand_poly(rng, d, rng.randint(0, 3), extra_terms=3)
        g = rand_poly(rng, d, rng.randint(0, 3), extra_terms=3)
        assert apply_auto(a, f * g) == apply_auto(a, f) * apply_auto(a, g)
        assert apply_auto(a, f + g) == apply_auto(a, f) + apply_auto(a, g)


def test_invert_affine():
    inv = invert_auto(shear())
    assert apply_auto(inv, x1) == x1 - x2


def test_invert_affine_with_offset():
    auto = AffineAuto(DenseMatrix.from_rows(QQ, [[1, 0], [1, 1]]), [QQ(0), QQ(5)])
    inv = invert_auto(auto)
    for f in (x1, x2):
        assert apply_auto(inv, apply_auto(auto, f)) == f
        assert apply_auto(auto, apply_auto(inv, f)) == f


def test_invert_triangular():
    inv = invert_auto(tri_example())
    assert apply_auto(inv, x1) == x1.scale(QQ(1, 2)) - (x2**2).scale(QQ(1, 2))
    assert apply_auto(inv, apply_auto(tri_example(), x1)) == x1


def test_invert_random_triangular_round_trip():
    rng = random.Random(22)
    for _ in range(60):
        gammas, tails = [], []
        for j in range(3):
            g = QQ(0)
            while g.is_zero():
                g = QQ(rng.randint(-4, 4))
            gammas.append(g)
            terms = {}
            for _ in range(3):
                mono = [0, 0, 0]
                for i in range(j + 1, 3):
                    mono[i] = rng.randint(0, 3)
                terms[tuple(mono)] = QQ(rng.randint(-3, 3))
            tails.append(Polynomial(3, QQ, terms))
        auto = TriangularAuto(gammas, tails)
        inv = invert_auto(auto)
        for i in range(1, 4):
            xi = Polynomial.variable(3, QQ, i)
            assert apply_auto(inv, apply_auto(auto, xi)) == xi


def test_invert_is_involution():
    auto = shear()
    assert images_equal(invert_auto(invert_auto(auto)), auto)
    tri = tri_example()
    assert images_equal(invert_auto(invert_auto(tri)), tri)


def test_certify_apply_triangular_then_affine():
    # theta: x1 -> x1 + x2^2, phi: x2 -> x1 + 2 x2; the composition applied
    # to x1 must give x1 + (x1 + 2 x2)^2
    theta = TriangularAuto([QQ(1), QQ(1)], [x2**2, zero_tail])
    phi = AffineAuto(DenseMatrix.from_rows(QQ, [[1, 0], [1, 2]]), [QQ(0), QQ(0)])
    result = certify_apply(Certificate([theta, phi], 1), x1)
    assert result == x1 + (x1 + x2.scale(QQ(2))) ** 2


def test_certify_empty_chain():
    assert certify_apply(Certificate([], 1), x1) == x1


def test_certify_inverse_round_trip():
    auto = tri_example()
    cert = Certificate([auto, invert_auto(auto)], 2)
    assert certify_apply(cert, x1) == x2


def test_composition_order_convention():
    theta = tri_example()
    phi = shear()
    chained = certify_apply(Certificate([theta, phi], 1), x1)
    assert chained == apply_auto(phi, apply_auto(theta, x1))


def generator(like, index):
    """x_index in the algebra of like."""
    make = Polynomial.variable if isinstance(like, Polynomial) else LieElement.generator
    return make(like.arity, like.field, index)


def certify_apply_plain(cert, like):
    """Reference replay: one apply_auto per factor, no composition of affine runs."""
    f = generator(like, cert.generator_index)
    for auto in cert.chain:
        f = apply_auto(auto, f)
    return f


def rand_linear(rng, d, field):
    """A random invertible linear map (an affine map with zero offset)."""
    while True:
        rows = [[rand_scalar(rng, field, 3) for _ in range(d)] for _ in range(d)]
        matrix = DenseMatrix.from_rows(field, rows)
        if not bareiss_determinant(matrix)[0].is_zero():
            return AffineAuto(matrix)


def rand_ordering(rng, d):
    """A random permutation of 1..d other than the identity."""
    while True:
        ordering = rng.sample(range(1, d + 1), d)
        if ordering != sorted(ordering):
            return ordering


def rand_poly_triangular(rng, d, ordering):
    """A triangular polynomial map in ``ordering`` with tails of two terms."""
    tails = []
    for j in range(d):
        terms = {}
        for _ in range(2):
            mono = [0] * d
            for gen in ordering[j + 1 :]:
                mono[gen - 1] = rng.randint(0, 2)
            terms[tuple(mono)] = rand_scalar(rng, QQ, 3)
        tails.append(Polynomial(d, QQ, terms))
    return TriangularAuto([rand_nonzero_scalar(rng, QQ, 4) for _ in range(d)], tails, ordering)


def rand_lie_triangular(rng, d, field, ordering):
    """A triangular Lie map in ``ordering`` with tails of words of length <= 2."""
    tails = []
    for j in range(d):
        tail = LieElement.zero(d, field)
        for _ in range(2 if ordering[j + 1 :] else 0):
            word = [rng.choice(ordering[j + 1 :]) for _ in range(rng.randint(1, 2))]
            tail = tail + normalize_word(word, d, field).scale(rand_scalar(rng, field, 3))
        tails.append(tail)
    return TriangularAuto([rand_nonzero_scalar(rng, field, 3) for _ in range(d)], tails, ordering)


def rand_inner(rng, d, field):
    """exp(ad v) for a random v of degree 2 in the commutator ideal."""
    v = rand_lie(rng, d, 2, field=field, terms=3)
    return InnerLieAuto(v - v.homogeneous_component(1))


def test_optimized_replay_matches_plain():
    rng = random.Random(23)
    for _ in range(40):
        chain = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                chain.append(shear())
            else:
                chain.append(tri_example())
        cert = Certificate(chain, rng.randint(1, 2))
        assert certify_apply(cert, x1) == certify_apply_plain(cert, x1)
    # Lie chains: runs of linear factors, triangular factors in a
    # non-identity ordering and inner factors, over Q, F2 and F101.
    seen = {"linear run": 0, "ordering": 0, "inner": 0}
    for field in (QQ, GF(2), GF(101)):
        for _ in range(20):
            d = rng.randint(3, 4)
            chain = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["linear", "linear", "triangular", "inner"])
                if kind == "linear":
                    chain.append(rand_linear(rng, d, field))
                elif kind == "triangular":
                    chain.append(rand_lie_triangular(rng, d, field, rand_ordering(rng, d)))
                    seen["ordering"] += 1
                else:
                    chain.append(rand_inner(rng, d, field))
                    seen["inner"] += 1
            seen["linear run"] += any(
                isinstance(a, AffineAuto) and isinstance(b, AffineAuto) for a, b in zip(chain, chain[1:])
            )
            like = LieElement.zero(d, field)
            cert = Certificate(chain, rng.randint(1, d))
            assert certify_apply(cert, like) == certify_apply_plain(cert, like)
    assert all(seen.values()), seen


def test_invert_triangular_in_a_non_identity_ordering():
    rng = random.Random(24)
    d = 4
    for _ in range(10):
        ordering = rand_ordering(rng, d)
        for auto in (
            rand_poly_triangular(rng, d, ordering),
            rand_lie_triangular(rng, d, rng.choice([QQ, GF(3)]), ordering),
        ):
            inv = invert_auto(auto)
            assert inv.ordering == auto.ordering and not inv.validate()
            for i in range(1, d + 1):
                xi = generator(auto.tails[0], i)
                assert apply_auto(inv, apply_auto(auto, xi)) == xi
                assert apply_auto(auto, apply_auto(inv, xi)) == xi


def test_validate_certificate_reports():
    bad = TriangularAuto([QQ(0), QQ(1)], [zero_tail, zero_tail])
    problems = validate_certificate(Certificate([bad], 1), d)
    assert problems and "gamma" in problems[0]
    assert validate_certificate(Certificate([], 9), d)


# -- the int replay against a factor-by-factor scalar reference ---------------


def scalar_images(auto, like):
    """The generator images of one factor, built with scalar arithmetic alone."""
    d, field = like.arity, like.field
    gens = [generator(like, i) for i in range(1, d + 1)]
    if isinstance(auto, AffineAuto):
        images = []
        for j, b in enumerate(auto.offset):
            image = Polynomial.constant(d, field, b) if isinstance(like, Polynomial) else like.zero(d, field)
            for i, x in enumerate(gens):
                image = image + x.scale(auto.matrix.get(j, i))
            images.append(image)
        return images
    if isinstance(auto, TriangularAuto):
        images = list(gens)
        for gen, gamma, tail in zip(auto.ordering, auto.gammas, auto.tails):
            images[gen - 1] = gens[gen - 1].scale(gamma) + tail
        return images
    return [x + bracket(x, auto.element) for x in gens]


def reference_replay(cert, like):
    """Each factor in turn, by substitution of its scalar images; nothing is composed."""
    f = generator(like, cert.generator_index)
    for auto in cert.chain:
        f = f.substitute(scalar_images(auto, like))
    return f


@st.composite
def replay_scalars(draw, field, nonzero=False):
    """Small scalars; over Q with denominators from a short list, so one factor mixes them."""
    if field.is_rationals:
        num = draw(st.integers(1, 20) if nonzero else st.integers(-20, 20))
        return field(draw(st.sampled_from([1, -1])) * num, draw(st.sampled_from([1, 1, 2, 3, 4, 6, 9])))
    return field(draw(st.integers(1 if nonzero else 0, field.p - 1)))


@st.composite
def replay_tail(draw, lie, d, field, allowed):
    """A tail in the generators ``allowed``: a polynomial with a constant, or Lie words."""
    if lie:
        tail = LieElement.zero(d, field)
        for _ in range(draw(st.integers(0, 2)) if allowed else 0):
            word = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=3))
            tail = tail + normalize_word(word, d, field).scale(draw(replay_scalars(field)))
        return tail
    terms = {(0,) * d: draw(replay_scalars(field))}
    for _ in range(draw(st.integers(0, 2)) if allowed else 0):
        mono = [0] * d
        for gen in allowed:
            mono[gen - 1] = draw(st.integers(0, 2))
        terms[tuple(mono)] = draw(replay_scalars(field))
    return Polynomial(d, field, terms)


@st.composite
def replay_chains(draw):
    """(certificate, like): runs of 1-3 affine factors, triangular factors in random
    orderings and, for Lie elements, inner factors.  An affine factor's last rows may
    have one entry each, as the unit rows of a basis change do, and a matrix may be
    singular: the replay must equal the reference for any affine map."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    lie = draw(st.booleans())
    d = draw(st.integers(3, 4) if lie else st.integers(1, 3))
    like = LieElement.zero(d, field) if lie else Polynomial.zero(d, field)
    chain = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["affine", "triangular", "inner"] if lie else ["affine", "triangular"]))
        if kind == "affine":
            for _ in range(draw(st.integers(1, 3))):
                rows = [[draw(replay_scalars(field)) for _ in range(d)] for _ in range(d)]
                for j in range(draw(st.integers(0, d)), d):  # mostly unit rows, as in a basis change
                    rows[j] = [field.zero()] * d
                    rows[j][draw(st.integers(0, d - 1))] = draw(replay_scalars(field))
                offset = None if lie else [draw(replay_scalars(field)) for _ in range(d)]
                chain.append(AffineAuto(DenseMatrix.from_rows(field, rows), offset))
        elif kind == "triangular":
            ordering = draw(st.permutations(range(1, d + 1)))
            gammas = [draw(replay_scalars(field, nonzero=True)) for _ in range(d)]
            tails = [draw(replay_tail(lie, d, field, ordering[j + 1 :])) for j in range(d)]
            chain.append(TriangularAuto(gammas, tails, ordering))
        else:
            v = LieElement.zero(d, field)
            for _ in range(draw(st.integers(0, 3))):
                word = draw(st.lists(st.integers(1, d), min_size=2, max_size=3))
                v = v + normalize_word(word, d, field).scale(draw(replay_scalars(field)))
            chain.append(InnerLieAuto(v))
    return Certificate(chain, draw(st.integers(1, d))), like


@settings(max_examples=300, deadline=None)
@given(replay_chains())
def test_certify_apply_equals_the_factor_by_factor_reference(case):
    cert, like = case
    assert certify_apply(cert, like) == reference_replay(cert, like)


# -- no scalar is built for an intermediate element -----------------------------


def count_scalars(monkeypatch):
    """A list that grows by one for every FieldScalar constructed from now on."""
    built = []
    init = FieldScalar.__init__

    def counting(self, field, value):
        built.append(value)
        init(self, field, value)

    monkeypatch.setattr(FieldScalar, "__init__", counting)
    return built


@pytest.mark.parametrize("name", ["d5-n3-linear-part", "Q-d3", "F101-d5"])
def test_certify_apply_builds_scalars_only_for_its_result(monkeypatch, name):
    """d5-n3-linear-part puts a basis change with a fractional row after each
    triangular factor; the Lie inputs (``LONG_CHAINS``) carry scaling and
    inner factors, then rho^-1."""
    if name in POLY_CORPUS:
        arity, expr, _ = POLY_CORPUS[name]
        f = parse_poly(expr, arity, QQ)
        dec = decompose(f)
    else:
        arity, flag, expr = LONG_CHAINS[name]
        f = parse_lie(expr, arity, field_from_flag(flag))
        dec = decompose_lie(f)
    assert any(len(cert.chain) > 1 for _, cert in dec.summands)
    built = count_scalars(monkeypatch)
    for summand, cert in dec.summands:
        built.clear()
        result = certify_apply(cert, f)
        assert result == summand
        assert len(built) <= len(result.terms)


def plant_single_entry_rows(rng, field, rows):
    """Give some rows exactly one nonzero entry, scaled and at any column.

    Sometimes two of them share a column, and sometimes two other rows are
    made equal off the planted columns: a singular block that is left over
    once the planted rows and their columns are struck.
    """
    n = len(rows)
    planted = rng.sample(range(n), rng.choice([1, n // 2, n - 1, n]))
    columns = rng.sample(range(n), len(planted))
    if len(planted) > 1 and rng.random() < 0.3:  # two on one column
        columns[-1] = columns[0]
    rest = [r for r in range(n) if r not in planted]
    if len(rest) > 1 and rng.random() < 0.4:
        u, w = rng.sample(rest, 2)
        scale = rand_nonzero_scalar(rng, field, 3)
        rows[w] = [rand_scalar(rng, field, 3) if j in columns else scale * c for j, c in enumerate(rows[u])]
    for r, c in zip(planted, columns):
        rows[r] = [field.zero()] * n
        rows[r][c] = rand_nonzero_scalar(rng, field, 3)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_the_invertibility_check_agrees_with_the_determinant(field):
    rng = random.Random(77)
    outcomes = set()
    for case in range(380):
        n = rng.randint(1, 5 if case < 80 else 8)
        rows = [[rand_scalar(rng, field, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:  # a row that depends on two others
            a, b = rand_scalar(rng, field, 3), rand_scalar(rng, field, 3)
            rows[rng.randrange(n)] = [a * u + b * v for u, v in zip(rows[0], rows[-1])]
        if case >= 80:
            plant_single_entry_rows(rng, field, rows)
        matrix = DenseMatrix.from_rows(field, rows)
        singular = bareiss_determinant(matrix)[0].is_zero()
        outcomes.add((case >= 80, singular))
        offset = [rand_scalar(rng, field, 3) for _ in range(n)]
        assert AffineAuto(matrix, offset).validate() == (["matrix is singular"] if singular else [])
        assert AffineAuto(matrix, offset[1:]).validate()[0] == "offset has wrong length"
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_an_affine_factor_is_read_to_ints_once(monkeypatch):
    # the invertibility check and every replay run on one read of the matrix and the offset
    matrix = DenseMatrix.from_rows(QQ, [[QQ(1, 2), 1, 0], [0, QQ(2, 3), 1], [1, 0, 5]])
    offset = [QQ(1, 7), QQ(0), QQ(3)]
    zero = Polynomial.zero(3, QQ)
    theta = TriangularAuto([QQ(2), QQ(1), QQ(-1)], [Polynomial(3, QQ, {(0, 1, 2): QQ(1)}), zero, zero])
    like = Polynomial.variable(3, QQ, 1)
    expected = certify_apply_plain(Certificate([AffineAuto(matrix, offset), theta, AffineAuto(matrix, offset)], 2), like)
    auto = AffineAuto(matrix, offset)
    cert = Certificate([auto, theta, auto], 2)
    reads = []
    to_raw = FieldDescriptor.to_raw

    def counting(field, scalars):
        reads.append(len(scalars))
        return to_raw(field, scalars)

    monkeypatch.setattr(FieldDescriptor, "to_raw", counting)
    assert validate_certificate(cert, 3) == []
    assert certify_apply(cert, like) == expected
    assert certify_apply(cert, like) == expected
    assert reads.count(12) == 1  # the 9 entries and the 3 offsets
    assert AffineAuto(matrix, [QQ(0), QQ(0)]).validate() == ["offset has wrong length"]
    assert AffineAuto(DenseMatrix.from_rows(QQ, [[1, 2]])).validate() == ["matrix is not square"]
