import random

import pytest

from primlen.errors import ArityMismatchError, DegreeCapError, FieldMismatchError
from primlen.field import GF, QQ
from primlen.metalie import (
    DEGREE_CAP,
    LieElement,
    apply_endo,
    bracket,
    inner_auto,
    is_normal_word,
    normalize_word,
    split_parts,
)

from conftest import rand_lie


def gen(i, d=3, F=QQ):
    return LieElement.generator(d, F, i)


def word(indices, d=3, F=QQ):
    return normalize_word(indices, d, F)


def test_antisymmetry_pair():
    assert word((1, 2)) == -word((2, 1))
    assert word((1, 2)).terms == {(2, 1): QQ(-1)}


def test_already_normal():
    assert word((2, 1, 3)).terms == {(2, 1, 3): QQ(1)}


def test_jacobi_rewrite():
    assert word((3, 2, 1)).terms == {(3, 1, 2): QQ(1), (2, 1, 3): QQ(-1)}


def test_jacobi_rewrite_oracle():
    # [[a,b],c] = [[a,c],b] + [a,[b,c]] checked on every generator triple
    d = 4
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            for c in range(1, d + 1):
                xa, xb, xc = gen(a, d), gen(b, d), gen(c, d)
                lhs = bracket(bracket(xa, xb), xc)
                rhs = bracket(bracket(xa, xc), xb) + bracket(xa, bracket(xb, xc))
                assert lhs == rhs


def test_metabelian_law():
    assert bracket(word((2, 1)), word((3, 1))).is_zero()


def test_alternation():
    rng = random.Random(41)
    for _ in range(50):
        u = rand_lie(rng, 3, 4)
        assert bracket(u, u).is_zero()


def test_left_normed_convention():
    assert bracket(gen(3), bracket(gen(2), gen(1))).terms == {(2, 1, 3): QQ(-1)}


def test_normal_word_predicate():
    assert is_normal_word((5,))
    assert is_normal_word((3, 1, 2, 2))
    assert not is_normal_word((1, 2))
    assert not is_normal_word((3, 2, 1))


def test_normalize_idempotent_on_normal_words():
    rng = random.Random(42)
    for _ in range(100):
        d = rng.randint(2, 4)
        length = rng.randint(2, 5)
        i2 = rng.randint(1, d - 1)
        i1 = rng.randint(i2 + 1, d)
        tail = sorted(rng.randint(i2, d) for _ in range(length - 2))
        w = (i1, i2) + tuple(tail)
        assert is_normal_word(w)
        assert normalize_word(w, d, QQ).terms == {w: QQ(1)}


def test_bilinearity_antisymmetry_jacobi_randomized():
    rng = random.Random(43)
    for _ in range(150):
        d = rng.randint(3, 4)
        a, b, c = (rand_lie(rng, d, 4, terms=4) for _ in range(3))
        assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
        assert bracket(a, b) == -bracket(b, a)
        jac = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)
        assert jac.is_zero()
        com = bracket(bracket(a, b), bracket(c, a))
        assert com.is_zero()


def test_grading():
    rng = random.Random(44)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        u = rand_lie(rng, 3, 4).homogeneous_component(m)
        v = rand_lie(rng, 3, 4).homogeneous_component(n)
        w = bracket(u, v)
        assert w.is_zero() or (w.degree() == m + n and w.homogeneous_component(m + n) == w)


def test_apply_endo_identity():
    rng = random.Random(45)
    e = [gen(1), gen(2), gen(3)]
    for _ in range(20):
        u = rand_lie(rng, 3, 4)
        assert apply_endo(e, u) == u


def test_apply_endo_bracket_of_images():
    # x1 -> x1 + x2 applied to [x2, x1]
    images = [gen(1) + gen(2), gen(2), gen(3)]
    expected = bracket(images[1], images[0])
    assert apply_endo(images, word((2, 1))) == expected


def test_apply_endo_is_homomorphism():
    rng = random.Random(46)
    for _ in range(60):
        d = 3
        e = [rand_lie(rng, d, 2, terms=3) for _ in range(d)]
        u = rand_lie(rng, d, 3, terms=3)
        v = rand_lie(rng, d, 3, terms=3)
        assert apply_endo(e, bracket(u, v)) == bracket(apply_endo(e, u), apply_endo(e, v))


def test_inner_auto_images():
    v = word((2, 1))
    e = inner_auto(v)
    assert e[0] == gen(1) - word((2, 1, 1))


def test_inner_auto_of_zero_is_identity():
    e = inner_auto(LieElement.zero(3, QQ))
    for i in range(3):
        assert e[i] == gen(i + 1)


def test_inner_auto_round_trip():
    rng = random.Random(47)
    for _ in range(40):
        v = rand_lie(rng, 3, 4, terms=4)
        v = v - v.homogeneous_component(1)
        forward = inner_auto(v)
        backward = inner_auto(-v)
        for i in range(3):
            assert apply_endo(backward, forward[i]) == gen(i + 1)


def test_inner_auto_rejects_linear_part():
    with pytest.raises(ValueError):
        inner_auto(gen(1))


def test_split_parts():
    u = gen(1) + word((2, 1)) + word((3, 2))
    linear, with_x1, without = split_parts(u)
    assert linear == gen(1)
    assert with_x1 == word((2, 1))
    assert without == word((3, 2))
    assert linear + with_x1 + without == u


def test_split_parts_linear_only():
    u = gen(1) + gen(3).scale(QQ(2))
    linear, with_x1, without = split_parts(u)
    assert linear == u and with_x1.is_zero() and without.is_zero()


def test_split_parts_random_resum():
    rng = random.Random(48)
    for _ in range(50):
        u = rand_lie(rng, 4, 5)
        a, b, c = split_parts(u)
        assert a + b + c == u
        assert 1 not in c.mentioned()


def test_degree_cap():
    assert DEGREE_CAP == 12
    assert bracket(word((2,) + (1,) * 10), gen(3)).degree() == 12
    with pytest.raises(DegreeCapError, match=r"^bracket would reach degree 13 beyond the cap 12$"):
        bracket(word((2,) + (1,) * 11), gen(3))


def test_index_out_of_range():
    with pytest.raises(ArityMismatchError):
        normalize_word((1, 5), 3, QQ)


def test_gf2_arithmetic():
    F = GF(2)
    u = normalize_word((2, 1), 3, F)
    assert (u + u).is_zero()
    assert u == -u


# -- the int rewrite loop against FieldScalar references -----------------------


def reference_ad(word, j):
    """[word, x_j] for a normal word of length >= 2, as (word, sign) pairs."""
    i1, i2, tail = word[0], word[1], word[2:]
    if j >= i2:
        return [((i1, i2) + tuple(sorted(tail + (j,))), 1)]
    # Jacobi: [[i1, i2, tail], j] = [[i1, j, tail], i2] - [[i2, j, tail], i1]
    return [((i1, j) + tuple(sorted(tail + (i2,))), 1), ((i2, j) + tuple(sorted(tail + (i1,))), -1)]


def reference_bracket(u, v, cap):
    """[u, v] computed on FieldScalar coefficients, pruning zeros after every term."""
    terms = {}

    def put(word, coeff):
        s = terms.get(word, u.field.zero()) + coeff
        if s.is_zero():
            terms.pop(word, None)
        else:
            terms[word] = s

    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            if len(wu) >= 2 and len(wv) >= 2:
                continue
            if len(wu) + len(wv) > cap:
                raise DegreeCapError(f"bracket would reach degree {len(wu) + len(wv)} beyond the cap {cap}")
            if len(wu) == 1 and len(wv) == 1:
                a, b = wu[0], wv[0]
                if a != b:
                    put((max(a, b), min(a, b)), cu * cv if a > b else -(cu * cv))
            elif len(wv) == 1:
                for word, sign in reference_ad(wu, wv[0]):
                    put(word, cu * cv * u.field(sign))
            else:
                for word, sign in reference_ad(wv, wu[0]):
                    put(word, -(cu * cv) * u.field(sign))
    return LieElement(u.arity, u.field, terms)


def reference_normalize_word(indices, d, field, cap):
    result = gen(indices[0], d, field)
    for idx in indices[1:]:
        result = reference_bracket(result, gen(idx, d, field), cap)
    return result


def reference_apply_endo(images, u, cap):
    result = LieElement.zero(u.arity, u.field)
    for w, coeff in u.terms.items():
        piece = images[w[0] - 1]
        for idx in w[1:]:
            piece = reference_bracket(piece, images[idx - 1], cap)
        result = result + piece.scale(coeff)
    return result


def assert_same_element(got, expected):
    assert got == expected
    for w, c in got.terms.items():
        assert type(c.value) is type(expected.terms[w].value)


LIE_FIELDS = [QQ, GF(2), GF(101)]


@pytest.mark.parametrize("F", LIE_FIELDS, ids=repr)
def test_bracket_matches_the_scalar_reference(F):
    rng = random.Random(50)
    for _ in range(60):
        d = rng.randint(3, 5)
        u, v = rand_lie(rng, d, 5, F, terms=6), rand_lie(rng, d, 5, F, terms=6)
        assert_same_element(bracket(u, v), reference_bracket(u, v, 12))


@pytest.mark.parametrize("F", LIE_FIELDS, ids=repr)
def test_normalize_word_matches_the_scalar_reference(F):
    rng = random.Random(51)
    for _ in range(200):
        d = rng.randint(3, 5)
        indices = [rng.randint(1, d) for _ in range(rng.randint(1, 8))]
        assert_same_element(normalize_word(indices, d, F), reference_normalize_word(indices, d, F, 12))


@pytest.mark.parametrize("F", LIE_FIELDS, ids=repr)
def test_apply_endo_matches_the_scalar_reference(F):
    rng = random.Random(52)
    for _ in range(40):
        d = rng.randint(3, 5)
        # images with linear parts and commutator words; over Q with fractional coefficients
        endo = [rand_lie(rng, d, 3, F, terms=4, coeff_bound=7) for _ in range(d)]
        u = rand_lie(rng, d, 4, F, terms=5)
        assert_same_element(apply_endo(endo, u), reference_apply_endo(endo, u, 12))


@pytest.mark.parametrize("F", LIE_FIELDS, ids=repr)
def test_normal_words_normalize_to_themselves_with_coefficient_one(F):
    for w in [(2,), (2, 1), (3, 1, 1, 2, 3), (5, 2, 2, 4)]:
        assert normalize_word(w, 5, F).terms == {w: F.one()}


def test_reaching_the_cap_raises_the_same_message():
    u = word((2,) + (1,) * 10 + (3,))  # a normal word of length 12
    message = "bracket would reach degree 13 beyond the cap 12"
    with pytest.raises(DegreeCapError, match=f"^{message}$"):
        bracket(u, gen(3))
    with pytest.raises(DegreeCapError, match=f"^{message}$"):
        reference_bracket(u, gen(3), 12)
    # x2 -> x2 + [x2,x1] lengthens the image of u by one
    endo = [gen(1), gen(2) + word((2, 1)), gen(3)]
    for apply in (lambda: apply_endo(endo, u), lambda: reference_apply_endo(endo, u, 12)):
        with pytest.raises(DegreeCapError, match=f"^{message}$"):
            apply()
    with pytest.raises(DegreeCapError, match=r"^word length 13 beyond the cap 12$"):
        normalize_word((2,) + (1,) * 10 + (3, 3), 3, QQ)


def test_a_coefficient_cancelling_mod_p_does_not_reach_the_cap():
    # a = [x2,x1] + x3 and b = x3 - [x2,x1]: [a, b] = 2 [x2,x1,x3], which is zero over F2;
    # bracketing it with b and then nine times with x3 reaches length 13 everywhere else
    u = (2, 1, 1) + (3,) * 9
    for F in (QQ, GF(3)):
        a = word((2, 1), F=F) + gen(3, F=F)
        b = gen(3, F=F) - word((2, 1), F=F)
        endo = [b, a, gen(3, F=F)]
        with pytest.raises(DegreeCapError, match="degree 13 beyond the cap 12"):
            apply_endo(endo, LieElement(3, F, {u: F.one()}))
    F = GF(2)
    a = word((2, 1), F=F) + gen(3, F=F)
    b = gen(3, F=F) - word((2, 1), F=F)
    endo = [b, a, gen(3, F=F)]
    element = LieElement(3, F, {u: F.one()})
    assert apply_endo(endo, element).is_zero()
    assert reference_apply_endo(endo, element, 12).is_zero()
    # over F3, a = x3 - [x2,x1] and b = -a have residues (1, 2) and (2, 1), so
    # the integers sum to 2 * 2 - 1 = 3 on [x2,x1,x3]: only the reduction mod 3 prunes it
    F = GF(3)
    a = gen(3, F=F) - word((2, 1), F=F)
    endo = [-a, a, gen(3, F=F)]
    element = LieElement(3, F, {u: F.one()})
    assert apply_endo(endo, element).is_zero()
    assert reference_apply_endo(endo, element, 12).is_zero()


def test_index_out_of_range_message():
    with pytest.raises(ArityMismatchError, match=r"^generator x5 out of range for arity 3$"):
        normalize_word((1, 5), 3, QQ)
    with pytest.raises(ArityMismatchError, match=r"^generator x0 out of range for arity 3$"):
        normalize_word((0, 1), 3, QQ)


def test_apply_endo_rejects_another_field():
    with pytest.raises(FieldMismatchError):
        apply_endo([gen(i, F=GF(2)) for i in (1, 2, 3)], gen(1))


@pytest.mark.parametrize(
    "images",
    [[gen(1), gen(2)], [gen(1, d=4), gen(2, d=4), gen(3, d=4)], [gen(1), gen(2), gen(3, d=4)]],
    ids=["too-few", "wrong-arity", "mixed-arity"],
)
def test_apply_endo_rejects_images_of_another_arity(images):
    with pytest.raises(ArityMismatchError):
        apply_endo(images, word((2, 1)))
