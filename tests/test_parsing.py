import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primlen import parsing
from primlen.document import dumps, lie_document, loads, poly_document, verify_document
from primlen.errors import ArityMismatchError, DegreeCapError, ParseError, PrimlenError
from primlen.field import GF, QQ, field_from_flag
from primlen.liedecomp import decompose_lie
from primlen.metalie import LieElement, normalize_word
from primlen.sparse import SparseElement
from primlen.multipoly import Polynomial, monomials_of_degree
from primlen.parsing import lie_to_str, parse_lie, parse_poly, poly_to_str
from primlen.polydecomp import decompose

from conftest import rand_lie, rand_poly, rand_wide_scalar
from test_golden import LIE_CORPUS, POLY_CORPUS


def test_parse_poly_example():
    f = parse_poly("x1^2 - 1/2*x2", 2, QQ)
    assert f == Polynomial(2, QQ, {(2, 0): QQ(1), (0, 1): QQ(-1, 2)})


def test_parse_lie_example():
    u = parse_lie("[x2,x1,x3] + 2*x1", 3, QQ)
    expected = normalize_word((2, 1, 3), 3, QQ) + LieElement.generator(3, QQ, 1).scale(QQ(2))
    assert u == expected


def test_parse_lie_normalizes():
    u = parse_lie("[x1,x2]", 3, QQ)
    assert u == -normalize_word((2, 1), 3, QQ)
    assert lie_to_str(u) == "-[x2,x1]"


def test_poly_precedence():
    f = parse_poly("-x1^2", 2, QQ)
    assert f == -(Polynomial.variable(2, QQ, 1) ** 2)
    f = parse_poly("2*x1+3*x2^2*x1", 2, QQ)
    assert f == Polynomial(2, QQ, {(1, 0): 2, (1, 2): 3})
    f = parse_poly("(x1+x2)^2", 2, QQ)
    assert f == parse_poly("x1^2+2*x1*x2+x2^2", 2, QQ)


def test_poly_division_by_constant_only():
    f = parse_poly("x1/2", 2, QQ)
    assert f == Polynomial.variable(2, QQ, 1).scale(QQ(1, 2))
    with pytest.raises(ParseError):
        parse_poly("x1/x2", 2, QQ)
    with pytest.raises(ParseError):
        parse_poly("x1/0", 2, QQ)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("x1 + + x2", 2, QQ)
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("x3", 2, QQ)  # arity overflow
    with pytest.raises(ParseError):
        parse_poly("x1 $ x2", 2, QQ)
    with pytest.raises(ParseError):
        parse_lie("[x1]", 3, QQ)
    with pytest.raises(ParseError):
        parse_lie("3", 3, QQ)  # bare nonzero constant


def test_lie_zero_literal():
    assert parse_lie("0", 3, QQ).is_zero()
    assert lie_to_str(LieElement.zero(3, QQ)) == "0"


def test_poly_zero_literal():
    assert parse_poly("0", 2, QQ).is_zero()
    assert poly_to_str(Polynomial.zero(2, QQ)) == "0"


def test_poly_round_trip_randomized():
    rng = random.Random(61)
    for field in (QQ, GF(5)):
        for _ in range(100):
            f = rand_poly(rng, rng.randint(1, 3), rng.randint(0, 4), field=field)
            assert parse_poly(poly_to_str(f), f.arity, field) == f


def test_lie_round_trip_randomized():
    rng = random.Random(62)
    for field in (QQ, GF(2), GF(3)):
        for _ in range(100):
            u = rand_lie(rng, rng.randint(2, 4), rng.randint(1, 5), field=field)
            assert parse_lie(lie_to_str(u), u.arity, field) == u


def test_gf_scalars_print_as_residues():
    F = GF(3)
    u = normalize_word((2, 1), 3, F).scale(F(2))
    assert lie_to_str(u) == "2*[x2,x1]"
    f = Polynomial(2, F, {(1, 0): 2})
    assert poly_to_str(f) == "2*x1"


def test_canonical_order_is_graded_lex_descending():
    f = parse_poly("x2 + x1 + x1*x2 + x1^2 + 7", 2, QQ)
    assert poly_to_str(f) == "x1^2 + x1*x2 + x1 + x2 + 7"


# -- reader against values built by arithmetic --------------------------------

# Precedence levels of the polynomial grammar: a child below the level its
# slot needs is wrapped in parentheses.
EXPR, TERM, FACTOR, POWER, ATOM = range(5)


def _space(rng):
    return rng.choice(["", "", " ", "  ", "\t", "\n "])


def _wrap(node, level):
    text, value, own = node
    return (f"({text})", value, ATOM) if own < level else node


def _nonzero_number(rng, field):
    while True:
        n = rng.randint(1, 12)
        if not field(n).is_zero():
            return n


def _const_divisor(rng, arity, field):
    """(text, value) of a nonzero constant factor: n, -n, n^k or (n + m)."""
    n = _nonzero_number(rng, field)
    c = Polynomial.constant(arity, field, field(n))
    shape = rng.randrange(4)
    if shape == 0:
        return str(n), c
    if shape == 1:
        return f"-{n}", -c
    if shape == 2:
        k = rng.randint(0, 3)
        return f"{n}^{k}", c**k
    m = rng.randint(0, 9)
    total = c + Polynomial.constant(arity, field, field(m))
    if total.is_zero():
        return str(n), c
    return f"({n}{_space(rng)}+{_space(rng)}{m})", total


def poly_case(rng, depth, arity, field):
    """(text, value, level) of a random polynomial expression.

    The value is built by Polynomial arithmetic, never by a parser, so it is
    an independent expectation for parse_poly.
    """
    r = rng.random()
    if depth == 0 or r < 0.25:
        if rng.random() < 0.4:
            n = rng.randint(0, 20)
            return str(n), Polynomial.constant(arity, field, field(n)), ATOM
        i = rng.randint(1, arity)
        return f"x{i}", Polynomial.variable(arity, field, i), ATOM
    if r < 0.35:
        text, value, _ = _wrap(poly_case(rng, depth - 1, arity, field), ATOM)
        k = rng.randint(0, 3)
        return f"{text}^{k}", value**k, POWER
    if r < 0.45:
        text, value, _ = _wrap(poly_case(rng, depth - 1, arity, field), FACTOR)
        return f"-{_space(rng)}{text}", -value, FACTOR
    if r < 0.6:
        left, lv, _ = _wrap(poly_case(rng, depth - 1, arity, field), TERM)
        right, rv, _ = _wrap(poly_case(rng, depth - 1, arity, field), FACTOR)
        return f"{left}{_space(rng)}*{_space(rng)}{right}", lv * rv, TERM
    if r < 0.7:
        left, lv, _ = _wrap(poly_case(rng, depth - 1, arity, field), TERM)
        right, rv = _const_divisor(rng, arity, field)
        return f"{left}{_space(rng)}/{_space(rng)}{right}", lv.scale(rv.constant_term().inverse()), TERM
    if r < 0.75:
        text, value, _ = poly_case(rng, depth - 1, arity, field)
        return f"({_space(rng)}{text}{_space(rng)})", value, ATOM
    left, lv, _ = poly_case(rng, depth - 1, arity, field)
    right, rv, _ = _wrap(poly_case(rng, depth - 1, arity, field), TERM)
    if rng.random() < 0.5:
        return f"{left}{_space(rng)}+{_space(rng)}{right}", lv + rv, EXPR
    return f"{left}{_space(rng)}-{_space(rng)}{right}", lv - rv, EXPR


def lie_case(rng, depth, arity, field):
    """(text, value, level) of a random Lie expression, valued by LieElement arithmetic."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        if rng.random() < 0.5:
            i = rng.randint(1, arity)
            return f"x{i}", LieElement.generator(arity, field, i), ATOM
        word = [rng.randint(1, arity) for _ in range(rng.randint(2, 4))]
        return "[" + ",".join(f"x{i}" for i in word) + "]", normalize_word(word, arity, field), ATOM
    if r < 0.45:
        text, value, _ = _wrap(lie_case(rng, depth - 1, arity, field), TERM)
        return f"-{_space(rng)}{text}", -value, TERM
    if r < 0.65:
        text, value, _ = _wrap(lie_case(rng, depth - 1, arity, field), TERM)
        num = rng.randint(0, 12)
        if rng.random() < 0.5:
            return f"{num}{_space(rng)}*{_space(rng)}{text}", value.scale(field(num)), TERM
        den = _nonzero_number(rng, field)
        scalar = f"{num}{_space(rng)}/{_space(rng)}{den}"
        return f"{scalar}{_space(rng)}*{_space(rng)}{text}", value.scale(field(num, den)), TERM
    if r < 0.75:
        text, value, _ = lie_case(rng, depth - 1, arity, field)
        return f"({_space(rng)}{text}{_space(rng)})", value, ATOM
    left, lv, _ = lie_case(rng, depth - 1, arity, field)
    right, rv, _ = _wrap(lie_case(rng, depth - 1, arity, field), TERM)
    if rng.random() < 0.5:
        return f"{left}{_space(rng)}+{_space(rng)}{right}", lv + rv, EXPR
    return f"{left}{_space(rng)}-{_space(rng)}{right}", lv - rv, EXPR


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_parse_poly_matches_arithmetic(field):
    rng = random.Random(71)
    for _ in range(400):
        arity = rng.randint(1, 3)
        text, value, _ = poly_case(rng, rng.randint(0, 5), arity, field)
        assert parse_poly(text, arity, field) == value, text


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_parse_lie_matches_arithmetic(field):
    rng = random.Random(72)
    for _ in range(300):
        arity = rng.randint(2, 4)
        text, value, _ = lie_case(rng, rng.randint(0, 4), arity, field)
        assert parse_lie(text, arity, field) == value, text


# (reader, text, arity, field, message fragment, position) of malformed
# inputs, pinning the message and position each error reports.
MALFORMED = [
    ("poly", "x1 + + x2", 2, QQ, "unexpected '+'", 5),
    ("poly", "x1 $ x2", 2, QQ, "unexpected character '$'", 3),
    ("poly", "x0 + x1", 2, QQ, "variable x0 is outside x1..x2", 0),
    ("poly", "2*x + 1", 2, QQ, "variable name needs an index", 2),
    ("poly", "(x1 + x2", 2, QQ, "expected ')', found 'end of input'", 8),
    ("poly", "x1 + x2)", 2, QQ, "expected 'end', found ')'", 7),
    ("poly", "x1^x2", 2, QQ, "expected 'number', found 'x2'", 3),
    ("poly", "x1^2^3", 2, QQ, "expected 'end', found '^'", 4),
    ("poly", "x1/(2 - 2)", 2, QQ, "division is only defined by a nonzero constant", 2),
    ("poly", "x1/5", 2, GF(5), "division is only defined by a nonzero constant", 2),
    ("poly", "   ", 2, QQ, "unexpected 'end of input'", 3),
    ("poly", "3 x1", 2, QQ, "expected 'end', found 'x1'", 2),
    ("poly", "x1 + 2/x2 + $", 2, QQ, "unexpected character '$'", 12),
    ("poly", "()", 2, QQ, "unexpected ')'", 1),
    ("lie", "[x1,x2", 3, QQ, "expected ']', found 'end of input'", 6),
    ("lie", "[x1,2]", 3, QQ, "expected 'name', found '2'", 4),
    ("lie", "1/x2*x1", 3, QQ, "expected 'number', found 'x2'", 2),
    ("lie", "x1 * x2", 3, QQ, "expected 'end', found '*'", 3),
    ("lie", "[x2,x1] + ", 3, QQ, "unexpected 'end of input'", 10),
    ("poly", "x1 - 3/0*x2", 2, QQ, "division is only defined by a nonzero constant", 6),
    ("poly", "2/5*x1", 2, GF(5), "division is only defined by a nonzero constant", 1),
    ("lie", "x1 + 2*[x3,x4]", 3, QQ, "variable x4 is outside x1..x3", 11),
    ("lie", "[x2,x1] - 3*[x1]", 3, QQ, "a bracket needs at least two entries", 12),
    ("lie", "[x2,x1] - 3/0*[x3,x1]", 3, QQ, "division is only defined by a nonzero constant", 11),
    ("lie", "x1 + 1/2*[x2,x1] + 0", 3, GF(2), "division is only defined by a nonzero constant", 6),
    ("lie", "-[x2,x1] - x", 3, QQ, "variable name needs an index", 11),
    ("lie", "[x2,x1] + 2", 3, QQ, "expected '*', found 'end of input'", 11),
]


@pytest.mark.parametrize("reader, text, arity, field, message, position", MALFORMED)
def test_malformed_input_positions(reader, text, arity, field, message, position):
    parse = parse_poly if reader == "poly" else parse_lie
    with pytest.raises(ParseError) as info:
        parse(text, arity, field)
    assert message in str(info.value)
    assert info.value.position == position


@pytest.mark.parametrize("text, position", [("x1^²", 3), ("x١ + 1", 0), ("x1 + ٣", 5), ("1_0*x1", 1)])
def test_only_ascii_digits(text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, 2, QQ)
    assert info.value.position == position
    with pytest.raises(ParseError):
        parse_lie(text.replace("^", "*"), 3, QQ)


@pytest.mark.parametrize("field, text", [(QQ, "1/0*x1"), (GF(3), "2/3*[x2,x1]")], ids=["Q", "F3"])
def test_lie_zero_denominator_is_a_parse_error(field, text):
    with pytest.raises(ParseError) as info:
        parse_lie(text, 3, field)
    assert info.value.position == 1


def test_round_trip_of_large_coefficients():
    rng = random.Random(73)
    monos = [m for p in range(22) for m in monomials_of_degree(3, p)][:2000]
    terms = {}
    for m in monos:
        num = rng.randrange(10**999, 10**1000) * rng.choice([1, -1])
        den = rng.choice([1, rng.randrange(10**999, 10**1000)])
        terms[m] = QQ(num, den)
    f = Polynomial(3, QQ, terms)
    assert len(f.terms) == 2000
    assert parse_poly(poly_to_str(f), 3, QQ) == f


@pytest.mark.parametrize("digits", [5000, 20000])
def test_round_trip_beyond_the_digit_limit(digits):
    rng = random.Random(digits)
    big = rng.randrange(10 ** (digits - 1), 10**digits)
    f = Polynomial(2, QQ, {(2, 0): QQ(big, 3), (0, 1): QQ(-big - 1), (0, 0): QQ(7, big)})
    assert parse_poly(poly_to_str(f), 2, QQ) == f
    u = LieElement(3, QQ, {(2, 1): QQ(big, 7), (1,): QQ(-1, big)})
    assert parse_lie(lie_to_str(u), 3, QQ) == u


# -- the degree cap and the bracket words of the Lie reader ---------------------


def test_parse_lie_reads_printed_words_and_groups():
    u = parse_lie("[x2,x1,x3] + 2*[x3,x1] - ([x3,x2,x2] + x1)", 3, QQ)
    assert lie_to_str(u) == "-x1 + 2*[x3,x1] + [x2,x1,x3] - [x3,x2,x2]"
    assert lie_to_str(parse_lie("x1 - 2*x3 + (x2 + x1)", 3, QQ)) == "2*x1 + x2 - 2*x3"


def test_normalize_word_builds_no_validated_element(monkeypatch):
    words = [(2, 1), (2, 1, 3, 3), (1, 2), (3, 1, 2), (1, 2, 3, 1), (2, 2, 1)]
    expected = {w: parse_lie("[" + ",".join(f"x{i}" for i in w) + "]", 3, GF(3)) for w in words}
    built = []
    init = SparseElement.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseElement, "__init__", counting)
    for w in words:
        assert normalize_word(w, 3, GF(3)) == expected[w]
    assert built == []


def test_bracket_word_errors_are_unchanged():
    with pytest.raises(DegreeCapError, match=r"^word length 13 beyond the cap 12$"):
        parse_lie("[x2" + ",x1" * 12 + "]", 3, QQ)
    with pytest.raises(ArityMismatchError, match=r"^generator x9 out of range for arity 3$"):
        normalize_word((9, 1), 3, QQ)
    with pytest.raises(ArityMismatchError, match=r"^generator x4 out of range for arity 3$"):
        normalize_word((2, 1, 4), 3, QQ)


# -- one key table per document -------------------------------------------------


def _spell(draw, f):
    """A text whose value is f, respelled in ways the printer never writes.

    Terms come in any order, with "1*", unreduced a/b, residues >= p,
    x1*x1 for x1^2, x_i^0 factors, zero coefficients, pairs of terms that
    cancel and, sometimes, other spacing around the signs.
    """
    field, arity = f.field, f.arity
    p = field.p
    signed = []  # (negative, coefficient text or None, exponents)
    for mono, c in f.terms.items():
        num, den = (c.value.numerator, c.value.denominator) if p is None else (c.value, 1)
        k = draw(st.integers(1, 3))
        if p is None:
            text = f"{abs(num) * k}/{den * k}" if k > 1 or den != 1 else str(abs(num))
        else:
            text = str(num + (k - 1) * p)
        if text == "1" and draw(st.booleans()):
            text = None
        signed.append((num < 0, text, mono))
    for _ in range(draw(st.integers(0, 2))):
        mono = draw(st.tuples(*[st.integers(0, 2)] * arity))
        if draw(st.booleans()):
            signed.append((False, "0", mono))
        else:
            n = draw(st.integers(1, 9))
            signed += [(False, str(n), mono), (True, str(n), mono)]
    signed = draw(st.permutations(signed))
    plus, minus = draw(st.sampled_from([(" + ", " - "), (" + ", " - "), ("+", "-"), ("  +\t", " -  ")]))
    pieces = []
    for negative, text, mono in signed:
        factors = []
        for i, e in enumerate(mono, start=1):
            if e > 1 and draw(st.booleans()):
                factors += [f"x{i}"] * e
            elif e:
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
            elif draw(st.integers(0, 4)) == 0:
                factors.append(f"x{i}^0")
        body = "*".join(([] if text is None else [text]) + factors) or "1"
        if pieces:
            pieces.append((minus if negative else plus) + body)
        else:
            pieces.append(("-" if negative else "") + body)
    return "".join(pieces) or "0"


@st.composite
def spelled_polys(draw):
    """(arity, field, [(text, value)]): canonical prints of random polynomials and respellings."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    arity = draw(st.integers(1, 3))
    if field.p is None:
        coeffs = st.builds(field, st.integers(-20, 20), st.integers(1, 20))
    else:
        coeffs = st.builds(field, st.integers(0, field.p - 1))
    cases = []
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * arity), coeffs, max_size=5))
        f = Polynomial(arity, field, terms)
        cases += [(poly_to_str(f), f), (_spell(draw, f), f)]
    return arity, field, cases


@st.composite
def normal_words(draw, arity):
    """A generator (i,) or a normal word i1 > i2 <= i3 <= ... of length up to 4."""
    length = draw(st.integers(1, 4))
    if length == 1:
        return (draw(st.integers(1, arity)),)
    i2 = draw(st.integers(1, arity - 1))
    i1 = draw(st.integers(i2 + 1, arity))
    tail = draw(st.lists(st.integers(i2, arity), min_size=length - 2, max_size=length - 2))
    return (i1, i2, *sorted(tail))


def _respell_word(draw, word):
    """(sign, text) of a word equal to sign * word: first two entries swapped, the tail in any order."""
    if len(word) == 1:
        return 1, f"x{word[0]}"
    sign = 1
    head = list(word[:2])
    if draw(st.booleans()):
        head.reverse()
        sign = -1
    tail = draw(st.permutations(word[2:]))
    return sign, "[" + ",".join(f"x{i}" for i in head + list(tail)) + "]"


def _spell_lie(draw, u):
    """A text whose value is u, respelled in ways the printer never writes.

    Terms come in any order, with "1*", unreduced a/b, residues >= p, words
    that are not normal (the first two entries swapped, the sign flipped;
    the tail in any order), zero coefficients, pairs of terms on one word,
    spelled alike or not, that cancel and, sometimes, other spacing around
    the signs.
    """
    field, arity = u.field, u.arity
    p = field.p
    signed = []  # (negative, coefficient text or None, word text)
    for word, c in u.terms.items():
        num, den = (c.value.numerator, c.value.denominator) if p is None else (c.value, 1)
        sign, text_word = _respell_word(draw, word)
        if p is not None and sign < 0:
            num = (-num) % p
        k = draw(st.integers(1, 3))
        if p is None:
            text = f"{abs(num) * k}/{den * k}" if k > 1 or den != 1 else str(abs(num))
        else:
            text = str(num + (k - 1) * p)
        if text == "1" and draw(st.booleans()):
            text = None
        signed.append(((num < 0) != (sign < 0 and p is None), text, text_word))
    for _ in range(draw(st.integers(0, 2))):
        word = draw(normal_words(arity))
        if draw(st.booleans()):
            signed.append((False, "0", _respell_word(draw, word)[1]))
        else:
            n = draw(st.integers(1, 9))
            sign, first = _respell_word(draw, word)
            second_sign, second = _respell_word(draw, word)
            signed += [(False, str(n), first), (sign == second_sign, str(n), second)]
    signed = draw(st.permutations(signed))
    plus, minus = draw(st.sampled_from([(" + ", " - "), (" + ", " - "), ("+", "-"), ("  +\t", " -  ")]))
    pieces = []
    for negative, text, word in signed:
        body = word if text is None else f"{text}*{word}"
        if pieces:
            pieces.append((minus if negative else plus) + body)
        else:
            pieces.append(("-" if negative else "") + body)
    return "".join(pieces) or "0"


@st.composite
def spelled_lies(draw):
    """(arity, field, [(text, value)]): canonical prints of random Lie elements and respellings."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    arity = draw(st.integers(2, 4))
    if field.p is None:
        coeffs = st.builds(field, st.integers(-20, 20), st.integers(1, 20))
    else:
        coeffs = st.builds(field, st.integers(0, field.p - 1))
    cases = []
    for _ in range(draw(st.integers(1, 4))):
        u = LieElement(arity, field, draw(st.dictionaries(normal_words(arity), coeffs, max_size=5)))
        cases += [(lie_to_str(u), u), (_spell_lie(draw, u), u)]
    return arity, field, cases


READERS = {"poly": parse_poly, "lie": parse_lie}


@st.composite
def spelled_texts(draw):
    """(reader, arity, field, [(text, value)]) of polynomial or Lie texts."""
    if draw(st.booleans()):
        return ("poly", *draw(spelled_polys()))
    return ("lie", *draw(spelled_lies()))


@settings(max_examples=300, deadline=None)
@given(spelled_texts())
def test_a_shared_table_reads_what_each_text_alone_reads(case):
    reader, arity, field, cases = case
    parse = READERS[reader]
    table = {}
    for text, value in cases:
        assert parse(text, arity, field) == value, text
        assert parse(text, arity, field, table=table) == value, text


def _outcome(parse, text, arity, field, **table):
    try:
        return parse(text, arity, field, **table)
    except PrimlenError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_a_malformed_text_fails_alike_with_and_without_a_table(data, before):
    reader, arity, field, cases = data.draw(spelled_texts())
    fragment = data.draw(st.sampled_from([m[1] for m in MALFORMED if m[0] == reader]))
    parse = READERS[reader]
    table = {}
    for text, _ in cases:
        joined = f"{fragment} + {text}" if before else f"{text} + {fragment}"
        alone = _outcome(parse, joined, arity, field)
        assert _outcome(parse, joined, arity, field, table=table) == alone
        parse(text, arity, field, table=table)


@pytest.mark.parametrize("text, arity, field, message, position", [m[1:] for m in MALFORMED if m[0] == "poly"])
def test_malformed_positions_hold_through_a_filled_table(text, arity, field, message, position):
    table = {}
    parse_poly("x1^2 + 3*x1*x2 - x2 + 1", 2, field, table=table)
    with pytest.raises(ParseError) as info:
        parse_poly(text, arity, field, table=table)
    assert message in str(info.value)
    assert info.value.position == position


def test_an_index_outside_the_arity_never_enters_the_table():
    table = {}
    with pytest.raises(ParseError, match=r"variable x3 is outside x1..x2 \(at position 5\)"):
        parse_poly("x1 + x3^2", 2, QQ, table=table)
    assert "x3^2" not in table
    table = {}
    with pytest.raises(ParseError, match=r"variable x4 is outside x1..x3 \(at position 9\)"):
        parse_lie("x1 + [x2,x4,x1]", 3, QQ, table=table)
    assert "[x2,x4,x1]" not in table
    with pytest.raises(ParseError, match=r"variable x9 is outside x1..x3 \(at position 0\)"):
        parse_lie("x9 - [x2,x1]", 3, QQ, table=table)
    assert "x9" not in table


def test_printing_through_a_shared_table_is_printing_alone():
    rng = random.Random(74)
    for field in (QQ, GF(2), GF(101)):
        polys = [rand_poly(rng, rng.randint(1, 3), rng.randint(0, 4), field=field) for _ in range(40)]
        polys.append(Polynomial(2, field, {(2, 1): rand_wide_scalar(rng, field), (0, 0): field(-1)}))
        table = {}
        assert [poly_to_str(f, table=table) for f in polys] == [poly_to_str(f) for f in polys]
        lies = [rand_lie(rng, rng.randint(2, 4), rng.randint(1, 4), field=field) for _ in range(40)]
        table = {}
        assert [lie_to_str(u, table=table) for u in lies] == [lie_to_str(u) for u in lies]


@pytest.mark.parametrize("name", ["Q-d3", "d5-n3-linear-part", "F2-d4"])
def test_each_key_text_is_made_once_per_document(monkeypatch, name):
    made = Counter()
    for attr in ("_mono_to_str", "_word_to_str", "_monomial_key", "_word_key"):

        def counting(key, *rest, original=getattr(parsing, attr)):
            made[key] += 1
            return original(key, *rest)

        monkeypatch.setattr(parsing, attr, counting)
    if name in POLY_CORPUS:
        arity, expr, _ = POLY_CORPUS[name]
        dec = decompose(parse_poly(expr, arity, QQ))
        made.clear()
        doc = poly_document(dec)
    else:
        arity, flag, expr, _ = LIE_CORPUS[name]
        dec = decompose_lie(parse_lie(expr, arity, field_from_flag(flag)))
        made.clear()
        doc = lie_document(dec)
    assert made and max(made.values()) == 1  # each key printed once
    made.clear()
    tokenized = []
    tokenize = parsing._tokenize
    monkeypatch.setattr(parsing, "_tokenize", lambda src: tokenized.append(src) or tokenize(src))
    assert verify_document(loads(dumps(doc))).ok
    assert made and max(made.values()) == 1  # each monomial or word text read once
    assert set(tokenized) <= {"0"}  # only texts outside the printed shape reach the grammar


# -- the Lie term reader ----------------------------------------------------------


def test_words_that_are_not_normal_repeat_and_cancel():
    table = {}
    # [x1,x2] = -[x2,x1]; [x3,x1,x3,x2] = [x3,x1,x2,x3]; [x1,x1] = 0
    text = "[x1,x2] + 2*[x2,x1] + [x3,x1,x3,x2] - [x3,x1,x2,x3] + 5*[x1,x1] + x1 - x1"
    for _ in range(2):
        assert parse_lie(text, 3, QQ, table=table) == normalize_word((2, 1), 3, QQ)
    assert parse_lie("3*[x1,x2,x3] + 3*[x2,x1,x3]", 3, GF(101), table={}).is_zero()
    assert parse_lie("1/2*[x1,x2] - 1/2*[x1,x2]", 3, QQ).is_zero()
    assert table["[x1,x2]"] == {(2, 1): QQ(-1)}
    assert table["[x2,x1]"] == (2, 1)
    assert table["[x1,x1]"] == {}


@pytest.mark.parametrize("text, arity, field, message, position", [m[1:] for m in MALFORMED if m[0] == "lie"])
def test_malformed_lie_positions_hold_through_a_filled_table(text, arity, field, message, position):
    table = {}
    parse_lie("[x2,x1,x3] + 3*[x3,x1] - x2 + [x1,x2] + [x3,x1,x2]", 3, field, table=table)
    with pytest.raises(ParseError) as info:
        parse_lie(text, arity, field, table=table)
    assert message in str(info.value)
    assert info.value.position == position


def test_a_word_beyond_the_degree_cap_never_enters_the_table():
    table = {}
    at_cap, beyond = "[x2" + ",x1" * 11 + "]", "[x2" + ",x1" * 12 + "]"
    parse_lie(f"x1 + {at_cap} + [x1,x2,x1]", 3, QQ, table=table)
    assert at_cap in table
    for _ in range(2):
        with pytest.raises(DegreeCapError, match=r"^word length 13 beyond the cap 12$"):
            parse_lie(f"x1 + {beyond}", 3, QQ, table=table)
        with pytest.raises(DegreeCapError, match=r"^word length 13 beyond the cap 12$"):
            parsing.lie_pairs(f"x1 + {beyond}", 3, QQ, table=table)
        assert beyond not in table
    assert parse_lie(f"x1 + {at_cap}", 3, QQ, table=table) == parse_lie(f"{at_cap} + x1", 3, QQ)
