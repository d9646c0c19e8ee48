"""Expression grammar and canonical printing.

Polynomials:   expr   := term (('+'|'-') term)*
               term   := factor (('*'|'/') factor)*
               factor := '-' factor | power
               power  := atom ('^' natural)?
               atom   := number | x<k> | '(' expr ')'
with '/' defined only against a nonzero constant right operand, so rational
literals like 1/2 work without introducing rational functions.

Lie elements:  lexpr  := lterm (('+'|'-') lterm)*
               lterm  := '-' lterm | scalar '*' lterm | latom
               latom  := x<k> | '[' x<i> (',' x<j>)+ ']' | '(' lexpr ')'
               scalar := number ('/' number)?
where brackets are left-normed and normalized on construction.

Numbers, variable indices and exponents are ASCII digits [0-9]+, of any
length (Python's 4,300-digit int/str limit does not apply); a character
outside the grammar, a non-ASCII digit included, is a ParseError.

A power is refused with UnsupportedInputError before it is computed when
it could be unbounded work: a constant power a^k (of a number or of a
constant group) when k times the bit length of a exceeds
``polydecomp.MAX_POWER_BITS``, and the parenthesised groups of a term when
the degree of their product, powers included, exceeds
``polydecomp.MAX_DEGREE`` (so ``(x1+1)^17`` is refused in any number of
variables).  A product of groups, powers included, is computed one
multiplication at a time and refused as soon as it holds more than
``polydecomp.MAX_TERMS`` terms, so ``(x1+...+x30)^4`` stops at its third
factor.  A power of a variable costs nothing and is not bounded here.

Reading is linear in the text for sums of monomial and word terms.  A
text is first read one term at a time, each term in the shape the printer
writes taken in one regex match: an optional coefficient a or a/b, then,
joined to it by '*', factors x<i> or x<i>^<e> joined by '*' (a polynomial)
or one word x<i> or [x<i>,x<j>,...] (a Lie element), then " + ", " - " or
the end.  The coefficient becomes one scalar (``parse_poly``,
``parse_lie``) or one (num, den) pair of ints (``poly_pairs``,
``lie_pairs``, which the verifier reads summand texts with), and the key
text is looked up in a table, which it enters on first sight, its indices
range-checked; the document reader keeps one table for a whole document
(``table=``).  A monomial text enters as its exponent tuple.  A word text
enters as its index tuple when the word is normal, and otherwise as the
integer coefficients of its normal terms, which multiply the term's
coefficient; a word longer than the degree cap never enters the table,
so the grammar refuses it at every use.  Any other text (groups, powers
of numbers, unary-minus chains, other spacing, "0", malformed text) goes
to the token grammar above, so values and errors do not depend on the
shape or the table.  There a polynomial term made of numbers, variables,
powers, unary minus and division by numbers is assembled directly as one
coefficient times one exponent vector, every sum accumulates into one
terms dict in place, and polynomial arithmetic runs only for a
parenthesised group or a power of one.

Printing uses graded-lexicographic order (highest degree first) for
polynomials and (length, word) order for Lie elements; parse(print(e))
always reproduces e.  Each key's text comes from a table, which the
document writer keeps for a whole document, and each coefficient's sign
is taken off its text, so no negated scalar is built.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd

from .errors import ParseError, UnsupportedInputError
from .field import int_to_str, str_to_int
from .metalie import DEGREE_CAP, LieElement, _normalize_raw, is_normal_word, normalize_word
from .multipoly import Polynomial
from .polydecomp import MAX_DEGREE, MAX_POWER_BITS, MAX_TERMS
from .sparse import MAX_ARITY, element_pairs

# One token per match: leading whitespace, then a number, a variable name
# (its index may be missing, which is reported), a symbol, any other
# character (reported), or the end of the text.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(x[0-9]*)|([-+*/^()\[\],])|(\S)|\Z)")

# One printed term: an optional '-', a coefficient a or a/b and '*'-joined
# factors x<i> or x<i>^<e> (at least one of the two), then " + ", " - " or
# the end of the text.  The groups are the '-', a, b, the factors after a
# coefficient, the factors alone and the sign of the next term.
_FACTORS = r"x[0-9]+(?:\^[0-9]+)?(?:\*x[0-9]+(?:\^[0-9]+)?)*"
_PRINTED_TERM = re.compile(rf"(-)?(?:([0-9]+)(?:/([0-9]+))?(?:\*({_FACTORS}))?|({_FACTORS}))(?: ([-+]) |\Z)")

# The same for a Lie term, whose key is one word: a generator x<i> or a
# bracket [x<i>,x<j>,...] of two or more entries, after "a*" or "a/b*" or
# alone.  The groups are laid out as in _PRINTED_TERM.
_WORD = r"x[0-9]+|\[x[0-9]+(?:,x[0-9]+)+\]"
_PRINTED_LIE_TERM = re.compile(rf"(-)?(?:([0-9]+)(?:/([0-9]+))?\*({_WORD})|({_WORD}))(?: ([-+]) |\Z)")

_NO_DIVISION = "division is only defined by a nonzero constant"


def _tokenize(src):
    """(kind, text, position) tuples, closed by an ("end", "", len(src)) token.

    The kind is "number", "name", or the symbol itself.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        if group is None:
            break
        text = m.group(group)
        pos = m.start(group)
        if group == 1:
            append(("number", text, pos))
        elif group == 3:
            append((text, text, pos))
        elif group == 2 and len(text) > 1:
            append(("name", text, pos))
        elif group == 2:
            raise ParseError("variable name needs an index, like x1", pos)
        else:
            raise ParseError(f"unexpected character {text!r}", pos)
    append(("end", "", len(src)))
    return tokens


def _add_scalars(a, b):
    """a + b for scalars, or None when the sum is zero."""
    total = a + b
    return None if total.is_zero() else total


@cache
def _pair_rule(p):
    """(coefficient, add) for terms held as (num, den) pairs of ints, as ``_read_printed`` takes them.

    Over Q (``p`` None) a pair is in lowest terms with den > 0, reduced
    with ``math.gcd`` wherever ``Fraction`` would reduce; over GF(p) it is
    a residue over 1.  ``add`` returns None for a zero sum.
    """
    if p is None:

        def coefficient(num, den):
            if den is None:
                return num, 1
            g = gcd(num, den)
            return num // g, den // g

        def add(a, b):
            num = a[0] * b[1] + b[0] * a[1]
            if not num:
                return None
            den = a[1] * b[1]
            g = gcd(num, den)
            return num // g, den // g

    else:

        def coefficient(num, den):
            return (num if den is None else num * pow(den, -1, p)) % p, 1

        def add(a, b):
            residue = (a[0] + b[0]) % p
            return (residue, 1) if residue else None

    return coefficient, add


def _accumulate(terms, pairs, add):
    """Add the (key, coefficient) pairs into the terms dict; add(a, b) is None where a key's sum is zero."""
    for key, coeff in pairs:
        acc = terms.get(key)
        if acc is None:
            terms[key] = coeff
            continue
        coeff = add(acc, coeff)
        if coeff is None:
            del terms[key]
        else:
            terms[key] = coeff


class _Reader:
    """Token cursor and the steps the polynomial and Lie readers share."""

    def __init__(self, src, arity, field):
        self.tokens = _tokenize(src)
        self.i = 0
        self.arity = arity
        self.p = field.p

    def expect(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def exponent(self):
        """The natural number after a '^', or 1 without one."""
        if self.tokens[self.i][0] != "^":
            return 1
        self.i += 1
        return str_to_int(self.expect("number")[1])

    def power(self, base, k):
        """base^k for an int base, refused when k times its bit length exceeds MAX_POWER_BITS."""
        if k == 1:
            return base
        bits = k * base.bit_length()
        if bits > MAX_POWER_BITS:
            raise UnsupportedInputError(
                f"a constant power of up to {int_to_str(bits)} bits exceeds the ceiling of {MAX_POWER_BITS}"
            )
        return base**k if self.p is None else pow(base, k, self.p)

    def unexpected(self):
        _, text, pos = self.tokens[self.i]
        return ParseError(f"unexpected {text or 'end of input'!r}", pos)

    def variable_index(self, tok):
        index = str_to_int(tok[1][1:])
        if not 1 <= index <= self.arity:
            raise ParseError(f"variable {tok[1]} is outside x1..x{self.arity}", tok[2])
        return index

    def is_zero(self, n):
        """Whether the integer n is zero in the field."""
        return (n if self.p is None else n % self.p) == 0

    def read_sum(self, read_term, zero):
        """Summands read_term(negative) joined by '+'/'-', accumulated into one terms dict.

        read_term returns a terms dict; the result is zero's type over that dict.
        """
        terms = {}
        negative = False
        while True:
            _accumulate(terms, read_term(negative).items(), _add_scalars)
            kind = self.tokens[self.i][0]
            if kind != "+" and kind != "-":
                return zero._wrap(terms)
            negative = kind == "-"
            self.i += 1

    def read_all(self, read):
        """read() over the whole text.

        Parentheses nested deeper than the interpreter's stack allows are a
        ParseError at the token where reading stopped.
        """
        try:
            value = read()
        except RecursionError:
            raise ParseError("expression nested too deeply", self.tokens[self.i][2]) from None
        self.expect("end")
        return value


def _monomial_key(text, arity):
    """The exponent tuple of the factors text, or None when an index is outside 1..arity."""
    exps = [0] * arity
    if text:
        for factor in text.split("*"):
            name, _, e = factor.partition("^")
            index = str_to_int(name[1:])
            if not 1 <= index <= arity:
                return None
            exps[index - 1] += str_to_int(e) if e else 1
    return tuple(exps)


def _word_key(text, arity):
    """The index tuple of a word text x<i> or [x<i>,...], or None when an index is outside 1..arity."""
    word = tuple(map(str_to_int, text[2:-1].split(",x"))) if text[0] == "[" else (str_to_int(text[1:]),)
    return word if all(1 <= i <= arity for i in word) else None


def _read_printed(src, pattern, p, rule, get, enter):
    """The terms dict of src read one printed-shape term, and one coefficient, at a time.

    ``pattern`` matches one term, with the groups of ``_PRINTED_TERM``.
    ``rule`` is (coefficient, add): coefficient(num, den) builds a term's
    coefficient from its ints (den None for none), and add(a, b) sums two,
    None when the sum is zero; so one loop reads scalars, with the rule
    (field, ``_add_scalars``), and (num, den) pairs, with
    ``_pair_rule(p)``.  A term's key text gives its entry by get(text) or,
    when that is None, by enter(text): a key, which takes the term's
    coefficient, or a dict of keys to ints, the terms of a word that is
    not normal, each of which takes the coefficient times its int.  None
    when some term is not in that shape, divides by zero or has a text that
    enter declines.
    """
    coefficient, add = rule
    terms = {}
    negative = False
    pos = 0
    match = pattern.match
    while True:
        m = match(src, pos)
        if m is None:
            return None
        minus, a, b, after, alone, sign = m.groups()
        if minus:
            negative = not negative
        num = 1 if a is None else str_to_int(a)
        den = None if b is None else str_to_int(b)
        if den is not None and (den if p is None else den % p) == 0:
            return None
        text = after or alone or ""
        entry = get(text)
        if entry is None:
            entry = enter(text)
            if entry is None:
                return None
        if num if p is None else num % p:
            if negative:
                num = -num
            if type(entry) is dict:  # a word that is not normal: its normal terms, times ints
                _accumulate(terms, [(key, coefficient(num * n, den)) for key, n in entry.items()], add)
            else:
                c = coefficient(num, den)
                acc = terms.get(entry)
                if acc is None:
                    terms[entry] = c
                else:
                    c = add(acc, c)
                    if c is None:
                        del terms[entry]
                    else:
                        terms[entry] = c
        if sign is None:
            return terms
        negative = sign == "-"
        pos = m.end()


def _printed_poly(src, arity, field, table, rule):
    """The terms of src by ``_read_printed`` under rule, through the monomial table; None when it declines.

    ``table`` maps monomial texts to exponent tuples for the texts of one
    document, so of one arity (a fresh one when None).  An arity out of
    range is declined too.
    """
    if not 1 <= arity <= MAX_ARITY:
        return None
    if table is None:
        table = {}

    def enter(text):
        key = _monomial_key(text, arity)
        if key is not None:
            table[text] = key
        return key

    return _read_printed(src, _PRINTED_TERM, field.p, rule, table.get, enter)


def parse_poly(src, arity, field, table=None):
    """The Polynomial that src spells in ``arity`` variables over ``field``.

    ``table`` is the monomial table of ``_printed_poly``.  Any text
    ``_read_printed`` declines, and any arity out of range, goes to the
    token grammar, which reports it.
    """
    terms = _printed_poly(src, arity, field, table, (field, _add_scalars))
    if terms is not None:
        return Polynomial._new(arity, field, terms)
    return _poly_grammar(src, arity, field)


def poly_pairs(src, arity, field, table=None):
    """The terms of the polynomial src spells as a {monomial: (num, den)} map (``_pair_rule``).

    It builds no scalar for a text ``_read_printed`` reads; any other goes
    to the token grammar of ``parse_poly``, and its terms are read off the
    Polynomial (``sparse.element_pairs``).
    """
    terms = _printed_poly(src, arity, field, table, _pair_rule(field.p))
    if terms is not None:
        return terms
    return element_pairs(_poly_grammar(src, arity, field))


def _poly_grammar(src, arity, field):
    """The Polynomial of src by the token grammar."""
    r = _Reader(src, arity, field)
    tokens = r.tokens
    zero = Polynomial.zero(arity, field)

    def expr():
        return r.read_sum(term, zero)

    def term(negative):
        """The term's terms dict: one coefficient times one exponent vector unless a group occurs."""
        num = den = 1
        exps = [0] * arity
        poly = None  # the product of the term's non-constant groups
        poly_degree = 0
        op_pos = None  # position of the '/' before this factor, if any
        while True:
            kind, text, pos = tokens[r.i]
            while kind == "-":
                negative = not negative
                r.i += 1
                kind, text, pos = tokens[r.i]
            if kind == "number":
                r.i += 1
                value, k = str_to_int(text), r.exponent()
                if k != 1:
                    value = r.power(value, k)
                if op_pos is None:
                    num *= value
                elif r.is_zero(value):
                    raise ParseError(_NO_DIVISION, op_pos)
                else:
                    den *= value
            elif kind == "name":
                var = r.variable_index(tokens[r.i]) - 1
                r.i += 1
                k = r.exponent()
                if op_pos is None:
                    exps[var] += k
                elif k:
                    raise ParseError(_NO_DIVISION, op_pos)
            elif kind == "(":
                r.i += 1
                group = expr()
                r.expect(")")
                k = r.exponent()
                degree = group.total_degree()
                if not degree or not k:  # zero, a constant or a 0th power: a number
                    c = group.constant_term()
                    c_num, c_den = r.power(c.numerator, k), r.power(c.denominator, k)
                    if op_pos is None:
                        num *= c_num
                        den *= c_den
                    elif r.is_zero(c_num):
                        raise ParseError(_NO_DIVISION, op_pos)
                    else:
                        num *= c_den
                        den *= c_num
                elif op_pos is not None:
                    raise ParseError(_NO_DIVISION, op_pos)
                else:
                    poly_degree += degree * k
                    if poly_degree > MAX_DEGREE:
                        raise UnsupportedInputError(
                            f"degree {int_to_str(poly_degree)} of parenthesised groups "
                            f"exceeds the ceiling of {MAX_DEGREE}"
                        )
                    for _ in range(k):
                        if poly is None:
                            poly = group
                            continue
                        poly = poly * group
                        if len(poly.terms) > MAX_TERMS:
                            raise UnsupportedInputError(
                                f"{len(poly.terms)} terms of a product of parenthesised groups "
                                f"exceed the ceiling of {MAX_TERMS}"
                            )
            else:
                raise r.unexpected()
            kind, _, pos = tokens[r.i]
            if kind == "*":
                op_pos = None
            elif kind == "/":
                op_pos = pos
            else:
                break
            r.i += 1
        if r.is_zero(num):
            return {}
        monomial = {tuple(exps): field(-num if negative else num, den)}
        if poly is None:
            return monomial
        return (poly * Polynomial(arity, field, monomial)).terms

    return r.read_all(expr)


def _printed_lie(src, arity, field, table, rule):
    """The terms of src by ``_read_printed`` under rule, through the word table; None when it declines.

    ``table`` maps word texts to entries for the texts of one document, so
    of one arity and field (a fresh one when None): the index tuple of a
    normal word, and the ints of its normal terms (``metalie._normalize_raw``)
    for any other.  A word longer than ``metalie.DEGREE_CAP`` never enters
    the table, so every use of one is declined.  An arity out of range is
    declined too.
    """
    if not 1 <= arity <= MAX_ARITY:
        return None
    if table is None:
        table = {}

    def enter(text):
        word = _word_key(text, arity)
        if word is None or len(word) > DEGREE_CAP:
            return None
        entry = table[text] = word if is_normal_word(word) else _normalize_raw(word, field.p)
        return entry

    return _read_printed(src, _PRINTED_LIE_TERM, field.p, rule, table.get, enter)


def parse_lie(src, arity, field, table=None):
    """The LieElement that src spells in ``arity`` generators over ``field``.

    ``table`` is the word table of ``_printed_lie``.  Any text
    ``_read_printed`` declines, a word beyond the degree cap and any arity
    out of range included, goes to the token grammar, which reports it.
    """
    terms = _printed_lie(src, arity, field, table, (field, _add_scalars))
    if terms is not None:
        return LieElement._new(arity, field, terms)
    return _lie_grammar(src, arity, field)


def lie_pairs(src, arity, field, table=None):
    """The terms of the Lie element src spells as a {word: (num, den)} map (``_pair_rule``).

    As ``poly_pairs``: no scalar for a text ``_read_printed`` reads, and
    the token grammar of ``parse_lie`` for any other.
    """
    terms = _printed_lie(src, arity, field, table, _pair_rule(field.p))
    if terms is not None:
        return terms
    return element_pairs(_lie_grammar(src, arity, field))


def _lie_grammar(src, arity, field):
    """The LieElement of src by the token grammar."""
    r = _Reader(src, arity, field)
    tokens = r.tokens
    zero = LieElement.zero(arity, field)

    def lexpr():
        return r.read_sum(lterm, zero)

    def lterm(negative):
        """The term's terms dict: its scalars times the terms of its atom."""
        num = den = 1
        while True:
            kind = tokens[r.i][0]
            if kind == "-":
                negative = not negative
                r.i += 1
                continue
            if kind != "number":
                break
            value = str_to_int(tokens[r.i][1])
            r.i += 1
            divisor = 1
            if tokens[r.i][0] == "/":
                slash_pos = tokens[r.i][2]
                r.i += 1
                divisor = str_to_int(r.expect("number")[1])
                if r.is_zero(divisor):
                    raise ParseError(_NO_DIVISION, slash_pos)
            if tokens[r.i][0] != "*" and r.is_zero(value):
                return {}
            r.expect("*")
            num *= value
            den *= divisor
        atom_terms = latom()
        if num == den == 1 and not negative:
            return atom_terms
        if r.is_zero(num):
            return {}
        c = field(-num if negative else num, den)
        return {word: coeff * c for word, coeff in atom_terms.items()}

    def latom():
        kind, text, pos = tokens[r.i]
        if kind == "name":
            index = r.variable_index(tokens[r.i])
            r.i += 1
            return {(index,): field.one()}
        if kind == "[":
            r.i += 1
            indices = [r.variable_index(r.expect("name"))]
            while tokens[r.i][0] == ",":
                r.i += 1
                indices.append(r.variable_index(r.expect("name")))
            r.expect("]")
            if len(indices) < 2:
                raise ParseError("a bracket needs at least two entries", pos)
            return normalize_word(indices, arity, field).terms
        if kind == "(":
            r.i += 1
            value = lexpr()
            r.expect(")")
            return value.terms
        raise r.unexpected()

    return r.read_all(lexpr)


# -- printing ----------------------------------------------------------------


def _mono_to_str(mono):
    pieces = []
    for i, e in enumerate(mono):
        if e == 1:
            pieces.append(f"x{i + 1}")
        elif e > 1:
            pieces.append(f"x{i + 1}^{int_to_str(e)}")
    return "*".join(pieces)


def _to_str(element, key_to_str, table):
    """Signed terms of a Polynomial or LieElement in its iter_sorted order.

    Each key's text comes from ``table`` (key -> text), which it enters on
    first sight: one dict per document, or a fresh one when None.  A
    coefficient's sign is taken off its text (``str``), so no negated
    scalar is built.
    """
    if element.is_zero():
        return "0"
    if table is None:
        table = {}
    out = []
    for key, coeff in element.iter_sorted():
        body = table.get(key)
        if body is None:
            body = table[key] = key_to_str(key)
        scalar = str(coeff)
        negative = scalar[0] == "-"
        if negative:
            scalar = scalar[1:]
        if not body:
            term = scalar
        elif scalar == "1":
            term = body
        else:
            term = f"{scalar}*{body}"
        if not out:
            out.append(f"-{term}" if negative else term)
        else:
            out.append(f" - {term}" if negative else f" + {term}")
    return "".join(out)


def _word_to_str(word):
    if len(word) == 1:
        return f"x{word[0]}"
    return "[" + ",".join(f"x{i}" for i in word) + "]"


def poly_to_str(f, table=None):
    """The canonical text of f; ``table`` keeps the monomial texts of one document."""
    return _to_str(f, _mono_to_str, table)


def lie_to_str(u, table=None):
    """The canonical text of u; ``table`` keeps the word texts of one document."""
    return _to_str(u, _word_to_str, table)
