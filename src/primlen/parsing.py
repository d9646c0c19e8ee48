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

Reading is linear in the text for sums of monomial terms (the shape the
printer writes): a term made of numbers, variables, powers, unary minus and
division by numbers is assembled directly as one coefficient times one
exponent vector, and every sum accumulates into one terms dict in place.
Polynomial arithmetic runs only for a parenthesised group or a power of one.

Printing uses graded-lexicographic order (highest degree first) for
polynomials and (length, word) order for Lie elements; parse(print(e))
always reproduces e.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnsupportedInputError
from .field import int_to_str, str_to_int
from .metalie import LieElement, degree_cap, normalize_word
from .multipoly import Polynomial
from .polydecomp import MAX_DEGREE, MAX_POWER_BITS, MAX_TERMS

# One token per match: leading whitespace, then a number, a variable name
# (its index may be missing, which is reported), a symbol, any other
# character (reported), or the end of the text.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(x[0-9]*)|([-+*/^()\[\],])|(\S)|\Z)")

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
            for key, coeff in read_term(negative).items():
                acc = terms.get(key)
                if acc is not None:
                    coeff = acc + coeff
                if coeff.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = coeff
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


def parse_poly(src, arity, field):
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


def parse_lie(src, arity, field):
    """The LieElement of src; the degree cap is read once, at the first bracket."""
    r = _Reader(src, arity, field)
    tokens = r.tokens
    zero = LieElement.zero(arity, field)
    cap = None

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
        nonlocal cap
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
            if cap is None:
                cap = degree_cap()
            return normalize_word(indices, arity, field, cap).terms
        if kind == "(":
            r.i += 1
            value = lexpr()
            r.expect(")")
            return value.terms
        raise r.unexpected()

    return r.read_all(lexpr)


# -- printing ----------------------------------------------------------------


def scalar_to_str(c):
    return str(c)


def _is_negative(c):
    return c.field.is_rationals and c.value < 0


def _mono_to_str(mono):
    pieces = []
    for i, e in enumerate(mono):
        if e == 1:
            pieces.append(f"x{i + 1}")
        elif e > 1:
            pieces.append(f"x{i + 1}^{e}")
    return "*".join(pieces)


def _term_str(coeff, body):
    if not body:
        return scalar_to_str(coeff)
    if coeff.is_one():
        return body
    return f"{scalar_to_str(coeff)}*{body}"


def _to_str(element, key_to_str):
    """Signed terms of a Polynomial or LieElement in its iter_sorted order."""
    if element.is_zero():
        return "0"
    out = []
    for key, coeff in element.iter_sorted():
        negative = _is_negative(coeff)
        body = _term_str(-coeff if negative else coeff, key_to_str(key))
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def _word_to_str(word):
    if len(word) == 1:
        return f"x{word[0]}"
    return "[" + ",".join(f"x{i}" for i in word) + "]"


def poly_to_str(f):
    return _to_str(f, _mono_to_str)


def lie_to_str(u):
    return _to_str(u, _word_to_str)
