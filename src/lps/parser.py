"""Input grammar for ODEs and polynomials.

The expression language is infix arithmetic over x, y, z with integer
literals, ^ or ** powers (|exponent| <= 64), and a derivative head:
y' for first order equations, z' or y'' for second order ones (z stands
for y').  Every subexpression evaluates to a (numerator, denominator)
pair of polynomials with no gcd taken along the way; the result is put
in lowest terms once, by `poly.lowest_terms`.  A power, product or
quotient, or a sum or difference over unequal denominators, is refused
before it is expanded when its degree would exceed _MAX_DEGREE or its
term products _MAX_TERMS.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError
from .poly import MPoly, lowest_terms

_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z]\w*'{0,2})|(\*\*|[()+\-*/^=])")

_MAX_EXP = 64
# Bound on the degree of a power, product or quotient, and of a sum or
# difference that cross-multiplies, checked on the operands before
# anything is expanded (max of numerator and denominator
# degree, unreduced).  Real inputs stay far below it: the fixtures, the
# golden corpus and the benchmark's equations have total degree <= 12.
_MAX_DEGREE = 128
# Bound on the size of the same operations: for a product, quotient or
# cross-multiplying sum, the product of the operands' term counts (each
# the larger of numerator and denominator); for a power e of a base of t
# such terms, the smaller of C(e + t - 1, t - 1), the number of ways to
# pick e of the t terms, and C(d + n, n), the number of monomials of
# degree <= d in the base's n variables.  The
# largest value any fixture, golden-corpus text or benchmark equation
# (seeds 7, 11, 42 and 4242) reaches is 252; within the degree budget,
# ((x+y+z)^32)*((x-y+z)^32) would multiply 561 by 561 terms.
_MAX_TERMS = 100_000

_ONE = MPoly.constant(1)

RING1 = ("x", "y")
RING2 = ("x", "y", "z")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            line, col = _line_col(text, i)
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        if m.group(1):
            tokens.append(_Token("NUM", m.group(1), i))
        elif m.group(2):
            tokens.append(_Token("NAME", m.group(2), i))
        else:
            tokens.append(_Token("OP", m.group(3), i))
        i = m.end()
    tokens.append(_Token("END", "", n))
    return tokens


def _degree(value) -> int:
    num, den = value
    return max(num.total_degree(), den.total_degree())


def _terms(value) -> int:
    num, den = value
    return max(num.num_terms(), den.num_terms())


def _fold(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """The pair with a constant denominator folded into the numerator, so
    that every denominator is 1 or non-constant."""
    if den.is_constant():
        c = den.constant_value()
        return (num if c == 1 else num / c), _ONE
    return num, den


class _Parser:
    def __init__(self, text: str, tokens: list[_Token], variables: tuple[str, ...]):
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        line, col = _line_col(self.text, tok.pos)
        raise ParseError(message, line, col)

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "OP" or tok.text != op:
            self.fail(f"expected {op!r}", tok)

    def check_size(self, degree: int, terms: int, tok: _Token):
        if degree > _MAX_DEGREE:
            self.fail(f"degree {degree} exceeds {_MAX_DEGREE}", tok)
        if terms > _MAX_TERMS:
            self.fail(f"term count {terms} exceeds {_MAX_TERMS}", tok)

    # expr := term (('+'|'-') term)*
    def expr(self) -> tuple[MPoly, MPoly]:
        num, den = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            tok = self.take()
            rnum, rden = self.term()
            if tok.text == "-":
                rnum = -rnum
            if den == rden:
                num = num + rnum
            else:
                self.check_size(_degree((num, den)) + _degree((rnum, rden)),
                                _terms((num, den)) * _terms((rnum, rden)), tok)
                num, den = num * rden + rnum * den, den * rden
        return num, den

    # term := factor (('*'|'/') factor)*
    def term(self) -> tuple[MPoly, MPoly]:
        value = self.factor()
        while self.peek().kind == "OP" and self.peek().text in ("*", "/"):
            tok = self.take()
            rhs = self.factor()
            num, den = value
            rnum, rden = rhs
            if tok.text == "/":
                if rnum.is_zero():
                    self.fail("division by zero", tok)
                rnum, rden = rden, rnum
            self.check_size(_degree(value) + _degree(rhs), _terms(value) * _terms(rhs), tok)
            value = _fold(num * rnum, den * rden)
        return value

    # factor := base (('^'|'**') exponent)?
    def factor(self) -> tuple[MPoly, MPoly]:
        value = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ("^", "**"):
            self.take()
            e = self.exponent()
            if abs(e) > _MAX_EXP:
                self.fail(f"exponent magnitude exceeds {_MAX_EXP}", tok)
            num, den = value
            if e < 0:
                if num.is_zero():
                    self.fail("zero raised to a negative power", tok)
                num, den, e = den, num, -e
            n = len(set(num.vars_used()) | set(den.vars_used()))
            t = _terms(value)
            dense = math.comb(_degree(value) * e + n, n)
            self.check_size(_degree(value) * e, min(math.comb(e + t - 1, t - 1), dense), tok)
            value = _fold(num**e, den**e)
        return value

    def exponent(self) -> int:
        tok = self.take()
        sign = 1
        parenthesized = False
        if tok.kind == "OP" and tok.text == "(":
            parenthesized = True
            tok = self.take()
        if tok.kind == "OP" and tok.text == "-":
            sign = -1
            tok = self.take()
        if tok.kind != "NUM":
            self.fail("expected an integer exponent", tok)
        if parenthesized:
            self.expect_op(")")
        return sign * int(tok.text)

    # base := NUMBER | VAR | '(' expr ')' | '-' factor
    def base(self) -> tuple[MPoly, MPoly]:
        tok = self.take()
        if tok.kind == "NUM":
            return MPoly.constant(int(tok.text)), _ONE
        if tok.kind == "NAME":
            if tok.text not in self.variables:
                self.fail(f"unknown identifier {tok.text!r}", tok)
            return MPoly.variable(tok.text), _ONE
        if tok.kind == "OP" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        if tok.kind == "OP" and tok.text == "-":
            num, den = self.factor()
            return -num, den
        self.fail("expected a number, variable, or parenthesized expression", tok)

    def finish(self):
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)


@dataclass(frozen=True)
class RationalODE:
    """A normalized rational ODE: y' = m/n (order 1) or y'' = m/n with
    z = y' (order 2).  m and n live over the full ring for the order,
    gcd(m, n) is constant, and n is integer-primitive with positive
    leading coefficient."""

    order: int
    m: MPoly
    n: MPoly

    @property
    def ring(self) -> tuple[str, ...]:
        return RING1 if self.order == 1 else RING2

    @classmethod
    def from_quotient(cls, order: int, num: MPoly, den: MPoly) -> "RationalODE":
        """The equation with right-hand side num/den, put in lowest terms."""
        ring = RING1 if order == 1 else RING2
        num, den = lowest_terms(num, den)
        return cls(order, num.extend_ring(ring), den.extend_ring(ring))

    def to_text(self) -> str:
        head = "y'" if self.order == 1 else "z'"
        if self.n.is_constant() and self.n.constant_value() == 1:
            return f"{head} = {self.m.to_text()}"
        return f"{head} = ({self.m.to_text()})/({self.n.to_text()})"

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "numerator": self.m.to_text(),
            "denominator": self.n.to_text(),
        }


_HEADS = {"y'": 1, "z'": 2, "y''": 2}


def parse_ode(text: str, order: int | None = None) -> RationalODE:
    """Parse an ODE with its derivative head.  If order is given the head
    must agree with it."""
    tokens = _tokenize(text)
    if not tokens or tokens[0].kind != "NAME" or tokens[0].text not in _HEADS:
        line, col = _line_col(text, tokens[0].pos if tokens else 0)
        raise ParseError("expected a derivative head (y', z', or y'')", line, col)
    head_order = _HEADS[tokens[0].text]
    if order is not None and order != head_order:
        line, col = _line_col(text, tokens[0].pos)
        raise ParseError(
            f"head {tokens[0].text} is order {head_order}, but order {order} was requested",
            line,
            col,
        )
    variables = RING1 if head_order == 1 else RING2
    parser = _Parser(text, tokens, variables)
    parser.take()  # the head, checked above
    parser.expect_op("=")
    num, den = parser.expr()
    parser.finish()
    return RationalODE.from_quotient(head_order, num, den)


def parse_expr(text: str, variables: tuple[str, ...] = RING2) -> tuple[MPoly, MPoly]:
    """Parse a bare expression into a (numerator, denominator) pair in
    lowest terms (see `poly.lowest_terms`)."""
    parser = _Parser(text, _tokenize(text), variables)
    num, den = parser.expr()
    parser.finish()
    return lowest_terms(num, den)


def parse_poly(text: str, variables: tuple[str, ...] = RING2) -> MPoly:
    """Parse an expression that must reduce to a polynomial."""
    num, den = parse_expr(text, variables)
    if not den.is_constant():
        raise ParseError("expected a polynomial, found a non-constant denominator")
    return num  # a constant denominator in lowest terms is 1
