"""Input grammar for ODEs and polynomials.

The expression language is infix arithmetic over x, y, z with integer
literals, ^ or ** powers (|exponent| <= 64), and a derivative head:
y' for first order equations, z' or y'' for second order ones (z stands
for y').  Everything parses into exact rational-function values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import MPoly, RatFunc

_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z]\w*'{0,2})|(\*\*|[()+\-*/^=])")

_MAX_EXP = 64

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

    # expr := term (('+'|'-') term)*
    def expr(self) -> RatFunc:
        value = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    # term := factor (('*'|'/') factor)*
    def term(self) -> RatFunc:
        value = self.factor()
        while self.peek().kind == "OP" and self.peek().text in ("*", "/"):
            tok = self.take()
            rhs = self.factor()
            if tok.text == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    self.fail("division by zero", tok)
                value = value / rhs
        return value

    # factor := base (('^'|'**') exponent)?
    def factor(self) -> RatFunc:
        value = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ("^", "**"):
            self.take()
            e = self.exponent()
            if abs(e) > _MAX_EXP:
                self.fail(f"exponent magnitude exceeds {_MAX_EXP}", tok)
            if e >= 0:
                value = RatFunc(value.num**e, value.den**e)
            else:
                if value.is_zero():
                    self.fail("zero raised to a negative power", tok)
                value = RatFunc(value.den ** (-e), value.num ** (-e))
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
    def base(self) -> RatFunc:
        tok = self.take()
        if tok.kind == "NUM":
            return RatFunc.from_scalar(int(tok.text))
        if tok.kind == "NAME":
            if tok.text not in self.variables:
                self.fail(f"unknown identifier {tok.text!r}", tok)
            return RatFunc(MPoly.variable(tok.text))
        if tok.kind == "OP" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        if tok.kind == "OP" and tok.text == "-":
            return -self.factor()
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
    def from_ratfunc(cls, order: int, f: RatFunc) -> "RationalODE":
        ring = RING1 if order == 1 else RING2
        return cls(order, f.num.extend_ring(ring), f.den.extend_ring(ring))

    def rhs(self) -> RatFunc:
        return RatFunc(self.m, self.n)

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
    head = parser.take()
    assert head.kind == "NAME"
    parser.expect_op("=")
    value = parser.expr()
    parser.finish()
    return RationalODE.from_ratfunc(head_order, value)


def parse_expr(text: str, variables: tuple[str, ...] = RING2) -> RatFunc:
    """Parse a bare expression into a rational function."""
    parser = _Parser(text, _tokenize(text), variables)
    value = parser.expr()
    parser.finish()
    return value


def parse_poly(text: str, variables: tuple[str, ...] = RING2) -> MPoly:
    """Parse an expression that must reduce to a polynomial."""
    value = parse_expr(text, variables)
    if not value.den.is_constant():
        raise ParseError("expected a polynomial, found a non-constant denominator")
    den = value.den.constant_value()
    return value.num * (Fraction(1) / den) if den != 1 else value.num
