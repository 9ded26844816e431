import random
from fractions import Fraction

import pytest

from lps import parser
from lps.errors import ParseError
from lps.parser import RationalODE, parse_expr, parse_ode, parse_poly
from lps.poly import MPoly, RatFunc

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")


def test_simple_ode():
    ode = parse_ode("y' = y/x")
    assert ode.order == 1
    assert ode.m == Y.extend_ring(("x", "y"))
    assert ode.n == X.extend_ring(("x", "y"))


def test_heads_and_orders():
    assert parse_ode("y' = x").order == 1
    assert parse_ode("y'' = z").order == 2
    assert parse_ode("z' = z").order == 2
    # explicit order overrides nothing but must agree
    assert parse_ode("y' = x", order=1).order == 1
    with pytest.raises(ParseError):
        parse_ode("y' = x", order=2)
    with pytest.raises(ParseError):
        parse_ode("y'' = x", order=1)


def test_first_order_rejects_z():
    with pytest.raises(ParseError):
        parse_ode("y' = z + x")


def test_exponent_forms():
    a = parse_expr("x^3 + y**2")
    b = X**3 + Y**2
    assert a == RatFunc(b.extend_ring(a.num.ring))
    # negative exponents move factors to the denominator
    c = parse_expr("x^(-2)")
    assert c == RatFunc(MPoly.constant(1), X**2)
    d = parse_expr("(x + 1)^-2 * y")
    assert d == RatFunc(Y.extend_ring(("x", "y")), ((X + 1) ** 2).extend_ring(("x", "y")))


def test_exponent_limit():
    with pytest.raises(ParseError):
        parse_expr("x^65")
    parse_expr("x^64")


def test_unary_and_precedence():
    assert parse_expr("-x^2") == RatFunc(-(X**2))
    assert parse_expr("(-x)^2") == RatFunc(X**2)
    assert parse_expr("2*x + 3*y - x") == RatFunc((X + 3 * Y).extend_ring(("x", "y")))
    assert parse_expr("x - y - y") == RatFunc((X - 2 * Y).extend_ring(("x", "y")))
    assert parse_expr("6/3*x") == RatFunc(2 * X)


def test_implicit_parens_not_allowed():
    with pytest.raises(ParseError):
        parse_expr("x y")


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_expr("x + (y")
    assert "column 7" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_ode("y' = x +\n* y")
    assert "line 2" in str(e.value)


def test_parse_ode_tokenizes_once(monkeypatch):
    calls = []
    tokenize = parser._tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "_tokenize", counting)
    parse_ode("y' = (x + y)/x")
    parse_ode("y'' = y*z")
    assert calls == ["y' = (x + y)/x", "y'' = y*z"]


def test_division_by_zero_constant():
    with pytest.raises(ParseError):
        parse_expr("x/(2 - 2)")


def test_unknown_identifier():
    with pytest.raises(ParseError) as e:
        parse_expr("x + foo")
    assert "foo" in str(e.value)


def test_parse_poly_rejects_true_quotients():
    assert parse_poly("x^2/2") == Fraction(1, 2) * X**2
    with pytest.raises(ParseError):
        parse_poly("1/x")


def test_roundtrip_random():
    rng = random.Random(42)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            terms[e] = terms.get(e, Fraction(0)) + Fraction(
                rng.randint(-9, 9), rng.randint(1, 4)
            )
        p = MPoly.from_dict(("x", "y"), terms)
        if p.is_zero():
            continue
        assert parse_poly(p.to_text()) == p


def test_ode_roundtrip_fixtures():
    from pathlib import Path

    fixtures = Path(__file__).resolve().parent.parent / "src" / "lps" / "fixtures"
    for path in sorted(fixtures.glob("*.txt")):
        ode = parse_ode(path.read_text())
        again = parse_ode(ode.to_text())
        assert again.m == ode.m and again.n == ode.n and again.order == ode.order


def test_normalized_representation():
    # the stored pair is coprime with a canonical denominator sign
    ode = parse_ode("y' = (2*y^2 - 2*y)/(2*x*y - 2*x)")
    assert ode.m == Y.extend_ring(("x", "y"))
    assert ode.n == X.extend_ring(("x", "y"))
    neg = parse_ode("y' = y/(-x)")
    assert neg.n == X.extend_ring(("x", "y")) and neg.m == (-Y).extend_ring(("x", "y"))


def test_second_order_prime_notation():
    a = parse_ode("y'' = (z^2 + x)/y")
    b = parse_ode("z' = (z^2 + x)/y")
    assert a.m == b.m and a.n == b.n and a.order == b.order == 2


def test_whitespace_and_case():
    ode = parse_ode("  y'   =    x+y  ")
    assert ode.m == (X + Y).extend_ring(("x", "y"))
    with pytest.raises(ParseError):
        parse_ode("Y' = x")
