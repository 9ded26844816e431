import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lps import parser
from lps.errors import ParseError
from lps.parser import RationalODE, parse_expr, parse_ode, parse_poly
from lps.poly import MPoly

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")


def same(pair, num, den=1):
    """Whether the (numerator, denominator) pair equals num/den, by
    cross-multiplication."""
    return (pair[0] * den - num * pair[1]).is_zero()


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
    assert same(a, b.extend_ring(a[0].ring))
    # negative exponents move factors to the denominator
    c = parse_expr("x^(-2)")
    assert same(c, MPoly.constant(1), X**2)
    d = parse_expr("(x + 1)^-2 * y")
    assert same(d, Y.extend_ring(("x", "y")), ((X + 1) ** 2).extend_ring(("x", "y")))


def test_exponent_limit():
    with pytest.raises(ParseError):
        parse_expr("x^65")
    parse_expr("x^64")


def test_unary_and_precedence():
    assert same(parse_expr("-x^2"), -(X**2))
    assert same(parse_expr("(-x)^2"), X**2)
    assert same(parse_expr("2*x + 3*y - x"), (X + 3 * Y).extend_ring(("x", "y")))
    assert same(parse_expr("x - y - y"), (X - 2 * Y).extend_ring(("x", "y")))
    assert same(parse_expr("6/3*x"), 2 * X)


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


def test_degree_budget():
    # ((x+y)^64)^64 would expand to 4097 terms with coefficients of
    # about 1,200 digits; it is refused at the outer ^ before expanding
    with pytest.raises(ParseError) as e:
        parse_ode("y' = ((x+y)^64)^64")
    assert (e.value.line, e.value.col) == (1, 16)
    assert str(parser._MAX_DEGREE) in e.value.message
    assert parser._MAX_DEGREE == 128
    # degree 128 still parses, through ^, * and /
    assert parse_poly("(x^2)^64") == X**128
    assert parse_poly("x^64*x^64") == X**128
    assert same(parse_expr("x^64/y^64"), X**64, Y**64)
    # one more and the operator is refused where it stands
    for text, col in [("(x^2)^64*x", 9), ("x^64*x^64*x", 10), ("x^64/(y^64*y)", 5)]:
        with pytest.raises(ParseError) as e:
            parse_expr(text)
        assert (e.value.line, e.value.col) == (1, col), text


def test_degree_budget_on_sums():
    # equal denominators add without a check; unequal ones cross-multiply,
    # so the degree sum is checked at the + or - before expanding
    assert parse_poly("x^64*x^64 + y^64*y^64") == X**128 + Y**128
    assert same(parse_expr("x^64*x^63/y + 1/y"), X**127 + 1, Y)
    assert same(parse_expr("1/x^64 - 1/y^64"), Y**64 - X**64, X**64 * Y**64)
    for text, col in [("1/x^64 + 1/(y*y^64)", 8), ("x - 1/(x^64*y^64)", 3)]:
        with pytest.raises(ParseError) as e:
            parse_expr(text)
        assert (e.value.line, e.value.col) == (1, col), text
        assert "degree 129 exceeds 128" in e.value.message


_VARS = st.sampled_from(["x", "y", "z"]).map(lambda v: ("var", v))
_CONSTS = st.integers(0, 9).map(lambda c: ("num", c))


def _trees(children):
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("pow"), children, st.integers(-3, 3)),
        st.tuples(st.just("neg"), children),
    )


def _render(tree) -> str:
    kind = tree[0]
    if kind in ("var", "num"):
        return str(tree[1])
    if kind == "bin":
        return f"({_render(tree[2])} {tree[1]} {_render(tree[3])})"
    if kind == "pow":
        return f"({_render(tree[1])})^({tree[2]})"
    return f"(-{_render(tree[1])})"


def _oracle(tree, sympy, symbols):
    """The tree's value as a sympy rational function in lowest terms, or
    None when it divides by zero."""
    kind = tree[0]
    if kind == "var":
        return symbols[tree[1]]
    if kind == "num":
        return sympy.Integer(tree[1])
    if kind == "neg":
        inner = _oracle(tree[1], sympy, symbols)
        return None if inner is None else -inner
    if kind == "pow":
        base = _oracle(tree[1], sympy, symbols)
        if base is None or (base == 0 and tree[2] < 0):
            return None
        return sympy.cancel(base ** tree[2])
    a, b = _oracle(tree[2], sympy, symbols), _oracle(tree[3], sympy, symbols)
    if a is None or b is None or (tree[1] == "/" and b == 0):
        return None
    return sympy.cancel({"+": a + b, "-": a - b, "*": a * b, "/": a / b}[tree[1]])


@settings(max_examples=200, deadline=None)
@given(st.recursive(_VARS | _CONSTS, _trees, max_leaves=8))
def test_parse_expr_matches_sympy(tree):
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(v) for v in "xyz"}
    text = _render(tree)
    expected = _oracle(tree, sympy, symbols)
    if expected is None:
        with pytest.raises(ParseError) as e:
            parse_expr(text)
        assert e.value.message in ("division by zero", "zero raised to a negative power")
        return
    try:
        num, den = parse_expr(text)
    except ParseError as e:
        assume("exceeds" not in e.message)
        raise
    to_sympy = lambda p: sympy.sympify(p.to_text().replace("^", "**"), locals=symbols)
    enum, eden = sympy.fraction(expected)
    assert sympy.expand(to_sympy(num) * eden - enum * to_sympy(den)) == 0, text
