"""Polynomial kernel tests: arithmetic axioms, division, gcd, squarefree.

Expected values are produced by independent oracles: products are checked
by rational evaluation at random points, gcds by exact trial division, and
decompositions by expanding them back.
"""

import collections
import math
import json
import random
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lps import cli, poly
from lps.errors import BudgetError, DomainError
from lps.parser import parse_poly
from lps.poly import (
    VARS,
    MPoly,
    exponents,
    lowest_terms,
    monomials_of_degree,
    mpoly_gcd,
    squarefree_decompose,
)

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")


def candidates(ring, degree):
    """Exponent tuples of total degree <= degree, ascending grlex: the
    columns of the search's degree-`degree` system."""
    return [exponents(m, ring) for d in range(degree + 1) for m in monomials_of_degree(ring, d)]


def rand_poly(rng, nvars=2, max_deg=3, max_terms=5, rational=False):
    ring = ("x", "y", "z", "w")[:nvars]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(-9, 9)
        if rational and rng.random() < 0.3:
            coeff = Fraction(c, rng.randint(1, 4))
        else:
            coeff = Fraction(c)
        terms[mono] = terms.get(mono, 0) + coeff
    return MPoly.from_dict(ring, terms)


def rand_point(rng, poly):
    return {v: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for v in poly.ring}


def evaluate(p, point):
    """p at a rational point binding every variable of its ring, term by
    term."""
    total = Fraction(0)
    for m, c in p.terms.items():
        for v, e in zip(p.ring, exponents(m, p.ring)):
            c *= point[v] ** e
        total += c
    return total


def test_grlex_candidate_order_degree_one():
    monos = candidates(("x", "y"), 1)
    assert monos == [(0, 0), (1, 0), (0, 1)]  # 1, x, y


def test_grlex_candidate_counts():
    assert len(candidates(("x", "y"), 13)) == 105
    assert len(candidates(("x", "y", "z"), 13)) == 560


def test_grlex_degree_two_order():
    monos = candidates(("x", "y"), 2)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_render_basic():
    p = X + Y
    assert p.to_text() == "x + y"
    q = 3 * Y**3 - X
    assert q.to_text() == "-x + 3*y^3"
    assert MPoly.zero().to_text() == "0"


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        a = rand_poly(rng, nvars=rng.randint(1, 3), rational=True)
        b = rand_poly(rng, nvars=rng.randint(1, 3), rational=True)
        c = rand_poly(rng, nvars=rng.randint(1, 3), rational=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MPoly.zero()


def test_mul_matches_evaluation():
    rng = random.Random(202)
    for _ in range(200):
        a = rand_poly(rng, nvars=3, rational=True)
        b = rand_poly(rng, nvars=3, rational=True)
        prod = a * b
        pt = rand_point(rng, prod)
        assert evaluate(prod, pt) == evaluate(a, pt) * evaluate(b, pt)


def test_pow_matches_repeated_mul():
    rng = random.Random(303)
    for _ in range(50):
        a = rand_poly(rng, nvars=2, max_deg=2, max_terms=3)
        k = rng.randint(0, 5)
        expect = MPoly.constant(1)
        for _ in range(k):
            expect = expect * a
        assert a**k == expect
    with pytest.raises(ValueError):
        X ** (-1)


def test_exact_divide_roundtrip():
    rng = random.Random(404)
    for _ in range(300):
        a = rand_poly(rng, nvars=rng.randint(1, 3), rational=True)
        b = rand_poly(rng, nvars=rng.randint(1, 3), rational=True)
        if b.is_zero():
            continue
        q = (a * b).exact_divide(b)
        assert q is not None and q == a


def test_exact_divide_rejects_nondivisor():
    rng = random.Random(505)
    hits = 0
    for _ in range(200):
        a = rand_poly(rng, nvars=2)
        b = rand_poly(rng, nvars=2)
        if b.is_zero() or a.is_zero():
            continue
        q = a.exact_divide(b)
        if q is None:
            hits += 1
        else:
            assert q * b == a
    assert hits > 50  # random pairs rarely divide


def test_exact_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        X.exact_divide(MPoly.zero())


def test_derivative_rules():
    rng = random.Random(606)
    for _ in range(150):
        a = rand_poly(rng, nvars=2, rational=True)
        b = rand_poly(rng, nvars=2, rational=True)
        for v in ("x", "y"):
            assert (a * b).derivative(v) == a.derivative(v) * b + a * b.derivative(v)
            assert (a + b).derivative(v) == a.derivative(v) + b.derivative(v)


def test_ring_unification():
    p = X + 1
    q = Z**2
    s = p + q
    assert s.ring == ("x", "z")
    assert evaluate(s, {"x": 2, "z": 3}) == 12


def test_normalization():
    p = Fraction(-2, 3) * (3 * Y**3 - X)  # leading term is y^3 under grlex
    n, unit = p.normalized_with_unit()
    assert n.to_text() == "-x + 3*y^3"
    assert unit == Fraction(-2, 3)
    assert n * unit == p
    assert n.normalized() == n


def test_gcd_by_construction():
    rng = random.Random(808)
    for _ in range(120):
        f = rand_poly(rng, nvars=2, max_deg=2, max_terms=3)
        g = rand_poly(rng, nvars=2, max_deg=2, max_terms=3)
        h = rand_poly(rng, nvars=2, max_deg=2, max_terms=3)
        if f.is_zero() or (g.is_zero() and h.is_zero()):
            continue
        d = mpoly_gcd(f * g, f * h)
        # d must be divisible by every common factor we planted and must
        # divide both products: check by exact trial division.
        assert d.exact_divide(f.normalized()) is not None or mpoly_gcd(g, h).total_degree() > 0
        assert (f * g).exact_divide(d) is not None
        assert (f * h).exact_divide(d) is not None


def test_gcd_coprime_is_one():
    assert mpoly_gcd(X + 1, Y + 1) == MPoly.constant(1)
    assert mpoly_gcd(X**2 + 1, X**2 - 1) == MPoly.constant(1)


def test_gcd_zero_cases():
    p = (2 * X + 2 * Y).normalized()
    assert mpoly_gcd(MPoly.zero(), 2 * X + 2 * Y) == p
    assert mpoly_gcd(MPoly.zero(), MPoly.zero()).is_zero()


def test_gcd_trivariate():
    f = X + Y * Z
    g = X - Y
    a = f * g
    b = f * (X + Z)
    assert mpoly_gcd(a, b) == f


def test_gcd_constants_normalize_away():
    assert mpoly_gcd(2 * X, 4 * X) == X
    assert mpoly_gcd(MPoly.constant(6), 4 * X) == MPoly.constant(1)


RINGS = [("x",), ("x", "y"), ("x", "y", "z")]


@st.composite
def ring_polys(draw, ring, max_terms=4, max_deg=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in ring)
        coeff = Fraction(draw(st.integers(-12, 12)), draw(st.sampled_from([1, 1, 2, 3, 7])))
        terms[mono] = terms.get(mono, 0) + coeff
    return MPoly.from_dict(ring, terms)


@st.composite
def planted_pairs(draw):
    """(f*g*c, f*h) with a planted common factor f and rational content c;
    any of f, g, h may come out constant or zero."""
    ring = draw(st.sampled_from(RINGS))
    f, g, h = (draw(ring_polys(ring)) for _ in range(3))
    c = Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    return ring, f, f * g * c, f * h


def expand(dec):
    """content * prod(part^mult) of a SquareFreeDecomposition."""
    out = MPoly.constant(dec.content)
    for f, m in dec.parts:
        out = out * f**m
    return out


def prs_gcd(a, b):
    """mpoly_gcd with the heuristic giving up at once: the PRS fallback."""
    with mock.patch.object(poly, "_HEU_TRIES", 0):
        return mpoly_gcd(a, b)


@settings(max_examples=150, deadline=None)
@given(planted_pairs())
def test_heuristic_gcd_matches_prs(case):
    _, f, a, b = case
    g = mpoly_gcd(a, b)
    assert g == prs_gcd(a, b)
    if not f.is_zero():
        assert g.exact_divide(f) is not None


def test_heuristic_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, ring):
        terms = {exponents(m, ring): sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
        return sympy.Poly.from_dict(terms, *sympy.symbols(ring), domain="QQ")

    @settings(max_examples=100, deadline=None)
    @given(planted_pairs())
    def check(case):
        ring, _, a, b = case
        g = mpoly_gcd(a, b).extend_ring(ring)
        expect = sympy.gcd(to_sympy(a, ring), to_sympy(b, ring))
        if g.is_zero():
            assert expect.is_zero
        else:
            assert to_sympy(g, ring).monic() == expect.monic()

    check()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(RINGS).flatmap(lambda r: st.lists(ring_polys(r, max_terms=3), min_size=1, max_size=3)),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9)).filter(bool),
)
# a PRS of 1,286,852 counted products that takes about 0.3 s, which the
# budget must let through
@example([1 + Y * Z, 1 + X**2 * Z**2, X + Z + X * Y**2], Fraction(1))
def test_squarefree_roundtrip_matches_prs(bases, content):
    p = MPoly.constant(content)
    for i, f in enumerate(bases):
        p = p * f ** (i + 1)
    if p.is_zero() or p.is_constant():
        return
    dec = squarefree_decompose(p)
    assert expand(dec) == p
    with mock.patch.object(poly, "_HEU_TRIES", 0):
        assert squarefree_decompose(p) == dec


def test_eq7_multivariate_gcds_pinned():
    # the two gcds in the square-free split of eq7's P_J along y: the
    # second one comes back as 1 when GCDHEU drops the common content
    ring = ("x", "y", "z")
    quadric = parse_poly("z - y^2 + y^2*z", ring)
    sextic = parse_poly(
        "-2 - y + 2*z - 2*x*y + 2*y^2 + y*z + x^2*z - y^2*z - x^2*y^2 + 2*x*y^3"
        " - y^4 + x^2*y^2*z - 2*x*y^3*z + y^4*z",
        ring,
    )
    p = quadric * sextic**2
    dp = p.derivative("y")
    g = mpoly_gcd(p, dp)
    assert g == sextic and g.total_degree() == 5
    w = p.exact_divide(g)
    h = mpoly_gcd(w, dp.exact_divide(g) - w.derivative("y"))
    assert h == quadric and h.total_degree() == 3


def test_prs_fallback_gives_same_gcd(monkeypatch):
    rng = random.Random(1212)
    pairs = [(X * (Y + Z) * (X - Y), (X + Y * Z) * (Y + Z))]
    for _ in range(20):
        f, g, h = (rand_poly(rng, nvars=3, max_deg=2, max_terms=3, rational=True) for _ in range(3))
        pairs.append((f * g, f * h))
    expected = [mpoly_gcd(a, b) for a, b in pairs]
    monkeypatch.setattr(poly, "_HEU_TRIES", 0)
    monkeypatch.setattr(poly, "_gcd_rec", mock.Mock(wraps=poly._gcd_rec))
    assert [mpoly_gcd(a, b) for a, b in pairs] == expected
    assert poly._gcd_rec.called


def test_heuristic_gcd_gives_up_before_its_integers_swell():
    # GCDHEU on f = (y*z^2 - 4*x*z)^35 and itself would evaluate z, y and
    # x in turn to integers of about 7,200, 252,000 and 8.8 million bits
    # (29 s to interpolate); it gives up at the last level and the PRS
    # answers, so the parser puts f/f in lowest terms at once
    f = parse_poly("(y*z^2 - 4*x*z)^35")
    fi = poly._int_primitive(f)[1]
    assert poly._heu_gcd(fi, fi, f.ring) is None
    assert mpoly_gcd(f, f) == f.normalized()
    assert lowest_terms(f, f) == (MPoly.constant(1, f.ring), MPoly.constant(1, f.ring))


def test_a_swelling_prs_is_over_budget():
    # a and b are coprime, of total degree 126 and 105 in x, y and z; GCDHEU
    # gives up on their size, and the PRS's second pseudo-division alone
    # would multiply 2,024 by 21,150 terms (21 s)
    a = parse_poly("(4 + x^2*y^2*z^2 + 5*x^2*z^2)^21")
    b = parse_poly("(8*x - 2*y*z^2 - 8*x^2*y^2 - 2*x^2*y*z^2)^21")
    with pytest.raises(BudgetError, match="polynomial gcd"):
        mpoly_gcd(a, b)


def test_a_prs_on_large_coefficients_is_over_budget(monkeypatch):
    # two coprime dense quintics in x, y with 20,000-bit coefficients: the
    # PRS takes under 5,000 products of terms, which a count of terms
    # alone lets through, but they multiply bignums (about a minute); each
    # product counts its coefficients' 64-bit words, so it stops at once
    rng = random.Random(5)

    def dense():
        return MPoly.from_dict(
            ("x", "y"), {(i, j): rng.getrandbits(20_000) + 1 for i in range(6) for j in range(6 - i)}
        )

    a, b = dense(), dense()
    monkeypatch.setattr(poly, "_HEU_TRIES", 0)
    with pytest.raises(BudgetError, match="word-weighted term products"):
        mpoly_gcd(a, b)


def test_squarefree_roundtrip_random():
    rng = random.Random(909)
    for _ in range(80):
        base = [rand_poly(rng, nvars=2, max_deg=2, max_terms=3) for _ in range(rng.randint(1, 3))]
        p = MPoly.constant(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        for i, f in enumerate(base):
            if f.is_zero() or f.is_constant():
                continue
            p = p * f ** (i + 1)
        if p.is_zero() or p.is_constant():
            continue
        dec = squarefree_decompose(p)
        assert expand(dec) == p
        mults = [m for _, m in dec.parts]
        assert mults == sorted(mults) and len(set(mults)) == len(mults)
        for f, _ in dec.parts:
            g = f
            for v in f.vars_used():
                g = mpoly_gcd(g, f.derivative(v))
            assert g.is_constant()  # squarefree in characteristic zero
        # pairwise coprime
        for i in range(len(dec.parts)):
            for j in range(i + 1, len(dec.parts)):
                assert mpoly_gcd(dec.parts[i][0], dec.parts[j][0]).is_constant()


def test_squarefree_known_shape():
    u = X - 3 * Y**3
    w = Y**7 + X**2
    dec = squarefree_decompose(u**2 * w)
    assert dict((m, f) for f, m in dec.parts) == {1: w.normalized(), 2: u.normalized()}


def test_squarefree_constant_and_zero():
    dec = squarefree_decompose(MPoly.constant(Fraction(7, 2)))
    assert dec.content == Fraction(7, 2) and dec.parts == ()
    with pytest.raises(ValueError):
        squarefree_decompose(MPoly.zero())


def test_lowest_terms_cancellation():
    num, den = lowest_terms(X**2 - Y**2, X - Y)
    assert num == X + Y
    assert den == MPoly.constant(1)
    # the denominator comes out integer-primitive with a positive leading
    # coefficient, the unit moving to the numerator
    assert lowest_terms(2 * Y, -4 * X) == (Fraction(-1, 2) * Y, X)
    assert lowest_terms(MPoly.zero(), X) == (MPoly.zero(), MPoly.constant(1))
    with pytest.raises(ZeroDivisionError):
        lowest_terms(X, MPoly.zero())


def test_content_is_an_int_when_integral():
    assert type((6 * X + 4 * Y).rat_content()) is int
    assert (Fraction(3, 2) * X + 6 * Y).rat_content() == Fraction(3, 2)
    assert type(poly._rat_gcd(4, Fraction(6))) is int
    assert poly._rat_gcd(Fraction(1, 2), Fraction(3, 4)) == Fraction(1, 4)


def test_leading_term_grlex():
    p = X**3 + X * Y**2 + Y
    mono, coeff = p.leading_term()
    assert exponents(mono, ("x", "y")) == (1, 2) and coeff == 1  # x*y^2 beats x^3 reversed-lex
    assert mono == max(p.terms)


def test_eq_across_rings():
    p = (X + Y).extend_ring(("x", "y", "z"))
    assert p == X + Y
    assert hash(p) == hash(X + Y)


def assert_canonical(p):
    """The MPoly coefficient invariant: an int (not a bool) when integral,
    otherwise a Fraction with denominator > 1."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (p, c, type(c))


@settings(max_examples=150, deadline=None)
@given(
    ring_polys(("x", "y")),
    ring_polys(("x", "y")),
    ring_polys(("y", "z")),
    st.one_of(st.integers(-4, 4), st.fractions(max_denominator=4, min_value=-4, max_value=4)),
    st.integers(0, 3),
)
def test_coefficients_stay_canonical(a, b, c, s, k):
    for p in (a, b, c):
        assert_canonical(p)
    results = [a + b, a - b, a + c, b - a + c, a * b, b * c, a * s, s * a, a**k,
               a.derivative("x"), c.derivative("z"),
               a.normalized(), mpoly_gcd(a, b), mpoly_gcd(a * c, b * c)]
    if s:
        results.append(a / s)
    for d in (b, c):
        if not d.is_zero():
            results.append((a * d).exact_divide(d))
            if not (d + 1).is_zero():
                results.append((a * d + a).exact_divide(d + 1))
            q = a.exact_divide(d)
            if q is not None:
                results.append(q)
    for p in results:
        assert_canonical(p)


def _solve_args(name):
    """A fixture's recorded solve arguments, followed by its equation text."""
    fixtures = resources.files("lps").joinpath("fixtures")
    args = json.loads(fixtures.joinpath("expected", f"{name}.json").read_text())["args"]
    return args + [fixtures.joinpath(f"{name}.txt").read_text()]


def test_solves_store_only_canonical_coefficients(monkeypatch, capsys):
    """Every coefficient stored while solving eq5, eq7, eq9 and a few
    plants (through search, factoring, reconstruction and the checks) is
    an int or a non-integral Fraction: never a float, never an integral
    Fraction."""
    seen = collections.Counter()
    init = MPoly.__init__

    def recording_init(self, ring, terms):
        for c in terms.values():
            seen[type(c) if type(c) is not Fraction or c.denominator > 1 else "integral Fraction"] += 1
        init(self, ring, terms)

    monkeypatch.setattr(MPoly, "__init__", recording_init)
    plants = [
        "y' = (3/2*y)/(-1 + 3*x)",
        "y' = (-7/2*y + 9/2*y^3)/(-3 - 11*x - 6*x^2 + 6*y^2 + 18*x*y^2)",
        "y' = (1/2*y + 3/4*y^2)/(2 + x + 6*y + 3*x*y)",
        "y' = (-3/2 + 7*y - 17/2*y^2 + 3*y^3)/(3 + 5*x - 4*y + 2*x^2 - 4*x*y + 3*y^2 + 3*x*y^2)",
    ]
    runs = [_solve_args(name) for name in ("eq5", "eq7", "eq9")]
    runs += [["solve", "--order", "1", "--max-degree", "4", "--auto-denominator", t] for t in plants]
    for argv in runs:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert set(seen) == {int, Fraction}, seen


# -- packed monomial keys against a tuple-keyed reference ------------------
#
# The reference keeps a polynomial as {exponent tuple over VARS: Fraction},
# the representation MPoly had before its terms were packed into integer
# keys, with the textbook algorithm for each operation: grlex leading-term
# division, a primitive PRS for the gcd and Musser's squarefree split.


def ref_of(ring, terms):
    """The reference polynomial of MPoly.from_dict(ring, terms)."""
    out = {}
    for mono, c in terms.items():
        full = tuple(mono[ring.index(v)] if v in ring else 0 for v in VARS)
        out[full] = Fraction(c)
    return {m: c for m, c in out.items() if c}


def as_ref(p):
    return {exponents(m, VARS): Fraction(c) for m, c in p.terms.items()}


def grlex(mono):
    return (sum(mono), mono[::-1])


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


ONE = {(0,) * len(VARS): Fraction(1)}


def ref_pow(a, k):
    out = ONE
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, var):
    i = VARS.index(var)
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in a.items() if m[i]}


def ref_divide(a, b):
    """a / b by grlex leading-term division, or None when b does not divide a."""
    lm = max(b, key=grlex)
    rem, quot = dict(a), {}
    while rem:
        m = max(rem, key=grlex)
        shift = tuple(i - j for i, j in zip(m, lm))
        if min(shift) < 0:
            return None
        quot[shift] = rem[m] / b[lm]
        rem = ref_add(rem, ref_mul({shift: quot[shift]}, b), -1)
    return quot


def ref_normalized(a):
    if not a:
        return a
    content = Fraction(math.gcd(*(c.numerator for c in a.values())),
                       math.lcm(*(c.denominator for c in a.values())))
    if a[max(a, key=grlex)] < 0:
        content = -content
    return {m: c / content for m, c in a.items()}


def ref_text(a):
    text = ""
    for m in sorted(a, key=grlex):
        c = a[m]
        parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, m) if e]
        if abs(c) != 1 or not parts:
            parts.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        text += ("-" if c < 0 else "") if not text else f" {sign} "
        text += "*".join(parts)
    return text or "0"


def ref_gcd(a, b):
    """A gcd of a and b (up to a constant factor): the primitive PRS in the
    highest variable either uses, the contents by recursion."""
    if not a or not b:
        return a or b
    used = [i for i in range(len(VARS)) if any(m[i] for m in (*a, *b))]
    if not used:
        return ONE
    i = used[-1]

    def coeffs(p):
        out = {}
        for m, c in p.items():
            out.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
        return out

    def content(p):
        g = {}
        for c in coeffs(p).values():
            g = ref_gcd(g, c)
        return g

    def deg(p):
        return max(m[i] for m in p)

    A, B = ref_divide(a, content(a)), ref_divide(b, content(b))
    if deg(A) < deg(B):
        A, B = B, A
    while B:
        R, lc_b = A, coeffs(B)[deg(B)]
        while R and deg(R) >= deg(B):
            shift = tuple(deg(R) - deg(B) if j == i else 0 for j in range(len(VARS)))
            R = ref_add(ref_mul(R, lc_b), ref_mul(ref_mul(coeffs(R)[deg(R)], {shift: 1}), B), -1)
        A, B = B, (ref_divide(R, content(R)) if R else R)
    return ref_mul(ref_gcd(content(a), content(b)), ref_divide(A, content(A)))


def ref_squarefree(p):
    """(content, {multiplicity: normalized part}) by Musser's algorithm,
    with the gcd of p and all its partial derivatives."""
    c = p
    for v in VARS:
        c = ref_gcd(c, ref_derivative(p, v))
    w = ref_divide(p, c)
    parts, i = {}, 1
    while any(any(m) for m in w):
        y = ref_gcd(w, c)
        f = ref_divide(w, y)
        if any(any(m) for m in f):
            parts[i] = ref_normalized(f)
        c, w, i = ref_divide(c, y), y, i + 1
    prod = ONE
    for i, f in parts.items():
        prod = ref_mul(prod, ref_pow(f, i))
    (content,) = ref_divide(p, prod).values()
    return content, parts


REF_RINGS = [(), ("x",), ("x", "y"), ("x", "y", "z"), ("y", "x")]


@st.composite
def ref_cases(draw, max_terms=4, max_deg=2):
    """(MPoly, reference) from one term dict over a drawn ring."""
    ring = draw(st.sampled_from(REF_RINGS))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in ring)
        terms[mono] = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 1, 2, 3])))
    p = MPoly.from_dict(ring, terms)
    assert p.ring == tuple(v for v in VARS if v in ring)
    return p, ref_of(ring, terms)


def test_keys_pack_grlex_order():
    # x in the lowest 16 bits, then y, z and w, the total degree on top
    p = MPoly.from_dict(("y", "x", "w"), {(3, 2, 1): 5})
    assert p.terms == {2 + (3 << 16) + (1 << 48) + (6 << 64): 5} and p.ring == ("x", "y", "w")
    monos = [exponents(m, VARS) for d in range(5) for m in monomials_of_degree(VARS, d)]
    assert len(monos) == math.comb(4 + 4, 4)
    assert monos == sorted(monos, key=grlex)
    assert [max(MPoly.from_dict(VARS, {m: 1}).terms) for m in monos] == sorted(
        max(MPoly.from_dict(VARS, {m: 1}).terms) for m in monos)


def test_products_and_powers_that_overflow_a_field_are_refused():
    top = poly.MAX_KEY_DEGREE
    fits = X**30000 * (Y ** (top - 30000) + 1)
    assert [exponents(m, ("x", "y")) for m in sorted(fits.terms)] == [(30000, 0), (30000, top - 30000)]
    assert (X**top).total_degree() == top
    for build in (
        lambda: X**40000 * X**30000,  # x's field would carry into y's
        lambda: (X**40000 + 1) * (Y**30000 + X),
        lambda: X ** (top + 1),
        lambda: (X**30000 + Y) ** 3,
        lambda: MPoly.from_dict(("x", "y"), {(top, 1): 1}),
    ):
        with pytest.raises(DomainError, match="overflow"):
            build()


@settings(max_examples=200, deadline=None)
@given(ref_cases(), ref_cases(), st.integers(0, 4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
       st.sampled_from(["x", "y", "z"]))
def test_arithmetic_matches_the_tuple_reference(case_a, case_b, k, s, var):
    (a, ra), (b, rb) = case_a, case_b
    assert as_ref(a) == ra and as_ref(b) == rb
    assert as_ref(a + b) == ref_add(ra, rb)
    assert as_ref(a - b) == ref_add(ra, rb, -1)
    assert as_ref(a * b) == ref_mul(ra, rb)
    assert as_ref(a**k) == ref_pow(ra, k)
    scaled = {m: c * s for m, c in ra.items()}
    assert as_ref(a * s) == as_ref(s * a) == scaled
    assert as_ref(a / s) == {m: c / s for m, c in ra.items()}
    assert as_ref(a.derivative(var)) == ref_derivative(ra, var)
    if rb:
        assert as_ref((a * b).exact_divide(b)) == ra
        q = a.exact_divide(b)
        expect = ref_divide(ra, rb)
        assert (q is None and expect is None) or as_ref(q) == expect
    assert as_ref(a.normalized()) == ref_normalized(ra)
    assert a.to_text() == ref_text(ra)
    assert (a == b) == (ra == rb)
    same = MPoly.from_dict(VARS, ra)
    assert same == a and hash(same) == hash(a)
    if ra == rb:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(ref_cases(max_terms=3), ref_cases(max_terms=3), ref_cases(max_terms=3))
def test_gcd_and_squarefree_match_the_tuple_reference(case_f, case_g, case_h):
    (f, rf), (g, rg), (h, rh) = case_f, case_g, case_h
    a, b = f * g, f * h
    assert as_ref(mpoly_gcd(a, b)) == ref_normalized(ref_gcd(ref_mul(rf, rg), ref_mul(rf, rh)))
    p = f * g**2
    if p.is_zero():
        return
    dec = squarefree_decompose(p)
    content, parts = ref_squarefree(ref_mul(rf, ref_pow(rg, 2)))
    assert dec.content == content
    assert {m: as_ref(part) for part, m in dec.parts} == parts
