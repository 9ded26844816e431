import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lps.factor as factor_module
from lps.errors import DomainError, InternalError
from lps.factor import (
    DarbouxFactor,
    _coeffs_in,
    _dense_rat,
    _factor_key,
    _horner,
    darboux_check,
    degree1_dp_search,
    factor_multivariate,
)
from lps.parser import RationalODE, parse_ode, parse_poly
from lps.poly import MPoly, exponents, mpoly_gcd, squarefree_decompose
from lps.solver import build_field
from lps.synth import plant
from lps.unifactor import rational_roots, recombine, zassenhaus

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "lps" / "fixtures"

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")

# pool of pairwise non-associate irreducibles used to build known cases
_POOL = [
    "2*x + 3",
    "x - 1",
    "x^2 + 1",
    "x^2 - 2",
    "x^2 + x + 1",
    "x^3 + x + 1",
    "x^3 - 2",
    "x^4 + x + 1",
    "x^4 - 10*x^2 + 1",
]


def load_field(name):
    return build_field(parse_ode((FIXTURES / f"{name}.txt").read_text()))


def test_univariate_known():
    f = factor_multivariate(parse_poly("x^4 - 1"))
    assert f.unit == 1
    assert [(p.to_text(), m) for p, m in f.factors] == [
        ("-1 + x", 1),
        ("1 + x", 1),
        ("1 + x^2", 1),
    ]
    g = factor_multivariate(parse_poly("x^2 + 1"))
    assert len(g.factors) == 1 and g.factors[0][1] == 1


def test_univariate_units_and_content():
    f = factor_multivariate(parse_poly("6*x^2 - 6"))
    assert f.unit == 6
    assert f.expand() == parse_poly("6*x^2 - 6")
    g = factor_multivariate(MPoly.constant(Fraction(3, 4)))
    assert g.unit == Fraction(3, 4) and g.factors == ()


def test_univariate_rejects():
    with pytest.raises(DomainError):
        factor_multivariate(MPoly.zero())


def test_univariate_multiset_recovery():
    rng = random.Random(11)
    pool = [parse_poly(s) for s in _POOL]
    for _ in range(25):
        picks = rng.sample(range(len(pool)), rng.randint(1, 3))
        mults = [rng.randint(1, 3) for _ in picks]
        prod = MPoly.constant(rng.choice([1, -2, 3, Fraction(1, 2)]))
        for i, m in zip(picks, mults):
            prod = prod * pool[i] ** m
        fac = factor_multivariate(prod)
        assert fac.expand() == prod
        got = {p: m for p, m in fac.factors}
        want = {pool[i].normalized(): m for i, m in zip(picks, mults)}
        assert got == want


def test_recombination_needed():
    # both quadratics split modulo every prime, so the subsets must be
    # recombined rather than read off
    f = factor_multivariate(parse_poly("(x^2 - 2)*(x^2 - 3)"))
    assert sorted(p.to_text() for p, _ in f.factors) == ["-2 + x^2", "-3 + x^2"]
    g = factor_multivariate(parse_poly("x^4 - 10*x^2 + 1"))
    assert len(g.factors) == 1


def test_multivariate_known():
    f = factor_multivariate(parse_poly("x^2 - y^2"))
    assert sorted(p.to_text() for p, _ in f.factors) == ["-x + y", "x + y"]
    assert f.unit == -1

    v5 = ((X - 3 * Y**3) ** 2 * (Y**7 + X**2)).normalized()
    f = factor_multivariate(v5)
    assert {(p, m) for p, m in f.factors} == {
        ((X - 3 * Y**3).normalized(), 2),
        ((Y**7 + X**2).normalized(), 1),
    }


def test_multivariate_trivariate_known():
    f1 = Y**2 * Z - Y**2 + Z
    f2 = (
        X**2 * Y**2 * Z
        - 2 * X * Y**3 * Z
        + Y**4 * Z
        - X**2 * Y**2
        + 2 * X * Y**3
        - Y**4
        + X**2 * Z
        - Y**2 * Z
        - 2 * X * Y
        + 2 * Y**2
        + Y * Z
        - Y
        + 2 * Z
        - 2
    )
    pj = (f1 * f2**2).normalized()
    fac = factor_multivariate(pj)
    assert {(p, m) for p, m in fac.factors} == {
        (f1.normalized(), 1),
        (f2.normalized(), 2),
    }


def test_multivariate_monomial_and_unit():
    p = parse_poly("12*x^3*y^2") * (X + Y)
    f = factor_multivariate(p)
    assert f.unit == 12
    assert {(q.to_text(), m) for q, m in f.factors} == {
        ("x", 3),
        ("y", 2),
        ("x + y", 1),
    }


def test_multivariate_roundtrip_random():
    rng = random.Random(23)
    for _ in range(40):
        p = MPoly.constant(1)
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = terms.get(e, Fraction(0)) + rng.randint(-4, 4)
            q = MPoly.from_dict(("x", "y"), terms)
            if q.is_zero():
                continue
            p = p * q ** rng.randint(1, 2)
        if p.is_constant():
            continue
        fac = factor_multivariate(p)
        assert fac.expand() == p
        # factors normalized and pairwise non-associate
        seen = set()
        for q, m in fac.factors:
            assert m >= 1 and q == q.normalized()
            assert q not in seen
            seen.add(q)


@st.composite
def bivariate_products(draw):
    """unit * prod f_i^m_i for one to three small random polynomials in
    x, y (integer coefficients, degree <= 2 in each variable), m_i <= 2."""
    p = MPoly.constant(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))))
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            mono = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[mono] = terms.get(mono, 0) + draw(st.integers(-5, 5))
        p = p * MPoly.from_dict(("x", "y"), terms) ** draw(st.integers(1, 2))
    return p


@st.composite
def linear_products(draw):
    """prod (a_i x + b_i) for three to six linear factors with 10^5 <=
    |a_i|, |b_i| <= 10^7, so both end coefficients exceed 10^12."""
    big = st.integers(10**5, 10**7)
    sign = st.sampled_from([1, -1])
    p = MPoly.constant(1)
    for _ in range(draw(st.integers(3, 6))):
        a, b = draw(sign) * draw(big), draw(sign) * draw(big)
        p = p * MPoly.from_dict(("x", "y"), {(1, 0): a, (0, 0): b})
    return p


@settings(max_examples=80, deadline=None)
@given(bivariate_products())
def test_factor_multivariate_roundtrip_hypothesis(p):
    if p.is_zero():
        return
    fac = factor_multivariate(p)
    assert fac.expand() == p
    assert len({q for q, _ in fac.factors}) == len(fac.factors)
    for q, m in fac.factors:
        assert m >= 1 and not q.is_constant() and q == q.normalized()


@st.composite
def trivariate_products(draw):
    """unit * prod f_i^m_i for one to three small random polynomials in
    x, y, z (integer coefficients, degree <= 2 in each variable),
    m_i <= 2."""
    p = MPoly.constant(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))))
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            mono = (draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[mono] = terms.get(mono, 0) + draw(st.integers(-5, 5))
        p = p * MPoly.from_dict(("x", "y", "z"), terms) ** draw(st.integers(1, 2))
    return p


def test_factor_multivariate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(bivariate_products(), linear_products(), trivariate_products()))
    def check(p):
        if p.is_zero() or p.is_constant():
            return
        expr = sympy.sympify(p.to_text().replace("^", "**"), locals={"x": x, "y": y, "z": z})
        _, pairs = sympy.factor_list(expr)
        want = Counter()
        for f, m in pairs:
            q = parse_poly(str(f).replace("**", "^"), ("x", "y", "z")).normalized()
            want[q.to_text()] += m
        ours = factor_multivariate(p)
        assert Counter({q.to_text(): m for q, m in ours.factors}) == want

    check()


# -- the Kronecker-image factoriser, kept as the reference ---------------------


def _reference_squarefree_part(part):
    """Irreducible factors of a normalized squarefree part, as the library
    found them before specialisation and Hensel lifting: substitute
    x_i -> x^(w_i) for every variable (w_i one more than the product of
    the degrees before it), factor that univariate image, and recombine
    its factors by exact trial division of the decoded products."""
    vs = part.vars_used()
    if len(vs) == 0:
        return []
    part = part.project_ring()
    if len(vs) == 1:
        dense = [0] * (part.degree_in(vs[0]) + 1)
        for m, c in part.terms.items():
            dense[exponents(m, vs)[0]] = c
        return [MPoly.from_dict(vs, {(i,): c for i, c in enumerate(f) if c}) for f in zassenhaus(dense)]
    weights, d = [], 1
    for v in vs:
        weights.append(d)
        d *= part.degree_in(v) + 1
    bounds = [part.degree_in(v) for v in vs]
    image = [0] * (1 + sum(w * b for w, b in zip(weights, bounds)))
    for m, c in part.terms.items():
        image[sum(e * w for e, w in zip(exponents(m, vs), weights))] = c
    while image[-1] == 0:
        image.pop()
    if image[-1] < 0:
        image = [-c for c in image]
    uni = []
    image_poly = MPoly.from_dict(("x",), {(i,): c for i, c in enumerate(image) if c})
    for ipart, imult in squarefree_decompose(image_poly).parts:
        dense = [0] * (ipart.degree_in("x") + 1)
        for m, c in ipart.terms.items():
            dense[exponents(m, ("x",))[0]] = c
        if len(dense) > 1:
            uni.extend([list(f) for f in zassenhaus(dense)] * imult)

    def decode(coeffs):
        terms = {}
        for e, c in enumerate(coeffs):
            if c == 0:
                continue
            digits = []
            for w, b in zip(reversed(weights), reversed(bounds)):
                digit, e = divmod(e, w)
                if digit > b:
                    return None
                digits.append(digit)
            terms[tuple(reversed(digits))] = c
        return MPoly.from_dict(vs, terms)

    def trial(subset, current):
        prod = [1]
        for i in subset:
            nxt = [0] * (len(prod) + len(uni[i]) - 1)
            for a, ca in enumerate(prod):
                for b, cb in enumerate(uni[i]):
                    nxt[a + b] += ca * cb
            prod = nxt
        cand = decode(prod)
        if cand is None:
            return None
        cand = cand.normalized()
        if cand.is_constant():
            return None
        quot = current.exact_divide(cand)
        return None if quot is None else (cand, quot.normalized())

    found, current = recombine(len(uni), part, trial)
    if not current.is_constant():
        found.append(current.normalized())
    return found


def reference_factorization(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor_module, "_factor_squarefree_part", _reference_squarefree_part)
        return factor_multivariate(p)


def _same(ours, ref):
    # the emitted order, texts and unit, and each factor's ring
    assert ours.unit == ref.unit
    assert [(f.to_text(), f.ring, m) for f, m in ours.factors] == [
        (f.to_text(), f.ring, m) for f, m in ref.factors
    ]


def _random_factor(rng, ring, degree):
    while True:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = tuple(rng.randint(0, degree) for _ in ring)
            terms[mono] = terms.get(mono, 0) + rng.choice([-7, -3, -2, -1, 1, 2, 3, 5])
        f = MPoly.from_dict(ring, terms)
        if not f.is_constant():
            return f


# squarefree and primitive in x, but at y = 0 and y = 1 not squarefree
# or (the last one, at y = 0) of lower degree in x
_BAD_AT_0_AND_1 = [
    "x^2 - y^2 + y",
    "(x^2 - y^2 + y)*(x + y^2 + 1)",
    "(x^2 + y^3 - y)*(2*x^2 - 3*y + 1)",
    "y*x^2 + (y - 1)*x + y^2 - 1",
]


def test_specialisation_skips_points_that_are_not_squarefree():
    xy = ("x", "y")
    for text in _BAD_AT_0_AND_1:
        p = parse_poly(text, xy)
        for a in (0, 1):
            spec = _substitute(p, {"y": MPoly.constant(a)}).project_ring()
            assert spec.degree_in("x") < p.degree_in("x") or any(
                m > 1 for _, m in squarefree_decompose(spec).parts
            )
        for q in (p, p * parse_poly("3*x - 2*y + 1", xy) ** 2, p * parse_poly("x*y^2 - 7", xy)):
            _same(factor_multivariate(q), reference_factorization(q))


def test_lifting_matches_the_kronecker_reference():
    # random products in two and three variables with multiplicities,
    # non-monic leading coefficients, factors free of some variable
    # (content in the main variable) and monomial factors
    rng = random.Random(2025)
    rings = [("x", "y")] * 3 + [("x", "y", "z")]
    checked = 0
    for _ in range(160):
        ring = rng.choice(rings)
        p = MPoly.constant(rng.choice([1, -1, 2, Fraction(3, 4)]))
        for _ in range(rng.randint(1, 3)):
            sub = ring[: rng.randint(1, len(ring))] if rng.random() < 0.3 else ring
            degree = 2 if len(ring) == 2 else 1
            p = p * _random_factor(rng, sub, degree) ** rng.randint(1, 2)
        if rng.random() < 0.3:
            p = p * MPoly.variable(rng.choice(ring)) ** rng.randint(1, 2)
        if len(p.vars_used()) < 2:
            continue
        ours = factor_multivariate(p)
        assert ours.expand() == p
        _same(ours, reference_factorization(p))
        checked += 1
    assert checked > 120



def test_specialization_smoke():
    rng = random.Random(5)
    p = ((X**2 + Y**2 + 1) * (X * Y - 2) ** 2).normalized()
    fac = factor_multivariate(p)
    for _ in range(5):
        c = Fraction(rng.randint(-5, 5))
        spec = _substitute(p, {"y": MPoly.constant(c)}).project_ring()
        if spec.is_constant():
            continue
        uni = factor_multivariate(spec)
        assert uni.expand() == spec
        # every specialized multivariate factor is a product of the
        # univariate factors, so total degrees must agree
        assert sum(q.total_degree() * m for q, m in uni.factors) == spec.total_degree()


def test_darboux_scaling_field():
    field = build_field(parse_ode("y' = y/x"))
    one = MPoly.constant(1, ("x", "y"))
    for p in (X, Y, X + Y):
        hit = darboux_check(field, p)
        assert hit is not None and hit.q == one


def test_darboux_eq5_cofactors():
    field = load_field("eq5")
    u = X - 3 * Y**3
    w = Y**7 + X**2
    hu = darboux_check(field, u)
    hw = darboux_check(field, w)
    assert hu is not None and hw is not None
    # the defining identity, re-checked by expansion
    assert field.apply(u) == hu.q * u
    assert field.apply(w) == hw.q * w
    assert darboux_check(field, X + Y) is None
    bound = max(field.m.total_degree(), field.n.total_degree()) - 1
    assert hu.q.total_degree() <= bound
    assert hw.q.total_degree() <= bound


def test_darboux_cofactor_bound_all_fixtures():
    for name, vpoly in (
        ("eq5", ((X - 3 * Y**3) ** 2 * (Y**7 + X**2)).normalized()),
        ("eq9", ((X * Y**2 - 1) ** 3 * (X * Y**2 + 1) ** 3).normalized()),
    ):
        field = load_field(name)
        bound = max(field.m.total_degree(), field.n.total_degree()) - 1
        for p, _ in factor_multivariate(vpoly).factors:
            hit = darboux_check(field, p)
            if hit is not None:
                assert hit.q.total_degree() <= bound


def test_darboux_multiplicativity():
    field = load_field("eq5")
    p1 = X - 3 * Y**3
    p2 = Y**7 + X**2
    both = darboux_check(field, p1 * p2)
    assert both is not None
    assert both.q == darboux_check(field, p1).q + darboux_check(field, p2).q


def test_darboux_order2():
    field = load_field("eq7")
    f1 = Y**2 * Z - Y**2 + Z
    hit = darboux_check(field, f1)
    assert hit is not None
    # the cleared operator is N d/dx + z N d/dy + M d/dz
    z = MPoly.variable("z")
    image = (
        field.n * f1.derivative("x")
        + z * field.n * f1.derivative("y")
        + field.m * f1.derivative("z")
    )
    assert image == hit.q * f1


def test_darboux_rejects_constant():
    field = build_field(parse_ode("y' = y/x"))
    with pytest.raises(DomainError):
        darboux_check(field, MPoly.constant(2))


def test_degree1_search_euler():
    res = degree1_dp_search(build_field(parse_ode("y' = y/x")))
    texts = [p.to_text() for p in res]
    assert "x" in texts and "y" in texts
    # vertical lines x - c admit only c = 0
    for p in res:
        if p.degree_in("y") == 0:
            assert p == X


def test_degree1_search_constructed():
    field = build_field(parse_ode("y' = -(y*(3*x + y))/(x*(x + 3*y))"))
    res = degree1_dp_search(field)
    assert {p for p in res} == {X, Y, (X + Y).normalized()}
    for p in res:
        assert darboux_check(field, p) is not None


def test_degree1_search_eq8():
    # the printed equation has y as its only invariant line; in
    # particular y + x fails the eigenpolynomial test
    field = load_field("eq8")
    res = degree1_dp_search(field)
    assert [p.to_text() for p in res] == ["y"]
    assert darboux_check(field, X + Y) is None


def test_degree1_rejects_order2():
    with pytest.raises(DomainError):
        degree1_dp_search(load_field("eq7"))


def test_degree1_search_eq5_is_empty():
    res = degree1_dp_search(load_field("eq5"))
    assert res == []


# -- the resultant search, kept as the reference -------------------------------
#
# Before it read the lines y - s*x - t off one section of the extactic
# polynomial, degree1_dp_search eliminated: the coefficients in x of
# M - s*N at y = s*x + t form a system in (s, t), carried by the symbols z
# and w.  A common factor of the system is a curve of lines, sampled at a
# few points; the isolated common zeros come from one resultant.


def _substitute(p, bindings):
    """p with polynomials put for some of its variables."""
    out = MPoly.zero()
    for m, c in p.terms.items():
        term = MPoly.constant(c)
        for v, e in zip(p.ring, exponents(m, p.ring)):
            if e:
                term = term * bindings.get(v, MPoly.variable(v)) ** e
        out = out + term
    return out


def _evaluate(p, point):
    """p at a rational point binding every variable it uses."""
    total = Fraction(0)
    for m, c in p.terms.items():
        for v, e in zip(p.ring, exponents(m, p.ring)):
            if e:
                c = c * Fraction(point[v]) ** e
        total += c
    return total


def _res_frac(a, b):
    """Resultant of two univariate polynomials over the rationals."""
    def deg(u):
        return len(u) - 1

    def rem(u, v):
        u = list(u)
        while len(u) >= len(v):
            c = Fraction(u[-1], v[-1])
            k = len(u) - len(v)
            for i, cv in enumerate(v):
                u[i + k] -= c * cv
            u.pop()
            while u and u[-1] == 0:
                u.pop()
        return u

    if not a or not b:
        return Fraction(0)
    if deg(a) == 0 and deg(b) == 0:
        return Fraction(1)
    acc = Fraction(1)
    if deg(a) < deg(b):
        if deg(a) % 2 and deg(b) % 2:
            acc = -acc
        a, b = b, a
    while deg(b) > 0:
        r = rem(a, b)
        if not r:
            return Fraction(0)
        acc *= b[-1] ** (deg(a) - deg(r))
        if deg(b) % 2 and deg(a) % 2:
            acc = -acc
        a, b = b, r
    return acc * b[0] ** deg(a)


def _resultant_wrt(f, g, var, keep):
    """Res_var(f, g) as a polynomial in `keep`, sampled at the integers
    0, 1, -1, 2, ... where no leading coefficient vanishes and rebuilt by
    Newton interpolation; its degree in `keep` is at most
    deg_keep(f)·deg_var(g) + deg_keep(g)·deg_var(f)."""
    bound = f.degree_in(keep) * g.degree_in(var) + g.degree_in(keep) * f.degree_in(var)
    fc = [_dense_rat(c, keep) for c in _coeffs_in(f.extend_ring((var, keep)), var)]
    gc = [_dense_rat(c, keep) for c in _coeffs_in(g.extend_ring((var, keep)), var)]
    xs = []
    coef = []
    t = 0
    while len(xs) <= bound:
        for x0 in (t, -t) if t else (0,):
            av = [_horner(c, x0) for c in fc]
            bv = [_horner(c, x0) for c in gc]
            if av[-1] and bv[-1]:
                xs.append(x0)
                coef.append(_res_frac(av, bv))
                if len(xs) > bound:
                    break
        t += 1
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = Fraction(coef[i] - coef[i - 1], xs[i] - xs[i - j])
    dense = [coef[-1]]
    for i in range(n - 2, -1, -1):
        shifted = [coef[i] - xs[i] * dense[0]]
        shifted += [dense[k - 1] - xs[i] * dense[k] for k in range(1, len(dense))]
        shifted.append(dense[-1])
        dense = shifted
    return MPoly.from_dict((keep,), {(k,): c for k, c in enumerate(dense)})


def _rational_roots(p):
    """All rational roots of a univariate polynomial, by factoring it."""
    if p.is_constant():
        return []
    roots = []
    for f, _ in factor_multivariate(p).factors:
        if f.total_degree() == 1:
            fl = _dense_rat(f.project_ring(), f.vars_used()[0])
            roots.append(Fraction(-fl[0], fl[1]))
    roots.sort()
    return roots


def _curve_points(g, limit=8):
    """A few rational points on g(z, w) = 0, by sampling z and solving
    for w (and symmetrically when g ignores w)."""
    g = g.extend_ring(("z", "w"))
    pts = []
    samples = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-1, 2)]
    if g.degree_in("w") == 0:
        for z0 in _rational_roots(_coeffs_in(g, "w")[0]):
            for w0 in samples[:3]:
                pts.append((z0, w0))
        return pts[:limit]
    for z0 in samples:
        section = _substitute(g, {"z": MPoly.constant(z0)}).project_ring()
        if section.is_zero():
            for w0 in samples[:3]:
                pts.append((z0, w0))
        elif not section.is_constant():
            for w0 in _rational_roots(section):
                pts.append((z0, w0))
        if len(pts) >= limit:
            break
    return pts[:limit]


def _eliminant(system, elim, keep):
    """A nonzero polynomial in `keep` alone that vanishes at the
    `keep`-coordinate of every common zero of a gcd-free system:
    Res_elim(r0, sum_i t^i r_i) for the first t = 2, 3, ... that makes it
    nonzero, r0 the member of least degree in `elim` and r_1, r_2, ... the
    others in order (r0 itself when it is free of `elim`).  Each
    irreducible factor of r0 rejects at most m - 1 values of t, m the
    number of others, so deg_elim(r0)·m + 1 values suffice."""
    i0 = min(range(len(system)), key=lambda i: system[i].degree_in(elim))
    r0 = system[i0]
    if r0.degree_in(elim) == 0:
        return r0.project_ring()
    others = system[:i0] + system[i0 + 1 :]
    for t in range(2, 3 + r0.degree_in(elim) * len(others)):
        comb = MPoly.zero(r0.ring)
        for i, r in enumerate(others, 1):
            comb = comb + r * t**i
        if not comb.is_zero():
            res = _resultant_wrt(r0, comb, elim, keep)
            if not res.is_zero():
                return res
    raise InternalError("the system passed to _eliminant is not gcd-free")


def _isolated_points(system):
    """Common rational zeros of a gcd-free bivariate system in (z, w): the
    rational roots z0 of the eliminant in z, each with the rational roots
    w0 of the gcd of the sections at z0, kept when every member vanishes
    at (z0, w0)."""
    sys2 = [r.extend_ring(("z", "w")) for r in system]
    pts = []
    for z0 in _rational_roots(_eliminant(sys2, "w", "z")):
        sections = [_substitute(s, {"z": MPoly.constant(z0)}).project_ring() for s in sys2]
        if any(sec.is_constant() and not sec.is_zero() for sec in sections):
            continue
        live = [sec for sec in sections if not sec.is_zero()]
        g2 = live[0]
        for sec in live[1:]:
            g2 = mpoly_gcd(g2, sec)
        for w0 in _rational_roots(g2):
            if all(_evaluate(s, {"z": z0, "w": w0}) == 0 for s in sys2):
                pts.append((z0, w0))
    return pts


def reference_degree1_dp_search(field):
    """degree1_dp_search by elimination: chart 1, p = y - s*x - t with
    (s, t) carried by z, w; chart 2, p = x - c from the gcd of N's
    coefficients in y."""
    out = []
    ring = ("x", "y", "z", "w")
    m4 = field.m.extend_ring(ring)
    n4 = field.n.extend_ring(ring)
    w_poly = m4 - MPoly.variable("z").extend_ring(ring) * n4
    x_, z_, w_ = (MPoly.variable(v).extend_ring(ring) for v in ("x", "z", "w"))
    remainder = _substitute(w_poly, {"y": z_ * x_ + w_})
    system = [r.extend_ring(("z", "w")) for r in _coeffs_in(remainder, "x") if not r.is_zero()]
    candidates = set()
    if system:
        g = system[0]
        for r in system[1:]:
            g = mpoly_gcd(g, r)
        if not g.is_constant():
            candidates.update(_curve_points(g))
        reduced = [r.exact_divide(g) for r in system]
        nonconst = [r for r in reduced if not r.is_constant()]
        if len(nonconst) == len(reduced) and len(nonconst) >= 2:
            candidates.update(_isolated_points(nonconst))
    for s0, t0 in candidates:
        p = (Y - MPoly.constant(s0) * X - MPoly.constant(t0)).extend_ring(_XY)
        hit = darboux_check(field, p.normalized())
        if hit is not None:
            out.append(hit.p)
    ncoef = [c for c in _coeffs_in(field.n, "y") if not c.is_zero()]
    g = ncoef[0]
    for c in ncoef[1:]:
        g = mpoly_gcd(g, c)
    if not g.is_constant():
        for c0 in _rational_roots(g.extend_ring(("x",))):
            p = (X - MPoly.constant(c0)).extend_ring(_XY)
            hit = darboux_check(field, p.normalized())
            if hit is not None:
                out.append(hit.p)
    seen = []
    for p in sorted(out, key=_factor_key):
        if p not in seen:
            seen.append(p)
    return seen


_XY = ("x", "y")


def test_resultant_helper():
    f = (X**2 - Z).extend_ring(("x", "z"))
    g = (X - Z).extend_ring(("x", "z"))
    r = _resultant_wrt(f, g, "x", "z")
    # Res_x(x^2 - z, x - z) = z^2 - z
    assert r == (Z**2 - Z).normalized() or r == (Z**2 - Z)
    # a shared factor makes the resultant vanish
    shared = ((X - Z) * (X + 1).extend_ring(("x", "z"))).project_ring()
    assert _resultant_wrt(shared, g, "x", "z").is_zero()


def test_rational_roots_helper():
    # the library's p-adic routine and the reference's factorization
    p = parse_poly("(2*x - 3)*(3*x + 5)*(x - 2)*x").extend_ring(("x",))
    want = [Fraction(-5, 3), Fraction(0), Fraction(3, 2), Fraction(2)]
    assert rational_roots(_dense_rat(p, "x")) == want
    assert _rational_roots(p) == want
    assert rational_roots([1, 0, 1]) == _rational_roots(parse_poly("x^2 + 1").extend_ring(("x",))) == []


def _lagrange_resultant(f, g, var, keep):
    """Reference Res_var(f, g): evaluate `keep` at 0, 1, -1, 2, ... (skipping
    zeros of a leading coefficient) and interpolate with Lagrange over
    MPoly products, as the library did before Newton interpolation."""
    dfv, dgv = f.degree_in(var), g.degree_in(var)
    if dfv == 0 and dgv == 0:
        return MPoly.constant(1)
    bound = f.degree_in(keep) * dgv + g.degree_in(keep) * dfv
    fc = _coeffs_in(f.extend_ring((var, keep)), var)
    gc = _coeffs_in(g.extend_ring((var, keep)), var)
    lcf, lcg = fc[-1], gc[-1]
    points = []
    t = 0
    while len(points) < bound + 1:
        for x0 in (Fraction(t), Fraction(-t)) if t else (Fraction(0),):
            if _evaluate(lcf, {keep: x0}) == 0 or _evaluate(lcg, {keep: x0}) == 0:
                continue
            av = [_evaluate(c, {keep: x0}) for c in fc]
            bv = [_evaluate(c, {keep: x0}) for c in gc]
            points.append((x0, _res_frac(av, bv)))
            if len(points) == bound + 1:
                break
        t += 1
    result = MPoly.zero((keep,))
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        numer = MPoly.constant(1, (keep,))
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i != j:
                numer = numer * (MPoly.variable(keep) - MPoly.constant(xj, (keep,)))
                denom *= xi - xj
        result = result + numer * (yi / denom)
    return result


def _pairwise_isolated_points(system):
    """Reference for _isolated_points: the gcd of all C(n, 2) pairwise
    resultants in each direction, w eliminated first."""
    sys2 = [r.extend_ring(("z", "w")) for r in system]
    pts = []
    for elim, keep in (("w", "z"), ("z", "w")):
        elims = []
        for i in range(len(sys2)):
            for j in range(i + 1, len(sys2)):
                r = _resultant_wrt(sys2[i], sys2[j], elim, keep)
                if not r.is_zero():
                    elims.append(r)
        if not elims:
            continue
        g = elims[0]
        for r in elims[1:]:
            g = mpoly_gcd(g, r)
        for r0 in _rational_roots(g):
            sections = [_substitute(s, {keep: MPoly.constant(r0)}).project_ring() for s in sys2]
            if any(sec.is_constant() and not sec.is_zero() for sec in sections):
                continue
            live = [sec for sec in sections if not sec.is_zero()]
            if not live:
                continue
            g2 = live[0]
            for sec in live[1:]:
                g2 = mpoly_gcd(g2, sec)
            for other in _rational_roots(g2):
                pt = (r0, other) if keep == "z" else (other, r0)
                if all(_evaluate(s, {"z": pt[0], "w": pt[1]}) == 0 for s in sys2):
                    pts.append(pt)
        if pts:
            break
    return pts


def _chart1_system(field):
    """The gcd-free (s, t) system, in (z, w), that the reference search
    hands to _isolated_points for lines y - s*x - t; None when it hands
    over nothing."""
    seen = []
    isolated = _isolated_points

    def spy(system):
        seen.append(system)
        return isolated(system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(globals(), "_isolated_points", spy)
        reference_degree1_dp_search(field)
    return seen[0] if seen else None


def _small_poly(rng, degree):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            total = rng.randint(0, degree)
            ex = rng.randint(0, total)
            terms[(ex, total - ex)] = terms.get((ex, total - ex), 0) + rng.choice(
                [-2, -1, 1, 2, 3]
            )
        p = MPoly.from_dict(_XY, terms)
        if not p.is_zero():
            return p


def _planted_line_fields(seed, count):
    """Order-1 fields with invariant lines L1 = y - s1*x - t1,
    L2 = y - s2*x - t2 and L3 = x - c planted: the field is
    L2·L3·Q1·(1, s1) + L1·L3·Q2·(1, s2) + L1·L2·Q3·(0, 1), which is tangent
    to each line along it.  Every other field adds the radial term
    k·L1·L2·L3·(x, y); it vanishes on the lines and makes the top
    coefficient of the chart-1 system vanish, so no member is free of t
    and the eliminant is a true resultant.  Pairs (M, N) with a common
    factor are redrawn."""
    rng = random.Random(seed)
    x_, y_ = X.extend_ring(_XY), Y.extend_ring(_XY)
    out = []
    while len(out) < count:
        s1, s2, t1, t2 = (
            Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(4)
        )
        if (s1, t1) == (s2, t2):
            continue
        l1, l2 = y_ - x_ * s1 - t1, y_ - x_ * s2 - t2
        l3 = x_ - rng.randint(-3, 3)
        q1, q2, q3 = (_small_poly(rng, 1) for _ in range(3))
        n = l2 * l3 * q1 + l1 * l3 * q2
        m = l2 * l3 * q1 * s1 + l1 * l3 * q2 * s2 + l1 * l2 * q3
        if len(out) % 2:
            k = rng.choice([-2, -1, 1, 2])
            n = n + l1 * l2 * l3 * x_ * k
            m = m + l1 * l2 * l3 * y_ * k
        if n.is_zero() or m.is_zero() or not mpoly_gcd(m, n).is_constant():
            continue
        field = build_field(RationalODE.from_quotient(1, m, n))
        out.append((field, {p.normalized() for p in (l1, l2, l3)}))
    return out


def test_resultant_matches_lagrange_on_eq8_pairs():
    system = _chart1_system(load_field("eq8"))
    assert len(system) == 9
    pairs = [(a, b) for i, a in enumerate(system) for b in system[i + 1 :]]
    assert len(pairs) == 36
    for a, b in pairs:
        assert _resultant_wrt(a, b, "w", "z") == _lagrange_resultant(a, b, "w", "z")


def _random_xz_pair(rng):
    """Two random polynomials in x, z with positive degree in x; leading
    coefficients such as z or z - 1 vanish at sample points."""
    def draw():
        while True:
            terms = {}
            for _ in range(rng.randint(2, 5)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = terms.get(e, 0) + rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
            p = MPoly.from_dict(("x", "z"), terms)
            if p.degree_in("x") > 0:
                return p
    return draw(), draw()


def test_resultant_matches_lagrange_on_random_pairs():
    rng = random.Random(606)
    for _ in range(25):
        f, g = _random_xz_pair(rng)
        assert _resultant_wrt(f, g, "x", "z") == _lagrange_resultant(f, g, "x", "z")
        assert _resultant_wrt(f, g, "z", "x") == _lagrange_resultant(f, g, "z", "x")


def test_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, z = sympy.symbols("x z")

    def to_sympy(p):
        return sympy.sympify(p.to_text().replace("^", "**"), locals={"x": x, "z": z})

    rng = random.Random(607)
    for _ in range(25):
        f, g = _random_xz_pair(rng)
        ours = to_sympy(_resultant_wrt(f, g, "x", "z"))
        want = sympy.resultant(to_sympy(f), to_sympy(g), x)
        assert sympy.expand(ours - want) == 0


def test_planted_lines_are_found():
    for field, planted in _planted_line_fields(808, 12):
        res = degree1_dp_search(field)
        assert planted <= set(res)
        for p in res:
            assert darboux_check(field, p) is not None


def test_isolated_points_match_pairwise_reference():
    fields = [load_field("eq8"), load_field("eq9")]
    fields += [field for field, _ in _planted_line_fields(808, 12)]
    radial = 0
    for field in fields:
        system = _chart1_system(field)
        assert system is not None
        if min(r.degree_in("w") for r in system) > 0:
            radial += 1
        assert sorted(_isolated_points(system)) == sorted(
            _pairwise_isolated_points(system)
        )
    # the radial plants reach the resultant, not the t-free shortcut
    assert radial >= 6


def test_isolated_points_redraws_a_vanishing_combination(monkeypatch):
    # gcd-free, all of degree 1 in w; with t = 2 the combination
    # 2*r1 + 4*r2 = 2*(w - z) shares r0 = w - z, so its resultant is 0
    z, w = (MPoly.variable(v).extend_ring(("z", "w")) for v in ("z", "w"))
    system = [w - z, -w - z - 2, w + 1]
    calls = []
    resultant = _resultant_wrt

    def spy(f, g, var, keep):
        r = resultant(f, g, var, keep)
        calls.append(r)
        return r

    monkeypatch.setitem(globals(), "_resultant_wrt", spy)
    assert _isolated_points(system) == [(Fraction(-1), Fraction(-1))]
    assert [r.is_zero() for r in calls] == [True, False]


# -- the section search against the reference ----------------------------------

# fields whose orbits are all straight (E1 = 0): the constant fields (1, 0)
# and (2, 3), and the radial fields (x, y) and (2*x + 4, 2*y - 1), centred
# at (0, 0) and (-2, 1/2)
STRAIGHT_ORBITS = ("y' = 0", "y' = 3/2", "y' = y/x", "y' = (2*y - 1)/(2*x + 4)")

# E1 != 0, and the invariant line y = x passes through the singular point
# (0, 0), a rational root of the section at x = 0: the search must move
# past x = 0 to find it
SINGULAR_ON_X0 = "y' = (3*y + x*y - x^2)/(x + 2*y)"


def _golden_order1_texts():
    records = json.loads((Path(__file__).resolve().parent / "golden" / "corpus.json").read_text())
    texts = {r["argv"][-1] for r in records if r["argv"][0] == "solve"}
    return sorted(t for t in texts if t.startswith("y' "))


def _random_fields(seed, count):
    """Order-1 fields y' = M/N, in lowest terms, with M and N of degree at
    most 1 to 6 and 1 to 6 terms."""
    rng = random.Random(seed)

    def draw(degree):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = rng.randint(0, degree)
            terms[(e, rng.randint(0, degree - e))] = rng.randint(-3, 3)
        return MPoly.from_dict(_XY, terms)

    out = []
    while len(out) < count:
        degree = rng.randint(1, 6)
        m, n = draw(degree), draw(degree)
        if not n.is_zero():
            out.append(build_field(RationalODE.from_quotient(1, m, n)))
    return out


def test_degree1_search_matches_the_reference():
    fields = [load_field(name) for name in ("eq5", "eq8", "eq9")]
    texts = _golden_order1_texts() + list(STRAIGHT_ORBITS) + [SINGULAR_ON_X0]
    fields += [build_field(parse_ode(t)) for t in texts]
    for seed in (7, 11, 42, 4242, 2026):
        rng = random.Random(seed)
        fields += [build_field(plant(rng, max_factor_degree=4).ode) for _ in range(40)]
    fields += [field for field, _ in _planted_line_fields(909, 12)]
    fields += _random_fields(2026, 400)
    found = 0
    for field in fields:
        res = degree1_dp_search(field)
        assert res == reference_degree1_dp_search(field), field
        found += bool(res)
    assert found > len(fields) // 2


def test_degree1_search_passes_a_singular_root():
    field = build_field(parse_ode(SINGULAR_ON_X0))
    m, n = field.m, field.n
    e1 = n * field.apply(m) - m * field.apply(n)
    m0, n0, e0 = (_substitute(p, {"x": MPoly.constant(0)}) for p in (m, n, e1))
    assert not e0.is_zero() and e0.exact_divide(Y) is not None
    assert m0.exact_divide(Y) is not None and n0.exact_divide(Y) is not None
    assert [p.to_text() for p in degree1_dp_search(field)] == ["-x + y"]
