import random
from fractions import Fraction
from pathlib import Path

import pytest

from lps.errors import DomainError
from lps.factor import (
    DarbouxFactor,
    _rational_roots,
    _resultant_wrt,
    darboux_check,
    degree1_dp_search,
    factor_multivariate,
    factor_univariate,
)
from lps.parser import parse_ode, parse_poly
from lps.poly import MPoly, mpoly_gcd
from lps.solver import build_field

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
    f = factor_univariate(parse_poly("x^4 - 1"))
    assert f.unit == 1
    assert [(p.to_text(), m) for p, m in f.factors] == [
        ("-1 + x", 1),
        ("1 + x", 1),
        ("1 + x^2", 1),
    ]
    g = factor_univariate(parse_poly("x^2 + 1"))
    assert len(g.factors) == 1 and g.factors[0][1] == 1


def test_univariate_units_and_content():
    f = factor_univariate(parse_poly("6*x^2 - 6"))
    assert f.unit == 6
    assert f.expand() == parse_poly("6*x^2 - 6")
    g = factor_univariate(MPoly.constant(Fraction(3, 4)))
    assert g.unit == Fraction(3, 4) and g.factors == ()


def test_univariate_rejects():
    with pytest.raises(DomainError):
        factor_univariate(MPoly.zero())
    with pytest.raises(DomainError):
        factor_univariate(X + Y)


def test_univariate_multiset_recovery():
    rng = random.Random(11)
    pool = [parse_poly(s) for s in _POOL]
    for _ in range(25):
        picks = rng.sample(range(len(pool)), rng.randint(1, 3))
        mults = [rng.randint(1, 3) for _ in picks]
        prod = MPoly.constant(rng.choice([1, -2, 3, Fraction(1, 2)]))
        for i, m in zip(picks, mults):
            prod = prod * pool[i] ** m
        fac = factor_univariate(prod)
        assert fac.expand() == prod
        got = {p: m for p, m in fac.factors}
        want = {pool[i].normalized(): m for i, m in zip(picks, mults)}
        assert got == want


def test_recombination_needed():
    # both quadratics split modulo every prime, so the subsets must be
    # recombined rather than read off
    f = factor_univariate(parse_poly("(x^2 - 2)*(x^2 - 3)"))
    assert sorted(p.to_text() for p, _ in f.factors) == ["-2 + x^2", "-3 + x^2"]
    g = factor_univariate(parse_poly("x^4 - 10*x^2 + 1"))
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


def test_specialization_smoke():
    rng = random.Random(5)
    p = ((X**2 + Y**2 + 1) * (X * Y - 2) ** 2).normalized()
    fac = factor_multivariate(p)
    for _ in range(5):
        c = Fraction(rng.randint(-5, 5))
        spec = p.substitute({"y": MPoly.constant(c, p.ring)}).project_ring()
        if spec.is_constant():
            continue
        uni = factor_univariate(spec)
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
    assert res.family
    texts = [p.to_text() for p in res]
    assert "x" in texts and "y" in texts
    # vertical lines x - c admit only c = 0
    for p in res:
        if p.degree_in("y") == 0:
            assert p == X


def test_degree1_search_constructed():
    field = build_field(parse_ode("y' = -(y*(3*x + y))/(x*(x + 3*y))"))
    res = degree1_dp_search(field)
    assert not res.family
    assert {p for p in res} == {X, Y, (X + Y).normalized()}
    for p in res:
        assert darboux_check(field, p) is not None


def test_degree1_search_eq8():
    # the printed equation has y as its only invariant line; in
    # particular y + x fails the eigenpolynomial test
    field = load_field("eq8")
    res = degree1_dp_search(field)
    assert [p.to_text() for p in res] == ["y"]
    assert not res.family
    assert darboux_check(field, X + Y) is None


def test_degree1_rejects_order2():
    with pytest.raises(DomainError):
        degree1_dp_search(load_field("eq7"))


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
    p = parse_poly("(2*x - 3)*(3*x + 5)*(x - 2)*x").extend_ring(("x",))
    assert _rational_roots(p) == [
        Fraction(-5, 3),
        Fraction(0),
        Fraction(3, 2),
        Fraction(2),
    ]
    assert _rational_roots(parse_poly("x^2 + 1").extend_ring(("x",))) == []
