import random
from fractions import Fraction
from pathlib import Path

import pytest

import lps.factor as factor_module
from lps.errors import DomainError
from lps.factor import (
    DarbouxFactor,
    _coeffs_in,
    _isolated_points,
    _rational_roots,
    _res_frac,
    _resultant_wrt,
    darboux_check,
    degree1_dp_search,
    factor_multivariate,
    factor_univariate,
)
from lps.parser import RationalODE, parse_ode, parse_poly
from lps.poly import MPoly, RatFunc, mpoly_gcd
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


# -- the elimination behind degree1_dp_search ---------------------------------


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
            if lcf.eval_at({keep: x0}) == 0 or lcg.eval_at({keep: x0}) == 0:
                continue
            av = [c.eval_at({keep: x0}) for c in fc]
            bv = [c.eval_at({keep: x0}) for c in gc]
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
            sections = [
                s.substitute({keep: MPoly.constant(r0, s.ring)}).project_ring()
                for s in sys2
            ]
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
                if all(s.eval_at({"z": pt[0], "w": pt[1]}) == 0 for s in sys2):
                    pts.append(pt)
        if pts:
            break
    return pts


def _chart1_system(field):
    """The gcd-free (s, t) system, in (z, w), that degree1_dp_search hands
    to _isolated_points for lines y - s*x - t; None when it hands over
    nothing."""
    seen = []

    def spy(system):
        seen.append(system)
        return _isolated_points(system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor_module, "_isolated_points", spy)
        degree1_dp_search(field)
    return seen[0] if seen else None


_XY = ("x", "y")


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
        field = build_field(RationalODE.from_ratfunc(1, RatFunc(m, n)))
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
        assert not res.family
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

    def spy(f, g, var, keep):
        r = _resultant_wrt(f, g, var, keep)
        calls.append(r)
        return r

    monkeypatch.setattr(factor_module, "_resultant_wrt", spy)
    assert _isolated_points(system) == [(Fraction(-1), Fraction(-1))]
    assert [r.is_zero() for r in calls] == [True, False]


def test_degree1_search_eq5_is_empty():
    res = degree1_dp_search(load_field("eq5"))
    assert list(res) == [] and not res.family
