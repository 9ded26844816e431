"""Search-engine tests against hand-checkable fields and the shipped
fixtures.  Fixture expectations were frozen after exact verification of
the defining identities (see test_fixture_identities)."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from lps import linalg
from lps.errors import BudgetError, DomainError
from lps.parser import parse_ode, parse_poly
from lps.poly import MAX_KEY_DEGREE, MPoly, monomials_of_degree
from lps.solver import (
    _select_kernel_poly,
    _SystemBuilder,
    build_field,
    lps2_search,
    lps_search,
    verify_iif_identity,
)
from lps.synth import plant
from test_linalg import exact_nullspace

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "lps" / "fixtures"

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")


def candidates(ring, degree):
    """Monomial keys of total degree <= degree, ascending grlex: the
    columns of the search's degree-`degree` system."""
    return [m for d in range(degree + 1) for m in monomials_of_degree(ring, d)]


def load_ode(name):
    return parse_ode((FIXTURES / f"{name}.txt").read_text())


def test_build_field_divergence():
    ode = parse_ode("y' = y/x")
    f = build_field(ode)
    assert f.apply(X * Y) == 2 * X * Y  # X = x dx + y dy on xy
    assert f.divergence == MPoly.constant(2)


def test_assemble_zero_rhs_field():
    # y' = 0: X = dx, divergence 0, so constants are solutions at degree 0
    ode = parse_ode("y' = 0")
    mat, _ = _SystemBuilder(build_field(ode), 1, MPoly.constant(1, ("x", "y"))).build(0)
    assert mat.ncols == 1
    r = lps_search(ode, max_degree=2)
    assert r.v_num == MPoly.constant(1) and r.degree_found == 0


def test_euler_field_kernel():
    # y' = y/x: kernel at degree 2 is spanned by x^2, xy, y^2
    r = lps_search(parse_ode("y' = y/x"), max_degree=5)
    assert r.degree_found == 2
    assert set(r.basis) == {X**2, X * Y, Y**2}
    # canonical selection: degree and term count tie, grlex-least leading
    # monomial wins
    assert r.v_num == X**2
    assert r.kind == "polynomial" and r.k == 1 and r.v_den == MPoly.constant(1)


def test_search_verifies_identity():
    ode = parse_ode("y' = (x + y)/(x - y)")
    r = lps_search(ode, max_degree=8)
    if r is not None:
        assert verify_iif_identity(build_field(ode), r.v_num, r.v_den, r.k)


def test_scaling_invariance():
    # multiplying M and N by the same constant must not change the answer
    a = lps_search(parse_ode("y' = y/x"), max_degree=4)
    b = lps_search(parse_ode("y' = (3*y)/(3*x)"), max_degree=4)
    assert a.v_num == b.v_num and a.degree_found == b.degree_found


def test_eq5_search():
    r = lps_search(load_ode("eq5"), max_degree=13)
    assert r is not None and r.degree_found == 13 and len(r.basis) == 1
    expect = ((X - 3 * Y**3) ** 2 * (Y**7 + X**2)).normalized()
    assert r.v_num == expect
    assert r.kind == "polynomial"


def test_eq8_not_found_small_degrees():
    # cheap version of the acceptance run (full range there)
    assert lps_search(load_ode("eq8"), max_degree=8) is None


def test_eq9_power_two():
    r = lps_search(load_ode("eq9"), max_degree=18, k=2)
    assert r is not None and r.kind == "kth_root"
    expect = ((X * Y**2 - 1) ** 3 * (X * Y**2 + 1) ** 3).normalized()
    assert r.v_num == expect
    assert lps_search(load_ode("eq9"), max_degree=10, k=1) is None


def test_eq7_second_order():
    r = lps2_search(load_ode("eq7"), max_degree=13)
    assert r is not None and r.degree_found == 13 and len(r.basis) == 1
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
    assert r.v_num == (f1 * f2**2).normalized()


def test_trivial_second_order():
    # y'' = 0: divergence-free, so P_J = 1 at degree 0
    r = lps2_search(parse_ode("y'' = 0"), max_degree=2)
    assert r.v_num == MPoly.constant(1)
    assert r.v_num.total_degree() == 0


def test_denominator_search_constructed():
    # built from I = 1/(xy(x+y)^2 - 1): V = (xy(x+y)^2-1)^2/(y+x) is an
    # inverse integrating factor, so y+x is a legitimate denominator
    ode = parse_ode("y' = -(y*(3*x + y))/(x*(x + 3*y))")
    field = build_field(ode)
    u = X * Y * (X + Y) ** 2 - 1
    den = parse_poly("y + x")
    assert verify_iif_identity(field, u, den, 1)
    r = lps_search(ode, max_degree=6, denominator=den)
    assert r is not None and r.kind == "rational"
    assert verify_iif_identity(field, r.v_num, den, 1)
    # the planted numerator sits in the degree-4 kernel even though the
    # search legitimately stops earlier (1/(y+x) already works)
    assert r.degree_found == 0 and r.v_num == MPoly.constant(1)


def test_monotonicity_of_search():
    rng = random.Random(7)
    for _ in range(20):
        mtx = [rng.randint(-3, 3) for _ in range(6)]
        m = mtx[0] * X + mtx[1] * Y + mtx[2]
        n = mtx[3] * X + mtx[4] * Y + mtx[5]
        if n.is_zero():
            continue
        from lps.parser import RationalODE
        from lps.poly import mpoly_gcd

        g = mpoly_gcd(m, n)
        if not g.is_constant():
            m = m.exact_divide(g)
            n = n.exact_divide(g)
        n2, unit = n.normalized_with_unit()
        m2 = m * (Fraction(1) / unit)
        ode = RationalODE(1, m2.extend_ring(("x", "y")), n2.extend_ring(("x", "y")))
        r6 = lps_search(ode, max_degree=6)
        if r6 is not None:
            r9 = lps_search(ode, max_degree=9)
            assert r9 is not None and r9.degree_found <= r6.degree_found


def test_bad_inputs():
    ode2 = parse_ode("y'' = x")
    with pytest.raises(DomainError):
        lps_search(ode2)
    ode1 = parse_ode("y' = x")
    with pytest.raises(DomainError):
        lps2_search(ode1)
    with pytest.raises(DomainError):
        lps_search(ode1, k=0)
    with pytest.raises(DomainError):
        lps_search(ode1, max_degree=-1)
    with pytest.raises(DomainError):
        lps_search(ode1, denominator=MPoly.zero())
    with pytest.raises(DomainError):
        lps_search(ode1, denominator=Z + 1)


def test_fixture_identities():
    """The frozen expected answers satisfy their defining PDEs exactly;
    this is the oracle that justifies every fixture assertion above."""
    f5 = build_field(load_ode("eq5"))
    v5 = (X - 3 * Y**3) ** 2 * (Y**7 + X**2)
    assert verify_iif_identity(f5, v5, MPoly.constant(1), 1)

    f8 = build_field(load_ode("eq9"))
    w = (X * Y**2 - 1) ** 3 * (X * Y**2 + 1) ** 3
    assert verify_iif_identity(f8, w, MPoly.constant(1), 2)

    f7 = build_field(load_ode("eq7"))
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
    assert verify_iif_identity(f7, f1 * f2**2, MPoly.constant(1), 1)


def exact_search(ode, max_degree, k=1, den=None):
    """The degree ladder without shared state: each rung's kernel from
    test_linalg's reference engine, with no column peeled.  Returns
    (degree_found, basis) as the search reports it."""
    field = build_field(ode)
    den = MPoly.constant(1, field.ring) if den is None else den.extend_ring(field.ring).normalized()
    builder = _SystemBuilder(field, k, den)
    for degree in range(max_degree + 1):
        mat, cols = builder.build(degree)
        basis = exact_nullspace(linalg._drop_peeled(mat, [])[0], mat.ncols)
        if basis:
            _, polys = _select_kernel_poly(basis, cols, field.ring)
            return degree, tuple(p.normalized() for p in polys)
    return None


def test_a_second_order_field_too_large_to_multiply_is_over_budget():
    # N has 10,388 terms, and N times N alone would take about 150 s
    ode = parse_ode("y'' = (4*x^2 - 5*z - 2*x^2*z^2 + x^2*z + 8*y)^(-30)")
    with pytest.raises(BudgetError, match="second-order field"):
        build_field(ode)


def ladder_cases():
    """eq5, eq9 with k = 1 and 2, eq8's two ladders under
    --auto-denominator (plain, then over y), and seeded plants."""
    cases = [
        (load_ode("eq5"), 15, 1, None),
        (load_ode("eq9"), 20, 1, None),
        (load_ode("eq9"), 20, 2, None),
        (load_ode("eq8"), 20, 1, None),
        (load_ode("eq8"), 20, 1, Y),
    ]
    rng = random.Random(20261018)
    for _ in range(16):
        planted = plant(rng, max_factor_degree=3)
        cases.append((planted.ode, planted.planted_v.total_degree(), 1, None))
    return cases


def check_ladder_against_exact_search():
    for ode, max_degree, k, den in ladder_cases():
        found = lps_search(ode, max_degree=max_degree, k=k, denominator=den)
        got = None if found is None else (found.degree_found, found.basis)
        assert got == exact_search(ode, max_degree, k, den), ode.to_text()


def test_ladder_matches_per_rung_exact_search():
    check_ladder_against_exact_search()


def test_ladder_matches_exact_search_with_an_unlucky_first_prime(monkeypatch):
    # every modular elimination starts at p = 3, where dependencies that
    # do not hold over Q are common and nothing reconstructs; the bases
    # must not change.  Every rung that survives the peel runs the modular
    # engine: the order-1 ladders' and eq7's (its peeled rungs 9 to 13).
    want = lps2_search(load_ode("eq7"), max_degree=13)
    monkeypatch.setattr(linalg, "_PRIMES", [3] + linalg._PRIMES)
    primes_seen = []
    modular = linalg._nullspace_modular

    def recording_modular(rows, ncols):
        primes_seen.append(linalg._PRIMES[0])
        return modular(rows, ncols)

    monkeypatch.setattr(linalg, "_nullspace_modular", recording_modular)
    check_ladder_against_exact_search()
    got = lps2_search(load_ode("eq7"), max_degree=13)
    assert (got.degree_found, got.basis, got.system) == (want.degree_found, want.basis, want.system)
    assert primes_seen and set(primes_seen) == {3}


def test_each_rungs_kernel_is_complete():
    # a canonical basis vector's grlex-leading monomial is its free column,
    # absent from every other basis vector, so leading-term reduction
    # decides membership in the span with no linear solve; a planted V
    # must lie in the span of its own degree's kernel exactly when it
    # satisfies the search identity
    reduced = in_span = 0
    for seed in (7, 11, 42, 4242):
        rng = random.Random(seed)
        for _ in range(60):
            planted = plant(rng)
            field = build_field(planted.ode)
            v = planted.planted_v.extend_ring(field.ring)
            found = lps_search(planted.ode, max_degree=v.total_degree())
            if found is None:
                continue
            leads = [b.leading_term()[0] for b in found.basis]
            for i, b in enumerate(found.basis):
                assert all(m not in b.terms for j, m in enumerate(leads) if j != i)
            if found.degree_found != v.total_degree():
                continue
            rest = v
            for b, m in zip(found.basis, leads):
                if m in rest.terms:
                    rest = rest - b * (Fraction(rest.terms[m]) / b.terms[m])
            holds = verify_iif_identity(field, v, MPoly.constant(1, field.ring), 1)
            assert rest.is_zero() == holds, planted.ode.to_text()
            reduced += 1
            in_span += holds
    assert 0 < in_span < reduced


def reference_image(field, k, pbar, mono):
    """E(m) = scale (pbar D(m) - m D(pbar)) - k div m pbar over Q, from
    the field's derivation alone."""
    m = MPoly(field.ring, {mono: Fraction(1)})
    lhs = field.scale * (pbar * field.apply(m) - m * field.apply(pbar))
    return lhs - k * field.divergence * m * pbar


def builder_cases():
    """eq5, eq7, eq9 with k = 1 and 2, eq8 over y and ten seeded plants,
    each with the top degree its columns are checked up to."""
    cases = [
        (load_ode("eq5"), 1, None, 13),
        (load_ode("eq7"), 1, None, 10),
        (load_ode("eq9"), 1, None, 12),
        (load_ode("eq9"), 2, None, 12),
        (load_ode("eq8"), 1, Y, 10),
    ]
    rng = random.Random(20261101)
    for _ in range(10):
        planted = plant(rng, max_factor_degree=3)
        cases.append((planted.ode, 1, None, planted.planted_v.total_degree()))
    return cases


@pytest.mark.parametrize("case", range(15))
def test_builder_columns_are_the_cleared_images(case):
    ode, k, den, top = builder_cases()[case]
    field = build_field(ode)
    pbar = MPoly.constant(1, field.ring) if den is None else den.extend_ring(field.ring).normalized()
    builder = _SystemBuilder(field, k, pbar)
    assert isinstance(builder.lcm, int) and builder.lcm > 0
    expected = {}
    for degree in range(top + 1):
        mat, cols = builder.build(degree)
        assert cols == candidates(field.ring, degree)
        monomial_of = {i: t for t, i in builder._rows.items()}
        assert sorted(monomial_of) == list(range(mat.nrows))
        columns = [{} for _ in cols]
        for (i, j), c in mat.entries.items():
            assert type(c) is int and c
            columns[j][monomial_of[i]] = c
        for j, mono in enumerate(cols):
            if mono not in expected:
                expected[mono] = reference_image(field, k, pbar, mono)
            assert columns[j] == {t: builder.lcm * c for t, c in expected[mono].terms.items()}
        # an extra column (lcm times the polynomial, new rows appended)
        # joins this rung's system only; the next rung is checked as above
        probe = (MPoly.variable("x").extend_ring(field.ring) ** (top + 2) - 1) * Fraction(1, 3)
        wide, wide_cols = builder.build(degree, [probe])
        assert wide_cols == cols and wide.ncols == mat.ncols + 1
        assert {ij: c for ij, c in wide.entries.items() if ij[1] < mat.ncols} == mat.entries
        known = set(monomial_of.values())
        new_rows = [t for t in probe.terms if t not in known]
        monomial_of.update({mat.nrows + n: t for n, t in enumerate(new_rows)})
        assert wide.nrows == mat.nrows + len(new_rows)
        extra = {monomial_of[i]: c for (i, j), c in wide.entries.items() if j == mat.ncols}
        assert extra == {t: builder.lcm * c for t, c in probe.terms.items()}
        assert len(builder._rows) == mat.nrows


def test_builder_refuses_exponents_that_overflow_the_packing():
    field = build_field(parse_ode("y' = y/x"))
    builder = _SystemBuilder(field, 1, MPoly.constant(1, field.ring))
    top = MAX_KEY_DEGREE  # y' = y/x adds degree 1 to a column
    with pytest.raises(DomainError, match="overflow"):
        builder.build(top)
    with pytest.raises(DomainError, match="overflow"):
        builder.build(0, [X ** (top + 1)])
    assert builder._cols == [] and builder._rows == {}


def test_builder_cases_clear_denominators():
    # the integer columns differ from the images somewhere
    lcms = []
    for ode, k, den, _ in builder_cases():
        field = build_field(ode)
        pbar = MPoly.constant(1, field.ring) if den is None else den.extend_ring(field.ring)
        lcms.append(_SystemBuilder(field, k, pbar).lcm)
    assert max(lcms) > 1


def surviving_block(mat):
    """The entries of mat in the columns its peel keeps, as {(row, col):
    value}, with the kept columns."""
    peeled = {j for j, _ in linalg._peel(mat)}
    keep = set(range(mat.ncols)) - peeled
    return {(i, j): v for (i, j), v in mat.entries.items() if j in keep}, keep


def test_surviving_systems_are_nested():
    # rung d's surviving columns are among rung d+1's, and rung d+1's
    # surviving system holds rung d's as a block with zeros below it: its
    # entries in rung d's surviving columns are exactly rung d's
    cases = [(load_ode("eq5"), 15), (load_ode("eq7"), 15), (load_ode("eq9"), 20)]
    rng = random.Random(20261020)
    for _ in range(20):
        planted = plant(rng, max_factor_degree=3)
        cases.append((planted.ode, planted.planted_v.total_degree() + 2))
    grew = 0
    for ode, top in cases:
        field = build_field(ode)
        builder = _SystemBuilder(field, 1, MPoly.constant(1, field.ring))
        below, kept = {}, set()
        for degree in range(top + 1):
            block, keep = surviving_block(builder.build(degree)[0])
            assert kept <= keep, ode.to_text()
            assert {ij: v for ij, v in block.items() if ij[1] in kept} == below, ode.to_text()
            grew += kept < keep
            below, kept = block, keep
    assert grew > 20
