"""First-integral reconstruction tests.  Expected structures were frozen
after exact verification of the logarithmic-derivative identity; every
reconstruction is re-verified here rather than trusted."""

from fractions import Fraction
from pathlib import Path

import pytest

from lps.darboux import (
    DarbouxFirstIntegral,
    check_v_factors,
    compute_pol_pair,
    reconstruct_first_integral,
    verify_first_integral,
)
from lps.errors import DomainError
from lps.parser import parse_ode
from lps.poly import MPoly
from lps.solver import (
    InverseIntegratingFactor,
    build_field,
    lps2_search,
    lps_search,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "lps" / "fixtures"

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")
ONE = MPoly.constant(1, ("x", "y"))


def load_ode(name):
    return parse_ode((FIXTURES / f"{name}.txt").read_text())


def test_reconstruct_product_form():
    # seeding with V = xy on y' = y/x splits into bare factors x and y
    field = build_field(parse_ode("y' = y/x"))
    seed = InverseIntegratingFactor(
        kind="polynomial", v_num=X * Y, v_den=ONE, k=1, degree_found=2
    )
    integral = reconstruct_first_integral(field, seed)
    assert integral.a.is_zero()
    assert integral.b == ONE
    assert integral.factors == ((X, Fraction(1)), (Y, Fraction(-1)))
    assert verify_first_integral(field, integral)
    pol_x, pol_y, coprime = compute_pol_pair(integral)
    assert (pol_x, pol_y) == (Y, -X)
    assert coprime


def test_reconstruct_from_search_result():
    # the search itself picks V = x^2, giving the exponential form exp(y/x)
    ode = parse_ode("y' = y/x")
    field = build_field(ode)
    found = lps_search(ode)
    assert found.v_num == X * X
    integral = reconstruct_first_integral(field, found)
    assert (integral.a, integral.b) == (Y, X)
    assert integral.factors == ()
    assert verify_first_integral(field, integral)
    assert compute_pol_pair(integral) == (-Y, X, True)


def test_reconstruct_pure_exponential():
    # y' = 0 admits V = 1; the ansatz must reach A = y on its own
    ode = parse_ode("y' = 0")
    field = build_field(ode)
    integral = reconstruct_first_integral(field, lps_search(ode))
    assert (integral.a, integral.b) == (Y, ONE)
    assert integral.factors == ()
    assert verify_first_integral(field, integral)


def test_reconstruct_fixture_eq5():
    ode = load_ode("eq5")
    field = build_field(ode)
    found = lps_search(ode, max_degree=13)
    integral = reconstruct_first_integral(field, found)
    assert integral.b == 3 * Y**3 - X
    assert integral.factors == ((X**2 + Y**7, Fraction(1)),)
    assert integral.a == X
    assert verify_first_integral(field, integral)
    pol_x, pol_y, coprime = compute_pol_pair(integral)
    assert coprime
    assert (-pol_x * field.n - field.m * pol_y).is_zero()
    # the seeded product B^2 p_1 recovers the found numerator up to sign
    assert integral.b**2 * integral.factors[0][0] == found.v_num


def test_reconstruct_scaled_euler_family():
    # y' = cy/x integrates to x^c/y up to powers for every small c
    for c in (2, 3, -1, 5):
        ode = parse_ode(f"y' = {c}*y/x")
        field = build_field(ode)
        found = lps_search(ode, max_degree=4)
        integral = reconstruct_first_integral(field, found)
        assert verify_first_integral(field, integral)
        pol_x, pol_y, coprime = compute_pol_pair(integral)
        assert coprime
        assert (-pol_x * field.n - field.m * pol_y).is_zero()


def test_reconstruct_trivial_only_returns_none():
    # x + y is Darboux for the Euler field but supports no integral alone
    field = build_field(parse_ode("y' = y/x"))
    seed = InverseIntegratingFactor(
        kind="polynomial", v_num=X + Y, v_den=ONE, k=1, degree_found=1
    )
    assert reconstruct_first_integral(field, seed) is None


def test_reconstruct_rejects_second_order():
    field = build_field(parse_ode("y'' = z"))
    seed = InverseIntegratingFactor(
        kind="polynomial", v_num=Z, v_den=ONE, k=1, degree_found=1
    )
    with pytest.raises(DomainError):
        reconstruct_first_integral(field, seed)


def test_verify_rejects_non_integral():
    field = build_field(parse_ode("y' = y/x"))
    bare = DarbouxFirstIntegral(
        a=MPoly.zero(("x", "y")),
        b=ONE,
        factors=((X, Fraction(1)), (Y, Fraction(1))),
    )
    assert not verify_first_integral(field, bare)


def test_pol_pair_single_factor_is_gradient():
    p = X**2 + Y
    integral = DarbouxFirstIntegral(a=MPoly.zero(("x", "y")), b=ONE, factors=((p, Fraction(1)),))
    pol_x, pol_y, coprime = compute_pol_pair(integral)
    assert (pol_x, pol_y) == (2 * X, ONE)
    assert coprime


def test_pol_pair_clears_rational_exponents():
    halves = DarbouxFirstIntegral(
        a=MPoly.zero(("x", "y")),
        b=ONE,
        factors=((X, Fraction(1, 2)), (Y, Fraction(-3, 2))),
    )
    cleared = DarbouxFirstIntegral(
        a=MPoly.zero(("x", "y")),
        b=ONE,
        factors=((X, Fraction(1)), (Y, Fraction(-3))),
    )
    assert compute_pol_pair(halves) == compute_pol_pair(cleared)


def test_exponent_scaling_preserves_verification():
    # I and I^c satisfy X(I) = 0 together
    field = build_field(parse_ode("y' = y/x"))
    base = DarbouxFirstIntegral(
        a=MPoly.zero(("x", "y")), b=ONE, factors=((X, Fraction(1)), (Y, Fraction(-1)))
    )
    scaled = DarbouxFirstIntegral(
        a=MPoly.zero(("x", "y")),
        b=ONE,
        factors=tuple((p, n * Fraction(-7, 2)) for p, n in base.factors),
    )
    assert verify_first_integral(field, base)
    assert verify_first_integral(field, scaled)


def test_integral_json_shape():
    integral = DarbouxFirstIntegral(
        a=X, b=3 * Y**3 - X, factors=((X**2 + Y**7, Fraction(1, 2)),)
    )
    blob = integral.to_json_dict()
    assert set(blob) == {"A", "B", "factors"}
    assert blob["factors"] == [["x^2 + y^7", "1/2"]]


def test_check_v_factors_fixture_eq7():
    ode = load_ode("eq7")
    field = build_field(ode)
    found = lps2_search(ode, max_degree=13)
    factors, den = check_v_factors(field, found)
    assert den == [] and den.failed == []
    assert factors.failed == []
    assert sorted((f.p.total_degree(), f.multiplicity) for f in factors) == [(3, 1), (5, 2)]
    for fac in factors:
        image = (
            field.n * fac.p.derivative("x")
            + Z * field.n * fac.p.derivative("y")
            + field.m * fac.p.derivative("z")
        )
        assert image == fac.q * fac.p


def test_check_v_factors_velocity_multiplier():
    ode = parse_ode("y'' = z")
    field = build_field(ode)
    found = lps2_search(ode, max_degree=3)
    assert found.v_num == Z
    factors, den = check_v_factors(field, found)
    assert [(f.p, f.q, f.multiplicity) for f in factors] == [(Z, MPoly.constant(1, field.ring), 1)]
    assert den == []


def test_check_v_factors_constant_multiplier():
    field = build_field(parse_ode("y'' = z"))
    one = MPoly.constant(1, field.ring)
    trivial = InverseIntegratingFactor(
        kind="polynomial", v_num=one, v_den=one, k=1, degree_found=0
    )
    assert check_v_factors(field, trivial) == ([], [])
