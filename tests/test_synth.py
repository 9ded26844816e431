import random
from fractions import Fraction

from lps.darboux import DarbouxFirstIntegral, compute_pol_pair, verify_first_integral
from lps.parser import RationalODE
from lps.poly import MPoly, mpoly_gcd
from lps.solver import build_field, verify_iif_identity
from lps.synth import PlantedODE, _in_span, measure_recovery, plant

X = MPoly.variable("x")
Y = MPoly.variable("y")
ZERO = MPoly.zero(("x", "y"))
ONE = MPoly.constant(1, ("x", "y"))


def test_plant_is_deterministic_per_seed():
    a = [plant(random.Random(99)) for _ in range(10)]
    b = [plant(random.Random(99)) for _ in range(10)]
    for pa, pb in zip(a, b):
        assert pa.ode == pb.ode
        assert pa.planted_v == pb.planted_v
        assert pa.integral.to_json_dict() == pb.integral.to_json_dict()


def test_plant_invariants():
    rng = random.Random(4251)
    for _ in range(40):
        planted = plant(rng)
        factors = planted.integral.factors
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert mpoly_gcd(factors[i][0], factors[j][0]).is_constant()
        if len(factors) >= 2:
            signs = {exponent > 0 for _, exponent in factors}
            assert signs == {True, False}
        rebuilt = planted.integral.b ** 2
        for p, _ in factors:
            rebuilt = rebuilt * p
        assert planted.planted_v == rebuilt.normalized()
        assert (planted.ode.m * planted.pol_y - (-planted.pol_x) * planted.ode.n).is_zero()
        field = build_field(planted.ode)
        assert verify_first_integral(field, planted.integral)
        assert planted.coprime == mpoly_gcd(planted.pol_x, planted.pol_y).is_constant()


def test_coprime_plants_satisfy_identity_and_recover():
    rng = random.Random(31)
    seen_coprime = 0
    for _ in range(30):
        outcome = measure_recovery(plant(rng))
        if outcome.planted.coprime:
            seen_coprime += 1
            assert outcome.identity_holds
            assert outcome.recovered
        if outcome.found_v is not None:
            field = build_field(outcome.planted.ode)
            one = MPoly.constant(1, field.ring)
            assert verify_iif_identity(field, outcome.found_v, one, 1)
    assert seen_coprime >= 20


def test_hand_planted_product_xy():
    integral = DarbouxFirstIntegral(
        a=ZERO, b=ONE, factors=((X, Fraction(1)), (Y, Fraction(-1)))
    )
    pol_x, pol_y, coprime = compute_pol_pair(integral)
    assert (pol_x, pol_y, coprime) == (Y, -X, True)
    ode = RationalODE.from_quotient(1, -pol_x, pol_y)
    planted = PlantedODE(
        ode=ode,
        integral=integral,
        planted_v=(X * Y).normalized(),
        pol_x=pol_x,
        pol_y=pol_y,
        coprime=coprime,
    )
    outcome = measure_recovery(planted)
    assert outcome.identity_holds
    assert outcome.recovered
    assert outcome.degree_found == 2


def test_in_span_detects_membership():
    basis = (X * X, X * Y)
    assert _in_span(X * X + 3 * X * Y, basis)
    assert _in_span(X * Y, basis)
    assert not _in_span(Y * Y, basis)
    assert not _in_span(X, basis)
