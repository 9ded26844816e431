import random
from fractions import Fraction

from lps.darboux import DarbouxFirstIntegral, compute_pol_pair, verify_first_integral
from lps.parser import RationalODE
from lps.poly import MPoly, mpoly_gcd
from lps.solver import build_field, verify_iif_identity
from lps.synth import PlantedODE, measure_recovery, plant

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


def hand_planted(a, b, factors):
    integral = DarbouxFirstIntegral(a=a, b=b, factors=tuple(factors))
    pol_x, pol_y, coprime = compute_pol_pair(integral)
    planted_v = b * b
    for p, _ in factors:
        planted_v = planted_v * p
    return PlantedODE(
        ode=RationalODE.from_quotient(1, -pol_x, pol_y),
        integral=integral,
        planted_v=planted_v.normalized(),
        pol_x=pol_x,
        pol_y=pol_y,
        coprime=coprime,
    )


def test_hand_planted_product_xy():
    planted = hand_planted(ZERO, ONE, [(X, Fraction(1)), (Y, Fraction(-1))])
    assert (planted.pol_x, planted.pol_y, planted.coprime) == (Y, -X, True)
    outcome = measure_recovery(planted)
    assert outcome.identity_holds
    assert outcome.recovered
    assert outcome.degree_found == 2


def test_recovery_through_the_identity_alone():
    # the search selects another kernel element than the planted V, at V's
    # degree (exp(y/(1+x)): V = (1+x)^2, found y^2) or below it
    # ((y-2)(y^2-xy)/(1+y): V of degree 4, found (1+y)^2); V still lies in
    # the kernel, which the search identity decides
    cases = [
        (hand_planted(Y, X + 1, []), Y * Y, 2),
        (
            hand_planted(ZERO, ONE, [(Y - 2, Fraction(1)), (Y + 1, Fraction(-1)), (Y * Y - X * Y, Fraction(1))]),
            (Y + 1) ** 2,
            2,
        ),
    ]
    for planted, found, degree in cases:
        outcome = measure_recovery(planted)
        assert (outcome.found_v, outcome.degree_found) == (found, degree)
        assert found.exact_divide(planted.planted_v) is None
        assert outcome.identity_holds and outcome.recovered
