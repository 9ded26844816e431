"""Differential tests: the library's exact checks, built on the one field
operator VectorField.apply, against the independent checker behind
`lps verify` (cli._identity_from_scratch and cli._integral_from_scratch),
which rebuilds the field by hand from the parsed equation.  Both must
say true on the known answers and false on perturbed ones."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from lps import cli
from lps.darboux import DarbouxFirstIntegral, verify_first_integral
from lps.errors import DomainError
from lps.parser import parse_ode, parse_poly
from lps.poly import MPoly
from lps.solver import build_field, verify_iif_identity
from lps.synth import plant

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")

EQ7_P = (Y**2 * Z - Y**2 + Z) * parse_poly(
    "x^2*y^2*z - 2*x*y^3*z + y^4*z - x^2*y^2 + 2*x*y^3 - y^4 + x^2*z"
    " - y^2*z - 2*x*y + 2*y^2 + y*z - y + 2*z - 2"
) ** 2

# (fixture, V numerator, k): the frozen answers of the search
KNOWN_V = (
    ("eq5", (X - 3 * Y**3) ** 2 * (Y**7 + X**2), 1),
    ("eq7", EQ7_P, 1),
    ("eq9", (X * Y**2 - 1) ** 3 * (X * Y**2 + 1) ** 3, 2),
)


def fixture_ode(name):
    return parse_ode(resources.files("lps").joinpath("fixtures", f"{name}.txt").read_text())


def expected_integral(name):
    text = resources.files("lps").joinpath("fixtures", "expected", f"{name}.json").read_text()
    return json.loads(text)["report"]["first_integral"]


def integral_from_blob(blob, ring):
    return DarbouxFirstIntegral(
        a=parse_poly(blob["A"], ring),
        b=parse_poly(blob["B"], ring),
        factors=tuple((parse_poly(p, ring), Fraction(str(n))) for p, n in blob["factors"]),
    )


def iif_verdicts(ode, num, den, k):
    return (
        verify_iif_identity(build_field(ode), num, den, k),
        cli._identity_from_scratch(ode, num, den, k),
    )


def integral_verdicts(ode, blob):
    field = build_field(ode)
    return (
        verify_first_integral(field, integral_from_blob(blob, field.ring)),
        cli._integral_from_scratch(ode, blob),
    )


def with_exponent_bumped(blob):
    factors = [list(f) for f in blob["factors"]]
    factors[0][1] = str(Fraction(str(factors[0][1])) + 1)
    return dict(blob, factors=factors)


@pytest.mark.parametrize("name,v,k", KNOWN_V)
def test_fixture_identities_agree(name, v, k):
    ode = fixture_ode(name)
    one = MPoly.constant(1, ode.ring)
    v = v.extend_ring(ode.ring)
    assert iif_verdicts(ode, v, one, k) == (True, True)
    # a changed V, a changed power and a spurious denominator all fail
    assert iif_verdicts(ode, v * (X + 2), one, k) == (False, False)
    assert iif_verdicts(ode, v, one, k + 1) == (False, False)
    assert iif_verdicts(ode, v, (Y + 1).extend_ring(ode.ring), k) == (False, False)


def test_fixture_integral_agrees():
    ode = fixture_ode("eq5")
    blob = expected_integral("eq5")
    assert integral_verdicts(ode, blob) == (True, True)
    assert integral_verdicts(ode, with_exponent_bumped(blob)) == (False, False)
    changed_a = dict(blob, A=(parse_poly(blob["A"], ode.ring) + X).to_text())
    assert integral_verdicts(ode, changed_a) == (False, False)


def test_second_order_integral_agrees():
    # y'' = 0 has the first integrals z and x*z - y
    ode = parse_ode("y'' = 0")
    blob = {"A": "z", "B": "1", "factors": [["x*z - y", 1]]}
    assert integral_verdicts(ode, blob) == (True, True)
    assert integral_verdicts(ode, dict(blob, A="x")) == (False, False)
    assert integral_verdicts(ode, dict(blob, factors=[["x*z", 1]])) == (False, False)


def test_seeded_plants_agree():
    rng = random.Random(4242)
    checked = 0
    while checked < 8:
        planted = plant(rng)
        if not planted.coprime:
            continue
        ode = planted.ode
        one = MPoly.constant(1, ode.ring)
        v = planted.planted_v.extend_ring(ode.ring)
        assert iif_verdicts(ode, v, one, 1) == (True, True)
        assert iif_verdicts(ode, v * (X + 2), one, 1) == (False, False)
        blob = planted.integral.to_json_dict()
        assert integral_verdicts(ode, blob) == (True, True)
        if blob["factors"]:
            assert integral_verdicts(ode, with_exponent_bumped(blob)) == (False, False)
        checked += 1


def test_verify_first_integral_rejects_zero_b():
    field = build_field(parse_ode("y' = y/x"))
    ring = field.ring
    broken = DarbouxFirstIntegral(a=X.extend_ring(ring), b=MPoly.zero(ring), factors=())
    with pytest.raises(DomainError):
        verify_first_integral(field, broken)
