"""Random Darboux-integrable first-order equations with known structure.

Planting I = exp(A/B) prod p_j^(n_j) and differentiating yields the
rational equation y' = -Pol_x/Pol_y whose inverse integrating factor
V = B^2 prod p_j is known by construction, as long as the pair stays
coprime.  A nontrivial common factor of the pair cancels out of the
equation and generally destroys the planted identity; the generator
records the flag so bulk measurements can separate the two populations.

Plants avoid single-signed integer exponents with A = 0: those make I
itself polynomial, the divergence vanishes identically, and V = 1 is
found long before the planted product.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .darboux import DarbouxFirstIntegral, compute_pol_pair
from .linalg import nullspace, solve_affine
from .parser import RationalODE
from .poly import MPoly, mpoly_gcd
from .solver import _SystemBuilder, build_field, lps_search, poly_system, verify_iif_identity

_RING = ("x", "y")


@dataclass(frozen=True)
class PlantedODE:
    """A generated equation with its planted integral and factor."""

    ode: RationalODE
    integral: DarbouxFirstIntegral
    planted_v: MPoly
    pol_x: MPoly
    pol_y: MPoly
    coprime: bool


@dataclass(frozen=True)
class RecoveryOutcome:
    planted: PlantedODE
    identity_holds: bool
    found_v: MPoly | None
    degree_found: int | None
    recovered: bool


def _random_poly(rng: random.Random, degree: int, terms: int, bound: int = 3) -> MPoly:
    """Random nonconstant integer polynomial in x, y."""
    while True:
        out: dict = {}
        for _ in range(terms):
            total = rng.randint(0, degree)
            ex = rng.randint(0, total)
            c = rng.choice([c for c in range(-bound, bound + 1) if c])
            mono = (ex, total - ex)
            out[mono] = out.get(mono, 0) + c
        p = MPoly(_RING, {m: c for m, c in out.items() if c})
        if not p.is_constant():
            return p.normalized()


def _mixed_signs(rng: random.Random, count: int) -> list:
    """Nonzero integer exponents, never all of one sign."""
    while True:
        ns = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(count)]
        if count == 1 or ({n > 0 for n in ns} == {True, False}):
            return ns


def plant(rng: random.Random, max_factor_degree: int = 2) -> PlantedODE:
    """Draw one random integrable equation.

    Three shapes come up: a pure product with mixed-sign exponents, a
    pure exponential exp(A/B), and the combination of both.
    """
    while True:
        shape = rng.choice(("product", "exponential", "mixed"))
        factors: list = []
        if shape != "exponential":
            count = rng.randint(2, 3)
            polys: list = []
            while len(polys) < count:
                p = _random_poly(rng, rng.randint(1, max_factor_degree), rng.randint(2, 3))
                if all(mpoly_gcd(p, q).total_degree() == 0 for q in polys) and p not in polys:
                    polys.append(p)
            factors = list(zip(polys, _mixed_signs(rng, count)))
        if shape == "product":
            a, b = MPoly.zero(_RING), MPoly.constant(1, _RING)
        else:
            b = MPoly.constant(1, _RING)
            if rng.random() < 0.5:
                b = _random_poly(rng, 1, 2)
            while True:
                a = _random_poly(rng, rng.randint(1, 2), rng.randint(1, 2))
                if mpoly_gcd(a, b).total_degree() == 0 and a != b:
                    break
        integral = DarbouxFirstIntegral(a=a, b=b, factors=tuple(factors))

        pol_x, pol_y, coprime = compute_pol_pair(integral)
        if pol_y.is_zero() or pol_x.is_zero():
            continue
        ode = RationalODE.from_quotient(1, -pol_x, pol_y)
        if ode.n.is_constant() and ode.m.is_constant():
            continue
        planted = b * b
        for p, _ in factors:
            planted = planted * p
        return PlantedODE(
            ode=ode,
            integral=integral,
            planted_v=planted.normalized(),
            pol_x=pol_x,
            pol_y=pol_y,
            coprime=coprime,
        )


def _in_span(target: MPoly, basis: tuple) -> bool:
    """Exact membership of target in the rational span of basis polys."""
    if not basis:
        return False
    for p in basis:
        target, _ = target._unify(p)
    basis = [p.extend_ring(target.ring) for p in basis]
    return solve_affine(*poly_system(basis, target)) is not None


def _kernel_polys(field, degree: int) -> tuple:
    """The degree <= degree solutions of the search identity, as polys."""
    system, monos = _SystemBuilder(field, 1, MPoly.constant(1, field.ring)).build(degree)
    basis = nullspace(system)
    return tuple(
        MPoly(field.ring, {m: vec[i] for i, m in enumerate(monos) if vec[i]})
        for vec in basis
    )


def measure_recovery(planted: PlantedODE) -> RecoveryOutcome:
    """Search the planted equation and compare against ground truth.

    Recovery means the planted V divides the selected kernel element, or
    appears exactly among the solutions of the search's linear system:
    first in the kernel basis the search stopped at, and failing that in
    the kernel at the planted degree (the search prefers lower-degree
    multipliers, which is a presentation choice, not a miss).  The
    planted identity itself is re-checked independently.
    """
    field = build_field(planted.ode)
    v = planted.planted_v.extend_ring(field.ring)
    one = MPoly.constant(1, field.ring)
    identity = verify_iif_identity(field, v, one, 1)
    found = lps_search(planted.ode, max_degree=v.total_degree())
    recovered = False
    if found is not None:
        recovered = found.v_num.exact_divide(v) is not None or _in_span(v, found.basis)
        if not recovered and found.degree_found < v.total_degree():
            recovered = _in_span(v, _kernel_polys(field, v.total_degree()))
    return RecoveryOutcome(
        planted=planted,
        identity_holds=identity,
        found_v=None if found is None else found.v_num,
        degree_found=None if found is None else found.degree_found,
        recovered=recovered,
    )
