"""Darboux structure of solved inverse integrating factors.

A polynomial inverse integrating factor of a rational first-order
equation generically has the shape V = B^2 prod p_j with Darboux
polynomials p_j, and the equation then carries the elementary first
integral I = exp(A/B) prod p_j^(n_j).  This module recovers A and the
exponents through a joint linear solve, checks the result against the
exact logarithmic-derivative identity, and turns the integral back into
the coprime polynomial pair (Pol_x, Pol_y) with M/N = -Pol_x/Pol_y.

Both the check and the pair come from one cleared expression: for a
derivation op,

    (B op(A) - A op(B)) prod p_j + B^2 sum_j n_j op(p_j) prod_{i != j} p_i

is op(log I) times B^2 prod p_j.  With op the field's D it must vanish
(verify_first_integral, no gcd per operation); with op = d/dx and d/dy it
gives (Pol_x, Pol_y).  B = 0 or a zero p_j is rejected, since the cleared
expression would vanish trivially.

`check_v_factors` Darboux-checks the factors of a found V for either
order.  Second-order multipliers do not lead to a quadrature here; they
are decomposed into their verified Darboux factors only.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, InternalError
from .factor import DarbouxFactor, darboux_check, factor_multivariate
from .linalg import nullspace
from .poly import MPoly, mpoly_gcd
from .solver import InverseIntegratingFactor, VectorField, _SystemBuilder


@dataclass(frozen=True)
class DarbouxFirstIntegral:
    """I = exp(a/b) * prod(p ** n for p, n in factors).

    gcd(a, b) is constant, b is nonzero, and every p is a non-constant
    normalized irreducible polynomial with an exact rational exponent.
    """

    a: MPoly
    b: MPoly
    factors: tuple

    def to_json_dict(self) -> dict:
        return {
            "A": self.a.to_text(),
            "B": self.b.to_text(),
            "factors": [
                [p.to_text(), int(n) if n.denominator == 1 else str(n)]
                for p, n in self.factors
            ],
        }


def _cleared_log_derivative(op, a: MPoly, b: MPoly, factors) -> MPoly:
    """op(log I) for I = exp(a/b) prod p_j^(n_j), cleared by b^2 prod p_j:

        (b op(a) - a op(b)) prod p_j + b^2 sum_j n_j op(p_j) prod_{i != j} p_i,

    where op is a derivation (a partial derivative or the field's D)."""
    ps = [p for p, _ in factors]
    lead = op(a) * b - op(b) * a
    for p in ps:
        lead = lead * p
    acc = MPoly.zero(b.ring)
    for k, (p, n) in enumerate(factors):
        term = op(p) * n
        for l, other in enumerate(ps):
            if l != k:
                term = term * other
        acc = acc + term
    return lead + b * b * acc


def verify_first_integral(field: VectorField, integral: DarbouxFirstIntegral) -> bool:
    """Exact truth of D(a/b) + sum n_j D(p_j)/p_j = 0, checked in the
    cleared polynomial form (times b^2 prod p_j, no gcd); never
    probabilistic.  Works for either order.  Raises DomainError when b or
    some p_j is zero, since the integral is then undefined."""
    a = integral.a.extend_ring(field.ring)
    b = integral.b.extend_ring(field.ring)
    factors = [(p.extend_ring(field.ring), n) for p, n in integral.factors]
    if b.is_zero() or any(p.is_zero() for p, _ in factors):
        raise DomainError("first integral with a zero denominator or factor")
    return _cleared_log_derivative(field.apply, a, b, factors).is_zero()


def _joint_solve(builder: _SystemBuilder, b: MPoly, cofactors: list, d_a: int):
    """Kernel of D(A) b - A D(b) + b^2 sum(n_j q_j) = 0 over the
    coefficients of A (deg A <= d_a) and the exponents n_j; returns the
    first solution that is not a multiple of the trivial (A = b, n = 0).
    The A-columns are the search columns for denominator b and k = 0, and
    the exponent columns b^2 q_j ride along, scaled by the same lcm."""
    b2 = b * b
    mat, monos = builder.build(d_a, [b2 * q for q in cofactors])
    basis = nullspace(mat)

    trivial = [Fraction(0)] * mat.ncols
    for i, m in enumerate(monos):
        if m in b.terms:
            trivial[i] = b.terms[m]
    i0 = next(i for i, c in enumerate(trivial) if c)

    n_off = len(monos)
    chosen = None
    for vec in basis:
        if all(vec[i] * trivial[i0] == trivial[i] * vec[i0] for i in range(len(vec))):
            continue
        if chosen is None:
            chosen = vec
        if any(vec[n_off + j] != 0 for j in range(len(cofactors))):
            chosen = vec
            break
    if chosen is None:
        return None
    a = MPoly(builder.ring, {m: chosen[i] for i, m in enumerate(monos) if chosen[i]})
    return a, [Fraction(chosen[n_off + j]) for j in range(len(cofactors))]


class DarbouxFactorList(list):
    """Verified Darboux factors, in input order.  Factors that fail the
    cofactor division land in `failed` as (p, multiplicity) pairs so
    callers can warn about the degenerate case."""

    def __init__(self, items=(), failed=()):
        super().__init__(items)
        self.failed = list(failed)


def check_v_factors(
    field: VectorField, v: InverseIntegratingFactor, factorization=None
) -> tuple:
    """V's numerator and (non-constant) denominator, each factored once,
    with every factor Darboux-checked: a pair of DarbouxFactorLists.
    Pass a precomputed Factorization of v.v_num to skip refactoring it.
    For a second order field v.v_num is the Jacobi multiplier and the
    denominator part is empty."""

    def checked(pairs) -> DarbouxFactorList:
        good: list[DarbouxFactor] = []
        bad = []
        for f, mult in pairs:
            fac = darboux_check(field, f.extend_ring(field.ring), mult)
            if fac is None:
                bad.append((f, mult))
            else:
                good.append(fac)
        return DarbouxFactorList(good, bad)

    if factorization is None:
        factorization = factor_multivariate(v.v_num)
    num = checked(factorization.factors)
    if v.v_den.is_constant():
        return num, DarbouxFactorList()
    return num, checked(factor_multivariate(v.v_den).factors)


def reconstruct_first_integral(
    field: VectorField, v: InverseIntegratingFactor, checked: tuple | None = None
) -> DarbouxFirstIntegral | None:
    """Recover I = exp(A/B) prod p_j^(n_j) from a verified inverse
    integrating factor of a first-order field.

    `checked` is V's factorization as check_v_factors gives it (computed
    here when omitted).  B = prod f^(m // 2) over the numerator factors f
    of multiplicity m; the candidate Darboux factors are those of odd
    multiplicity (every numerator factor when k > 1) and then the
    denominator factors not already among them.

    Returns None when some candidate factor is not Darboux or the joint
    system only has the trivial solution (A proportional to B with all
    exponents zero); the caller still holds the verified v.  The degree
    bound for A starts at deg B + max(deg M, deg N) and is raised once
    by max(deg M, deg N) before giving up.  A returned integral has
    passed the exact check `verify_first_integral`.
    """
    if field.order != 1:
        raise DomainError("first-integral reconstruction needs a first-order field")
    num, den = check_v_factors(field, v) if checked is None else checked
    if den.failed or any(v.k > 1 or m % 2 for _, m in num.failed):
        return None
    b = MPoly.constant(1, field.ring)
    if v.k == 1:
        for p, m in [(fac.p, fac.multiplicity) for fac in num] + num.failed:
            b = b * p.extend_ring(field.ring) ** (m // 2)
    candidates = [fac for fac in num if v.k > 1 or fac.multiplicity % 2]
    candidates += [fac for fac in den if all(fac.p != c.p for c in candidates)]
    cofactors = [fac.q for fac in candidates]

    builder = _SystemBuilder(field, 0, b)
    spread = max(1, field.m.total_degree(), field.n.total_degree())
    d_first = max(1, b.total_degree() + spread)
    solution = None
    for d_a in (d_first, d_first + spread):
        solution = _joint_solve(builder, b, cofactors, d_a)
        if solution is not None:
            break
    if solution is None:
        return None
    a, exponents = solution

    nonzero = [e for e in exponents if e]
    if nonzero:
        scale = Fraction(lcm(*[e.denominator for e in nonzero]))
        scale /= gcd(*[int(e * scale) for e in nonzero])
        if nonzero[0] * scale < 0:
            scale = -scale
        a = a * scale
        exponents = [e * scale for e in exponents]
    elif not a.is_zero():
        a = a.normalized()
    factors = tuple([(fac.p, e) for fac, e in zip(candidates, exponents) if e])

    g = mpoly_gcd(a, b)
    if g.total_degree() > 0:
        a = a.exact_divide(g)
        b = b.exact_divide(g)

    integral = DarbouxFirstIntegral(a=a, b=b, factors=factors)
    if not verify_first_integral(field, integral):
        raise InternalError("reconstructed first integral failed verification")
    return integral


def compute_pol_pair(integral: DarbouxFirstIntegral) -> tuple:
    """The polynomial pair (Pol_x, Pol_y) obtained by clearing the
    exponents of I to integers and multiplying dI/dx and dI/dy by
    B^2 prod p_j / I; the third element flags gcd(Pol_x, Pol_y) constant."""
    scale = lcm(*[n.denominator for _, n in integral.factors]) if integral.factors else 1
    a = integral.a * scale
    factors = [(p, n * scale) for p, n in integral.factors]
    pair = [
        _cleared_log_derivative(lambda p, v=var: p.derivative(v), a, integral.b, factors)
        for var in ("x", "y")
    ]
    g = mpoly_gcd(pair[0], pair[1])
    coprime = not g.is_zero() and g.total_degree() == 0
    return pair[0], pair[1], coprime
