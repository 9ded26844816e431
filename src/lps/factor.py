"""Irreducible factorization over the rationals and Darboux-polynomial
extraction.

`factor_multivariate` splits off the rational content and the monomial
factors, takes the squarefree decomposition and factors each squarefree
part.  A part in one variable goes to `unifactor.zassenhaus`.  A part in
two or more variables is factored at the degree of its main variable x,
the used variable of least positive degree, by specialisation, Hensel
lifting and recombination (von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 15-16; Wang 1978):

1. Its content in x, a polynomial in fewer variables, is split off and
   factored the same way.  A primitive part of degree 1 in x is
   irreducible.
2. The other variables collapse into one, t, by the Kronecker
   substitution v -> t^w(v), each weight one more than the product of
   the degrees before it; with two variables t is the other one.  Call
   the image of the primitive part W(x, t), n = deg_x W.
3. W(x, a) is factored by `zassenhaus` at the first a of 0, 1, -1, 2, ...
   where it keeps degree n and is squarefree modulo the lifting prime P,
   hence over Q.  One factor proves W irreducible: a factor of W keeps
   its degree in x at a.  BudgetError (exit 5) when 2B (below) passes
   the last lifting prime, or after 4nN points; a squarefree W fails at
   no more than (2n - 1)N points over Q, since they are roots of its
   discriminant or leading coefficient.
4. Its monic factors u_i are lifted in s = t - a, modulo P, to U_i with
   W / lc_x W = U_1 ... U_r mod s^N, N = deg_t W + deg_t lc_x W + 1.
5. For a subset S, the candidate is lc_x(C) prod_S U_i mod s^N for the
   current cofactor C, in symmetric residues mod P, shifted back to t,
   decoded, and made primitive in x; it is kept when it divides C.

The bound.  For a factor g of C = g h, lc_x(h) g divides lc_x(W) W, so
its Mahler measure is at most M(lc_x W) M(W) <= |lc_x W|_2 |W|_2; its
1-norm is at most 2^(n + N - 1) times that (its degrees are at most n in
x and below N in t), and after t -> s + a each coefficient is at most
(1 + |a|)^(N - 1) times the 1-norm.  That is the bound B, and P is the
least of `_LIFT_PRIMES` above 2B, so the symmetric residues of
lc_x(h) g mod (s^N, P) are its coefficients.  Its degree in each
collapsed variable is at most W's, so the decoding is exact.

Why every factor returned is irreducible.  By the uniqueness of Hensel
lifting, g / lc_x g = prod U_i mod s^N over the u_i that divide g(x, a),
a subset S_g; so the candidate of S_g is lc_x(h) g, and g is found from
it.  Conversely a candidate of S that divides C is a true factor whose
value at a is prod_S u_i up to a unit mod P, and since the u_i are
coprime mod P, S is the union of the S_g of its irreducible factors.
`recombine` tries subsets smallest first and removes each factor it
finds, so when it tries size k no irreducible factor of C has |S_g| < k:
a candidate of size k has one irreducible factor, and the cofactor left
once 2k exceeds the remaining u_i has one too.

Degree-1 Darboux polynomials.  `degree1_dp_search` finds the invariant
lines of an order-1 field X = N d/dx + M d/dy, gcd(M, N) = 1, from three
facts.

1. Every invariant line divides the first extactic polynomial
   E1 = N X(M) - M X(N) (Pereira, Ann. Inst. Fourier 51, 2001).  For
   L = y - s x - t, L | M - s N, so L | X(M - s N) and
   E1 = N (X(M) - s X(N)) - (M - s N) X(N) = 0 mod L.  For L = x - c,
   L divides N and X(N).
2. At a regular point the field gives the line's slope: an invariant
   line y = s x + t through (x0, y0) with N(x0, y0) != 0 has s = M/N
   there, and where N = 0 != M only x = x0 is tangent.
3. E1 = 0 forces (N, M) = c (x - a, y - b) or a constant (alpha, beta).
   E1 is the numerator of the curvature of the orbits, so every orbit
   lies on a line.  Two such lines meet only at singular points, finitely
   many (in the projective plane too) as gcd(M, N) = 1.  So infinitely
   many of them pass through one point, and a line missing it would meet
   those in infinitely many singular points: all pass through it, (a, b)
   or the point at infinity of slope beta/alpha.  Then
   N (y - b) = M (x - a), or N beta = M alpha, and coprimality leaves
   only a constant factor.

So the search takes the section E(y) = E1(x0, y), built from the sections
of M, N, M_x and N_x, at the first x0 of 0, 1, -1, 2, ... where it is
nonzero and none of its rational roots (`unifactor.rational_roots`) is a
singular point.  A line y = s x + t meets x = x0 at a root y0 (fact 1);
N(x0, y0) = 0 rules it out, since (x0, y0) is then regular, and
otherwise its slope is M/N there (fact 2).  Each coefficient of E1 in y
has degree at most deg_x M + deg_x N + max(deg_x M, deg_x N) in x, so
once more sections vanish E1 = 0, and every line through (a, b), or of
slope beta/alpha, is invariant (fact 3); a few stand for them: the slopes
of `_SLOPES` through (a, b), or y = (beta/alpha) x + 0, 1 and -1.  The
lines x - c are the rational roots of the gcd of N's coefficients in y.
`darboux_check` decides every candidate exactly.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DomainError, InternalError
from .poly import MPoly, Rat, _as_univar, exponents, mpoly_gcd, squarefree_decompose
from .solver import VectorField
from .unifactor import (
    _add_mod,
    _divmod_mod,
    _ext_gcd_mod,
    _mod,
    _mul_mod,
    _primitive,
    _scale_mod,
    _squarefree_mod,
    _sub_mod,
    _symmetric,
    _trim,
    rational_roots,
    recombine,
    zassenhaus,
)


@dataclass(frozen=True)
class Factorization:
    """unit * product(factor^multiplicity) == the factored polynomial,
    exactly; factors are normalized, irreducible over the rationals, and
    pairwise non-associate."""

    unit: Rat
    factors: tuple[tuple[MPoly, int], ...]

    def expand(self) -> MPoly:
        out = MPoly.constant(self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out

    def to_json_dict(self) -> dict:
        return {
            "unit": str(self.unit),
            "factors": [[f.to_text(), m] for f, m in self.factors],
        }


@dataclass(frozen=True)
class DarbouxFactor:
    """Eigenpolynomial of a vector field: D(p) = q * p exactly."""

    p: MPoly
    q: MPoly
    multiplicity: int = 1

    def to_json_dict(self) -> dict:
        return {"p": self.p.to_text(), "q": self.q.to_text(), "mult": self.multiplicity}


def _factor_key(p: MPoly):
    # the leading monomial compares by its exponents over p's own ring, last
    # variable first, so factors from different rings keep their order
    lead = exponents(p.leading_term()[0], p.ring)[::-1]
    return (p.total_degree(), p.num_terms(), lead, p.to_text())


def _poly_from_dense(coeffs: list[int], var: str) -> MPoly:
    return MPoly.from_dict((var,), {(i,): c for i, c in enumerate(coeffs) if c})


def _strip_monomial(p: MPoly) -> tuple[list[tuple[MPoly, int]], MPoly]:
    mins = tuple([min(col) for col in zip(*[exponents(m, p.ring) for m in p.terms])])
    if not any(mins):
        return [], p
    monos = [(MPoly.variable(var), e) for var, e in zip(p.ring, mins) if e]
    common = max(MPoly.from_dict(p.ring, {mins: 1}).terms)
    return monos, MPoly(p.ring, {m - common: c for m, c in p.terms.items()})


# The moduli of the t-adic lift, Mersenne primes 2^k - 1; a lift works
# modulo the least one above twice its coefficient bound.
_LIFT_PRIMES = tuple(
    (1 << k) - 1 for k in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213)
)


def _content_in(p: MPoly, var: str) -> MPoly:
    """The normalized gcd of p's coefficients in var; 1 at once when one
    of them is a constant."""
    coeffs = sorted((c for c in _coeffs_in(p, var) if not c.is_zero()), key=MPoly.num_terms)
    if any(c.is_constant() for c in coeffs):
        return MPoly.constant(1)
    g = coeffs[0]
    for c in coeffs[1:]:
        g = mpoly_gcd(g, c)
        if g.is_constant():
            break
    return g.normalized()


def _kronecker_weights(p: MPoly, others: list[str]) -> list[int]:
    """t-exponent weights for the variables `others`: each is one more
    than the degree of p in all the variables before it."""
    weights = []
    d = 1
    for v in others:
        weights.append(d)
        d *= p.degree_in(v) + 1
    return weights


def _kronecker_encode(p: MPoly, x: str, others: list[str], weights: list[int]) -> list[list[int]]:
    """p as dense rows by power of x, each a dense integer list in t,
    every other variable v replaced by t^weight(v) (one to one for
    degrees up to those the weights were made for)."""
    rows: list[dict[int, int]] = [{} for _ in range(p.degree_in(x) + 1)]
    ring = (x, *others)
    for m, c in p.terms.items():
        ex, *rest = exponents(m, ring)
        e = sum(d * w for d, w in zip(rest, weights))
        rows[ex][e] = c
    out = []
    for row in rows:
        dense = [0] * (max(row, default=-1) + 1)
        for e, c in row.items():
            dense[e] = c
        out.append(dense)
    return out


def _kronecker_decode(rows: list[list[int]], x: str, others, weights, bounds) -> MPoly | None:
    """The inverse of _kronecker_encode for a polynomial whose degree in
    each other variable is at most its bound; None when a t-exponent has
    no such preimage."""
    terms = {}
    for ex, row in enumerate(rows):
        for e, c in enumerate(row):
            if c == 0:
                continue
            digits = []
            for w, b in zip(reversed(weights), reversed(bounds)):
                d, e = divmod(e, w)
                if d > b:
                    return None
                digits.append(d)
            terms[(ex, *reversed(digits))] = c
    return MPoly.from_dict((x, *others), terms)


def _taylor_shift(c: list[int], a: int) -> list[int]:
    """The dense coefficients of c(t + a)."""
    c = list(c)
    if a:
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += a * c[j + 1]
    return c


def _series_mul(f: list[list[int]], g: list[list[int]], n: int, p: int) -> list[list[int]]:
    """The product of two series in s with polynomial coefficients in x
    (lists by power of s), modulo s^n and p."""
    out = []
    for k in range(min(n, len(f) + len(g) - 1)):
        acc: list[int] = []
        for j in range(max(0, k - len(g) + 1), min(k + 1, len(f))):
            if f[j] and g[k - j]:
                acc = _add_mod(acc, _mul_mod(f[j], g[k - j], p), p)
        out.append(acc)
    return out


def _lift(f: list[list[int]], us: list[list[int]], n: int, p: int) -> list[list[list[int]]]:
    """Lift the factorization f = u_1 ... u_r mod (s, p) of a monic f (a
    series in s of polynomials in x) to monic U_i with f = U_1 ... U_r
    mod (s^n, p), the u_i monic and pairwise coprime mod p.

    One linear loop: at step k the error's s^k coefficient e is spread
    over the factors by the Lagrange cofactors c_i (sum of c_i times the
    product of the u_j, j != i, is 1; deg c_i < deg u_i), U_i gaining
    s^k (e c_i mod u_i).  The s^k coefficients of the partial products
    U_1 ... U_m are carried along, so each step costs one pass over
    them."""
    r = len(us)
    cof = []
    for i, u in enumerate(us):
        rest = [1]
        for j, v in enumerate(us):
            if j != i:
                rest = _mul_mod(rest, v, p)
        g, s, _ = _ext_gcd_mod(_divmod_mod(rest, u, p)[1], u, p)
        cof.append(_scale_mod(s, pow(g[0], -1, p), p))
    lifted = [[u] for u in us]
    partial = [[us[0]]]
    for m in range(1, r):
        partial.append([_mul_mod(partial[-1][0], us[m], p)])
    for k in range(1, n):
        # the terms of partial[m][k] free of the unknown s^k coefficients
        known = [[]]
        for m in range(1, r):
            acc: list[int] = []
            for j in range(1, k):
                if partial[m - 1][j] and lifted[m][k - j]:
                    acc = _add_mod(acc, _mul_mod(partial[m - 1][j], lifted[m][k - j], p), p)
            known.append(acc)
        guess: list[int] = []
        for m in range(1, r):
            guess = _add_mod(_mul_mod(guess, us[m], p), known[m], p)
        err = _sub_mod(f[k] if k < len(f) else [], guess, p)
        steps = [_divmod_mod(_mul_mod(err, c, p), u, p)[1] for c, u in zip(cof, us)]
        prod = steps[0]
        partial[0].append(prod)
        for m in range(1, r):
            prod = _add_mod(
                _add_mod(_mul_mod(prod, us[m], p), _mul_mod(partial[m - 1][0], steps[m], p), p),
                known[m],
                p,
            )
            partial[m].append(prod)
        for m in range(r):
            lifted[m].append(steps[m])
    return lifted


def _evaluation_points():
    yield 0
    a = 1
    while True:
        yield a
        yield -a
        a += 1


def _factor_by_lifting(w: MPoly, x: str) -> list[MPoly]:
    """Irreducible factors of w: normalized, squarefree, in two or more
    variables, primitive and of degree at least 2 in x (see the module
    docstring)."""
    others = [v for v in w.ring if v != x]
    weights = _kronecker_weights(w, others)
    bounds = [w.degree_in(v) for v in others]
    rows = _kronecker_encode(w, x, others, weights)
    n = len(rows) - 1
    lc = rows[n]
    count = max(map(len, rows)) + len(lc) - 1  # deg_t W + deg_t lc + 1
    norm = (math.isqrt(sum(c * c for row in rows for c in row)) + 1) * (
        math.isqrt(sum(c * c for c in lc)) + 1
    ) << (n + count - 1)

    level = 0
    for tried, a in enumerate(_evaluation_points()):
        if tried > 4 * n * count:
            raise BudgetError(f"factoring: no squarefree specialisation among {tried} points")
        spec = [_horner(row, a) for row in rows]
        if spec[-1] == 0:
            continue
        bound = norm * (1 + abs(a)) ** (count - 1)
        while level < len(_LIFT_PRIMES) and _LIFT_PRIMES[level] <= 2 * bound:
            level += 1
        if level == len(_LIFT_PRIMES):
            raise BudgetError(f"factoring: a coefficient bound of {bound.bit_length()} bits is past the lifting primes")
        p = _LIFT_PRIMES[level]
        if _squarefree_mod(spec, p):
            break
    uni = zassenhaus(_primitive(spec))
    if len(uni) == 1:
        return [w]

    # W(x, s + a) / lc_x, monic in x, as a series in s of polynomials in x
    shifted = [_mod(_taylor_shift(row, a), p) for row in rows]
    inverse = [pow(shifted[n][0], -1, p)]
    for k in range(1, count):
        acc = sum(shifted[n][j] * inverse[k - j] for j in range(1, min(k + 1, len(shifted[n]))))
        inverse.append(-acc * inverse[0] % p)
    monic = [_mul_mod(row, inverse, p)[:count] for row in shifted]
    series = [_trim([row[k] if k < len(row) else 0 for row in monic]) for k in range(count)]
    lifted = _lift(series, [_scale_mod(u, pow(u[-1], -1, p), p) for u in uni], count, p)

    lc_of = {}  # the shifted series of lc_x(current), for the current cofactor

    def trial(subset, current):
        if lc_of.get("current") is not current:
            lc_row = _kronecker_encode(current, x, others, weights)[-1]
            lc_of.update(current=current, series=[[c] for c in _mod(_taylor_shift(lc_row, a), p)])
        prod = lc_of["series"]
        for i in subset:
            prod = _series_mul(prod, lifted[i], count, p)
        # symmetric residues, back from s to t, by power of x
        back = []
        for i in range(max(map(len, prod))):
            col = _taylor_shift(_symmetric([c[i] if i < len(c) else 0 for c in prod], p), -a)
            if any(abs(c) > norm for c in col):
                return None
            back.append(_trim(col))
        cand = _kronecker_decode(back, x, others, weights, bounds)
        if cand is None or cand.degree_in(x) <= 0:
            return None
        cand = cand.exact_divide(_content_in(cand, x)).normalized()
        quot = current.exact_divide(cand)
        return None if quot is None else (cand, quot.normalized())

    found, current = recombine(len(lifted), w, trial)
    if not current.is_constant():
        found.append(current.normalized())
    return found


def _factor_squarefree_part(part: MPoly) -> list[MPoly]:
    """Irreducible factors of a normalized squarefree part, over its own
    ring."""
    part = part.project_ring()
    vs = part.ring
    if len(vs) == 0:
        return []
    if len(vs) == 1:
        return [_poly_from_dense(c, vs[0]) for c in zassenhaus(_dense_rat(part, vs[0]))]
    x = min(vs, key=part.degree_in)
    cont = _content_in(part, x)
    if not cont.is_constant():
        found = _factor_squarefree_part(cont) + _factor_squarefree_part(part.exact_divide(cont))
    elif part.degree_in(x) == 1:
        found = [part]
    else:
        found = _factor_by_lifting(part, x)
    return [f.extend_ring(vs) for f in found]


def _factor_normalized(p: MPoly) -> Factorization:
    unit = p.rat_content()
    prim = p * (Fraction(1) / unit)
    monos, prim = _strip_monomial(prim)
    pieces = list(monos)
    sqf = squarefree_decompose(prim)
    unit = unit * sqf.content
    for part, mult in sqf.parts:
        part, u = part.normalized_with_unit()
        unit = unit * u**mult
        for f in _factor_squarefree_part(part):
            f, fu = f.normalized_with_unit()
            unit = unit * fu**mult
            pieces.append((f, mult))
    pieces.sort(key=lambda fm: _factor_key(fm[0]))
    result = Factorization(unit, tuple(pieces))
    if result.expand().extend_ring(p.ring) != p:
        raise InternalError("factorization round-trip failed")
    return result


def factor_multivariate(p: MPoly) -> Factorization:
    """Irreducible factorization over the rationals, any number of
    variables."""
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    return _factor_normalized(p)


def darboux_check(field: VectorField, p: MPoly, multiplicity: int = 1) -> DarbouxFactor | None:
    """Test whether p is an eigenpolynomial of the field, D(p) = q p, and
    return it with its cofactor q, or None."""
    if p.is_constant():
        raise DomainError("Darboux test needs a non-constant polynomial")
    image = field.apply(p.extend_ring(field.ring))
    if image.is_zero():
        return DarbouxFactor(p, MPoly.zero(field.ring), multiplicity)
    q = image.exact_divide(p)
    if q is None:
        return None
    return DarbouxFactor(p, q, multiplicity)


def _coeffs_in(p: MPoly, var: str) -> list[MPoly]:
    """Coefficients of powers of `var`, each projected off `var`."""
    return [c.project_ring() for c in _as_univar(p, var)]


def _dense_rat(p: MPoly, var: str) -> list[Rat]:
    """Dense coefficient list (ints and Fractions) of a polynomial in var."""
    if p.is_zero():
        return []
    powers = [(exponents(m, (var,))[0], c) for m, c in p.terms.items()]
    out = [0] * (max(e for e, _ in powers) + 1)
    for e, c in powers:
        out[e] = c
    return out


def _horner(coeffs: list[Rat], x0: Rat) -> Rat:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def _roots(p: MPoly, var: str) -> list[Fraction]:
    """The rational roots of a nonzero polynomial in var alone."""
    squarefree = p.exact_divide(mpoly_gcd(p, p.derivative(var))).normalized()
    return rational_roots(_dense_rat(squarefree, var))


# The invariant lines of c*(x - a, y - b) that stand for the whole pencil:
# y - b = s*(x - a) at these slopes s.
_SLOPES = (0, 1, -1, 2, -2, 3, -3, Fraction(1, 2))


def _section_lines(field: VectorField) -> list[MPoly]:
    """Candidates y - s*x - t for the invariant lines of an order-1 field
    (see the module docstring): from the first section E1(x0, y) that is
    nonzero and has no rational root at a singular point, or a few
    representatives of a straight-orbit field once more than deg_x E1
    sections vanish."""
    m, n = field.m, field.n
    x, y = (MPoly.variable(v).extend_ring(field.ring) for v in ("x", "y"))
    # coefficients in y, as dense lists in x, of M, N, M_x and N_x
    table = [
        [_dense_rat(c, "x") for c in _coeffs_in(p, "y")] for p in (m, n, m.derivative("x"), n.derivative("x"))
    ]
    dm, dn = (max(p.degree_in("x"), 0) for p in (m, n))
    degree = dm + dn + max(dm, dn)  # at least deg_x E1
    vanished = 0
    for tried, x0 in enumerate(_evaluation_points()):
        # a root at a singular point skips an x0 at most deg M * deg N times
        if tried > degree + max(m.total_degree(), 0) * n.total_degree():
            raise InternalError("degree-1 search: M and N share a factor")
        ms, ns, mxs, nxs = ([_horner(row, x0) for row in rows] for rows in table)
        m0, n0, mx, nx = (_poly_from_dense(s, "y") for s in (ms, ns, mxs, nxs))
        e = n0 * (n0 * mx - m0 * nx) + m0 * (n0 * m0.derivative("y") - m0 * n0.derivative("y"))
        if e.is_zero():
            vanished += 1
            if vanished <= degree:
                continue
            if n.is_constant():
                base = y - x * (Fraction(m.constant_value()) / n.constant_value())
                return [base - t for t in (0, 1, -1)]
            return [m - n * s for s in _SLOPES]
        points = [(y0, _horner(ms, y0), _horner(ns, y0)) for y0 in _roots(e, "y")]
        if all(mv or nv for _, mv, nv in points):
            return [y - y0 - (x - x0) * (Fraction(mv) / nv) for y0, mv, nv in points if nv]


def degree1_dp_search(field: VectorField) -> list[MPoly]:
    """All degree-1 Darboux polynomials of an order-1 field up to
    scaling, sorted: lines y - s*x - t from one section of the extactic
    polynomial, lines x - c from the gcd of N's coefficients in y (see the
    module docstring)."""
    if field.order != 1:
        raise DomainError("degree-1 search is defined for order-1 fields")
    candidates = _section_lines(field)
    # X(x - c) = N, so N(c, y) must vanish identically
    ncoef = [c for c in _coeffs_in(field.n, "y") if not c.is_zero()]
    g = ncoef[0]
    for c in ncoef[1:]:
        g = mpoly_gcd(g, c)
    if not g.is_constant():
        x = MPoly.variable("x").extend_ring(field.ring)
        candidates += [x - c0 for c0 in _roots(g, "x")]
    out = []
    for p in sorted({p.normalized() for p in candidates}, key=_factor_key):
        hit = darboux_check(field, p)
        if hit is not None:
            out.append(hit.p)
    return out
