"""Irreducible factorization over the rationals and Darboux-polynomial
extraction.

Univariate polynomials go straight to the Zassenhaus routine, which finds
linear factors along with the rest; multivariate ones are reduced to a
single variable by a Kronecker substitution with per-variable degree
weights, factored there, and reassembled by the same validated subset
recombination.  Both paths factor the squarefree parts separately, which
keeps the Kronecker images small for the inputs this library produces.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalError
from .poly import MPoly, Rat, _as_univar, exponents, mpoly_gcd, squarefree_decompose
from .solver import VectorField
from .unifactor import recombine, zassenhaus


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


def _kronecker_weights(p: MPoly) -> tuple[tuple[str, ...], list[int]]:
    vs = p.vars_used()
    weights = []
    d = 1
    for v in vs:
        weights.append(d)
        d *= p.degree_in(v) + 1
    return vs, weights


def _kronecker_encode(p: MPoly, vs, weights) -> list[int]:
    out = [0] * (
        1 + sum(w * p.degree_in(v) for v, w in zip(vs, weights))
    )
    for m, c in p.terms.items():
        out[sum(e * w for e, w in zip(exponents(m, vs), weights))] = int(c)
    return out


def _kronecker_decode(coeffs: list[int], vs, weights, bounds) -> MPoly | None:
    terms = {}
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        digits = []
        rem = e
        for w, b in zip(reversed(weights), reversed(bounds)):
            d, rem = divmod(rem, w)
            if d > b:
                return None
            digits.append(d)
        digits.reverse()
        terms[tuple(digits)] = c
    return MPoly.from_dict(vs, terms)


def _factor_squarefree_part(part: MPoly) -> list[MPoly]:
    """Irreducible factors of a primitive squarefree part (normalized,
    more than one variable allowed)."""
    vs = part.vars_used()
    if len(vs) == 0:
        return []
    if len(vs) == 1:
        dense = _dense_rat(part.project_ring(), vs[0])
        return [_poly_from_dense(c, vs[0]) for c in zassenhaus(dense)]

    part = part.project_ring()
    vs, weights = _kronecker_weights(part)
    bounds = [part.degree_in(v) for v in vs]
    image = _kronecker_encode(part, vs, weights)
    while image and image[-1] == 0:
        image.pop()
    if image[-1] < 0:
        image = [-c for c in image]
    # the image of a squarefree polynomial need not be squarefree
    # (x^2 + y^7 maps to x^2 * (x^19 + 1)), so decompose before splitting
    uni: list[list[int]] = []
    for ipart, imult in squarefree_decompose(_poly_from_dense(image, "x")).parts:
        ic = _dense_rat(ipart, "x")
        if len(ic) == 1:
            continue
        uni.extend([list(f) for f in zassenhaus(ic)] * imult)

    def trial(subset, current):
        prod = [1]
        for i in subset:
            nxt = [0] * (len(prod) + len(uni[i]) - 1)
            for a, ca in enumerate(prod):
                if ca:
                    for b, cb in enumerate(uni[i]):
                        nxt[a + b] += ca * cb
            prod = nxt
        cand = _kronecker_decode(prod, vs, weights, bounds)
        if cand is None:
            return None
        cand = cand.normalized()
        if cand.is_constant():
            return None
        quot = current.exact_divide(cand)
        return None if quot is None else (cand, quot.normalized())

    found, current = recombine(len(uni), part, trial)
    if not current.is_constant():
        found.append(current.normalized())
    return found


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


def _res_frac(a: list[Rat], b: list[Rat]) -> Rat:
    """Resultant of two univariate polynomials over the rationals."""
    def deg(u):
        return len(u) - 1

    def rem(u, v):
        u = list(u)
        while len(u) >= len(v):
            c = Fraction(u[-1], v[-1])
            k = len(u) - len(v)
            for i, cv in enumerate(v):
                u[i + k] -= c * cv
            u.pop()
            while u and u[-1] == 0:
                u.pop()
        return u

    if not a or not b:
        return Fraction(0)
    if deg(a) == 0 and deg(b) == 0:
        return Fraction(1)
    acc = Fraction(1)
    if deg(a) < deg(b):
        if deg(a) % 2 and deg(b) % 2:
            acc = -acc
        a, b = b, a
    while deg(b) > 0:
        r = rem(a, b)
        if not r:
            return Fraction(0)
        acc *= b[-1] ** (deg(a) - deg(r))
        if deg(b) % 2 and deg(a) % 2:
            acc = -acc
        a, b = b, r
    return acc * b[0] ** deg(a)


def _horner(coeffs: list[Rat], x0: int) -> Rat:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def _resultant_wrt(f: MPoly, g: MPoly, var: str, keep: str) -> MPoly:
    """Res_var(f, g) as a polynomial in `keep`.

    Its degree in `keep` is at most deg_keep(f)·deg_var(g) +
    deg_keep(g)·deg_var(f).  The coefficients of f and g in `var` are
    turned once into dense lists in `keep` and evaluated by Horner at the
    integers 0, 1, -1, 2, -2, ..., skipping points where a leading
    coefficient vanishes (there the Sylvester matrix specializes, so the
    resultant of the values is the value of the resultant).  The samples
    are interpolated by Newton divided differences and expanded to dense
    coefficients."""
    bound = f.degree_in(keep) * g.degree_in(var) + g.degree_in(keep) * f.degree_in(var)
    fc = [_dense_rat(c, keep) for c in _coeffs_in(f.extend_ring((var, keep)), var)]
    gc = [_dense_rat(c, keep) for c in _coeffs_in(g.extend_ring((var, keep)), var)]
    xs: list[int] = []
    coef: list[Rat] = []
    t = 0
    while len(xs) <= bound:
        for x0 in (t, -t) if t else (0,):
            av = [_horner(c, x0) for c in fc]
            bv = [_horner(c, x0) for c in gc]
            if av[-1] and bv[-1]:
                xs.append(x0)
                coef.append(_res_frac(av, bv))
                if len(xs) > bound:
                    break
        t += 1
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = Fraction(coef[i] - coef[i - 1], xs[i] - xs[i - j])
    # p = coef[0] + (x - xs[0])(coef[1] + (x - xs[1])(...)), from inside out
    dense = [coef[-1]]
    for i in range(n - 2, -1, -1):
        shifted = [coef[i] - xs[i] * dense[0]]
        shifted += [dense[k - 1] - xs[i] * dense[k] for k in range(1, len(dense))]
        shifted.append(dense[-1])
        dense = shifted
    return MPoly.from_dict((keep,), {(k,): c for k, c in enumerate(dense)})


def _rational_roots(p: MPoly) -> list[Fraction]:
    """All rational roots of a univariate polynomial."""
    if p.is_constant():
        return []
    roots = []
    for f, _ in _factor_normalized(p).factors:
        if f.total_degree() == 1:
            fl = _dense_rat(f.project_ring(), f.vars_used()[0])
            roots.append(Fraction(-fl[0], fl[1]))
    roots.sort()
    return roots


def _curve_points(g: MPoly, limit: int = 8) -> list[tuple[Fraction, Fraction]]:
    """A few rational points on g(z, w) = 0, by sampling z and solving
    for w (and symmetrically when g ignores w)."""
    g = g.extend_ring(("z", "w"))
    pts = []
    samples = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3)] + [
        Fraction(1, 2), Fraction(-1, 2)
    ]
    if g.degree_in("w") == 0:
        for z0 in _rational_roots(_coeffs_in(g, "w")[0]):
            for w0 in samples[:3]:
                pts.append((z0, w0))
        return pts[:limit]
    for z0 in samples:
        section = g.substitute({"z": MPoly.constant(z0, g.ring)}).project_ring()
        if section.is_zero():
            for w0 in samples[:3]:
                pts.append((z0, w0))
        elif not section.is_constant():
            for w0 in _rational_roots(section):
                pts.append((z0, w0))
        if len(pts) >= limit:
            break
    return pts[:limit]


def degree1_dp_search(field: VectorField) -> list[MPoly]:
    """All degree-1 Darboux polynomials of an order-1 field up to
    scaling, sorted, via two charts: y - s*x - t (parameters eliminated by
    resultants) and x - c.  A curve of admissible (s, t) contributes a
    few representatives."""
    if field.order != 1:
        raise DomainError("degree-1 search is defined for order-1 fields")
    out = []

    # chart 1: p = y - s*x - t, with s, t carried by the symbols z, w
    ring = ("x", "y", "z", "w")
    m4 = field.m.extend_ring(ring)
    n4 = field.n.extend_ring(ring)
    w_poly = m4 - MPoly.variable("z").extend_ring(ring) * n4
    x_, z_, w_ = (MPoly.variable(v).extend_ring(ring) for v in ("x", "z", "w"))
    remainder = w_poly.substitute({"y": z_ * x_ + w_})
    system = [
        r.extend_ring(("z", "w"))
        for r in _coeffs_in(remainder, "x")
        if not r.is_zero()
    ]
    candidates: set[tuple[Fraction, Fraction]] = set()
    if system:
        g = system[0]
        for r in system[1:]:
            g = mpoly_gcd(g, r)
        if not g.is_constant():
            candidates.update(_curve_points(g))
        reduced = [r.exact_divide(g) for r in system]
        nonconst = [r for r in reduced if not r.is_constant()]
        if len(nonconst) == len(reduced) and len(nonconst) >= 2:
            candidates.update(_isolated_points(nonconst))

    for s0, t0 in candidates:
        p = (
            MPoly.variable("y")
            - MPoly.constant(s0) * MPoly.variable("x")
            - MPoly.constant(t0)
        ).extend_ring(("x", "y"))
        hit = darboux_check(field, p.normalized())
        if hit is not None:
            out.append(hit.p)

    # chart 2: p = x - c; X(p) = N, so N(c, y) must vanish identically
    ncoef = [c for c in _coeffs_in(field.n, "y") if not c.is_zero()]
    g = ncoef[0]
    for c in ncoef[1:]:
        g = mpoly_gcd(g, c)
    if not g.is_constant():
        for c0 in _rational_roots(g.extend_ring(("x",))):
            p = (MPoly.variable("x") - MPoly.constant(c0)).extend_ring(("x", "y"))
            hit = darboux_check(field, p.normalized())
            if hit is not None:
                out.append(hit.p)

    seen = []
    for p in sorted(out, key=_factor_key):
        if p not in seen:
            seen.append(p)
    return seen


def _eliminant(system: list[MPoly], elim: str, keep: str) -> MPoly:
    """A nonzero polynomial in `keep` alone that vanishes at the
    `keep`-coordinate of every common zero of a gcd-free system, by one
    resultant: Res_elim(r0, sum_i t^i r_i) for the first t = 2, 3, ...
    that makes it nonzero, where r0 is the member of least degree in
    `elim` (ties broken by index) and r_1, r_2, ... are the others in
    order.

    Soundness: Res_elim(a, b) = u·a + v·b for polynomials u, v, so the
    resultant lies in the ideal (r0, sum) ∩ Q[keep] and vanishes wherever
    every r_i does.  When r0 has degree 0 in `elim` it already lies in
    Q[keep] and is returned as it is; the resultant would be
    ±r0^deg_elim(sum), with the same roots.

    Termination: the resultant is identically zero only when r0 and the
    sum share a factor p of positive degree in `elim`.  For each of the
    finitely many irreducible factors p of r0, sum_i t^i (r_i mod p) is a
    polynomial in t of degree at most the number m of others, with no
    constant term; if it vanished for m distinct nonzero t, the
    Vandermonde matrix would force every r_i ≡ 0 mod p, and p would
    divide the gcd of the system, which is 1.  So each of the at most
    deg_elim(r0) such factors rejects at most m - 1 values of t, and a
    system that exhausts deg_elim(r0)·m + 1 values is not gcd-free
    (InternalError)."""
    i0 = min(range(len(system)), key=lambda i: system[i].degree_in(elim))
    r0 = system[i0]
    if r0.degree_in(elim) == 0:
        return r0.project_ring()
    others = system[:i0] + system[i0 + 1 :]
    for t in range(2, 3 + r0.degree_in(elim) * len(others)):
        comb = MPoly.zero(r0.ring)
        for i, r in enumerate(others, 1):
            comb = comb + r * t**i
        if not comb.is_zero():
            res = _resultant_wrt(r0, comb, elim, keep)
            if not res.is_zero():
                return res
    raise InternalError("the system passed to _eliminant is not gcd-free")


def _isolated_points(system: list[MPoly]) -> list[tuple[Fraction, Fraction]]:
    """Common rational zeros of a gcd-free bivariate system in (z, w).

    The rational roots of the eliminant in z (w eliminated) are the only
    possible z-coordinates of a common zero.  Each is substituted, w is
    read off the rational roots of the gcd of the sections, and a point is
    kept only if it is an exact zero of every member.  The eliminant may
    have roots that are not coordinates of a common zero, but the exact
    check rejects them, so the list holds every rational common zero and
    nothing else; a second elimination, in w, could add none."""
    sys2 = [r.extend_ring(("z", "w")) for r in system]
    pts = []
    for z0 in _rational_roots(_eliminant(sys2, "w", "z")):
        sections = [
            s.substitute({"z": MPoly.constant(z0, s.ring)}).project_ring()
            for s in sys2
        ]
        if any(sec.is_constant() and not sec.is_zero() for sec in sections):
            continue
        # gcd-free: z - z0 divides not every member, so some section lives
        live = [sec for sec in sections if not sec.is_zero()]
        g2 = live[0]
        for sec in live[1:]:
            g2 = mpoly_gcd(g2, sec)
        for w0 in _rational_roots(g2):
            if all(s.eval_at({"z": z0, "w": w0}) == 0 for s in sys2):
                pts.append((z0, w0))
    return pts
