"""Linear search for inverse integrating factors and Jacobi multipliers.

The classical obstacle is that Darboux polynomials p (with X(p) = q p)
satisfy a bilinear equation in the unknown coefficients of p and q.  The
search here goes around it: extend the field with an auxiliary variable
standing for the inverse integrating factor itself, so that candidates
z^k V_c / pbar are first integrals of the extended field.  The condition
on V_c is linear, and the full product B^2 prod(p_j) (or the Jacobi
multiplier, for second order equations) appears directly in the kernel.

Every use of the field goes through one polynomial derivation D, built
once per equation in `build_field`:

    order 1:  D = N dx + M dy               (the field X itself),
    order 2:  D = N dx + z N dy + M dz      (N times the Cartan field).

D(p) = q p is the Darboux condition for either order.  The search
identity is cleared of denominators with the factor `scale` (1 for order
1, N for order 2) and the cleared divergence `div`:

    scale (pbar D(V) - V D(pbar)) = k div V pbar,
    div = N_x + M_y (order 1),  M_z N - M N_z (order 2),

so scale D = N^2 dx + z N^2 dy + N M dz for order 2.  Every linear
system is read off D, and both orders share one search and one result,
`InverseIntegratingFactor`: for order 2 its v_num is the Jacobi
multiplier, with v_den = 1 and k = 1.

The search climbs a degree ladder, one linear system per degree d.
`_SystemBuilder` clears the identity to integers once (a positive factor
common to every column leaves the kernel alone) and owns the row index:
the columns of degree d are a prefix of those of degree d+1 (grlex order),
rows are numbered in order of first appearance and each rung assembles
only its new columns.  It is the library's only polynomials->matrix
builder.  Its rows and columns are keyed by MPoly's packed monomial keys
(see `poly`), so shifting a term by a column's monomial is one integer
addition and the builder has no packing of its own.  Each rung's kernel is a fresh `linalg.nullspace`,
which peels the unknowns forced to zero before its modular engine
eliminates: on these sparse systems most are (every rung of eq8, most
rungs of eq7), and the surviving columns are not nested from one rung to
the next, so no elimination is carried up the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InternalError
from .linalg import RatMatrix, nullspace
from .parser import RING1, RING2, RationalODE
from .poly import MAX_KEY_DEGREE, VAR_KEY, MPoly, exponents, monomials_of_degree, rat


@dataclass(frozen=True)
class VectorField:
    """The derivation D = sum_v c_v d/dv of a rational ODE, with coeffs
    holding c_v in ring order, plus the search scale and the cleared
    divergence (see the module docstring)."""

    order: int
    m: MPoly
    n: MPoly
    coeffs: tuple
    scale: MPoly
    divergence: MPoly

    @property
    def ring(self) -> tuple[str, ...]:
        return RING1 if self.order == 1 else RING2

    def apply(self, p: MPoly) -> MPoly:
        """D(p) = sum_v c_v dp/dv."""
        out = MPoly.zero(self.ring)
        for var, c in zip(self.ring, self.coeffs):
            dp = p.derivative(var)
            if dp.terms:
                out = out + c * dp
        return out


def build_field(ode: RationalODE) -> VectorField:
    m, n = ode.m, ode.n
    if ode.order == 1:
        coeffs = (n, m)
        scale = MPoly.constant(1, ode.ring)
        divergence = n.derivative("x") + m.derivative("y")
    else:
        coeffs = (n, MPoly.variable("z").extend_ring(ode.ring) * n, m)
        scale = n
        divergence = m.derivative("z") * n - m * n.derivative("z")
    return VectorField(ode.order, m, n, coeffs, scale, divergence)


@dataclass(frozen=True)
class InverseIntegratingFactor:
    """V = (v_num / v_den)^(1/k), found as a kernel element.  v_num is
    normalized; the defining identity (cleared of denominators) is

        scale (v_den D(v_num) - v_num D(v_den)) = k div v_num v_den.

    For a second order equation v_num is the polynomial inverse Jacobi
    multiplier (kind "polynomial", v_den = 1, k = 1)."""

    kind: str  # "polynomial" | "rational" | "kth_root"
    v_num: MPoly
    v_den: MPoly
    k: int
    degree_found: int
    basis: tuple = ()
    system: tuple = ()  # (rows, cols) of the system at degree_found


class _SystemBuilder:
    """Assembles the linear systems for one (field, k, denominator) choice
    in integers: pbar scale c_v (per variable) and scale D(pbar) + k div
    pbar are multiplied once by the positive lcm of their coefficient
    denominators, which scales every column alike.

    Rows and columns are MPoly's monomial keys, so the product of two
    monomials is one integer addition; a degree whose row keys would not
    fit a key is refused."""

    def __init__(self, field: VectorField, k: int, denominator: MPoly):
        self.ring = field.ring
        den = denominator.extend_ring(field.ring)
        # pbar scale D(m) = sum_v (pbar scale c_v) dm/dv
        partials = [den * (field.scale * c) for c in field.coeffs]
        cterm = field.scale * field.apply(den) + k * field.divergence * den
        self.lcm = math.lcm(*[c.denominator for p in (*partials, cterm) for c in p.terms.values()])
        # a row monomial's degree is at most its column's degree plus this
        self._reach = max(p.total_degree() for p in (*partials, cterm))

        def cleared(p: MPoly) -> list:
            return [(m, c.numerator * (self.lcm // c.denominator)) for m, c in p.terms.items()]

        self._partials = [(VAR_KEY[v], cleared(p)) for v, p in zip(self.ring, partials)]
        self._cterm = cleared(-cterm)
        self._rows: dict[int, int] = {}
        self._entries: dict = {}
        self._cols: list[int] = []
        self._degree = -1

    def _int_image(self, mono: int) -> dict:
        """lcm E(m) as {monomial key: int}; terms that cancel stay, as 0."""
        out = {t + mono: c for t, c in self._cterm}
        for e, (unit, terms) in zip(exponents(mono, self.ring), self._partials):
            if e:
                shift = mono - unit
                for t, c in terms:
                    t += shift
                    out[t] = out.get(t, 0) + e * c
        return out

    def build(self, degree: int, extra=()) -> tuple[RatMatrix, list[int]]:
        """The system (columns lcm E(m)) of the candidate monomials of degree
        <= degree, for non-decreasing degrees: only the new degrees'
        columns are assembled, appended in grlex order, and rows keep their
        numbers, so it extends the last one.  Each polynomial in `extra`
        adds one more column, lcm times it, after the monomials' columns;
        those go into this system only, not into the next one."""
        if degree + self._reach > MAX_KEY_DEGREE:
            raise DomainError(f"exponents at degree {degree} overflow the packed row monomials")
        cols, rows, entries = self._cols, self._rows, dict(self._entries)
        for d in range(self._degree + 1, degree + 1):
            for mono in monomials_of_degree(self.ring, d):
                j = len(cols)
                for t, c in self._int_image(mono).items():
                    if c:
                        entries[(rows.setdefault(t, len(rows)), j)] = c
                cols.append(mono)
        self._entries, self._degree = entries, max(self._degree, degree)
        if extra:
            entries, rows = dict(entries), dict(rows)
            for j, p in enumerate(extra, len(cols)):
                for t, c in p.terms.items():
                    entries[(rows.setdefault(t, len(rows)), j)] = rat(c * self.lcm)
        return RatMatrix(len(rows), len(cols) + len(extra), entries), list(cols)


def _select_kernel_poly(basis_vectors: list, cols: list, ring: tuple[str, ...]) -> tuple[MPoly, list[MPoly]]:
    """Interpret kernel vectors as polynomials; return (choice, all).
    Canonical choice: minimal total degree, then fewest terms, then
    grlex-least leading monomial."""
    polys = []
    for vec in basis_vectors:
        terms = {cols[j]: v for j, v in enumerate(vec) if v}
        polys.append(MPoly(ring, terms))
    best = min(polys, key=lambda p: (p.total_degree(), p.num_terms(), max(p.terms)))
    return best, polys


def verify_iif_identity(field: VectorField, v_num: MPoly, v_den: MPoly, k: int) -> bool:
    """Exact check of the cleared defining identity
    scale (v_den D(v_num) - v_num D(v_den)) = k div v_num v_den."""
    lhs = field.scale * (v_den * field.apply(v_num) - v_num * field.apply(v_den))
    rhs = k * field.divergence * v_num * v_den
    return (lhs - rhs).is_zero()


def _normalize_denominator(field: VectorField, denominator) -> MPoly:
    if denominator is None:
        return MPoly.constant(1, field.ring)
    if not isinstance(denominator, MPoly):
        raise DomainError("denominator must be a polynomial")
    if denominator.is_zero():
        raise DomainError("denominator must be nonzero")
    for v in denominator.vars_used():
        if v not in field.ring:
            raise DomainError(f"denominator variable {v} is outside the ODE ring")
    return denominator.extend_ring(field.ring).normalized()


def _ladder(field: VectorField, max_degree: int, k: int, den: MPoly):
    """The degree ladder: the kernel at the first degree <= max_degree
    whose system has one, as (chosen element normalized, degree, all
    kernel elements normalized, (rows, cols) of the system), or None.

    The builder assembles only each rung's new columns; every rung's
    kernel is a fresh `nullspace` of the whole (unpeeled) system, whose
    shape is the one reported."""
    builder = _SystemBuilder(field, k, den)
    for degree in range(max_degree + 1):
        mat, cols = builder.build(degree)
        basis = nullspace(mat)
        if not basis:
            continue
        choice, polys = _select_kernel_poly(basis, cols, field.ring)
        v = choice.normalized()
        if not verify_iif_identity(field, v, den, k):
            raise InternalError("kernel element fails the defining identity")
        return v, degree, tuple(p.normalized() for p in polys), (mat.nrows, mat.ncols)
    return None


def _search(
    ode: RationalODE, max_degree: int, k: int, denominator: MPoly | None
) -> InverseIntegratingFactor | None:
    """The degree ladder for either order, as an InverseIntegratingFactor."""
    if max_degree < 0:
        raise DomainError("max_degree must be nonnegative")
    field = build_field(ode)
    den = _normalize_denominator(field, denominator)
    found = _ladder(field, max_degree, k, den)
    if found is None:
        return None
    v_num, degree, basis, system = found
    if k > 1:
        kind = "kth_root"
    elif den.is_constant():
        kind = "polynomial"
    else:
        kind = "rational"
    return InverseIntegratingFactor(kind, v_num, den, k, degree, basis, system)


def lps_search(
    ode: RationalODE,
    max_degree: int = 20,
    k: int = 1,
    denominator: MPoly | None = None,
) -> InverseIntegratingFactor | None:
    """Find a polynomial (or rational / k-th root, per arguments) inverse
    integrating factor by degree-increasing kernel search.  Returns None
    when every degree up to max_degree has an empty kernel.  A returned
    factor has passed the exact check `verify_iif_identity`."""
    if ode.order != 1:
        raise DomainError("lps_search handles first order equations; use lps2_search")
    if k < 1:
        raise DomainError("power k must be a positive integer")
    return _search(ode, max_degree, k, denominator)


def lps2_search(ode: RationalODE, max_degree: int = 20) -> InverseIntegratingFactor | None:
    """Find a polynomial inverse Jacobi multiplier of a rational 2ODE by
    the same degree-increasing kernel search; it is returned as the v_num
    of a polynomial InverseIntegratingFactor (v_den = 1, k = 1) and has
    passed the exact check `verify_iif_identity`."""
    if ode.order != 2:
        raise DomainError("lps2_search handles second order equations")
    return _search(ode, max_degree, 1, None)
