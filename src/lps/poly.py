"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in an ordered subring of Q[x, y, z, w]; the ring of an
MPoly lists its variables in the order of `VARS`.  Binary operations
transparently unify operands into the union ring.

Terms are stored as a dict mapping packed monomial keys to nonzero
coefficients (Monagan & Pearce 2007).  A key holds one `_BITS`-bit field
per variable of `VARS`, x in the lowest, and the total degree in the
field above w:

    key = e_x + e_y 2^16 + e_z 2^32 + e_w 2^48 + (e_x + e_y + e_z + e_w) 2^64.

So integer order is graded lexicographic order with x < y < z < w,
max(p.terms) is the leading monomial, and the product of two monomials
is the sum of their keys.  A key does not depend on the ring, so
changing a polynomial's ring never rewrites its terms.  Every total
degree stays at most `MAX_KEY_DEGREE` = 2^16 - 1, which keeps each field
in range: a product, power or constructor that would exceed it raises
DomainError before it forms a key, so no field ever carries into the
next.  `from_dict` takes exponent tuples and `exponents` reads them back.

Coefficients keep one invariant: an integral coefficient is an int, any
other a Fraction in lowest terms (`rat` enforces it wherever a
coefficient is made).  Nearly every coefficient the pipeline meets is an
integer, and int arithmetic skips Fraction's normalising constructor.
The choice never shows in output: an int and the equal Fraction have the
same value, ==, hash and str.

The gcd is the heuristic integer gcd GCDHEU (Char, Geddes & Gonnet 1989),
certified by exact division; the subresultant PRS is its fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DomainError

Rat = Fraction

VARS = ("x", "y", "z", "w")
_VAR_POS = {v: i for i, v in enumerate(VARS)}

_BITS = 16
_MASK = (1 << _BITS) - 1
MAX_KEY_DEGREE = _MASK
_SHIFT = {v: _BITS * i for i, v in enumerate(VARS)}
_DEG = _BITS * len(VARS)  # the total-degree field, above every variable's
# the key of the monomial v: its own field and the degree field at 1
VAR_KEY = {v: (1 << s) + (1 << _DEG) for v, s in _SHIFT.items()}
# the keys of degree MAX_KEY_DEGREE + 1 and beyond start here
_LIMIT = (MAX_KEY_DEGREE + 1) << _DEG


def _overflow(degree: int) -> DomainError:
    return DomainError(f"total degree {degree} overflows the packed monomials (at most {MAX_KEY_DEGREE})")


def _pack(ring: tuple[str, ...], mono) -> int:
    """The key of the exponent tuple mono over ring."""
    if len(mono) != len(ring) or min(mono, default=0) < 0:
        raise ValueError(f"exponents {tuple(mono)} do not fit the ring {ring}")
    degree = sum(mono)
    if degree > MAX_KEY_DEGREE:
        raise _overflow(degree)
    return sum(e << _SHIFT[v] for v, e in zip(ring, mono)) + (degree << _DEG)


def exponents(key: int, ring: tuple[str, ...]) -> tuple[int, ...]:
    """The exponent tuple of a key over ring (the decoding of `_pack`)."""
    return tuple([(key >> _SHIFT[v]) & _MASK for v in ring])


def rat(c) -> Rat:
    """The canonical form of a rational coefficient c (an int or a
    Fraction): its numerator when c is integral, otherwise c itself."""
    return c.numerator if c.denominator == 1 else c


def _canonical(terms: dict) -> dict:
    """terms with every coefficient in canonical form; all-int dicts (the
    usual case) are returned as they are."""
    if set(map(type, terms.values())) <= {int}:
        return terms
    return {m: rat(c) for m, c in terms.items()}


def _rat_gcd(a: Rat, b: Rat) -> Rat:
    """gcd of two rationals: gcd of numerators over lcm of denominators
    (an int when integral)."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return num if den == 1 else Fraction(num, den)


def _ring(names) -> tuple[str, ...]:
    return tuple([v for v in VARS if v in names])


def _merge_rings(r1: tuple[str, ...], r2: tuple[str, ...]) -> tuple[str, ...]:
    if r1 == r2:
        return r1
    return tuple([v for v in VARS if v in r1 or v in r2])


class MPoly:
    """Immutable sparse polynomial with rational coefficients, each an int
    when integral and a Fraction otherwise, keyed by packed monomials (see
    the module docstring).

    The raw constructor trusts its arguments (a ring in `VARS` order and
    canonical nonzero coefficients under keys of that ring); use
    from_dict / constant / variable (which take exponent tuples and int
    or Fraction coefficients) otherwise.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: tuple[str, ...], terms: dict):
        self.ring = ring
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, ring: tuple[str, ...], terms: dict) -> "MPoly":
        """The polynomial with {exponent tuple over ring: coefficient}."""
        clean = {}
        for mono, c in terms.items():
            c = rat(c)
            if c:
                clean[_pack(ring, tuple(mono))] = c
        return cls(_ring(ring), clean)

    @classmethod
    def constant(cls, value, ring: tuple[str, ...] = ()) -> "MPoly":
        value = rat(value)
        return cls(_ring(ring), {0: value} if value else {})

    @classmethod
    def zero(cls, ring: tuple[str, ...] = ()) -> "MPoly":
        return cls(_ring(ring), {})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        if name not in _VAR_POS:
            raise DomainError(f"unknown variable {name!r}")
        return cls((name,), {VAR_KEY[name]: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Rat:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0]

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> _DEG

    def degree_in(self, var: str) -> int:
        if var not in self.ring:
            return 0 if self.terms else -1
        if not self.terms:
            return -1
        s = _SHIFT[var]
        return max((m >> s) & _MASK for m in self.terms)

    def vars_used(self) -> tuple[str, ...]:
        """Variables with a nonzero exponent somewhere in the support."""
        seen = 0
        for m in self.terms:
            seen |= m
        return tuple([v for v in self.ring if (seen >> _SHIFT[v]) & _MASK])

    def leading_term(self) -> tuple[int, Rat]:
        """Grlex-greatest (monomial key, coefficient) pair."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms)
        return mono, self.terms[mono]

    def num_terms(self) -> int:
        return len(self.terms)

    # -- ring management ---------------------------------------------------

    def extend_ring(self, ring: tuple[str, ...]) -> "MPoly":
        """Reinterpret in a larger ring (given in any order)."""
        if ring == self.ring:
            return self
        for v in self.ring:
            if v not in ring:
                raise ValueError(f"target ring drops variable {v}")
        return MPoly(_ring(ring), self.terms)

    def project_ring(self) -> "MPoly":
        """Shrink the ring to the variables actually used."""
        used = self.vars_used()
        if used == self.ring:
            return self
        return MPoly(used, self.terms)

    def _unify(self, other: "MPoly") -> tuple["MPoly", "MPoly"]:
        if self.ring == other.ring:
            return self, other
        ring = _merge_rings(self.ring, other.ring)
        return MPoly(ring, self.terms), MPoly(ring, other.terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "MPoly | None":
        if isinstance(value, MPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MPoly.constant(value)
        return None

    def _sum(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + sign * c
            if s:
                terms[m] = rat(s)
            else:
                terms.pop(m, None)
        return MPoly(_merge_rings(self.ring, other.ring), terms)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if not c:
                return MPoly(self.ring, {})
            return MPoly(self.ring, _canonical({m: v * c for m, v in self.terms.items()}))
        if not isinstance(other, MPoly):
            return NotImplemented
        ring = _merge_rings(self.ring, other.ring)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return MPoly(ring, {})
        if max(a) + max(b) >= _LIMIT:
            raise _overflow(self.total_degree() + other.total_degree())
        out: dict = {}
        get = out.get
        a_items = a.items()
        for mb, cb in b.items():
            for ma, ca in a_items:
                m = ma + mb
                s = get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MPoly(ring, _canonical(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if k == 0:
            return MPoly.constant(1, self.ring)
        if not self.terms:
            return self
        degree = self.total_degree()
        if degree * k > MAX_KEY_DEGREE:
            raise _overflow(degree * k)
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return MPoly(self.ring, {m * k: c**k})
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        """Division by a nonzero scalar only."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        if var not in self.ring:
            return MPoly(self.ring, {})
        s, unit = _SHIFT[var], VAR_KEY[var]
        # m -> m - unit is one to one, so no two terms meet
        out = {}
        for m, c in self.terms.items():
            e = (m >> s) & _MASK
            if e:
                out[m - unit] = c * e
        return MPoly(self.ring, _canonical(out))

    # -- division and content ----------------------------------------------

    def exact_divide(self, divisor: "MPoly") -> "MPoly | None":
        """Return q with self == q * divisor, or None when no such
        polynomial exists.  Raises ZeroDivisionError for divisor == 0."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return MPoly(self.ring, {})
        ring = _merge_rings(self.ring, divisor.ring)
        if divisor.is_constant():
            return MPoly(ring, self.terms) * (Fraction(1) / divisor.constant_value())
        lm_b, lc_b = divisor.leading_term()
        need = [(s, e) for s, e in ((_SHIFT[v], (lm_b >> _SHIFT[v]) & _MASK) for v in divisor.ring) if e]
        b_items = divisor.terms.items()
        rem = dict(self.terms)
        quot: dict = {}
        # Grlex leading-term division: if the division is exact, every
        # intermediate leading term must be divisible by lt(b).
        while rem:
            mono = max(rem)
            for s, e in need:
                if (mono >> s) & _MASK < e:
                    return None
            shift = mono - lm_b
            qc = rat(Fraction(rem[mono], lc_b))
            quot[shift] = qc
            for mb, cb in b_items:
                m = mb + shift
                s = rem.get(m, 0) - cb * qc
                if s:
                    rem[m] = rat(s)
                else:
                    rem.pop(m, None)
        return MPoly(ring, quot)

    def rat_content(self) -> Rat:
        """Positive rational c with self/c integer-primitive (0 for 0), an
        int when integral."""
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return num if den == 1 else Fraction(num, den)

    def normalized_with_unit(self) -> tuple["MPoly", Rat]:
        """Split self = unit * canonical where canonical is integer-primitive
        with positive leading (grlex-greatest) coefficient."""
        if not self.terms:
            return self, Fraction(1)
        unit, terms = _int_primitive(self)
        if terms[max(terms)] < 0:
            unit = -unit
            terms = {m: -c for m, c in terms.items()}
        return MPoly(self.ring, terms), unit

    def normalized(self) -> "MPoly":
        return self.normalized_with_unit()[0]

    # -- canonical text ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical rendering: ascending grlex, explicit * and ^."""
        if not self.terms:
            return "0"
        chunks = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            parts = []
            for v, e in zip(self.ring, exponents(mono, self.ring)):
                if e == 1:
                    parts.append(v)
                elif e > 1:
                    parts.append(f"{v}^{e}")
            mag = abs(coeff)
            if not parts:
                body = str(mag)
            elif mag == 1:
                body = "*".join(parts)
            else:
                body = str(mag) + "*" + "*".join(parts)
            chunks.append(("-" if coeff < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MPoly({self.to_text()!r})"

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def monomials_of_degree(ring: tuple[str, ...], degree: int) -> list[int]:
    """The keys of all monomials over ring of total degree exactly
    `degree`, ascending (grlex)."""
    if degree > MAX_KEY_DEGREE:
        raise _overflow(degree)
    units = [VAR_KEY[v] for v in _ring(ring)]
    if not units:
        return [0] if degree == 0 else []
    # keys[j]: the monomials of degree j in the variables taken so far
    keys = [[j * units[0]] for j in range(degree + 1)]
    for unit in units[1:]:
        keys = [[m + e * unit for e in range(j + 1) for m in keys[j - e]] for j in range(degree + 1)]
    return sorted(keys[degree])


# ---------------------------------------------------------------------------
# GCD.  The default is GCDHEU (Char, Geddes & Gonnet 1989): evaluate the last
# variable at a large integer xi, recurse down to an integer gcd, and
# interpolate back from the symmetric xi-adic digits.  With xi above twice
# the smaller input norm, the primitive part of the interpolant is the gcd
# whenever it divides both inputs, so exact division in Z certifies every
# answer.  When six values of xi per level all fail, the subresultant PRS
# over the rationals (content/primitive-part recursion) answers instead.
# ---------------------------------------------------------------------------


def _as_univar(p: MPoly, var: str) -> list[MPoly]:
    """Dense coefficient list of p viewed as univariate in var; coefficients
    are polynomials over the remaining ring variables."""
    rest = tuple([v for v in p.ring if v != var])
    s, unit = _SHIFT[var], VAR_KEY[var]
    coeffs: list[dict] = [dict() for _ in range(p.degree_in(var) + 1)]
    for m, c in p.terms.items():
        e = (m >> s) & _MASK
        coeffs[e][m - e * unit] = c
    return [MPoly(rest, d) for d in coeffs]


def _from_univar(coeffs: list[MPoly], var: str) -> MPoly:
    out = MPoly.zero((var,))
    unit = VAR_KEY[var]
    for e, c in enumerate(coeffs):
        if c.is_zero():
            continue
        shift = e * unit
        out = out + MPoly(_merge_rings(c.ring, (var,)), {m + shift: v for m, v in c.terms.items()})
    return out


def _trim(coeffs: list[MPoly]) -> list[MPoly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _words(coeffs: list[MPoly]) -> int:
    """64-bit words of the largest coefficient (numerator and
    denominator) in coeffs."""
    bits = max((c.numerator.bit_length() + c.denominator.bit_length() for p in coeffs for c in p.terms.values()), default=0)
    return bits // 64 + 1


def _pseudo_rem(A: list[MPoly], B: list[MPoly], work: int) -> tuple[list[MPoly], int]:
    """prem(A, B): remainder of lc(B)^(degA-degB+1) * A under division by B,
    and work plus its products of terms, each weighted by the 64-bit
    words of the two coefficients it multiplies (BudgetError past
    _MAX_PRS_PRODUCTS).  Dense lists indexed by exponent, B nonzero,
    degA >= degB."""
    dA, dB = len(A) - 1, len(B) - 1
    lb = B[dB]
    R = list(A)
    e = dA - dB + 1
    b_terms, b_words = sum(len(c.terms) for c in B), _words(B)
    while True:
        R = _trim(R)
        dR = len(R) - 1
        if dR < dB:
            break
        top = R[dR]
        work += (sum(len(c.terms) for c in R) * len(lb.terms) + len(top.terms) * b_terms) * _words(R) * b_words
        if work > _MAX_PRS_PRODUCTS:
            raise BudgetError(f"polynomial gcd: more than {_MAX_PRS_PRODUCTS} word-weighted term products")
        R = [c * lb for c in R]
        for i, bc in enumerate(B):
            R[i + dR - dB] = R[i + dR - dB] - top * bc
        e -= 1
    if e > 0:
        scale = lb**e if e > 1 else lb
        R = [c * scale for c in R]
    return _trim(R), work


def _exact_div_list(coeffs: list[MPoly], d: MPoly) -> list[MPoly]:
    out = []
    for c in coeffs:
        q = c.exact_divide(d)
        if q is None:
            raise ArithmeticError("inexact division in PRS")  # pragma: no cover
        out.append(q)
    return out


def _gcd_list(polys: list[MPoly]) -> MPoly:
    g = MPoly.zero()
    for p in polys:
        g = _gcd(g, p)
        if g.is_constant() and not g.is_zero() and g.constant_value() == 1:
            break
    return g


def _content_pp(p: MPoly, var: str) -> tuple[MPoly, list[MPoly]]:
    coeffs = _as_univar(p, var)
    cont = _gcd_list([c for c in coeffs if not c.is_zero()])
    return cont, _exact_div_list(coeffs, cont)


# Products of terms one PRS may take, each counted once per pair of
# 64-bit words of the coefficients it multiplies.  A timed sweep (10,000
# squarefree splits and gcds in two and three variables with coefficients
# of 3 to 4,000 bits; Python 3.11 on a shared 2-core machine) measured at
# most 0.25 microseconds per counted product, so this bounds a PRS to
# about a second.
_MAX_PRS_PRODUCTS = 4_000_000


def _prs_gcd(A: list[MPoly], B: list[MPoly]) -> list[MPoly]:
    """Subresultant PRS on primitive dense lists, deg A >= deg B >= 1.
    Returns the final remainder (a gcd up to content in the main var)."""
    g = MPoly.constant(1)
    h = MPoly.constant(1)
    work = 0
    while True:
        delta = (len(A) - 1) - (len(B) - 1)
        R, work = _pseudo_rem(A, B, work)
        if not R:
            return B
        if len(R) - 1 == 0:
            return [MPoly.constant(1)]
        divisor = g * h**delta
        A, B = B, _exact_div_list(R, divisor)
        g = A[-1]
        if delta == 0:
            continue
        if delta == 1:
            h = g
        else:
            q = (g**delta).exact_divide(h ** (delta - 1))
            if q is None:
                raise ArithmeticError("subresultant update failed")  # pragma: no cover
            h = q


def _gcd_rec(a: MPoly, b: MPoly) -> MPoly:
    """The subresultant-PRS fallback of _gcd: gcd including rational
    content; divides both inputs exactly."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.is_constant() or b.is_constant():
        return MPoly.constant(_rat_gcd(a.rat_content(), b.rat_content()))
    shared = [v for v in a.ring if v in set(a.vars_used()) & set(b.vars_used())]
    if not shared:
        return MPoly.constant(_rat_gcd(a.rat_content(), b.rat_content()))
    # short PRS chains matter far more than anything else here, so use
    # the shared variable of smallest degree as the main one
    var = min(shared, key=lambda v: (min(a.degree_in(v), b.degree_in(v)), VARS.index(v)))
    cont_a, pa = _content_pp(a, var)
    cont_b, pb = _content_pp(b, var)
    cont_g = _gcd_rec(cont_a, cont_b)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    if len(pb) - 1 == 0:
        prim = MPoly.constant(1)
    else:
        raw = _prs_gcd(pa, pb)
        if len(raw) == 1:
            prim = MPoly.constant(1)
        else:
            cont_r = _gcd_list([c for c in raw if not c.is_zero()])
            prim = _from_univar(_exact_div_list(raw, cont_r), var)
    out = cont_g * prim
    return out


_HEU_TRIES = 6
# GCDHEU gives up for the PRS when xi's bits times the total degree pass this
# (its own size test, Char, Geddes & Gonnet 1989; the benchmarks need < 1,000).
_HEU_BITS = 1 << 21


def _int_primitive(p: MPoly) -> tuple[Rat, dict]:
    """(c, q) with p == c * q and q an integer-primitive {monomial: int}."""
    c = p.rat_content()
    num, den = c.numerator, c.denominator
    return c, {m: v.numerator * (den // v.denominator) // num for m, v in p.terms.items()}


def _eval_last(f: dict, var: str, xi: int) -> dict:
    """f with var set to xi."""
    s, unit = _SHIFT[var], VAR_KEY[var]
    out: dict = {}
    powers = [1]
    for m, c in f.items():
        e = (m >> s) & _MASK
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        m -= e * unit
        out[m] = out.get(m, 0) + c * powers[e]
    return {m: c for m, c in out.items() if c}


def _interpolate(h: dict, var: str, xi: int) -> dict | None:
    """Inverse of _eval_last on symmetric xi-adic digits: each integer
    coefficient becomes a polynomial in var.  None when a digit's degree
    would not fit a key; such a candidate divides no input."""
    unit = VAR_KEY[var]
    out = {}
    half = xi // 2
    for m, c in h.items():
        digits = []
        while c:
            d = c % xi
            if d > half:
                d -= xi
            digits.append(d)
            c = (c - d) // xi
        if (m >> _DEG) + len(digits) - 1 > MAX_KEY_DEGREE:
            return None
        for e, d in enumerate(digits):
            if d:
                out[m + e * unit] = d
    return out


def _divides(h: dict, f: dict, ring: tuple[str, ...]) -> bool:
    """Whether h divides f in Z[ring]; h is integer-primitive, so by Gauss's
    lemma a non-integer quotient coefficient already rules it out."""
    lm = max(h)
    lc = h[lm]
    # (field shift, exponent in lt(h), room) per variable: every quotient
    # monomial lies in the box deg(f) - deg(h), which bounds the work when
    # h is not a divisor
    fields = []
    for v in ring:
        s = _SHIFT[v]
        room = max((m >> s) & _MASK for m in f) - max((m >> s) & _MASK for m in h)
        if room < 0:
            return False
        fields.append((s, (lm >> s) & _MASK, room))
    rem = dict(f)
    # grlex leading-term division
    while rem:
        m = max(rem)
        for s, e, room in fields:
            if not 0 <= ((m >> s) & _MASK) - e <= room:
                return False
        shift = m - lm
        q, r = divmod(rem[m], lc)
        if r:
            return False
        for mh, ch in h.items():
            mm = mh + shift
            s = rem.get(mm, 0) - q * ch
            if s:
                rem[mm] = s
            else:
                del rem[mm]
    return True


def _heu_gcd(f: dict, g: dict, ring: tuple[str, ...]) -> dict | None:
    """GCDHEU on nonzero integer polynomials over ring; returns the gcd
    with its integer content, or None when the heuristic gives up.  The
    last variable of ring is evaluated first."""
    if not ring:
        return {0: math.gcd(f[0], g[0])}
    cont = math.gcd(math.gcd(*f.values()), math.gcd(*g.values()))
    if cont > 1:
        f = {m: c // cont for m, c in f.items()}
        g = {m: c // cont for m, c in g.items()}
    # the common content is a factor of the gcd; in the lower levels it
    # carries the images of the evaluated variables and must go back in
    if (len(f) == 1 and 0 in f) or (len(g) == 1 and 0 in g):
        return {0: cont}
    var, rest = ring[-1], ring[:-1]
    degree = max(max(f), max(g)) >> _DEG  # total degree, at least var's
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * degree > _HEU_BITS:
            return None
        ff = _eval_last(f, var, xi)
        gg = _eval_last(g, var, xi)
        if ff and gg:
            low = _heu_gcd(ff, gg, rest)
            if low is None:
                return None  # a larger xi would only make the lower levels larger
            h = _interpolate(low, var, xi)
            if h is not None:
                hc = math.gcd(*h.values())
                if hc > 1:
                    h = {m: c // hc for m, c in h.items()}
                if _divides(h, f, ring) and _divides(h, g, ring):
                    return {m: c * cont for m, c in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd(a: MPoly, b: MPoly) -> MPoly:
    """gcd including rational content; divides both inputs exactly.
    GCDHEU on the integer-primitive parts, PRS when the heuristic gives up."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.is_constant() or b.is_constant() or not set(a.vars_used()) & set(b.vars_used()):
        return MPoly.constant(_rat_gcd(a.rat_content(), b.rat_content()))
    a, b = a._unify(b)
    ca, fa = _int_primitive(a)
    cb, fb = _int_primitive(b)
    h = _heu_gcd(fa, fb, a.ring)
    if h is None:
        return _gcd_rec(a, b)
    scale = _rat_gcd(ca, cb)
    if len(h) == 1 and 0 in h:
        return MPoly.constant(scale)  # h is +-1: both inputs are primitive
    return MPoly(a.ring, {m: rat(scale * c) for m, c in h.items()})


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Normalized gcd: integer-primitive with positive leading coefficient.
    mpoly_gcd(0, 0) == 0."""
    g = _gcd(a, b)
    if g.is_zero():
        return g
    return g.normalized()


# ---------------------------------------------------------------------------
# Squarefree decomposition (Yun's algorithm with content recursion).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareFreeDecomposition:
    """p == content * prod(factor**mult); factors pairwise coprime,
    squarefree, normalized; multiplicities strictly increasing."""

    content: Rat
    parts: tuple[tuple[MPoly, int], ...]


def _yun(f: MPoly, var: str) -> list[tuple[MPoly, int]]:
    """Squarefree split of f along var; f nonconstant and primitive in var.
    Returned factors are normalized; rational scale is dropped (the caller
    reconstructs it by division)."""
    df = f.derivative(var)
    g = mpoly_gcd(f, df)
    if g.is_constant():
        return [(f.normalized(), 1)]
    w = f.exact_divide(g)
    y = df.exact_divide(g)
    z = y - w.derivative(var)
    parts = []
    i = 1
    while not w.is_constant():
        h = mpoly_gcd(w, z)
        if not h.is_constant():
            parts.append((h, i))
        w = w.exact_divide(h)
        y = z.exact_divide(h)
        z = y - w.derivative(var)
        i += 1
    return parts


def _sqfree_rec(p: MPoly) -> list[tuple[MPoly, int]]:
    if p.is_constant():
        return []
    used = p.vars_used()
    var = max(used, key=lambda v: (p.degree_in(v), -VARS.index(v)))
    # a nonzero constant coefficient in var leaves no content to split off
    if len(used) == 1 or any(c.is_constant() and not c.is_zero() for c in _as_univar(p, var)):
        return _yun(p, var)
    cont, pp_coeffs = _content_pp(p, var)
    pp = _from_univar(pp_coeffs, var)
    parts = _yun(pp, var)
    inner = _sqfree_rec(cont)
    merged: dict[int, MPoly] = {}
    for f, m in parts + inner:
        merged[m] = merged[m] * f if m in merged else f
    return sorted(((f, m) for m, f in merged.items()), key=lambda t: t[1])


def squarefree_decompose(p: MPoly) -> SquareFreeDecomposition:
    """Yun decomposition p = content * prod(S_i ** m_i); exact by
    construction (the content is recovered by exact division)."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if p.is_constant():
        return SquareFreeDecomposition(p.constant_value(), ())
    parts = [(f.normalized(), m) for f, m in _sqfree_rec(p)]
    prod = MPoly.constant(1)
    for f, m in parts:
        prod = prod * f**m
    scale = p.exact_divide(prod)
    if scale is None or not scale.is_constant():
        raise ArithmeticError("squarefree reconstruction failed")  # pragma: no cover
    return SquareFreeDecomposition(scale.constant_value(), tuple(parts))


# ---------------------------------------------------------------------------
# Rational functions, as (numerator, denominator) pairs.
# ---------------------------------------------------------------------------


def lowest_terms(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """num/den in lowest terms, with the denominator integer-primitive and
    of positive leading coefficient; such a pair is unique.  Zero is
    (0, 1)."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return MPoly.zero(num.ring), MPoly.constant(1, num.ring)
    g = _gcd(num, den)
    if not (g.is_constant() and g.constant_value() == 1):
        num = num.exact_divide(g)
        den = den.exact_divide(g)
    den, unit = den.normalized_with_unit()
    if unit != 1:
        num = num / unit
    return num, den
