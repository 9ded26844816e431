"""Univariate factorization over the integers.

Dense coefficient lists (index = degree, integer entries) throughout.
The entry point is zassenhaus(), which expects a primitive squarefree
polynomial and returns its irreducible factors, also primitive, with
positive leading coefficients.  The classical pipeline: factor modulo a
small prime with few modular factors, Hensel-lift the factorization past
the Mignotte coefficient bound, then recombine modular factors by subset
search with exact trial division.  recombine() is that subset search; the
recombination of the t-adically lifted factors of a multivariate
polynomial in `factor` runs on it too.  rational_roots() finds the
rational roots of a squarefree polynomial without factoring it; it
answers zassenhaus's quadratics and cubics and `factor`'s degree-1
Darboux search.  A search that would try more than `_MAX_SUBSETS`
subsets raises BudgetError instead of running on: the count grows
exponentially with the number of modular factors (Swinnerton-Dyer
polynomials have many at every prime), while no call on the benchmark's
inputs tries more than 17.

The prime is the one, among the first six that keep the input squarefree
with a unit leading coefficient, with the fewest modular factors (the
first on ties, at once on one factor).  Berlekamp's algorithm (Bell
Syst. Tech. J. 46, 1967) counts them: f has one irreducible factor mod p
more than the kernel of Q - I has non-constant basis vectors, for Q the
Frobenius matrix of f, rows x^(i p) mod f, so that h^p = h mod f exactly
when h's coefficient vector is in that kernel.  The kernel comes from the
library's mod-p elimination, `linalg._kernel_mod_p`.  Only the chosen
prime is split: the gcds of each part with v - s, for each basis vector v
and each residue s, split f into its irreducible factors mod p.  Those
are lifted linearly, one power of p per step, to the least power above
twice the Mignotte bound (von zur Gathen & Gerhard, *Modern Computer
Algebra*, 15.5); each step spreads the error over the factors by the
Lagrange cofactors that `factor`'s t-adic lift uses as well.  Products
and remainders mod p reduce each output coefficient once.
"""

import math
from fractions import Fraction
from itertools import combinations

from .errors import BudgetError, InternalError
from .intarith import is_probable_prime
from .linalg import _kernel_mod_p


def _deg(a: list[int]) -> int:
    return len(a) - 1


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod(a: list[int], p: int) -> list[int]:
    return _trim([c % p for c in a])


def _add_mod(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _sub_mod(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c % p
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul_mod(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return _trim([c % p for c in out])


def _scale_mod(a, c, p):
    c %= p
    return _trim([x * c % p for x in a])


def _reduce(a, b, p):
    """Divide a by b mod p in place, for b reduced and nonzero (its leading
    coefficient is inverted mod p): returns the quotient and leaves the
    remainder in a's first len(b) - 1 entries.  Working coefficients are
    reduced only when read as a leading coefficient."""
    inv = pow(b[-1], -1, p)
    lb = len(b)
    q = [0] * max(len(a) - lb + 1, 0)
    for k in range(len(a) - lb, -1, -1):
        c = a[k + lb - 1] * inv % p
        if c:
            q[k] = c
            for i, cb in enumerate(b, k):
                a[i] -= c * cb
    return q


def _divmod_mod(a, b, p):
    """Division with remainder mod p; b need not be monic."""
    b = _mod(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = _reduce(a, b, p)
    return _trim(q), _mod(a[: len(b) - 1], p)


def _gcd_mod(a, b, p):
    """The monic gcd mod p, by Euclid's algorithm."""
    a, b = _mod(a, p), _mod(b, p)
    while b:
        _reduce(a, b, p)
        a, b = b, _mod(a[: len(b) - 1], p)
    if a:
        a = _scale_mod(a, pow(a[-1], -1, p), p)
    return a


def _deriv(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def _vecmat(v, matrix, n, p):
    """v times an n-column matrix mod p.  `matrix` is (bits, rows) as
    `_packed_rows` makes it: each row is one integer holding its entries
    in fields of `bits` bits, so the product is one integer multiply-add
    per nonzero entry of v, read back one field per column."""
    bits, packed = matrix
    acc = 0
    for c, row in zip(v, packed):
        if c:
            acc += c * row
    mask = (1 << bits) - 1
    return _trim([(acc >> (bits * j) & mask) % p for j in range(n)])


def _packed_rows(rows, n, p):
    """Rows of residues mod p, at most n each, packed for `_vecmat`; a
    field holds a sum of n products of residues without carrying."""
    bits = (n * (p - 1) ** 2).bit_length()
    return bits, [sum(c << (bits * j) for j, c in enumerate(row)) for row in rows]


def _frobenius_rows(f, p):
    """The Frobenius matrix of monic f mod p (Berlekamp's Q-matrix), its
    row i being x^(i p) mod f: h^p mod f is h times it for any h of
    degree < deg f.  Row i is row i-1 times the matrix of multiplication
    by x^p, whose rows x^(p+j) mod f come by shifting."""
    n = _deg(f)
    x = [0] * (n - 1) + [1]
    powers = [[0] * e + [1] for e in range(n)]  # x^e mod f, e < n
    for _ in range(p):  # then e = n, ..., n + p - 1
        top = x[-1]
        x = [(a - top * c) % p for a, c in zip([0] + x[:-1], f)]
        powers.append(x)
    by_xp = _packed_rows(powers[p:], n, p)
    rows = [[1]]
    for _ in range(1, n):
        rows.append(_vecmat(rows[-1], by_xp, n, p))
    return rows


def _berlekamp_basis(f, p):
    """The non-constant basis vectors, as polynomials, of the kernel of
    Q - I for monic squarefree f mod p, deg f >= 2: the h of degree
    < deg f with h^p = h mod f, other than the constants.  f has one
    irreducible factor mod p more than there are vectors."""
    n = _deg(f)
    # h = sum v_i x^i has h^p = v Q mod f, so equation j is column j of Q - I
    q = [row + [0] * (n - len(row)) for row in _frobenius_rows(f, p)]
    equations = [dict(enumerate(column)) for column in zip(*q)]
    for j, equation in enumerate(equations):
        equation[j] -= 1
    kernel = _kernel_mod_p(equations, n, p)
    kernel.pop(0)  # the constant vector: column 0 of Q - I is zero
    return [_trim(v) for v in kernel.values()]


def _berlekamp_split(f, basis, p):
    """The monic irreducible factors mod p of monic squarefree f, from its
    `_berlekamp_basis`.  For a basis vector v, f divides v^p - v, the
    product of the v - s over s mod p, so each part g is the product of
    its gcds with them; the basis separates any two irreducible factors,
    so the parts end irreducible."""
    parts = [f]
    for v in basis:
        if len(parts) > len(basis):
            break
        split = []
        for g in parts:
            if _deg(g) == 1:
                split.append(g)
                continue
            r, left = _divmod_mod(v, g, p)[1], _deg(g)
            for s in range(p):
                h = _gcd_mod(_sub_mod(r, [s], p), g, p)
                if _deg(h) > 0:
                    split.append(h)
                    left -= _deg(h)
                    if left == 0:
                        break
        parts = split
    return parts


def _symmetric(a: list[int], m: int) -> list[int]:
    return _trim([c - m if c > m // 2 else c for c in _mod(a, m)])


def _ext_gcd_mod(a, b, p):
    """Extended Euclid for polynomials mod p: g, s, t with s*a + t*b = g."""
    r0, r1 = _mod(a, p), _mod(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    return r0, s0, t0


def _lagrange_cofactors(us, p):
    """The c_i, deg c_i < deg u_i, with c_1 U_1 + ... + c_r U_r = 1 mod p
    for U_i the product of the u_j, j != i: c_i is the inverse of U_i
    modulo u_i.  The u_i are monic; InternalError unless they are
    pairwise coprime mod p."""
    cofactors = []
    for i, u in enumerate(us):
        rest = [1]
        for j, v in enumerate(us):
            if j != i:
                rest = _divmod_mod(_mul_mod(rest, v, p), u, p)[1]
        g, s, _ = _ext_gcd_mod(rest, u, p)
        if _deg(g) != 0:
            raise InternalError("modular factors not coprime")
        cofactors.append(_scale_mod(s, pow(g[0], -1, p), p))
    return cofactors


def _lift_padic(f, us, p, bound):
    """Lift f = lc(f) u_1 ... u_r mod p, the u_i monic and pairwise
    coprime mod p, to monic U_i with f = lc(f) U_1 ... U_r mod m, m the
    least power of p above 2 bound.  Returns m and the U_i.

    One linear loop: with the identity mod q = p^k, the error
    e = (f / lc(f) - U_1 ... U_r) / q mod p is spread over the factors by
    the Lagrange cofactors c_i, U_i gaining q (e c_i mod u_i)."""
    cofactors = _lagrange_cofactors(us, p)
    m = p
    while m <= 2 * bound:
        m *= p
    monic = _scale_mod(f, pow(f[-1], -1, m), m)
    lifted = list(us)
    q = p
    while q < m:
        prod = [1]
        for u in lifted:
            prod = _mul_mod(prod, u, q * p)
        err = [c // q for c in _sub_mod(monic, prod, q * p)]
        lifted = [
            _add_mod(lift, [q * c for c in _divmod_mod(_mul_mod(err, c_i, p), u, p)[1]], q * p)
            for lift, c_i, u in zip(lifted, cofactors, us)
        ]
        q *= p
    return m, lifted


def _content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def _primitive(a: list[int]) -> list[int]:
    g = _content(a)
    if a and a[-1] < 0:
        g = -g
    if g not in (0, 1):
        a = [c // g for c in a]
    return a


def _divides_exact(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a/b over the integers, or None."""
    if not b:
        return None
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    if not q and a:
        return None
    while a:
        if len(a) < len(b):
            return None
        c, rem = divmod(a[-1], b[-1])
        if rem != 0:
            return None
        k = len(a) - len(b)
        q[k] = c
        for i, cb in enumerate(b):
            a[i + k] -= c * cb
        _trim(a)
    return q


def _mignotte_bound(f: list[int]) -> int:
    n = _deg(f)
    norm = math.isqrt(sum(c * c for c in f)) + 1
    return (math.isqrt(n + 1) + 1) * (1 << n) * norm * abs(f[-1])


def _good_primes(f: list[int]):
    """The odd primes, ascending, that keep f squarefree with a unit
    leading coefficient; InternalError when more than 50 fail before the
    first passes (f is then taken not to be squarefree)."""
    rejected = 0
    p = 1
    while True:
        p = 3 if p == 1 else _next_prime_after(p)
        if f[-1] % p and _squarefree_mod(f, p):
            rejected = None
            yield p
        elif rejected is not None:
            rejected += 1
            if rejected > 50:
                raise InternalError("input to zassenhaus is not squarefree")


def _pick_prime(f: list[int]) -> tuple[int, list[list[int]]]:
    """Choose an odd prime keeping f squarefree with unit leading
    coefficient; among the first six such primes, take the one with the
    fewest modular factors, counted by `_berlekamp_basis` (the first on
    ties, at once on a single factor).  Returns it and f's monic
    irreducible factors modulo it, sorted."""
    best = None
    for valid, p in enumerate(_good_primes(f), 1):
        monic = _scale_mod(f, pow(f[-1] % p, -1, p), p)
        basis = _berlekamp_basis(monic, p)
        if best is None or len(basis) < len(best[2]):
            best = (p, monic, basis)
        if not basis or valid == 6:
            break
    p, monic, basis = best
    return p, sorted(_berlekamp_split(monic, basis, p))


def _next_prime_after(p: int) -> int:
    p += 2
    while not is_probable_prime(p):
        p += 2
    return p


def _squarefree_mod(f, p):
    fp = _mod(f, p)
    if _deg(fp) != _deg(f):
        return False
    return _deg(_gcd_mod(fp, _deriv(fp), p)) == 0


def rational_roots(f: list[int]) -> list[Fraction]:
    """The rational roots, ascending, of a squarefree primitive integer
    polynomial, by p-adic lifting (Loos 1983).

    A root u/v in lowest terms has v | lc(f), so z = lc(f) u/v is an
    integer, and |z| <= B = |lc(f)| + max |c_i| by Cauchy's bound.  Modulo
    the least odd prime p that keeps f squarefree with a unit leading
    coefficient, every root of f is simple, so each one found by
    evaluation lifts by Newton's iteration to the only root of f modulo
    m > 2B above it; u/v reduces to one of them, and then z is the
    symmetric residue of lc(f) times that root.  Each candidate z/lc(f)
    is checked exactly."""
    n = _deg(f)
    if n < 1:
        return []
    p = next(_good_primes(f))
    lc = f[-1]
    bound = abs(lc) + max(abs(c) for c in f)
    df = _deriv(f)
    roots = []
    for r in range(p):
        if _value_mod(f, r, p):
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
        z = lc * r % m
        if z > m // 2:
            z -= m
        acc, scale = 0, 1  # lc^n f(z/lc), by Horner
        for c in reversed(f):
            acc = acc * z + c * scale
            scale *= lc
        if acc == 0:
            roots.append(Fraction(z, lc))
    return sorted(roots)


def _value_mod(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree polynomial
    with positive leading coefficient, degree >= 1.

    Degrees 2 and 3 need no modular split: such a polynomial is
    irreducible unless it has a rational root u/v, whose factor v x - u
    leaves a cofactor of lower degree."""
    if _deg(f) == 1:
        return [f]
    if _deg(f) <= 3:
        roots = rational_roots(f)
        if not roots:
            return [f]
        line = [-roots[0].numerator, roots[0].denominator]
        return sorted([line] + zassenhaus(_divides_exact(f, line)), key=lambda g: (len(g), g))
    p, modfacs = _pick_prime(f)
    if len(modfacs) == 1:
        return [f]
    big, lifted = _lift_padic(f, modfacs, p, _mignotte_bound(f))

    def trial(subset, current):
        prod = [current[-1]]
        for i in subset:
            prod = _mul_mod(prod, lifted[i], big)
        cand = _primitive(_symmetric(prod, big))
        # cheap pruning: candidate's constant term must divide
        # lc(current) * current(0)
        if current[0] != 0 and cand and cand[0] != 0:
            if (current[0] * current[-1]) % cand[0] != 0:
                return None
        q = _divides_exact(current, cand)
        return None if q is None else (cand, _primitive(q))

    found, current = recombine(len(lifted), list(f), trial)
    if _deg(current) > 0:
        found.append(_primitive(current))
    found.sort(key=lambda g: (len(g), g))
    return found


# subset trials per recombine() call; S_4 (degree 16, 8 modular factors)
# takes 162 and S_6 (degree 64) could take about 2^31
_MAX_SUBSETS = 50_000


def recombine(count: int, current, trial):
    """Subset recombination: which products of `count` factors of an image
    of `current` (modular factors in zassenhaus, t-adically lifted factors
    in `factor`) are its true factors.

    Subsets of the remaining factor indices are tried smallest first;
    trial(subset, current) returns (factor, cofactor) when the subset's
    product is a true factor of current, and None otherwise.  After a
    hit the same size is tried again on the cofactor, and the search
    stops once twice the size exceeds the factors that remain, since a
    larger subset's complement has been tried already.  Returns the
    factors found and the last cofactor, which is irreducible (or a
    unit).  Raises BudgetError before the trial past `_MAX_SUBSETS`."""
    found = []
    remaining = list(range(count))
    size = 1
    tried = 0
    while 2 * size <= len(remaining):
        for subset in combinations(remaining, size):
            tried += 1
            if tried > _MAX_SUBSETS:
                raise BudgetError(f"recombining {count} factors would try more than {_MAX_SUBSETS} subsets")
            hit = trial(subset, current)
            if hit is not None:
                factor, current = hit
                found.append(factor)
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    return found, current
