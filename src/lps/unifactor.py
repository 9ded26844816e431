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
answers zassenhaus's cubics and `factor`'s degree-1 Darboux search.
A search that would try more than `_MAX_SUBSETS` subsets raises
BudgetError instead of running on: the count grows exponentially with the
number of modular factors (Swinnerton-Dyer polynomials have many at every
prime), while no call on the benchmark's inputs tries more than 17.

The prime is the one, among the first six that keep the input squarefree
with a unit leading coefficient, whose distinct-degree split counts the
fewest modular factors.  Each split reads x^(p^d) mod f off the Frobenius
matrix of f (Berlekamp's Q-matrix, rows x^(i p) mod f, used as in von zur
Gathen & Shoup 1992): one vector-matrix product per degree d in place of
a powering, and a trial prime is abandoned as soon as its partial count
cannot beat the best so far.  Products and remainders mod p reduce each
output coefficient once.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from .errors import BudgetError, InternalError
from .intarith import is_probable_prime


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


def _powmod(a, e, f, p):
    """a^e modulo (f, p)."""
    result = [1]
    a = _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, a, p), f, p)[1]
        a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
        e >>= 1
    return result


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
    row i being x^(i p) mod f, packed for `_vecmat`: h^p mod f is h times
    it for any h of degree < deg f.  Row i is row i-1 times the matrix of
    multiplication by x^p, whose rows x^(p+j) mod f come by shifting."""
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
    return _packed_rows(rows, n, p)


def _distinct_degree(f, p, limit=None):
    """Split monic squarefree f mod p into products of irreducibles of a
    common degree.  Returns [(product, degree)], or None as soon as the
    split is known to count at least `limit` irreducible factors.

    x^(p^d) mod f comes from x^(p^(d-1)) by one product with the
    Frobenius matrix of f (von zur Gathen & Shoup 1992); it stays modulo
    f while each gcd is taken against the cofactor left so far."""
    n = _deg(f)
    out = []
    count = 0
    h = [0, 1]
    d = 0
    frobenius = _frobenius_rows(f, p) if n >= 2 else None
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _vecmat(h, frobenius, n, p)
        g = _gcd_mod(_sub_mod(h, [0, 1], p), f, p)
        if _deg(g) > 0:
            out.append((g, d))
            count += _deg(g) // d
            f = _divmod_mod(f, g, p)[0]
        if limit is not None and count + (_deg(f) > 0) >= limit:
            return None
    if _deg(f) > 0:
        out.append((f, _deg(f)))
    return out


# Coefficient products one equal-degree split trial may take, about
# bits((p^d - 1)/2) * n^2 (the test suite's largest split takes 21,384).
_MAX_SPLIT_WORK = 1_000_000


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus splitting of f (product of irreducibles of degree
    d, monic, mod odd p) into the irreducibles themselves."""
    n = _deg(f)
    if n == d:
        return [f]
    half = (p**d - 1) // 2
    if half.bit_length() * n * n > _MAX_SPLIT_WORK:
        raise BudgetError(f"factoring: splitting degree {n} into degree {d} mod {p} is over budget")
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        _trim(a)
        if _deg(a) < 1:
            continue
        b = _powmod(a, half, f, p)
        g = _gcd_mod(_sub_mod(b, [1], p), f, p)
        if 0 < _deg(g) < n:
            left = _equal_degree(g, d, p, rng)
            right = _equal_degree(_divmod_mod(f, g, p)[0], d, p, rng)
            return left + right


def _symmetric(a: list[int], m: int) -> list[int]:
    return _trim([c - m if c > m // 2 else c for c in _mod(a, m)])


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to the same
    identities mod m^2.  h monic; g's leading coefficient is preserved."""
    m2 = m * m
    e = _sub_mod(f, _mul_mod(g, h, m2), m2)
    q, r = _divmod_mod(_mul_mod(s, e, m2), h, m2)
    g1 = _add_mod(g, _add_mod(_mul_mod(t, e, m2), _mul_mod(q, g, m2), m2), m2)
    h1 = _add_mod(h, r, m2)
    b = _sub_mod(_add_mod(_mul_mod(s, g1, m2), _mul_mod(t, h1, m2), m2), [1], m2)
    c, d = _divmod_mod(_mul_mod(s, b, m2), h1, m2)
    s1 = _sub_mod(s, d, m2)
    t1 = _sub_mod(t, _add_mod(_mul_mod(t, b, m2), _mul_mod(c, g1, m2), m2), m2)
    return g1, h1, s1, t1


def _hensel_rec(f, gs, p, steps):
    """Lift f = (product of gs) from mod p to mod p^(2^steps).  The first
    element of gs carries f's leading coefficient; the rest are monic."""
    if len(gs) == 1:
        return [f]
    mid = len(gs) // 2 if len(gs) > 2 else 1
    g = gs[0]
    for extra in gs[1:mid]:
        g = _mul_mod(g, extra, p)
    h = gs[mid]
    for extra in gs[mid + 1 :]:
        h = _mul_mod(h, extra, p)
    gg, ss, tt = _ext_gcd_mod(g, h, p)
    if _deg(gg) != 0:
        raise InternalError("modular factors not coprime")
    inv = pow(gg[0], -1, p)
    s, t = _scale_mod(ss, inv, p), _scale_mod(tt, inv, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(_mod(f, m * m), g, h, s, t, m)
        m *= m
    left = _hensel_rec(g, gs[:mid], p, steps)
    right = _hensel_rec(h, gs[mid:], p, steps)
    return left + right


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
    coefficient; among the first six such primes, take the one whose
    modular factorization is shortest (the first on ties, at once on a
    single factor).  The distinct-degree split already counts the
    modular factors, and a prime's split is abandoned as soon as its
    count cannot beat the best so far; only the chosen prime is split
    into irreducibles (its monic factors, sorted; the splitting
    randomness is seeded from p and the degree)."""
    best = None
    for valid, p in enumerate(_good_primes(f), 1):
        limit = None if best is None else best[0]
        parts = _distinct_degree(_scale_mod(f, pow(f[-1] % p, -1, p), p), p, limit)
        if parts is not None:
            count = sum(_deg(g) // d for g, d in parts)
            if best is None or count < best[0]:
                best = (count, p, parts)
            if count == 1:
                break
        if valid == 6:
            break
    _, p, parts = best
    out = []
    for g, d in parts:
        out.extend(_equal_degree(g, d, p, random.Random(p * 1000003 + d)))
    out.sort()
    return p, out


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

    Degrees 2 and 3 need no modular split: a quadratic c + b x + a x^2
    splits iff its discriminant is a square r^2, into the primitive parts
    of 2a x + b -+ r, and a cubic is irreducible unless it has a rational
    root u/v, whose factor v x - u leaves a quadratic."""
    if _deg(f) == 1:
        return [f]
    if _deg(f) == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        if r * r != disc:
            return [f]
        return sorted([_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])])
    if _deg(f) == 3:
        roots = rational_roots(f)
        if not roots:
            return [f]
        line = [-roots[0].numerator, roots[0].denominator]
        return sorted([line] + zassenhaus(_divides_exact(f, line)), key=lambda g: (len(g), g))
    p, modfacs = _pick_prime(f)
    if len(modfacs) == 1:
        return [f]
    bound = _mignotte_bound(f)
    steps = 0
    m = p
    while m <= 2 * bound:
        m *= m
        steps += 1
    lead_leaf = _scale_mod(modfacs[0], f[-1], p)
    lifted = _hensel_rec(_mod(f, p ** (2**steps)), [lead_leaf] + modfacs[1:], p, steps)
    big = p ** (2**steps)
    # normalize every lifted factor to monic mod p^(2^steps)
    lifted = [_scale_mod(g, pow(g[-1], -1, big), big) for g in lifted]

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
