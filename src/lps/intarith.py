"""Integer arithmetic utilities: primality, factorization, divisors,
rational reconstruction.  Everything here is deterministic."""

from __future__ import annotations

import math
from fractions import Fraction

# Witnesses proving primality for every n < 3.317e24 (Sorenson & Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin test, deterministic for n below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n. Deterministic: the
    polynomial increment walks a fixed schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 101):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.  factor_int(0) is an
    error; units are dropped (factor_int(1) == {})."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int, limit: int | None = None) -> list[int] | None:
    """Sorted positive divisors of |n|.  Returns None if there would be more
    than `limit` of them (guard for highly composite inputs)."""
    fac = factor_int(n)
    count = 1
    for e in fac.values():
        count *= e + 1
    if limit is not None and count > limit:
        return None
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Recover n/d from a (mod m) with |n|, d <= sqrt(m/2), via the
    half-extended Euclidean algorithm.  None if no such fraction exists."""
    a %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if t1 < 0:
        t1, r1 = -t1, -r1
    if math.gcd(r1, t1) != 1 or math.gcd(t1, m) != 1:
        return None
    return Fraction(r1, t1)


def primes_below(bound: int, count: int) -> list[int]:
    """The `count` largest primes strictly below `bound`, descending."""
    out = []
    n = bound - 1 if bound % 2 == 0 else bound - 2
    while len(out) < count and n > 2:
        if is_probable_prime(n):
            out.append(n)
        n -= 2
    return out
