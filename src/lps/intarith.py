"""Integer arithmetic utilities: primality, prime lists, rational
reconstruction.  Everything here is deterministic."""

from __future__ import annotations

import math
from collections.abc import Iterator
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


def primes_below(bound: int) -> Iterator[int]:
    """The odd primes below `bound`, descending, each tested as it is drawn."""
    return filter(is_probable_prime, range(bound - 1 - bound % 2, 2, -2))
