"""Zassenhaus prime choice against a reference copy of the full-split
rule: factor modulo each of the first six admissible primes and keep the
shortest factorization (the first on ties, at once on one factor).  The
reference's distinct-degree split is a copy of the repeated-squaring
split, independent of the library's Frobenius-matrix one."""

import json
import random
from importlib import resources

import lps.factor as factor_module
from lps.factor import factor_multivariate
from lps.parser import parse_poly
from lps.poly import MPoly, squarefree_decompose
from lps.unifactor import (
    _deg,
    _distinct_degree,
    _divmod_mod,
    _equal_degree,
    _gcd_mod,
    _next_prime_after,
    _pick_prime,
    _powmod,
    _primitive,
    _scale_mod,
    _squarefree_mod,
    _sub_mod,
    zassenhaus,
)


def _reference_distinct_degree(f, p):
    """The split by repeated squaring: h = x^(p^d) mod the cofactor left."""
    out = []
    h = [0, 1]
    d = 0
    f = list(f)
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(_sub_mod(h, [0, 1], p), f, p)
        if _deg(g) > 0:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if _deg(f) > 0:
        out.append((f, _deg(f)))
    return out


def _reference_factor_mod_p(f, p):
    f = _scale_mod(f, pow(f[-1] % p, -1, p), p)
    out = []
    for g, d in _reference_distinct_degree(f, p):
        rng = random.Random(p * 1000003 + d)
        out.extend(_equal_degree(g, d, p, rng))
    out.sort()
    return out


def _reference_pick_prime(f):
    best = None
    valid = 0
    p = 1
    while valid < 6:
        p = 3 if p == 1 else _next_prime_after(p)
        if f[-1] % p == 0 or not _squarefree_mod(f, p):
            continue
        valid += 1
        fac = _reference_factor_mod_p(f, p)
        if len(fac) == 1:
            return p, fac
        if best is None or len(fac) < len(best[1]):
            best = (p, fac)
    return best


def _dense(p: MPoly) -> list[int]:
    out = [0] * (p.degree_in("x") + 1)
    for (e,), c in p.extend_ring(("x",)).terms.items():
        out[e] = int(c)
    return out


def _random_squarefree(rng: random.Random) -> list[int]:
    """A primitive squarefree integer polynomial of degree 2..16 with
    positive leading coefficient, a product of up to four random
    factors so that it often splits modulo small primes."""
    x = MPoly.variable("x")
    while True:
        p = MPoly.constant(1, ("x",))
        for _ in range(rng.randint(1, 4)):
            f = MPoly.zero(("x",))
            for e in range(rng.randint(1, 5)):
                f = f + rng.randint(-9, 9) * x**e
            f = f + rng.choice([1, 2, 3]) * x ** rng.randint(1, 5)
            p = p * f
        if not 2 <= p.total_degree() <= 16 or p.eval_at({"x": 0}) == 0:
            continue
        if all(m == 1 for _, m in squarefree_decompose(p).parts):
            return _primitive(_dense(p))


def _kronecker_images(monkeypatch) -> list[list[int]]:
    """Every input zassenhaus sees while factoring the fixtures' V
    (eq5, eq9) and P_J (eq7), rebuilt from their expected reports."""
    seen = []

    def spy(f):
        seen.append(list(f))
        return zassenhaus(f)

    monkeypatch.setattr(factor_module, "zassenhaus", spy)
    for name in ("eq5", "eq7", "eq9"):
        blob = json.loads(
            resources.files("lps").joinpath("fixtures", "expected", f"{name}.json").read_text()
        )
        v = MPoly.constant(1)
        for text, mult in blob["report"]["v"]["factored"]:
            v = v * parse_poly(text, ("x", "y", "z")) ** mult
        factor_multivariate(v)
    return seen


def test_pick_prime_matches_full_split_rule_on_random_polynomials():
    rng = random.Random(4207)
    polys = [_random_squarefree(rng) for _ in range(60)]
    counts = set()
    for f in polys:
        p, facs = _pick_prime(f)
        assert (p, facs) == _reference_pick_prime(f)
        counts.add(len(facs))
    # the sample reaches the early exit and real choices among primes
    assert 1 in counts and max(counts) >= 4


def test_pick_prime_matches_full_split_rule_on_fixture_images(monkeypatch):
    images = _kronecker_images(monkeypatch)
    assert len(images) >= 3
    assert max(len(f) - 1 for f in images) >= 10
    for f in images:
        assert _pick_prime(f) == _reference_pick_prime(f)


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _random_monic_squarefree_mod_p(rng, p):
    while True:
        f = [rng.randrange(p) for _ in range(rng.randint(2, 30))] + [1]
        if _squarefree_mod(f, p):
            return f


def test_distinct_degree_matches_repeated_squaring():
    rng = random.Random(20261019)
    degrees = set()
    abandoned = 0
    for p in ODD_PRIMES:
        for _ in range(25):
            f = _random_monic_squarefree_mod_p(rng, p)
            want = _reference_distinct_degree(f, p)
            assert _distinct_degree(f, p) == want, (f, p)
            degrees.update(d for _, d in want)
            count = sum(_deg(g) // d for g, d in want)
            # with a limit, the split is abandoned only once its count
            # reaches the limit, and is otherwise the same split
            for limit in range(1, count + 3):
                got = _distinct_degree(f, p, limit)
                if got is None:
                    assert count >= limit, (f, p, limit)
                    abandoned += 1
                else:
                    assert got == want, (f, p, limit)
            assert _distinct_degree(f, p, count + 1) == want
    # the sample splits off several distinct degrees and abandons splits
    assert max(degrees) >= 5 and abandoned
