"""Zassenhaus prime choice against a reference copy of the full-split
rule: factor modulo each of the first six admissible primes and keep the
shortest factorization (the first on ties, at once on one factor).  The
reference's distinct-degree split is a copy of the repeated-squaring
split, independent of the library's Frobenius-matrix one."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from lps.factor import factor_multivariate
from lps.parser import parse_poly
from lps.poly import MPoly, exponents, squarefree_decompose
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
    rational_roots,
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
    for m, c in p.terms.items():
        out[exponents(m, ("x",))[0]] = int(c)
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
        if not 2 <= p.total_degree() <= 16 or _dense(p)[0] == 0:
            continue
        if all(m == 1 for _, m in squarefree_decompose(p).parts):
            return _primitive(_dense(p))


def _kronecker_images() -> list[list[int]]:
    """The univariate images of the fixtures' V (eq5, eq9) and P_J (eq7),
    rebuilt from their expected reports: each squarefree part in one
    variable as it is, and each in several variables by the substitution
    x_i -> x^(w_i) (w_i one more than the product of the degrees before
    it), split into its own squarefree parts."""
    images = []
    for name in ("eq5", "eq7", "eq9"):
        blob = json.loads(
            resources.files("lps").joinpath("fixtures", "expected", f"{name}.json").read_text()
        )
        v = MPoly.constant(1)
        for text, mult in blob["report"]["v"]["factored"]:
            v = v * parse_poly(text, ("x", "y", "z")) ** mult
        for part, _ in squarefree_decompose(v).parts:
            vs = part.vars_used()
            weights, d = [], 1
            for var in vs:
                weights.append(d)
                d *= part.degree_in(var) + 1
            image = MPoly.from_dict(
                ("x",),
                {(sum(e * w for e, w in zip(exponents(m, vs), weights)),): c for m, c in part.terms.items()},
            )
            for ipart, _ in squarefree_decompose(image).parts:
                if ipart.degree_in("x") > 1:
                    images.append(_dense(ipart))
    return images


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


def test_pick_prime_matches_full_split_rule_on_fixture_images():
    images = _kronecker_images()
    assert len(images) >= 3
    assert max(len(f) - 1 for f in images) >= 10
    for f in images:
        assert _pick_prime(f) == _reference_pick_prime(f)


def _rational_roots_brute(f):
    """The rational roots u/v of f, from the divisors of its end
    coefficients (f(0) != 0)."""
    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    return {
        (s * u, v)
        for u in divisors(f[0])
        for v in divisors(f[-1])
        for s in (1, -1)
        if math.gcd(u, v) == 1 and sum(c * (s * u) ** i * v ** (len(f) - 1 - i) for i, c in enumerate(f)) == 0
    }


def test_quadratics_and_cubics_split_without_a_modular_factorization():
    # quadratics by their discriminant, cubics by their rational roots:
    # products of random linear and quadratic factors and random
    # irreducibles, checked against their rational roots, which
    # rational_roots must find too
    rng = random.Random(31)
    shapes = {1: 0, 2: 0, 3: 0}
    for _ in range(300):
        degree = rng.choice([2, 3])
        f = [1]
        while len(f) - 1 < degree:
            g = [rng.randint(-9, 9) or 1 for _ in range(rng.randint(2, degree + 1 - (len(f) - 1)))]
            g[-1] = abs(g[-1])
            f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) for k in range(len(f) + len(g) - 1)]
        f = _primitive(f)
        if f[0] == 0 or not _squarefree_mod(f, 1_000_003):
            continue
        factors = zassenhaus(f)
        prod = [1]
        for g in factors:
            prod = [sum(prod[i] * g[k - i] for i in range(len(prod)) if 0 <= k - i < len(g)) for k in range(len(prod) + len(g) - 1)]
        assert prod == f
        roots = _rational_roots_brute(f)
        assert rational_roots(f) == sorted(Fraction(u, v) for u, v in roots)
        assert sorted(len(g) - 1 for g in factors if len(g) == 2) == [1] * len(roots)
        for g in factors:
            assert len(g) == 2 or not _rational_roots_brute(g)
        shapes[len(factors)] += 1
    assert min(shapes.values()) > 10


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


S4 = ("x^16 - 136*x^14 + 6476*x^12 - 141912*x^10 + 1513334*x^8 - 7453176*x^6"
      " + 13950764*x^4 - 5596840*x^2 + 46225")


def test_recombination_over_its_budget_raises_budget_error(monkeypatch):
    # S_4 is irreducible with 8 modular factors at every prime; proving it
    # takes 162 subset trials, so a budget of 161 trips and 162 does not
    from lps import cli, unifactor
    from lps.errors import BudgetError

    s4 = parse_poly(S4, ("x",))
    monkeypatch.setattr(unifactor, "_MAX_SUBSETS", 161)
    with pytest.raises(BudgetError, match="more than 161 subsets"):
        factor_multivariate(s4)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["factor", S4]) == 5
    assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    monkeypatch.setattr(unifactor, "_MAX_SUBSETS", 162)
    assert factor_multivariate(s4).factors == ((s4, 1),)
