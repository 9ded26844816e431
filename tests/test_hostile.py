"""Hostile input: random equation texts and flag sets through `lps solve`,
in-process.  Whatever the draw, lps must answer with a defined exit code
(0 found, 2 refused, 3 nothing found, 5 over a work budget), print at
most one stderr line when it fails, never a traceback, and answer within
a bound generous enough for a slow shared machine."""

import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import run_cli

# Seconds one draw may take.  Most draws take milliseconds and the
# slowest seen about 3 s; the margin is for a slow shared machine.
WALL_CLOCK_BOUND = 30


def polynomials(variables):
    """Texts of polynomials of 1 to 3 terms, each of degree at most 2 in
    every variable, with coefficients in -9..9 (zero terms included)."""
    term = st.tuples(st.integers(-9, 9), *(st.integers(0, 2) for _ in variables))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: "(" + " + ".join(
            "*".join([f"({c})"] + [f"{v}^{e}" for v, e in zip(variables, exps)])
            for c, *exps in terms
        ) + ")"
    )


# mostly small exponents, with the parser's extremes and just past them
exponents = st.one_of(st.integers(-3, 4), st.integers(-65, 65))


def expressions(variables):
    """Sums, differences, products, quotients and powers of polynomials."""

    def combine(children):
        binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        )
        power = st.tuples(children, exponents).map(lambda t: f"{t[0]}^({t[1]})")
        return binary | power

    return st.recursive(polynomials(variables), combine, max_leaves=4)


@st.composite
def solve_commands(draw):
    """An argument list for `lps solve`: a first or second order equation
    and a set of the search's flags, some of them out of range."""
    order = draw(st.sampled_from([1, 2]))
    variables = ("x", "y") if order == 1 else ("x", "y", "z")
    head = "y'" if order == 1 else "y''"
    args = ["solve", f"{head} = {draw(expressions(variables))}"]
    if draw(st.booleans()):
        args += ["--max-degree", str(draw(st.integers(-1, 12)))]
    # the first-order flags, which a second-order solve refuses, are
    # drawn for a quarter of the second-order equations
    if order == 1 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            args += ["--power", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            args += ["--power-sweep", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            args += ["--denominator", draw(expressions(("x", "y")))]
        if draw(st.booleans()):
            args.append("--auto-denominator")
    if draw(st.booleans()):
        args.append("--json")
    return args


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solve_commands())
def test_hostile_solves_exit_cleanly(args):
    start = time.perf_counter()
    code, out, err = run_cli(args)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 5), err
    assert "Traceback" not in out + err
    if code:
        assert err.startswith("lps: ") and err.count("\n") == 1, err
    assert elapsed < WALL_CLOCK_BOUND, args
