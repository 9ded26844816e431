"""Acceptance gate: one test per contract criterion.

Every test prints exactly one line, "acceptance <id>: PASS" or
"acceptance <id>: FAIL (...)", then asserts.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they appear.

Criteria 3b and 3c are expected to fail: the bundled eq8 equation text
does not admit y + x as a Darboux polynomial (its only degree-1 Darboux
polynomial is y), so the recorded known-denominator answer cannot be
reproduced from that text.  The failures are kept honest instead of
being patched around; see README.md.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources

import pytest

from lps.cli import main
from lps.darboux import (
    reconstruct_first_integral,
    compute_pol_pair,
    verify_first_integral,
)
from lps.factor import darboux_check, degree1_dp_search, factor_multivariate
from lps.linalg import RatMatrix, nullspace
from lps.parser import parse_ode, parse_poly
from lps.poly import MPoly, mpoly_gcd, squarefree_decompose
from lps.solver import build_field, lps2_search, lps_search, verify_iif_identity
from lps.synth import measure_recovery, plant

X = MPoly.variable("x")
Y = MPoly.variable("y")

RING2 = ("x", "y")
RING3 = ("x", "y", "z")

EQ7_FACTOR_1 = "y^2*z - y^2 + z"
EQ7_FACTOR_2 = (
    "x^2*y^2*z - 2*x*y^3*z + y^4*z - x^2*y^2 + 2*x*y^3 - y^4 + x^2*z"
    " - y^2*z - 2*x*y + 2*y^2 + y*z - y + 2*z - 2"
)
EQ8_CLAIMED_NUM = "(x^3*y + 2*x^2*y^2 + x*y^3 - 1)^2"


def _report(tag, problems):
    if problems:
        print(f"acceptance {tag}: FAIL ({'; '.join(problems)})")
    else:
        print(f"acceptance {tag}: PASS")
    assert not problems, f"acceptance {tag}: " + "; ".join(problems)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue()


def fixture_text(name):
    return resources.files("lps").joinpath("fixtures", f"{name}.txt").read_text()


def fixture_path(name):
    return str(resources.files("lps").joinpath("fixtures", f"{name}.txt"))


def rebuild(factored, ring=RING2):
    out = MPoly.constant(1, ring)
    for text, mult in factored:
        out = out * parse_poly(text, ring) ** mult
    return out.normalized()


@pytest.fixture(scope="module")
def plant_batch():
    rng = random.Random(20260816)
    return [plant(rng) for _ in range(220)]


@pytest.fixture(scope="module")
def recovery_batch(plant_batch):
    return [measure_recovery(p) for p in plant_batch]


def test_criterion_1_first_order_example():
    t0 = time.perf_counter()
    code, out = run_cli(
        ["solve", "--order", "1", "--max-degree", "15", "--json",
         "--file", fixture_path("eq5")]
    )
    elapsed = time.perf_counter() - t0
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    report = json.loads(out) if out else {}
    if report.get("degree_found") != 13:
        problems.append(f"degree_found {report.get('degree_found')} != 13")
    target = ((X - 3 * Y**3) ** 2 * (Y**7 + X**2)).normalized()
    if report.get("v") and rebuild(report["v"]["factored"]) != target:
        problems.append("V does not match (x - 3y^3)^2 (y^7 + x^2)")
    mults = sorted(m for _, m in report["v"]["factored"]) if report.get("v") else []
    if mults != [1, 2]:
        problems.append(f"multiplicities {mults} != [1, 2]")
    by_mult = {m: parse_poly(t, RING2) for t, m in report["v"]["factored"]}
    if by_mult.get(2) != (X - 3 * Y**3).normalized():
        problems.append("double factor is not x - 3y^3")
    if by_mult.get(1) != (X**2 + Y**7).normalized():
        problems.append("simple factor is not x^2 + y^7")
    ode = parse_ode(fixture_text("eq5"))
    m, n = ode.m, ode.n
    residual = (
        n * target.derivative("x")
        + m * target.derivative("y")
        - (n.derivative("x") + m.derivative("y")) * target
    )
    if not residual.is_zero():
        problems.append("identity residual is nonzero")
    if elapsed > 60:
        print(f"note: eq5 solve took {elapsed:.1f}s (> 60s target, informative only)")
    _report("1 (first-order example, degree 13, exact V)", problems)


def test_criterion_2_second_order_example():
    t0 = time.perf_counter()
    code, out = run_cli(
        ["solve", "--order", "2", "--max-degree", "15", "--json",
         "--file", fixture_path("eq7")]
    )
    elapsed = time.perf_counter() - t0
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    report = json.loads(out) if out else {}
    f1 = parse_poly(EQ7_FACTOR_1, RING3)
    f2 = parse_poly(EQ7_FACTOR_2, RING3)
    printed = (f1 * f2**2).normalized()
    if report.get("v") and rebuild(report["v"]["factored"], RING3) != printed:
        problems.append("P_J does not match the expected two-factor product")
    field = build_field(parse_ode(fixture_text("eq7")))
    if darboux_check(field, f1) is None:
        problems.append("first factor fails the Darboux check")
    if darboux_check(field, f2, 2) is None:
        problems.append("second factor fails the Darboux check")
    if elapsed > 900:
        problems.append(f"took {elapsed:.1f}s (> 15 min)")
    _report("2 (second-order example, exact P_J, verified factors)", problems)


def test_criterion_3a_plain_search_finds_nothing():
    ode = parse_ode(fixture_text("eq8"))
    found = lps_search(ode, max_degree=20)
    problems = []
    if found is not None:
        problems.append(f"unexpected candidate {found.v_num.to_text()}")
    _report("3a (no polynomial candidate up to degree 20)", problems)


def test_criterion_3b_degree1_darboux_search_finds_x_plus_y():
    field = build_field(parse_ode(fixture_text("eq8")))
    dps = degree1_dp_search(field)
    problems = []
    target = (X + Y).normalized()
    if not any(p == target for p in dps):
        found = ", ".join(p.to_text() for p in dps) or "none"
        problems.append(f"y + x not among degree-1 Darboux polynomials (found: {found})")
    _report("3b (degree-1 Darboux polynomial y + x)", problems)


def test_criterion_3c_rerun_with_known_denominator():
    ode = parse_ode(fixture_text("eq8"))
    found = lps_search(ode, max_degree=20, denominator=(X + Y))
    problems = []
    expected = parse_poly(EQ8_CLAIMED_NUM, RING2).normalized()
    if found is None:
        problems.append("nothing found with denominator y + x up to degree 20")
    elif found.v_num != expected:
        problems.append(f"numerator {found.v_num.to_text()} differs from the recorded one")
    _report("3c (rational candidate over y + x)", problems)


def test_criterion_4_square_root_candidate():
    code, out = run_cli(
        ["solve", "--order", "1", "--max-degree", "20", "--power", "2", "--json",
         "--file", fixture_path("eq9")]
    )
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    report = json.loads(out) if out else {}
    if report.get("v", {}).get("kind") != "kth_root":
        problems.append(f"kind {report.get('v', {}).get('kind')} != kth_root")
    target = ((X * Y**2 - 1) ** 3 * (X * Y**2 + 1) ** 3).normalized()
    if report.get("v") and rebuild(report["v"]["factored"]) != target:
        problems.append("V^2 does not match (xy^2 - 1)^3 (xy^2 + 1)^3")
    ode = parse_ode(fixture_text("eq9"))
    if lps_search(ode, max_degree=20, k=1) is not None:
        problems.append("k=1 unexpectedly finds a candidate below degree 21")
    _report("4 (k=2 candidate found, k=1 honestly empty)", problems)


def test_criterion_5_identity_and_recovery(recovery_batch):
    problems = []

    ode5 = parse_ode(fixture_text("eq5"))
    found5 = lps_search(ode5, max_degree=15)
    field5 = build_field(ode5)
    if found5 is None or not verify_iif_identity(field5, found5.v_num, found5.v_den, found5.k):
        problems.append("eq5 emitted candidate fails the identity")
    ode9 = parse_ode(fixture_text("eq9"))
    found9 = lps_search(ode9, max_degree=20, k=2)
    field9 = build_field(ode9)
    if found9 is None or not verify_iif_identity(field9, found9.v_num, found9.v_den, found9.k):
        problems.append("eq9 emitted candidate fails the identity")
    ode7 = parse_ode(fixture_text("eq7"))
    found7 = lps2_search(ode7, max_degree=15)
    field7 = build_field(ode7)
    one3 = MPoly.constant(1, field7.ring)
    if found7 is None or not verify_iif_identity(field7, found7.p_j, one3, 1):
        problems.append("eq7 emitted multiplier fails the identity")

    total = len(recovery_batch)
    if total < 200:
        problems.append(f"only {total} synthetic cases (need >= 200)")
    coprime = [o for o in recovery_batch if o.planted.coprime]
    recovered = sum(o.recovered for o in coprime)
    for outcome in recovery_batch:
        field = build_field(outcome.planted.ode)
        one = MPoly.constant(1, field.ring)
        if outcome.found_v is not None and not verify_iif_identity(
            field, outcome.found_v, one, 1
        ):
            problems.append("a found candidate fails the identity")
            break
        if outcome.planted.coprime and not outcome.identity_holds:
            problems.append("a coprime plant fails the planted identity")
            break
    if coprime and Fraction(recovered, len(coprime)) < Fraction(95, 100):
        problems.append(f"recovery rate {recovered}/{len(coprime)} below 95%")
    for outcome in recovery_batch:
        if not outcome.recovered and mpoly_gcd(
            outcome.planted.pol_x, outcome.planted.pol_y
        ).is_constant():
            problems.append("a non-recovered plant has coprime (Pol_x, Pol_y)")
            break
    _report(
        f"5 (exact identity everywhere; {recovered}/{len(coprime)} coprime recovery"
        f" over {total} plants)",
        problems,
    )


def test_criterion_6_first_integral_consistency(plant_batch):
    problems = []
    reconstructed = 0
    general = 0

    cases = []
    ode5 = parse_ode(fixture_text("eq5"))
    cases.append((ode5, lps_search(ode5, max_degree=15)))
    ode_euler = parse_ode("y' = y/x")
    cases.append((ode_euler, lps_search(ode_euler, max_degree=4)))
    for planted in plant_batch:
        found = lps_search(planted.ode, max_degree=planted.planted_v.total_degree())
        cases.append((planted.ode, found))

    for ode, found in cases:
        if found is None or found.k != 1 or not found.v_den.is_constant():
            continue
        field = build_field(ode)
        integral = reconstruct_first_integral(field, found)
        if integral is None:
            continue
        reconstructed += 1
        if not verify_first_integral(field, integral):
            problems.append(f"reconstructed integral fails for {ode.to_text()}")
            break
        pol_x, pol_y, coprime = compute_pol_pair(integral)
        if not coprime:
            continue
        general += 1
        if pol_y.is_zero():
            problems.append(f"degenerate pol pair for {ode.to_text()}")
            break
        if not (-pol_x * ode.n - ode.m * pol_y).is_zero():
            problems.append(f"-Pol_x/Pol_y != M/N for {ode.to_text()}")
            break
    if reconstructed == 0:
        problems.append("no integral was reconstructed at all")
    if general == 0:
        problems.append("no general-position reconstruction was exercised")
    _report(
        f"6 (all {reconstructed} reconstructed integrals verified,"
        f" {general} general-position pol pairs match M/N)",
        problems,
    )


def _rand_kernel_poly(rng, nvars=2, max_deg=2, max_terms=3, bound=4):
    ring = ("x", "y", "z")[:nvars]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-bound, bound))
    return MPoly.from_dict(ring, terms)


def _affine_solve(mat, rhs):
    """(particular, kernel basis) of mat x = rhs, from the kernel of mat
    with rhs as one more column: the system is consistent iff a kernel
    vector is nonzero in that column (the canonical basis has at most one),
    and x = -v[:n] / v[n] for that vector v.  particular is None when the
    system is inconsistent."""
    n = mat.ncols
    entries = dict(mat.entries)
    entries.update({(i, n): v for i, v in enumerate(rhs) if v})
    particular, kernel = None, []
    for vec in nullspace(RatMatrix(mat.nrows, n + 1, entries)):
        if vec[n]:
            particular = tuple(Fraction(-v, vec[n]) for v in vec[:n])
        else:
            kernel.append(vec[:n])
    return particular, kernel


def test_criterion_7_algebra_kernel_properties():
    rng = random.Random(777)
    problems = []

    count = 0
    while count < 1000 and not problems:
        p = _rand_kernel_poly(rng) * _rand_kernel_poly(rng)
        if p.is_zero():
            continue
        count += 1
        if factor_multivariate(p).expand() != p:
            problems.append(f"factor round-trip broke on {p.to_text()}")
    if count < 1000:
        problems.append("factor loop did not reach 1000 cases")

    count = 0
    while count < 1000 and not problems:
        a, b, c = (_rand_kernel_poly(rng) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        count += 1
        g = mpoly_gcd(a * c, b * c)
        if (a * c).exact_divide(g) is None or (b * c).exact_divide(g) is None:
            problems.append("gcd does not divide its inputs")
        elif g.exact_divide(c.normalized()) is None:
            problems.append("planted common factor does not divide the gcd")

    count = 0
    while count < 1000 and not problems:
        base = _rand_kernel_poly(rng)
        if base.is_zero():
            continue
        count += 1
        p = base ** rng.randint(1, 3) * _rand_kernel_poly(rng, max_terms=2)
        if p.is_zero():
            count -= 1
            continue
        if squarefree_decompose(p).expand() != p:
            problems.append(f"squarefree round-trip broke on {p.to_text()}")

    count = 0
    while count < 1000 and not problems:
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        entries = {}
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.6:
                    entries[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        mat = RatMatrix(nrows, ncols, entries)
        count += 1
        for vec in nullspace(mat):
            if any(mat.apply(vec)):
                problems.append("nullspace vector with nonzero residual")
                break
        point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ncols))
        rhs = mat.apply(point)
        particular, _ = _affine_solve(mat, rhs)
        if particular is None or mat.apply(particular) != rhs:
            problems.append("affine solve missed a consistent system")

    _report("7 (1000-case factor/gcd/squarefree/nullspace loops, exact)", problems)


def test_criterion_8_exponents_balance_divergence():
    ode = parse_ode(fixture_text("eq5"))
    field = build_field(ode)
    problems = []
    q = []
    for p in ((X - 3 * Y**3).normalized(), (X**2 + Y**7).normalized()):
        fac = darboux_check(field, p)
        if fac is None:
            problems.append(f"{p.to_text()} is not a Darboux polynomial")
        else:
            q.append(fac.q)
    divergence = ode.n.derivative("x") + ode.m.derivative("y")
    if not problems:
        # u_1 q_1 + u_2 q_2 = -divergence, one row per monomial
        rows = {}
        entries = {
            (rows.setdefault(m, len(rows)), j): c
            for j, p in enumerate([*q, -divergence])
            for m, c in p.terms.items()
        }
        rhs = [entries.pop((i, 2), 0) for i in range(len(rows))]
        particular, kernel = _affine_solve(RatMatrix(len(rows), 2, entries), rhs)
        if particular is None:
            problems.append("cofactor relation is inconsistent")
        elif particular != (Fraction(-2), Fraction(-1)):
            problems.append(f"exponents {particular} != (-2, -1)")
        elif kernel:
            problems.append("exponent solution unexpectedly non-unique")
        elif not (-2 * q[0] - q[1] + divergence).is_zero():
            problems.append("exponent/divergence balance has nonzero residual")
    _report("8 (cofactor exponents (-2, -1) balance the divergence)", problems)
