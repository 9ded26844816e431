"""Command-line surface: parse, solve, verify, factor, bench.

The solve command chains the full pipeline (parse, search, factor,
reconstruct, verify) and reports either human-readable text or a
schema-stable JSON document.  Solve's pde and integral flags report the
exact checks the search and the reconstruction pass before they return.
The verify command re-derives every identity from the parsed input and
plain polynomial arithmetic so it shares no assembly code with the
solver; solve's closedness flag is the same independent check.

Exit codes: 0 success, 1 verification failed, 2 usage or parse error,
3 nothing found within the degree bound, 4 internal invariant violation,
5 over a work budget (see `errors.BudgetError`).
"""

import argparse
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction
from importlib import resources

from .darboux import check_v_factors, reconstruct_first_integral
from .errors import BudgetError, InternalError, LpsError, ParseError
from .factor import degree1_dp_search, factor_multivariate
from .parser import parse_ode, parse_poly
from .poly import MPoly
from .solver import _SystemBuilder, build_field, lps2_search, lps_search
from .synth import measure_recovery, plant

_FIXTURE_NAMES = ("eq5", "eq7", "eq8", "eq9")


# The top rung of a search to degree d in n variables (2 for first order,
# 3 for second) has C(d + n, n) columns; a --max-degree above this budget
# is refused before anything is assembled.
_MAX_COLUMNS = 10_000


def _fail(message: str, code: int) -> int:
    print(f"lps: {message}", file=sys.stderr)
    return code


def _max_degree_problem(max_degree: int, nvars: int) -> str | None:
    """Why --max-degree is refused for a search in nvars variables, or None."""
    if max_degree < 0:
        return "--max-degree must be nonnegative"
    columns = math.comb(max_degree + nvars, nvars)
    if columns > _MAX_COLUMNS:
        return (f"--max-degree {max_degree} gives {columns} columns on the top rung "
                f"in {nvars} variables (at most {_MAX_COLUMNS})")
    return None


def _read_ode_text(args) -> str:
    if args.file is not None and args.ode is not None:
        raise LpsError("the equation is given twice (as an argument and via --file); pass one")
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise LpsError(f"cannot read {args.file}: {exc.strerror}") from exc
    if args.ode == "-":
        return sys.stdin.read()
    if args.ode is None:
        raise ParseError("no equation given (pass it inline, via --file, or on stdin with -)")
    return args.ode


def _format_factored(factored) -> str:
    pieces = []
    for text, mult in factored:
        base = text if " " not in text and "+" not in text else f"({text})"
        pieces.append(base if mult == 1 else f"{base}^{mult}")
    return " * ".join(pieces) if pieces else "1"


def _integral_text(blob) -> str:
    pieces = []
    if blob["A"] != "0":
        body = blob["A"] if blob["B"] == "1" else f"({blob['A']})/({blob['B']})"
        pieces.append(f"exp({body})")
    for p, n in blob["factors"]:
        pieces.append(f"({p})^{n}" if n != 1 else f"({p})")
    return " * ".join(pieces) if pieces else "1"


def _flag(value) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "NO"


# -- solve ----------------------------------------------------------------


def _search_order1(ode, field, args):
    """Run the configured search ladder; returns (found, method, attempts)."""
    powers = list(range(1, args.power_sweep + 1)) if args.power_sweep else [args.power]
    denominator = None
    if args.denominator:
        denominator = parse_poly(args.denominator, ("x", "y"))
    attempts = []
    for k in powers:
        found = lps_search(ode, max_degree=args.max_degree, k=k, denominator=denominator)
        attempts.append((k, denominator))
        if found is not None:
            method = "lps-denominator" if denominator is not None else (
                "lps-power" if k > 1 else "lps"
            )
            return found, method, attempts
    if args.auto_denominator and denominator is None:
        for dp in degree1_dp_search(field):
            for k in powers:
                found = lps_search(ode, max_degree=args.max_degree, k=k, denominator=dp)
                attempts.append((k, dp))
                if found is not None:
                    return found, "lps-denominator", attempts
    return None, "lps", attempts


def cmd_solve(args) -> int:
    t_total = time.perf_counter()
    timings = {}
    if args.power_sweep < 0:
        return _fail("--power-sweep must be nonnegative", 2)
    t0 = time.perf_counter()
    ode = parse_ode(_read_ode_text(args), order=args.order)
    timings["parse"] = time.perf_counter() - t0
    problem = _max_degree_problem(args.max_degree, len(ode.ring))
    if problem:
        return _fail(problem, 2)
    if ode.order == 2:
        order1_only = [
            flag
            for flag, used in (
                ("--power", args.power != 1),
                ("--power-sweep", args.power_sweep),
                ("--denominator", args.denominator),
                ("--auto-denominator", args.auto_denominator),
            )
            if used
        ]
        if order1_only:
            return _fail(f"{', '.join(order1_only)}: first order equations only", 2)
    field = build_field(ode)

    report = {
        "ode": ode.to_text(),
        "method": "lps" if ode.order == 1 else "lps2",
        "degree_found": None,
        "v": None,
        "darboux": [],
        "first_integral": None,
        "verified": {"pde": None, "closedness": None, "integral": None},
        "timings_ms": timings,
    }
    warnings = []

    t0 = time.perf_counter()
    if ode.order == 1:
        found, method, attempts = _search_order1(ode, field, args)
        report["method"] = method
        if args.auto_denominator:
            report["denominators_tried"] = sorted(
                {den.to_text() for _, den in attempts if den is not None}
            )
    else:
        found = lps2_search(ode, max_degree=args.max_degree)
    timings["search"] = time.perf_counter() - t0

    if found is None:
        _finish_timings(timings, t_total)
        _emit_solve(args, report, field, found, warnings)
        print(
            f"lps: nothing found up to degree {args.max_degree}",
            file=sys.stderr,
        )
        return 3

    report["degree_found"] = found.degree_found
    t0 = time.perf_counter()
    factored = factor_multivariate(found.v_num)
    checked = check_v_factors(field, found, factored)
    report["v"] = {
        "factored": [[f.to_text(), mult] for f, mult in factored.factors],
        "kind": found.kind,
        "k": found.k,
        "denominator": found.v_den.to_text(),
    }
    report["darboux"] = [fac.to_json_dict() for part in checked for fac in part]
    warnings.extend(p.to_text() for part in checked for p, _ in part.failed)
    timings["factor"] = time.perf_counter() - t0

    integral = None
    if ode.order == 1:
        t0 = time.perf_counter()
        integral = reconstruct_first_integral(field, found, checked)
        if integral is not None:
            report["first_integral"] = integral.to_json_dict()
        timings["reconstruct"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report["verified"]["pde"] = True
    if integral is not None:
        report["verified"]["integral"] = True
    report["verified"]["closedness"] = _identity_from_scratch(
        ode, found.v_num, found.v_den, found.k
    )
    timings["verify"] = time.perf_counter() - t0

    _finish_timings(timings, t_total)
    _emit_solve(args, report, field, found, warnings)
    return 0


def _finish_timings(timings, t_total):
    timings["total"] = time.perf_counter() - t_total
    for key in list(timings):
        timings[key] = round(timings[key] * 1000, 3)


def _emit_solve(args, report, field, found, warnings) -> None:
    for text in warnings:
        print(f"lps: warning: factor {text} failed the Darboux check", file=sys.stderr)
    if args.verbose and found is not None:
        rows, cols = found.system
        basis = [p.to_text() for p in found.basis]
        if args.json:
            report["system"] = {"rows": rows, "cols": cols}
            report["basis"] = basis
        else:
            print(f"system: {rows} equations, {cols} unknowns")
            for p in basis:
                print(f"kernel element: {p}")
    if args.json:
        print(json.dumps(report, indent=2))
        return
    print(f"ode: {report['ode']}")
    print(f"method: {report['method']}")
    if report["degree_found"] is None:
        print(f"no candidate up to degree {args.max_degree}")
        return
    print(f"degree found: {report['degree_found']}")
    v = report["v"]
    name = "V" if field.order == 1 else "P_J"
    body = _format_factored(v["factored"])
    if v["denominator"] != "1":
        body = f"({body}) / ({v['denominator']})"
    power = f"  [{v['kind']}, k={v['k']}]"
    print(f"{name} = {body}{power}")
    for entry in report["darboux"]:
        print(f"  darboux factor: {entry['p']}  [cofactor: {entry['q']}]  mult {entry['mult']}")
    if report["first_integral"] is not None:
        print(f"I = {_integral_text(report['first_integral'])}")
    flags = report["verified"]
    print(
        "verified: pde={} closedness={} integral={}".format(
            _flag(flags["pde"]), _flag(flags["closedness"]), _flag(flags["integral"])
        )
    )
    timings = report["timings_ms"]
    print("timings:", " ".join(f"{k}={timings[k]}ms" for k in timings))


# -- verify ---------------------------------------------------------------


def _action(ode):
    """The field's action D(p) rebuilt from m and n alone: N p_x + M p_y
    for order 1, and for order 2 N times the Cartan field,
    N p_x + z N p_y + M p_z."""
    m, n = ode.m, ode.n
    if ode.order == 1:
        return lambda p: n * p.derivative("x") + m * p.derivative("y")
    z = MPoly.variable("z")
    return lambda p: n * p.derivative("x") + z * n * p.derivative("y") + m * p.derivative("z")


def _identity_from_scratch(ode, num: MPoly, den: MPoly, k: int) -> bool:
    """The defining identity assembled from nothing but the parsed input:
    den X(num) - num X(den) = k div num den, cleared of denominators (for
    order 2, the closedness identity of the Cartan field times N^2 den^2:
    N (den D(num) - num D(den)) = k div num den).  solve reports it as its
    `closedness` flag."""
    m, n = ode.m, ode.n
    act = _action(ode)
    lhs = den * act(num) - num * act(den)
    if ode.order == 1:
        divergence = n.derivative("x") + m.derivative("y")
    else:
        lhs = n * lhs
        divergence = m.derivative("z") * n - m * n.derivative("z")
    return (lhs - k * divergence * num * den).is_zero()


def _integral_from_scratch(ode, blob: dict) -> bool:
    """X(A/B) + sum n_j X(p_j)/p_j == 0, rebuilt from the JSON form and
    summed over one common denominator by cross-multiplication (no gcd).
    For order 2, D = N X is used instead of X: the nonzero factor N does
    not change whether the sum is zero."""
    ring = ode.ring
    act = _action(ode)
    a = parse_poly(str(blob["A"]), ring)
    b = parse_poly(str(blob["B"]), ring)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero rational function")
    num, den = b * act(a) - a * act(b), b * b
    for text, exponent in blob["factors"]:
        p = parse_poly(str(text), ring)
        c = Fraction(str(exponent))
        if p.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = num * p + c * act(p) * den, den * p
    return num.is_zero()


def cmd_verify(args) -> int:
    if args.power < 1:
        return _fail("--power must be a positive integer", 2)
    if args.integral:
        other = [
            flag
            for flag, used in (
                ("--v", args.v is not None),
                ("--v-den", args.v_den is not None),
                ("--power", args.power != 1),
            )
            if used
        ]
        if other:
            return _fail(f"{', '.join(other)}: not used with --integral", 2)
    if not args.integral and args.v is None:
        return _fail("pass a candidate with --v (and optionally --v-den) or --integral", 2)
    ode = parse_ode(_read_ode_text(args), order=args.order)
    if args.integral:
        try:
            holds = _integral_from_scratch(ode, json.loads(args.integral))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return _fail(f"bad --integral: {exc}", 2)
    else:
        ring = ode.ring
        num = parse_poly(args.v, ring)
        den = parse_poly(args.v_den, ring) if args.v_den else MPoly.constant(1, ring)
        holds = _identity_from_scratch(ode, num, den, args.power)
    print("identity holds" if holds else "identity fails")
    return 0 if holds else 1


# -- factor / parse -------------------------------------------------------


def cmd_factor(args) -> int:
    p = parse_poly(args.poly, ("x", "y", "z")).project_ring()
    factored = factor_multivariate(p)
    if args.json:
        print(json.dumps(factored.to_json_dict(), indent=2))
        return 0
    unit = "" if factored.unit == 1 else f"{factored.unit} * "
    print(unit + _format_factored([[f.to_text(), m] for f, m in factored.factors]))
    return 0


def cmd_parse(args) -> int:
    ode = parse_ode(_read_ode_text(args), order=args.order)
    if args.json:
        print(json.dumps(ode.to_json_dict(), indent=2))
    else:
        print(f"order {ode.order}: {ode.to_text()}")
    return 0


# -- bench ----------------------------------------------------------------

_BENCH = {
    "eq5": {"order": 1, "max_degree": 15, "k": 1},
    "eq7": {"order": 2, "max_degree": 15, "k": 1},
    "eq8": {"order": 1, "max_degree": 12, "k": 1},
    "eq9": {"order": 1, "max_degree": 20, "k": 2},
}


def _fixture_text(name: str) -> str:
    return resources.files("lps").joinpath("fixtures", f"{name}.txt").read_text()


def cmd_bench(args) -> int:
    if args.synthetic < 0:
        return _fail("--synthetic must be nonnegative", 2)
    names = args.fixtures or list(_FIXTURE_NAMES)
    for name in names:
        if name not in _BENCH:
            return _fail(f"unknown fixture {name!r} (have {', '.join(_FIXTURE_NAMES)})", 2)
        if args.max_degree is not None:
            problem = _max_degree_problem(args.max_degree, _BENCH[name]["order"] + 1)
            if problem:
                return _fail(problem, 2)
    rows = []
    for name in names:
        cfg = _BENCH[name]
        ode = parse_ode(_fixture_text(name))
        max_degree = cfg["max_degree"] if args.max_degree is None else args.max_degree

        t0 = time.perf_counter()
        if cfg["order"] == 1:
            found = lps_search(ode, max_degree=max_degree, k=cfg["k"])
        else:
            found = lps2_search(ode, max_degree=max_degree)
        search_ms = (time.perf_counter() - t0) * 1000

        if found is not None:
            degree, shape = found.degree_found, found.system
        else:
            degree = max_degree
            field = build_field(ode)
            system, _ = _SystemBuilder(field, cfg["k"], MPoly.constant(1, field.ring)).build(degree)
            shape = (system.nrows, system.ncols)
        rows.append((name, "search", search_ms, degree, *shape,
                     "found" if found else "not found"))

        if found is not None:
            t0 = time.perf_counter()
            factor_multivariate(found.v_num)
            rows.append((name, "factor", (time.perf_counter() - t0) * 1000,
                         degree, *shape, "ok"))

    synth_summary = None
    if args.synthetic:
        rng = random.Random(args.seed)
        t0 = time.perf_counter()
        total = coprime = recovered = 0
        for _ in range(args.synthetic):
            outcome = measure_recovery(plant(rng))
            total += 1
            if outcome.planted.coprime:
                coprime += 1
                recovered += outcome.recovered
        synth_summary = {
            "cases": total,
            "coprime": coprime,
            "recovered": recovered,
            "ms": round((time.perf_counter() - t0) * 1000, 1),
        }

    if args.json:
        blob = {
            "rows": [
                {"fixture": r[0], "phase": r[1], "ms": round(r[2], 3), "degree": r[3],
                 "rows": r[4], "cols": r[5], "result": r[6]}
                for r in rows
            ],
        }
        if synth_summary:
            blob["synthetic"] = synth_summary
        print(json.dumps(blob, indent=2))
        return 0
    print(f"{'fixture':8} {'phase':8} {'time':>12} {'degree':>6} {'system':>12} result")
    for name, phase, ms, degree, nrows, ncols, result in rows:
        print(f"{name:8} {phase:8} {ms:>10.1f}ms {degree:>6} {nrows:>6}x{ncols:<5} {result}")
    if synth_summary:
        print(
            "synthetic: {cases} cases, {coprime} coprime, {recovered} recovered, "
            "{ms}ms".format(**synth_summary)
        )
    return 0


# -- entry point ----------------------------------------------------------


def _add_common_solve_flags(sub):
    sub.add_argument("ode", nargs="?", help="equation text, or - for stdin")
    sub.add_argument("--order", type=int, choices=(1, 2), help="expected equation order")
    sub.add_argument("--file", help="read the equation from a file")


@functools.cache
def build_argparser() -> argparse.ArgumentParser:
    """The `lps` argument parser, built once per process (`parse_args`
    returns a fresh namespace on every call).  Each subcommand's `func`
    is the `cmd_*` function bound when the parser is first built."""
    parser = argparse.ArgumentParser(
        prog="lps",
        description="Polynomial inverse integrating factors, Darboux polynomials, "
        "and elementary first integrals of rational ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="search an inverse integrating factor or Jacobi multiplier")
    _add_common_solve_flags(solve)
    solve.add_argument("--max-degree", type=int, default=20)
    solve.add_argument("--power", type=int, default=1, help="exponent k for V^k searches")
    solve.add_argument("--power-sweep", type=int, default=0, metavar="KMAX",
                       help="try k = 1..KMAX in order")
    solve.add_argument("--denominator", help="fixed polynomial denominator for V")
    solve.add_argument("--auto-denominator", action="store_true",
                       help="on failure, retry with each degree-1 Darboux polynomial")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--verbose", action="store_true",
                       help="print the kernel basis and system dimensions")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a candidate against the defining identity")
    _add_common_solve_flags(verify)
    verify.add_argument("--v", help="candidate numerator polynomial")
    verify.add_argument("--v-den", help="candidate denominator polynomial (default 1)")
    verify.add_argument("--power", type=int, default=1, help="exponent k of the candidate")
    verify.add_argument("--integral", help="first-integral JSON as printed by solve")
    verify.set_defaults(func=cmd_verify)

    factor = sub.add_parser("factor", help="factor a polynomial over the rationals")
    factor.add_argument("poly")
    factor.add_argument("--json", action="store_true")
    factor.set_defaults(func=cmd_factor)

    par = sub.add_parser("parse", help="parse and normalize an equation")
    _add_common_solve_flags(par)
    par.add_argument("--json", action="store_true")
    par.set_defaults(func=cmd_parse)

    bench = sub.add_parser("bench", help="time the bundled fixtures")
    bench.add_argument("fixtures", nargs="*", help=f"subset of {', '.join(_FIXTURE_NAMES)}")
    bench.add_argument("--max-degree", type=int,
                       help="override the per-fixture degree bound")
    bench.add_argument("--synthetic", type=int, default=0, metavar="N",
                       help="also generate N random integrable equations and measure recovery")
    bench.add_argument("--seed", type=int, default=20260816)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InternalError as exc:
        return _fail(f"internal error: {exc}", 4)
    except BudgetError as exc:
        return _fail(str(exc), 5)
    except LpsError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
