import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import lps
import lps.darboux
import lps.factor
import lps.solver
from lps import cli, linalg
from lps.cli import main
from lps.darboux import reconstruct_first_integral
from lps.errors import InternalError
from lps.parser import parse_ode, parse_poly
from lps.poly import MPoly
from lps.solver import build_field, lps_search
from lps.synth import plant


def run_cli(args, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(stdin_text) if stdin_text is not None else None
    old_stdin = sys.stdin
    try:
        if stdin is not None:
            sys.stdin = stdin
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def fixture_path(name):
    return str(resources.files("lps").joinpath("fixtures", f"{name}.txt"))


def expected_blob(name):
    text = resources.files("lps").joinpath("fixtures", "expected", f"{name}.json").read_text()
    return json.loads(text)


def test_solve_simple_text_output():
    code, out, err = run_cli(["solve", "--order", "1", "y' = y/x"])
    assert code == 0
    assert "V = x^2" in out
    assert "I = exp((y)/(x))" in out
    assert "pde=yes" in out


def test_solve_eq5_matches_expected_record():
    blob = expected_blob("eq5")
    code, out, _ = run_cli(blob["args"] + ["--file", fixture_path("eq5")])
    assert code == blob["exit_code"]
    report = json.loads(out)
    report.pop("timings_ms")
    assert report == blob["report"]


def test_solve_eq8_matches_expected_record():
    blob = expected_blob("eq8")
    code, out, err = run_cli(blob["args"] + ["--file", fixture_path("eq8")])
    assert code == blob["exit_code"] == 3
    report = json.loads(out)
    report.pop("timings_ms")
    assert report == blob["report"]
    assert report["denominators_tried"] == ["y"]
    assert "nothing found" in err


def test_solve_eq8_needs_no_elimination(monkeypatch):
    # every rung of both of eq8's ladders peels to no column at all, so
    # the kernel engine never runs
    def refuse(rows, ncols):
        raise AssertionError("the kernel engine ran")

    monkeypatch.setattr(linalg, "_nullspace_modular", refuse)
    blob = expected_blob("eq8")
    code, out, _ = run_cli(blob["args"] + ["--file", fixture_path("eq8")])
    assert code == blob["exit_code"]
    report = json.loads(out)
    report.pop("timings_ms")
    assert report == blob["report"]


def test_the_fixtures_need_one_prime_per_kernel(monkeypatch):
    # every kernel eq5, eq7 (to its degree 13) and eq9 compute is settled
    # by the modular engine's first prime; an engine that draws more
    # primes on real systems fails here, not just runs slower
    kernel_mod_p, modular = linalg._kernel_mod_p, linalg._nullspace_modular
    primes_per_kernel = []

    def counting_kernel_mod_p(rows, ncols, p):
        primes_per_kernel[-1] += 1
        return kernel_mod_p(rows, ncols, p)

    def counting_modular(rows, ncols):
        primes_per_kernel.append(0)
        return modular(rows, ncols)

    monkeypatch.setattr(linalg, "_kernel_mod_p", counting_kernel_mod_p)
    monkeypatch.setattr(linalg, "_nullspace_modular", counting_modular)
    for name, extra in (("eq5", []), ("eq7", ["--max-degree", "13"]), ("eq9", [])):
        code, _, err = run_cli(expected_blob(name)["args"] + extra + ["--file", fixture_path(name)])
        assert code == 0, err
    assert primes_per_kernel and set(primes_per_kernel) == {1}


@pytest.mark.parametrize("text", ["y' = (4*x + 3*y)^(-14)", "y' = (4*x + 3*y)^(-17)", "y' = (8*x + 9*y)^(-20)"])
def test_powers_of_a_line_factor_at_the_degree_of_their_least_variable(text):
    # V is 3 (9 for the last) plus a multiple of the line to the power
    # e + 1; its univariate Kronecker image had degree 210 to 420, and
    # its split was refused as over budget (exit 5).  Specialised at
    # y = a it has degree e + 1 in x and is irreducible, so V is one
    # factor
    code, out, err = run_cli(["solve", text, "--auto-denominator", "--json"])
    assert code == 0, err
    report = json.loads(out)
    assert report["verified"] == {"pde": True, "closedness": True, "integral": None}
    assert [m for _, m in report["v"]["factored"]] == [1]


def test_the_degree1_search_answers_a_high_power_of_a_cubic():
    # N = P^42 for a cubic P, so the section of the extactic polynomial
    # has degree 251 in y; the one invariant line is x = -1/2
    code, out, err = run_cli(["solve", "y' = (4*x*y^2 - y + 2*y^2 + 4*x^2*y)^(-42)",
                              "--max-degree", "2", "--auto-denominator", "--json"])
    assert code == 3, err
    assert json.loads(out)["denominators_tried"] == ["1 + 2*x"]


def test_factoring_works_at_the_least_partial_degree(monkeypatch):
    # no univariate input to zassenhaus exceeds the least positive
    # partial degree of the part being factored (eq7's parts are linear
    # in z, so it needs none); a Kronecker image of a whole part would
    # have a far larger degree
    inner = lps.factor._factor_squarefree_part
    zassenhaus = lps.factor.zassenhaus
    parts, calls = [], []

    def tracking_part(part):
        parts.append(part)
        try:
            return inner(part)
        finally:
            parts.pop()

    def tracking_zassenhaus(f):
        part = parts[-1]
        calls.append((len(f) - 1, min(part.degree_in(v) for v in part.vars_used())))
        return zassenhaus(f)

    monkeypatch.setattr(lps.factor, "_factor_squarefree_part", tracking_part)
    monkeypatch.setattr(lps.factor, "zassenhaus", tracking_zassenhaus)
    seen = {}
    for name in ("eq5", "eq7", "eq8", "eq9"):
        calls.clear()
        blob = expected_blob(name)
        code, _, err = run_cli(blob["args"] + ["--file", fixture_path(name)])
        assert code == blob["exit_code"], err
        assert all(degree <= least for degree, least in calls), (name, calls)
        seen[name] = list(calls)
    assert seen["eq7"] == []
    assert any(seen[name] for name in ("eq5", "eq8", "eq9"))


def test_json_round_trip_reproduces_canonical_objects():
    code, out, _ = run_cli(
        ["solve", "--order", "1", "--max-degree", "15", "--json",
         "--file", fixture_path("eq5")]
    )
    assert code == 0
    report = json.loads(out)
    again = parse_ode(report["ode"])
    assert again.to_text() == report["ode"]
    rebuilt = MPoly.constant(1, ("x", "y"))
    for text, mult in report["v"]["factored"]:
        p = parse_poly(text, ("x", "y"))
        assert p.to_text() == text
        rebuilt = rebuilt * p**mult
    for entry in report["darboux"]:
        assert parse_poly(entry["p"], ("x", "y")).to_text() == entry["p"]
        assert parse_poly(entry["q"], ("x", "y")).to_text() == entry["q"]
    integral = report["first_integral"]
    for key in ("A", "B"):
        assert parse_poly(integral[key], ("x", "y")).to_text() == integral[key]


def test_verify_accepts_what_solve_emits():
    code, out, _ = run_cli(
        ["solve", "--order", "1", "--max-degree", "15", "--json",
         "--file", fixture_path("eq5")]
    )
    report = json.loads(out)
    rebuilt = MPoly.constant(1, ("x", "y"))
    for text, mult in report["v"]["factored"]:
        rebuilt = rebuilt * parse_poly(text, ("x", "y")) ** mult
    with open(fixture_path("eq5")) as handle:
        ode_text = handle.read()
    code, out, _ = run_cli(["verify", ode_text, "--v", rebuilt.to_text()])
    assert code == 0 and "holds" in out
    code, out, _ = run_cli(
        ["verify", ode_text, "--integral", json.dumps(report["first_integral"])]
    )
    assert code == 0 and "holds" in out


def test_verify_known_good_and_bad_candidates():
    assert run_cli(["verify", "y' = y/x", "--v", "x^2"])[0] == 0
    assert run_cli(["verify", "y' = y/x", "--v", "x*y"])[0] == 0
    assert run_cli(["verify", "y' = y/x", "--v", "x + y"])[0] == 1


def test_verify_rational_candidate_with_power():
    code, _, _ = run_cli(
        ["verify", "--file", fixture_path("eq9"), "--power", "2",
         "--v", "(x*y^2 - 1)^3 * (x*y^2 + 1)^3"]
    )
    assert code == 0


def test_verify_usage_error_without_candidate():
    code, _, err = run_cli(["verify", "y' = y/x"])
    assert code == 2
    assert "--v" in err


@pytest.mark.parametrize("flags", [["--v", "x"], ["--v-den", "x"], ["--power", "3"]])
def test_verify_integral_rejects_candidate_flags(flags):
    integral = json.dumps({"A": "y", "B": "x", "factors": []})
    assert run_cli(["verify", "y' = y/x", "--integral", integral])[0] == 0
    code, out, err = run_cli(["verify", "y' = y/x", "--integral", integral, *flags])
    assert code == 2 and out == ""
    assert flags[0] in err and "--integral" in err


def test_verify_v_den_without_v_is_usage_error():
    code, out, err = run_cli(["verify", "y' = y/x", "--v-den", "x"])
    assert code == 2 and out == ""
    assert "pass a candidate with --v" in err


def test_power_sweep_reports_kth_root():
    code, out, _ = run_cli(
        ["solve", "--power-sweep", "2", "--json", "--file", fixture_path("eq9")]
    )
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "lps-power"
    assert report["v"]["kind"] == "kth_root"
    assert report["v"]["k"] == 2


def test_parse_subcommand_json_and_text():
    code, out, _ = run_cli(["parse", "--json", "y'' = z + x*y"])
    assert code == 0
    assert json.loads(out) == {"order": 2, "numerator": "z + x*y", "denominator": "1"}
    code, out, _ = run_cli(["parse", "y' = -x/y"])
    assert code == 0
    assert out.startswith("order 1:")


def test_parse_order_mismatch_is_usage_error():
    code, _, err = run_cli(["parse", "--order", "2", "y' = y/x"])
    assert code == 2
    assert err


def test_parse_refuses_an_oversized_power_at_once():
    # this used to expand for about 15 s and print 3.7 MB
    start = time.perf_counter()
    code, out, err = run_cli(["parse", "y' = ((x+y)^64)^64"])
    assert code == 2 and out == ""
    assert "degree 4096 exceeds 128 (line 1, column 16)" in err
    assert time.perf_counter() - start < 5
    code, out, _ = run_cli(["parse", "--json", "y' = (x^2)^64"])
    assert code == 0 and json.loads(out)["numerator"] == "x^128"


def test_parse_refuses_an_oversized_product_at_once():
    # within the degree budget, this took 4.7 s and printed 432 KB; the
    # two 561-term powers are refused at the * that would multiply them
    start = time.perf_counter()
    code, out, err = run_cli(["parse", "y'' = ((x+y+z)^32)*((x-y+z)^32)*(x+z-y)^64"])
    assert code == 2 and out == ""
    assert "term count 314721 exceeds 100000 (line 1, column 19)" in err
    assert time.perf_counter() - start < 5
    # a power is bounded by the smaller of its multinomial count
    # C(e + t - 1, t - 1) and its dense monomial count C(d*e + n, n):
    # (x*y*z + 1)^42 has 43 terms, where the dense count is C(126 + 3, 3)
    code, out, _ = run_cli(["parse", "--json", "y'' = (x*y*z + 1)^42"])
    assert code == 0 and json.loads(out)["numerator"].count("+") == 42
    # 7 terms to the 42nd: C(48, 6) = 12,271,512 against C(84 + 3, 3)
    code, out, err = run_cli(["parse", "y'' = (x^2+y^2+z^2+x+y+z+1)^42"])
    assert code == 2 and out == ""
    assert "term count 105995 exceeds 100000 (line 1, column 28)" in err
    code, out, _ = run_cli(["parse", "--json", "y'' = (x*y*z + 1)^20"])
    assert code == 0 and json.loads(out)["numerator"].endswith("x^20*y^20*z^20")


def test_parse_refuses_a_long_sum_of_fractions_at_once():
    # the denominators differ, so each + cross-multiplies; the one that
    # would add a 129th degree is refused where it stands
    text = "y' = " + " + ".join(f"1/(x+{i})" for i in range(1, 201))
    start = time.perf_counter()
    code, out, err = run_cli(["parse", text])
    assert code == 2 and out == ""
    col = text.index("+ 1/(x+129)") + 1
    assert f"degree 129 exceeds 128 (line 1, column {col})" in err
    assert time.perf_counter() - start < 5


def test_parse_reads_stdin_dash():
    code, out, _ = run_cli(["parse", "-"], stdin_text="y' = y/x\n")
    assert code == 0
    assert "y' = (y)/(x)" in out


def test_factor_round_trip():
    text = "x^2*y + 2*x*y^2 + x*y^3"
    code, out, _ = run_cli(["factor", "--json", text])
    assert code == 0
    blob = json.loads(out)
    rebuilt = MPoly.constant(Fraction(blob["unit"]))
    for factor_text, mult in blob["factors"]:
        rebuilt = rebuilt * parse_poly(factor_text, ("x", "y", "z")) ** mult
    assert rebuilt == parse_poly(text, ("x", "y", "z"))


def test_factor_rejects_garbage():
    code, _, err = run_cli(["factor", "x +* y"])
    assert code == 2
    assert err


def test_factor_internal_error_exit_code(monkeypatch):
    def broken(p):
        raise InternalError("factorization round-trip failed")

    monkeypatch.setattr(cli, "factor_multivariate", broken)
    code, _, err = run_cli(["factor", "x^2 - y^2"])
    assert code == 4
    assert "internal error" in err


def test_solve_not_found_exit_code():
    code, out, err = run_cli(
        ["solve", "--max-degree", "2", "--json", "y' = (y^2 + x^3)/(x + 1)"]
    )
    assert code == 3
    report = json.loads(out)
    assert report["v"] is None
    assert report["degree_found"] is None
    assert report["verified"] == {"pde": None, "closedness": None, "integral": None}


def test_solve_parse_error_exit_code():
    code, _, err = run_cli(["solve", "y' = "])
    assert code == 2
    assert "lps:" in err


def test_solve_verbose_json_includes_basis_and_system():
    code, out, _ = run_cli(["solve", "--json", "--verbose", "y' = y/x"])
    assert code == 0
    report = json.loads(out)
    assert report["system"] == {"rows": 3, "cols": 6}
    assert report["basis"] == ["x^2", "x*y", "y^2"]


@pytest.mark.parametrize(
    "name, rows, cols", [("eq5", 246, 105), ("eq7", 1933, 560), ("eq9", 314, 190)]
)
def test_solve_verbose_reports_the_kernel_rung(name, rows, cols):
    # the shapes are those of the system the search stopped at, as printed
    # before the search carried them; the basis is the expected V expanded
    blob = expected_blob(name)
    args = blob["args"] + ["--verbose", "--file", fixture_path(name)]
    code, out, _ = run_cli(args)
    assert code == 0
    report = json.loads(out)
    assert report.pop("system") == {"rows": rows, "cols": cols}
    basis = report.pop("basis")
    report.pop("timings_ms")
    assert report == blob["report"]
    ring = parse_ode(Path(fixture_path(name)).read_text()).ring
    v = MPoly.constant(1, ring)
    for text, mult in blob["report"]["v"]["factored"]:
        v = v * parse_poly(text, ring) ** mult
    assert basis == [v.normalized().to_text()]

    code, out, _ = run_cli([a for a in args if a != "--json"])
    assert code == 0
    lines = out.splitlines()
    assert f"system: {rows} equations, {cols} unknowns" in lines
    assert [line for line in lines if line.startswith("kernel element: ")] == [
        f"kernel element: {b}" for b in basis
    ]


def test_threads_flag_is_usage_error():
    code, _, err = run_cli(["solve", "--json", "--threads", "4", "y' = y/x"])
    assert code == 2
    assert "--threads" in err


def python_with_lps(*argv):
    """Run a fresh Python process that imports this checkout's lps."""
    src = str(Path(lps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=600)


@pytest.mark.parametrize("name", ["eq5", "eq8"])
def test_solve_under_python_O_matches_expected_record(name):
    # the exact re-verifications must not depend on assert or __debug__;
    # eq8's rungs are all decided by the peel and its certificate alone
    blob = expected_blob(name)
    proc = python_with_lps("-O", "-m", "lps.cli", *blob["args"], "--file", fixture_path(name))
    assert proc.returncode == blob["exit_code"]
    report = json.loads(proc.stdout)
    report.pop("timings_ms")
    assert report == blob["report"]


def test_the_cli_does_not_load_numpy():
    proc = python_with_lps("-c", "import lps.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_solve_second_order_text_output():
    code, out, _ = run_cli(["solve", "--order", "2", "y'' = z"])
    assert code == 0
    assert "P_J" in out


def test_bench_eq5_json_shape():
    code, out, _ = run_cli(["bench", "eq5", "--json"])
    assert code == 0
    blob = json.loads(out)
    by_phase = {row["phase"]: row for row in blob["rows"]}
    assert by_phase["search"]["degree"] == 13
    assert by_phase["search"]["cols"] == 105
    assert by_phase["search"]["result"] == "found"


def test_bench_rows_report_the_kernel_rung():
    # a found row carries the search's own system; the not-found row is
    # the system at --max-degree
    code, out, _ = run_cli(["bench", "eq5", "eq8", "eq9", "--json"])
    assert code == 0
    rows = [
        (r["fixture"], r["phase"], r["degree"], r["rows"], r["cols"], r["result"])
        for r in json.loads(out)["rows"]
    ]
    assert rows == [
        ("eq5", "search", 13, 246, 105, "found"),
        ("eq5", "factor", 13, 246, 105, "ok"),
        ("eq8", "search", 12, 172, 91, "not found"),
        ("eq9", "search", 18, 314, 190, "found"),
        ("eq9", "factor", 18, 314, 190, "ok"),
    ]


def test_bench_unknown_fixture():
    code, _, err = run_cli(["bench", "nosuch"])
    assert code == 2
    assert "unknown fixture" in err


def test_bench_max_degree_zero_is_honoured():
    code, out, _ = run_cli(["bench", "eq5", "--max-degree", "0", "--json"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["degree"], row["cols"], row["result"]) == (0, 1, "not found")


def test_bench_negative_synthetic_is_usage_error():
    code, out, err = run_cli(["bench", "eq5", "--synthetic", "-2"])
    assert code == 2 and out == ""
    assert "--synthetic" in err


def test_bench_synthetic_summary():
    code, out, _ = run_cli(["bench", "eq5", "--synthetic", "5", "--seed", "3", "--json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["synthetic"]["cases"] == 5


@pytest.mark.parametrize("seed", [7, 11])
def test_bench_synthetic_recovery_is_pinned(seed):
    code, out, _ = run_cli(["bench", "eq5", "--synthetic", "50", "--seed", str(seed), "--json"])
    assert code == 0
    counts = json.loads(out)["synthetic"]
    assert (counts["cases"], counts["coprime"], counts["recovered"]) == (50, 47, 47)


def test_usage_error_on_unknown_flag():
    code, _, _ = run_cli(["solve", "--nope", "y' = y/x"])
    assert code == 2


def test_solve_power_zero_is_usage_error():
    code, out, err = run_cli(["solve", "--power", "0", "y' = y/x"])
    assert code == 2 and out == ""
    assert "power" in err and "Traceback" not in err


def test_solve_negative_max_degree_is_usage_error():
    code, _, err = run_cli(["solve", "--max-degree", "-1", "y' = y/x"])
    assert code == 2
    assert "--max-degree must be nonnegative" in err


def test_bench_negative_max_degree_is_usage_error():
    code, out, err = run_cli(["bench", "eq5", "--max-degree", "-1"])
    assert code == 2 and out == ""
    assert "--max-degree must be nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--max-degree", "45", "z' = z^3 + x*y + 1"],
    ["bench", "eq5", "eq7", "--max-degree", "45"],
])
def test_max_degree_over_column_budget_exits_2_at_once(monkeypatch, argv):
    # degree 45 in x, y, z: C(48, 3) = 17,296 columns on the top rung
    def refuse(*args, **kwargs):
        raise AssertionError("assembled a system over the column budget")

    monkeypatch.setattr(lps.solver._SystemBuilder, "build", refuse)
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "17296 columns" in err and str(cli._MAX_COLUMNS) in err


def refuse_assembly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled a system over a budget")

    monkeypatch.setattr(lps.solver._SystemBuilder, "build", refuse)


def test_top_rung_entries_over_budget_exit_2_at_once(monkeypatch):
    # each column's image has about as many terms as the denominator (1,891
    # for (x+y+1)^60): this took 14.3 s and 384 MB before the budget
    refuse_assembly(monkeypatch)
    argv = ["solve", "y' = (x^3 + y^2 + 1)/(x*y + 2)", "--denominator", "(x+y+1)^60",
            "--max-degree", "40"]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "861 columns" in err and str(lps.solver.MAX_ENTRIES) in err
    assert "--max-degree" in err and "--denominator" in err


def test_entries_budget_is_far_above_the_fixtures():
    # eq7's top rung (degree 15, 816 columns) has the largest bound of any
    # fixture, golden-corpus text or benchmark equation
    field = build_field(parse_ode(Path(fixture_path("eq7")).read_text()))
    builder = lps.solver._SystemBuilder(field, 1, MPoly.constant(1, field.ring))
    assert 816 * builder.image_terms == 93024
    assert lps.solver.MAX_ENTRIES > 20 * 93024


@pytest.mark.parametrize("argv, ladders, flags", [
    (["--power-sweep", "1000", "--max-degree", "139", "y' = (x^3 + y^2 + 1)/(x*y + 2)"],
     1000, "--max-degree, --power-sweep give"),
    # eq8 has one degree-1 Darboux polynomial, y, which doubles the ladders
    (["--power-sweep", "6", "--max-degree", "139", "--auto-denominator", "--file", fixture_path("eq8")],
     12, "--max-degree, --power-sweep, --auto-denominator give"),
])
def test_ladders_over_the_column_budget_exit_2_before_the_first(monkeypatch, argv, ladders, flags):
    # C(141, 2) = 9,870 columns on each top rung
    refuse_assembly(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(["solve"] + argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert f"{flags} {ladders} ladders with {ladders * 9870} columns" in err
    assert str(cli._MAX_LADDER_COLUMNS) in err


def test_ladder_budget_edge():
    # 10 ladders at degree 139 fit the budget, 11 do not
    assert 10 * 9870 <= cli._MAX_LADDER_COLUMNS < 11 * 9870
    code, _, err = run_cli(["solve", "--power-sweep", "11", "--max-degree", "139", "y' = y/x"])
    assert code == 2 and "11 ladders" in err
    assert run_cli(["solve", "--power-sweep", "10", "--max-degree", "139", "y' = y/x"])[0] == 0


@pytest.mark.parametrize("order, top", [(1, 139), (2, 37)])
def test_max_degree_budget_edge(order, top):
    # the largest degree within the budget passes the check, one more is refused
    nvars = order + 1
    assert math.comb(top + nvars, nvars) <= cli._MAX_COLUMNS < math.comb(top + 1 + nvars, nvars)
    text = "y' = y/x" if order == 1 else "y'' = z"
    assert run_cli(["solve", "--max-degree", str(top), text])[0] == 0
    code, _, err = run_cli(["solve", "--max-degree", str(top + 1), text])
    assert code == 2 and "columns on the top rung" in err


def test_solve_denominator_outside_ring_is_usage_error():
    code, _, err = run_cli(["solve", "--denominator", "z+1", "y' = y/x"])
    assert code == 2
    assert "unknown identifier 'z'" in err


def test_solve_negative_power_sweep_is_usage_error():
    code, out, err = run_cli(["solve", "--power-sweep", "-1", "y' = y/x"])
    assert code == 2 and out == ""
    assert "--power-sweep" in err


def test_verify_power_zero_is_usage_error():
    code, out, err = run_cli(["verify", "y' = y/x", "--power", "0", "--v", "1"])
    assert code == 2 and out == ""
    assert "--power" in err


def test_solve_order2_rejects_order1_flags():
    for flags in (["--power", "2"], ["--power-sweep", "2"], ["--denominator", "x"],
                  ["--auto-denominator"]):
        code, out, err = run_cli(["solve", *flags, "y'' = z"])
        assert code == 2 and out == "", flags
        assert flags[0] in err and "first order" in err
    # the order-2 search is the k = 1 identity, so --power 1 stays accepted
    assert run_cli(["solve", "--power", "1", "y'' = z"])[0] == 0


def test_missing_file_is_usage_error(tmp_path):
    code, _, err = run_cli(["solve", "--file", str(tmp_path / "missing.txt")])
    assert code == 2
    assert "cannot read" in err


def test_equation_given_twice_is_usage_error(tmp_path):
    path = tmp_path / "eq.txt"
    path.write_text("y' = y/x")
    for argv in (
        ["solve", "y' = 2*y/x", "--file", str(path)],
        ["solve", "-", "--file", str(path)],
        ["verify", "y' = y/x", "--file", str(path), "--v", "x"],
        ["parse", "y' = y/x", "--file", str(path)],
        ["parse", "y' = y/x", "--file", ""],
    ):
        code, out, err = run_cli(argv, stdin_text="y' = y/x")
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and "given twice" in err, argv


def test_verify_malformed_integral_is_usage_error():
    for blob in (
        '[1]',
        '{"A": "1", "B": "1", "factors": [5]}',
        '{"A": "1", "B": "0", "factors": []}',
        '{"A": "1", "B": "1", "factors": [["0", 1]]}',
    ):
        code, out, err = run_cli(["verify", "y' = y/x", "--integral", blob])
        assert code == 2 and out == "", blob
        assert "bad --integral" in err


def _fixture_argv(name, *extra):
    args = [a for a in expected_blob(name)["args"] if a != "--json"]
    return args + list(extra) + ["--json", "--file", fixture_path(name)]


@pytest.mark.parametrize(
    "argv, calls",
    [
        (_fixture_argv("eq5"), 1),
        (_fixture_argv("eq9"), 1),  # recorded with --power 2
        (["solve", "--denominator", "x + y", "--json", "y' = y/x"], 2),
    ],
)
def test_solve_factors_v_once(monkeypatch, argv, calls):
    # one factorization of V's numerator per solve, plus one of a
    # non-constant denominator; reconstruct reuses the checked factors
    seen = []
    original = lps.factor.factor_multivariate

    def counting(p):
        seen.append(p)
        return original(p)

    for module in (lps.factor, lps.darboux, cli):
        monkeypatch.setattr(module, "factor_multivariate", counting)
    assert run_cli(argv)[0] == 0
    assert len(seen) == calls


def _seeded_plants(count):
    rng = random.Random(20260816)
    out = []
    while len(out) < count:
        p = plant(rng, max_factor_degree=3)
        if p.coprime:
            out.append((p.ode.to_text(), p.planted_v.total_degree()))
    return out


def test_reconstruct_without_factors_matches_solve():
    cases = [
        (parse_ode(Path(fixture_path("eq5")).read_text()), 15, 1, _fixture_argv("eq5")),
        (parse_ode(Path(fixture_path("eq9")).read_text()), 20, 2, _fixture_argv("eq9")),
    ]
    for text, degree in _seeded_plants(10):
        argv = ["solve", "--order", "1", "--max-degree", str(degree), "--json", text]
        cases.append((parse_ode(text), degree, 1, argv))
    with_integral = 0
    for ode, degree, k, argv in cases:
        code, out, _ = run_cli(argv)
        assert code == 0
        reported = json.loads(out)["first_integral"]
        found = lps_search(ode, max_degree=degree, k=k)
        integral = reconstruct_first_integral(build_field(ode), found)
        assert (integral and integral.to_json_dict()) == reported
        with_integral += reported is not None
    assert with_integral >= 8


def test_cached_argparser_leaks_no_flag_between_calls():
    assert cli.build_argparser() is cli.build_argparser()
    ode = "y' = y/x"
    first = json.loads(run_cli(["solve", "--json", ode])[1])
    powered = json.loads(run_cli(["solve", "--json", "--power", "2", ode])[1])
    again = json.loads(run_cli(["solve", "--json", ode])[1])
    assert (powered["method"], powered["v"]["k"]) == ("lps-power", 2)
    assert (again["method"], again["v"]["k"]) == ("lps", 1)
    for report in (first, again):
        del report["timings_ms"]
    assert again == first
