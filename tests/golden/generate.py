"""Generate the golden output corpus of `lps`.

    PYTHONPATH=src python tests/golden/generate.py

Runs every invocation listed below in-process through `lps.cli.main` and
writes `corpus.json` next to this file: one record per invocation with
its argv, exit code, standard output and standard error.  Timing data is
stripped first (`timings_ms` from solve JSON, the `timings:` line from
the text report), so a record is byte-stable.  `tests/test_golden.py`
re-runs every record and compares it byte for byte.

The corpus is the output contract: regenerate it only in a change that
says which records change and why.
"""

import contextlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

CORPUS = Path(__file__).resolve().with_name("corpus.json")

# Plants are pinned by their equation text.  Each was drawn by
# `lps.synth.plant(rng, max_factor_degree=4)` from the named seed and draw
# (seeds 7, 11 and 20260816; the label is provenance only) and is solved
# up to its planted degree.  They cover coprime and non-coprime plants,
# with and without a reconstructed integral, searches that stop below the
# planted degree, and `--power 2` searches that succeed.
PLANTS = (
    ("7-25", 6, "y' = (6*y + 4*x*y - 12*y^2 + 3*x*y^2 + 6*y^3 + 2*x^2*y^2 - 2*x*y^3 - 4*y^4)/(-6 + 2*x - 8*y + 4*x^2 - 15*x*y + x^2*y - 10*x*y^2 + 2*x^3*y - 10*x^2*y^2 + 4*x*y^3)"),
    ("7-33", 5, "y' = (8*x + 12*y + 4*x*y + 6*y^2 - 12*x*y^2 - 18*y^3)/(4*x + 9*x^2 + 11*x*y + 6*x^2*y)"),
    ("11-31", 6, "y' = (-2*y^3 - 2*y^4)/(2 - y + 2*x*y^2 + 5*x*y^3)"),
    ("7-50", 2, "y' = (2*y)/(4*x + y)"),
    ("11-71", 2, "y' = (3/2*y)/(-1 + 3*x)"),
    ("11-17", 5, "y' = (-7/2*y + 9/2*y^3)/(-3 - 11*x - 6*x^2 + 6*y^2 + 18*x*y^2)"),
    ("11-80", 5, "y' = (-3*y - 1/2*x^4 + x^2*y^2)/(-x + 2*x^3*y)"),
    ("20260816-89", 4, "y' = (-x^3 - 3*x^2*y + 1/2*x*y^2 - 1/2*y^3)/(-2*x^3 + x^2*y)"),
    ("7-2", 3, "y' = (-2/3 + 2*y^2)/(1 - 4*y + 4*x*y + 3*y^2)"),
    ("7-84", 6, "y' = (-12*x^2*y + 9*x^2*y^3)/(-4 - 3*y^2 + 4*x^3 + 3*x^3*y^2)"),
    ("11-43", 5, "y' = (18*x^2*y - 18*x*y^2 - 3*y^3 - 6*x^2*y^2 + 6*x*y^3 + y^4)/(-18*x^3 - 12*x^2*y + 3*x*y^2 + 5*x^2*y^2)"),
    ("20260816-29", 6, "y' = (-2 - 2*x - 6*y + 3*x^2 - 14*x*y + 2*y^2 + 15*x^2*y + 2*x*y^2 + 6*y^3 + 12*x^3*y + 14*x*y^3 + 6*x^2*y^3)/(6*x - 11*x^2 + 4*x*y - 19*x^3 + 2*x^2*y + 6*x*y^2 - 6*x^4 + 7*x^2*y^2 + 2*x^3*y^2)"),
    ("7-4", 3, "y' = (6*y - 3*y^2)/(-6*x - 60*y + 2*x*y + 25*y^2)"),
    ("7-28", 5, "y' = (-10*x + 2*y - 3*y^2 - 6*x^3 + x^2*y - 20*x*y^2 + 4*y^3 + 18*x^2*y^2 - 3*x*y^3 - 6*y^4 - 12*x^3*y^2 + 2*x^2*y^3 + 36*x^2*y^4 - 6*x*y^5)/(-2*x + 8*y + 6*x*y - x^3 + 4*x^2*y - 4*x*y^2 + 3*x^2*y^2 - 2*x^3*y^2 + 6*x^2*y^4)"),
    ("7-60", 2, "y' = (-y - y^2)/(-x + x^2)"),
    ("7-81", 6, "y' = (9 + 30*x + 18*y - 3*x^2 + 120*x*y + 3*y^2 - 8*x^3 - 6*x^2*y + 126*x*y^2 + 6*y^3 - 2*x^4 - 32*x^3*y + x^2*y^2 + 24*x*y^3 - 4*x^4*y - 32*x^3*y^2 + 2*x^2*y^3 + 24*x*y^4)/(-27 + 18*x + 6*y + 9*x^2 + 15*y^2 - 6*x^3 + 2*x^2*y + 6*x*y^2 + 24*y^3 + 6*x^4 + 5*x^2*y^2 - 4*x^5 + 2*x^3*y^2 + 8*x^2*y^3)"),
    ("11-3", 2, "y' = (-1 - 3*y)/(6 - 2*x - 9*y + 3*x*y)"),
    ("11-37", 3, "y' = (2 + 6*x - 6*x^2 + 9*x*y - 2*y^2)/(1 + 3*x + 2*x^2)"),
    ("11-64", 6, "y' = (2 - 2*x + y + 5*x^2 - x*y - 12*y^2 + 7*x^2*y + 12*x*y^2 + 9*y^3 - 21*x^2*y^2 - 9*x*y^3 + 9*x^2*y^3)/(5*x + 2*x^2 - 18*x*y - 19*x^3 + 36*x^2*y + 9*x*y^2 + 12*x^4 - 18*x^3*y - 18*x^2*y^2 + 9*x^3*y^2)"),
    ("11-94", 4, "y' = (-3/2 + 7*y - 17/2*y^2 + 3*y^3)/(3 + 5*x - 4*y + 2*x^2 - 4*x*y + 3*y^2 + 3*x*y^2)"),
    ("20260816-16", 3, "y' = (6*x*y + 3*y^2)/(3*x^2 + 14*x*y - 6*y^2 + 3*x^2*y - 11*x*y^2 + 6*y^3)"),
    ("20260816-37", 5, "y' = (6*y^2 - 3*y^3 - 3*y^4)/(-1 - 2*x - y - x*y - y^2 - 2*x^2*y + 6*x*y^2 + 2*y^3 + 6*x^2*y^2 + 2*x*y^3 + 4*x^2*y^3 + 2*x*y^4)"),
    ("20260816-60", 5, "y' = (4/3*x - 4*x*y - 4*x*y^2 + 12*x*y^3)/(-3 - 4*y - 3*x^2 + 21*y^2 - 4*x^2*y + 21*x^2*y^2)"),
    ("20260816-88", 6, "y' = (-4*x^2 + 3*x^2*y^3)/(4 + 15*y^3 + 6*x^3*y^2)"),
    ("7-35", 6, "y' = (4*y - 3*y^2 - 3*y^3 + 6*x*y^3 + 9*y^4 + 9*x^2*y^3 - 18*x*y^4)/(1 + 2*x - 3*x^2 + 9*x*y^2 + 18*x^2*y^2 - 18*x*y^3 - 27*x^3*y^2 + 18*x^2*y^3)"),
    ("20260816-14", 4, "y' = (-3 - y^2 - 6*y^3)/(-9 - 2*y + 6*x*y - 3*y^2 - 4*x^2*y + 6*x*y^2)"),
    ("7-27", 3, "y' = (4*x + 2*y + 12*x^2 + 4*x*y)/(x + x^2)"),
    ("7-90", 3, "y' = (1/2*y + 3/4*y^2)/(2 + x + 6*y + 3*x*y)"),
    ("11-59", 3, "y' = (-3/2*x - 6*y - 1/2*x*y - 2*y^2)/(-3*x + x^2 + x*y)"),
)

# Order-1 plants also solved with `--auto-denominator`.
AUTO_DENOMINATOR = ("7-25", "11-80", "20260816-89", "7-2", "11-94", "7-27")

# Hand-written equations for paths the fixtures and plants miss.
EXTRA_SOLVES = (
    ("simple", ["solve", "--order", "1", "y' = y/x"]),
    ("denominator", ["solve", "--order", "1", "--max-degree", "6", "--denominator", "y + x",
                     "y' = -(y*(3*x + y))/(x*(x + 3*y))"]),
    ("auto-denominator", ["solve", "--order", "1", "--max-degree", "2", "--auto-denominator",
                          "y' = -(y*(3*x + y))/(x*(x + 3*y))"]),
    ("power-sweep", ["solve", "--order", "1", "--max-degree", "3", "--power-sweep", "2",
                     "y' = (4*x + 2*y + 12*x^2 + 4*x*y)/(x + x^2)"]),
    ("order2-zero", ["solve", "--order", "2", "--max-degree", "2", "y'' = 0"]),
    ("order2-z", ["solve", "--order", "2", "--max-degree", "4", "y'' = z"]),
    ("order2-x", ["solve", "--order", "2", "--max-degree", "4", "y'' = x"]),
)

FACTOR_INPUTS = (
    "x^2 - y^2",
    "6*x^2*y - 6*y",
    "2/3*x^2 - 1/3",
    "x^4 + 1",
    "(x + y)^3*(x - 2*z)^2*(y*z + 1)",
    "x^6 - y^6",
)

_EQ5_V = "(-x + 3*y^3)^2*(x^2 + y^7)"
_EQ5_INTEGRAL = '{"A": "x", "B": "-x + 3*y^3", "factors": [["x^2 + y^7", 1]]}'
_EQ9_V = "(-1 + x*y^2)^3*(1 + x*y^2)^3"


def _fixture_text(name: str) -> str:
    return resources.files("lps").joinpath("fixtures", f"{name}.txt").read_text()


def _fixture_args(name: str) -> list:
    text = resources.files("lps").joinpath("fixtures", "expected", f"{name}.json").read_text()
    return json.loads(text)["args"]


def _solve_renderings(name: str, args: list, text: str) -> list:
    """Solve JSON, `--verbose` JSON and the text report of one equation."""
    args = [a for a in args if a != "--json"]
    return [
        (f"{name}/json", args + ["--json", text]),
        (f"{name}/verbose", args + ["--json", "--verbose", text]),
        (f"{name}/text", args + [text]),
    ]


def invocations() -> list:
    """(record id, argv) of every record, in corpus order."""
    out = []
    for name in ("eq5", "eq7", "eq8", "eq9"):
        out += _solve_renderings(name, _fixture_args(name), _fixture_text(name))
    for label, degree, text in PLANTS:
        base = ["solve", "--order", "1", "--max-degree", str(degree)]
        out += _solve_renderings(f"plant-{label}", base, text)
        out.append((f"plant-{label}/power2", base + ["--power", "2", "--json", text]))
        if label in AUTO_DENOMINATOR:
            out.append((f"plant-{label}/auto-denominator",
                        base + ["--auto-denominator", "--json", text]))
    for name, argv in EXTRA_SOLVES:
        out += _solve_renderings(name, argv[:-1], argv[-1])
    for i, poly in enumerate(FACTOR_INPUTS):
        out.append((f"factor-{i}/json", ["factor", "--json", poly]))
        out.append((f"factor-{i}/text", ["factor", poly]))
    eq5, eq9 = _fixture_text("eq5"), _fixture_text("eq9")
    out += [
        ("verify-eq5-v", ["verify", "--order", "1", "--v", _EQ5_V, eq5]),
        ("verify-eq5-integral", ["verify", "--order", "1", "--integral", _EQ5_INTEGRAL, eq5]),
        ("verify-eq9-power2", ["verify", "--order", "1", "--v", _EQ9_V, "--power", "2", eq9]),
        ("verify-eq9-fails", ["verify", "--order", "1", "--v", _EQ9_V, eq9]),
        ("verify-rational", ["verify", "--order", "1", "--v", "1", "--v-den", "y + x",
                             "y' = -(y*(3*x + y))/(x*(x + 3*y))"]),
        ("verify-usage", ["verify", "--order", "1", "--integral", _EQ5_INTEGRAL, "--v", "x", eq5]),
    ]
    for name in ("eq5", "eq7", "eq9"):
        text = _fixture_text(name)
        out.append((f"parse-{name}/json", ["parse", "--json", text]))
        out.append((f"parse-{name}/text", ["parse", text]))
    out += [
        ("parse-rational", ["parse", "y' = (x^2 + 1)/(2*y) - 1/3"]),
        ("parse-error", ["parse", "y' = (x + "]),
    ]
    return out


def _strip_timings(stdout: str) -> str:
    if stdout.startswith("{"):
        report = json.loads(stdout)
        if "timings_ms" in report:
            del report["timings_ms"]
            return json.dumps(report, indent=2) + "\n"
        return stdout
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("timings:"))


def run(argv: list) -> dict:
    """One record: `lps` run in-process on argv, timings stripped."""
    from lps import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit_code": code, "stdout": _strip_timings(out.getvalue()), "stderr": err.getvalue()}


def main() -> int:
    records = [{"id": rid, "argv": argv, **run(argv)} for rid, argv in invocations()]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
