"""The benchmark's workloads, their inputs and their references.

Every equation is solved through the public entry point
`lps.cli.main(["solve", ..., text])`; the program sees only the equation
text and its flags.  Each solve is checked against a reference outside
the timed region:

- a fixture's exit code and JSON report (without `timings_ms`) must equal
  `fixtures/expected/<name>.json`, and its flags must equal the recorded
  `args`;
- a plant must exit 0 with the `pde` and `closedness` flags true, its
  reported V must pass the independent checker (`lps verify --v`), and a
  reported first integral must carry `integral: true` and pass
  `lps verify --integral`.  A plant reported without an integral is not a
  miss: the search may return a different, lower-degree V than the one
  planted, whose factors do not carry the planted integral; the
  benchmark counts those in `integral_share` instead.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class Equation:
    name: str
    args: tuple  # cli arguments before the equation text
    text: str
    order: int
    expected: dict | None  # fixture reference; None for a plant


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: tuple
    # plants: (seed or None for the run's seed, draws, planted degrees kept)
    plants: tuple
    # layers the traced run must see at least once
    layers: tuple


SEARCH_LAYERS = ("parser.parse_ode", "solver.search", "linalg.nullspace")
FACTOR_LAYERS = ("poly.mpoly_gcd", "poly.squarefree", "factor.factor_multivariate",
                 "factor.darboux_check")

# The cost of a plant varies several-fold even within one planted degree,
# so a pass made only of seeded plants moved by 15-20% from seed to seed,
# and ten seeded plants of degree up to 6 still moved it by 10%.  The
# timed bulk of the plants therefore comes from this fixed seed, which
# keeps runs comparable.  The degree-2 plants among a fixed number of
# draws from the run's seed make every run solve and check equations not
# fixed in advance; they are cheap and fall below the median latency, so
# they move neither the total nor the percentiles much.  Drawing a fixed
# number keeps set-up time independent of the seed.
CORE_SEED = 20260816

WORKLOADS = {
    w.name: w
    for w in (
        Workload("eq7-order2", ("eq7",), (), SEARCH_LAYERS + FACTOR_LAYERS),
        Workload("eq8-nothing-found", ("eq8",), (),
                 SEARCH_LAYERS + ("factor.degree1_dp_search",)),
        # Planted degrees 2..6 keep the systems small (mostly the exact
        # engine); degree 0 plants (V = 1) have a one-column ladder and
        # measure nothing.
        Workload("order1-mix", ("eq5", "eq9"),
                 ((CORE_SEED, 110, range(2, 7)), (None, 40, (2,))),
                 SEARCH_LAYERS + FACTOR_LAYERS + (
                     "unifactor.zassenhaus", "darboux.reconstruct",
                     "darboux.verify_first_integral")),
    )
}

# Tiny equations of each order, solved once in set-up so that lazy
# initialisation is not timed.
WARM_UP = (("solve", "--json", "y' = y/x"), ("solve", "--json", "z' = z/x"))


def call(cli, argv) -> tuple[int, str]:
    """Run `lps` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _fixture(name: str) -> Equation:
    base = resources.files("lps").joinpath("fixtures")
    expected = json.loads(base.joinpath("expected", f"{name}.json").read_text())
    args = tuple(expected["args"])
    order = int(args[args.index("--order") + 1])
    text = base.joinpath(f"{name}.txt").read_text()
    return Equation(name, args, text, order, expected)


def _plants(seed: int, draws: int, degrees) -> list[Equation]:
    """The coprime plants of a planted degree in `degrees` among `draws`
    draws from the seed; each is solved up to its planted degree.
    Non-coprime plants are skipped because the planted V need not survive
    the cancellation, so they have no reference."""
    from lps.parser import parse_ode
    from lps.synth import plant

    rng = random.Random(seed)
    out = []
    for i in range(draws):
        p = plant(rng, max_factor_degree=4)
        degree = p.planted_v.total_degree()
        if not p.coprime or degree not in degrees:
            continue
        text = p.ode.to_text()
        if parse_ode(text) != p.ode:
            raise RuntimeError(f"plant does not survive its text form: {text}")
        args = ("solve", "--order", "1", "--max-degree", str(degree), "--json")
        out.append(Equation(f"plant-{seed}-{i}-deg{degree}", args, text, 1, None))
    return out


def set_up(workload: Workload, seed: int) -> list[Equation]:
    """Import lps, build the workload's equations and warm up."""
    from lps import cli

    equations = [_fixture(name) for name in workload.fixtures]
    for plant_seed, draws, degrees in workload.plants:
        equations += _plants(seed if plant_seed is None else plant_seed, draws, degrees)
    for argv in WARM_UP:
        call(cli, argv)
    return equations


def _v_text(v: dict) -> str:
    return "*".join(f"({p})^{m}" for p, m in v["factored"]) or "1"


def check(cli, eq: Equation, code: int, report: dict | None) -> bool:
    """Compare one solve (its report without `timings_ms`) with its
    reference."""
    if report is None:
        return False
    if eq.expected is not None:
        return (
            list(eq.args) == eq.expected["args"]
            and code == eq.expected["exit_code"]
            and report == eq.expected["report"]
        )
    flags = report["verified"]
    if code != 0 or flags["pde"] is not True or flags["closedness"] is not True:
        return False
    v = report["v"]
    argv = ["verify", "--order", "1", eq.text, "--v", _v_text(v), "--power", str(v["k"])]
    if v["denominator"] != "1":
        argv += ["--v-den", v["denominator"]]
    if call(cli, argv)[0] != 0:
        return False
    integral = report["first_integral"]
    if integral is None:
        return flags["integral"] is None
    if flags["integral"] is not True:
        return False
    argv = ["verify", "--order", "1", eq.text, "--integral", json.dumps(integral)]
    return call(cli, argv)[0] == 0
