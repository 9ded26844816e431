"""Benchmark of `lps solve`: a closed loop, one solve at a time, in-process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.
One pass solves each equation of the workload once; passes repeat until
another would overrun `--seconds` (at least one pass, two when traced).
`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics: span
metrics from the traced passes, stage metrics and the trace overhead
from the untraced ones.  Every solve is checked against its reference
outside the timed region.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

`--workload all` (the default) runs every workload in its own process,
so peak memory is per workload, and prints all of their metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import tracing  # noqa: E402
from workloads import WORKLOADS, call, check, set_up  # noqa: E402

SETUP_SAMPLES = 3
STAGES = ("parse", "search", "factor", "reconstruct", "verify")
UNITS = {
    "wall_s": "s", "solve_ms_p50": "ms", "solve_ms_p90": "ms", "ok_share": "share",
    "peak_rss_mb": "MB", "setup_s": "s", "integral_share": "share", "trace.overhead_s": "s",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("share"):
        return "share"
    return "count"


def _timed_set_up(workload, seed):
    t0 = time.perf_counter()
    from lps import cli

    equations = set_up(workload, seed)
    return time.perf_counter() - t0, cli, equations


def _child_set_up_s(workload, seed) -> float:
    """Set-up time of a fresh process, import included."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def _check(cli, eq, code, report, checked) -> bool:
    """Check one solve.  The first output of each equation goes through the
    full reference check; a repeat must equal that checked output."""
    seen = (code, json.dumps(report, sort_keys=True))
    if eq.name not in checked:
        checked[eq.name] = (seen, check(cli, eq, code, report))
    first, ok = checked[eq.name]
    return ok and seen == first


def _run_pass(cli, equations, tracer, checked):
    """Solve every equation once; returns the pass record.  Checks run
    after the timed solves, with the tracer uninstalled."""
    outputs = []
    if tracer is not None:
        tracer.spans.clear()
        tracer.install()
    try:
        for i, eq in enumerate(equations):
            argv = list(eq.args) + [eq.text]
            t0 = time.perf_counter()
            if tracer is None:
                code, out = call(cli, argv)
            else:
                code, out = tracer.root(i, call, cli, argv)
            outputs.append((time.perf_counter() - t0, code, out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"latency_ms": [], "failed": [], "stages": dict.fromkeys(STAGES, 0.0),
              "first_order": 0, "integrals": 0}
    for eq, (seconds, code, out) in zip(equations, outputs):
        record["latency_ms"].append(seconds * 1000)
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        timings = report.pop("timings_ms", {}) if report else {}
        if not _check(cli, eq, code, report, checked):
            record["failed"].append(eq.name)
        for stage in STAGES:
            record["stages"][stage] += timings.get(stage, 0.0)
        if eq.order == 1:
            record["first_order"] += 1
            record["integrals"] += bool(report and report["first_integral"]
                                        and report["verified"]["integral"] is True)
    record["wall_s"] = sum(record["latency_ms"]) / 1000
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["self_ms"] = tracing.self_times(tracer.spans)
    return record


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    samples = [_child_set_up_s(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    own, cli, equations = _timed_set_up(workload, seed)
    samples.append(own)

    tracer = tracing.Tracer() if trace else None
    checked = {}
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(_run_pass(cli, equations, tracer if traced else None, checked))
        last = time.perf_counter() - t0
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + last > seconds:
            break

    attempted = len(equations) * len(passes)
    failed = [name for p in passes for name in p["failed"]]
    plain = [p for p in passes if "layers" not in p]
    if not trace:
        # each equation's latency is its median over passes, which takes
        # most of the machine's second-to-second noise out of the percentiles
        latency = [statistics.median(p["latency_ms"][i] for p in plain)
                   for i in range(len(equations))]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "solve_ms_p50": statistics.median(latency),
            "solve_ms_p90": _p90(latency),
            "ok_share": (attempted - len(failed)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(samples),
        }
        notes = {}
    else:
        traced = [p for p in passes if "layers" in p]
        metrics = {f"stage.{s}_ms": statistics.median(p["stages"][s] for p in plain)
                   for s in STAGES}
        metrics.update(tracing.median_metrics([p["layers"] for p in traced]))
        first_order = sum(p["first_order"] for p in passes)
        metrics["integral_share"] = (
            sum(p["integrals"] for p in passes) / first_order if first_order else 0.0)
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
        missing = [layer for layer in workload.layers
                   if not any(layer in p["self_ms"] for p in traced)]
        if missing:
            raise RuntimeError(f"{workload.name}: no spans recorded for {', '.join(missing)}")
        selfs = tracing.median_metrics([p["self_ms"] for p in traced])
        total = sum(selfs.values())
        notes = {"self_share": {k: round(v / total, 4) for k, v in
                                sorted(selfs.items(), key=lambda kv: -kv[1])}}
    notes.update(passes=len(passes), equations=len(equations),
                 walls=[round(p["wall_s"], 3) for p in passes],
                 failed=sorted(set(failed)))
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "notes": notes,
    }


def _environment() -> str:
    import numpy

    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}")


def _print_result(name: str, result: dict) -> None:
    notes = result["notes"]
    print(f"== {name}: {notes['passes']} passes of {notes['equations']} equations, "
          f"{result['attempted']} solves, {result['failed']} failed; pass wall_s {notes['walls']}")
    for key, m in result["metrics"].items():
        print(f"  {key:38} {m['value']:>14.4f} {m['unit']}")
    if "self_share" in notes:
        print("  self-time share per layer (traced passes):")
        for layer, share in notes["self_share"].items():
            print(f"    {layer:36} {share:7.1%}")
    if notes["failed"]:
        print(f"  failed: {', '.join(notes['failed'])}")


def _run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"== {name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the program's own __debug__ re-verifications
        print("run.py: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "lps").is_dir():
        print(f"run.py: no lps sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(_timed_set_up(workload, args.seed)[0])
        return 0
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(f"# {_environment()}")
    _print_result(workload.name, result)
    del result["notes"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
