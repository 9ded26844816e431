"""Outside-in span tracing for the lps pipeline.

The program is not instrumented.  Instead, each layer's public function
is wrapped here and the wrapper is rebound in every loaded `lps` module
that holds the original (for example `nullspace` lives in `linalg`,
`solver`, `darboux` and `synth`), so calls made through any import path
are recorded.  Spans are kept in memory with their parent and the id of
the equation being solved; a layer's self time is its span time minus
the time of its direct child spans.
"""

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, function, layer name).  lps_search and lps2_search are both
# "the search", one per equation order.
LAYERS = (
    ("parser", "parse_ode", "parser.parse_ode"),
    ("solver", "lps_search", "solver.search"),
    ("solver", "lps2_search", "solver.search"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("poly", "mpoly_gcd", "poly.mpoly_gcd"),
    ("poly", "squarefree_decompose", "poly.squarefree"),
    ("factor", "factor_multivariate", "factor.factor_multivariate"),
    ("factor", "darboux_check", "factor.darboux_check"),
    ("factor", "degree1_dp_search", "factor.degree1_dp_search"),
    ("unifactor", "zassenhaus", "unifactor.zassenhaus"),
    ("darboux", "reconstruct_first_integral", "darboux.reconstruct"),
    ("darboux", "verify_first_integral", "darboux.verify_first_integral"),
)

# The benchmark's own span around each `lps solve`; its self time is the
# work no wrapped layer covers (field set-up, closedness checks, output).
ROOT = "cli.main"


@dataclass
class Span:
    layer: str
    parent: int | None
    equation: int
    nested: bool  # inside another span of the same layer
    ms: float = 0.0
    info: dict = field(default_factory=dict)


def _nullspace_info(args, kwargs, result) -> dict:
    """Shape of the system and the engine `linalg.nullspace` picks for it
    (its own rule: "auto" means exact up to _EXACT_CELL_LIMIT cells)."""
    mat = args[0]
    engine = kwargs.get("engine", args[1] if len(args) > 1 else "auto")
    cells = mat.nrows * mat.ncols
    if engine == "auto":
        limit = sys.modules["lps.linalg"]._EXACT_CELL_LIMIT
        engine = "exact" if cells <= limit else "modular"
    return {
        "rows": mat.nrows,
        "cols": mat.ncols,
        "nnz": len(mat.entries),
        "engine": engine if mat.ncols else "none",
        "empty": not result,
    }


_INFO = {
    "linalg.nullspace": _nullspace_info,
    "factor.darboux_check": lambda args, kwargs, result: {"hit": result is not None},
    "darboux.reconstruct": lambda args, kwargs, result: {"found": result is not None},
}


class Tracer:
    """Records spans while installed; `install` and `uninstall` rebind the
    wrappers in and out of every loaded lps module."""

    def __init__(self):
        self.spans: list[Span] = []
        self.equation = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._bound: list[tuple[object, str, object]] = []

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        depth = self._depth.get(layer, 0)
        self.spans.append(Span(layer, parent, self.equation, depth > 0))
        self._depth[layer] = depth + 1
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, t0: float) -> None:
        span = self.spans[index]
        span.ms = (time.perf_counter() - t0) * 1000
        self._stack.pop()
        self._depth[span.layer] -= 1

    def wrap(self, layer: str, fn):
        info = _INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, t0)
            if info is not None:
                self.spans[index].info = info(args, kwargs, result)
            return result

        return traced

    def root(self, equation: int, fn, *args):
        """Call fn(*args) as the root span of one equation."""
        self.equation = equation
        index = self._open(ROOT)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(index, t0)

    def install(self) -> None:
        """Rebind every layer function in each lps module that holds it.
        Fails if any lps module still holds an original afterwards."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "lps" or name.startswith("lps."))
        }
        originals = []
        for module, name, layer in LAYERS:
            original = getattr(modules[f"lps.{module}"], name)
            originals.append(original)
            wrapper = self.wrap(layer, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bound.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for mod_name, mod in modules.items():
            for attr, value in vars(mod).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"{mod_name}.{attr} escaped the tracer")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: span time minus direct children's time."""
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] += span.ms
    out: dict[str, float] = {}
    for span, children in zip(spans, child_ms):
        out[span.layer] = out.get(span.layer, 0.0) + span.ms - children
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
        if not span.nested:
            ms[span.layer] = ms.get(span.layer, 0.0) + span.ms

    def share(layer, key):
        hits = [s.info[key] for s in spans if s.layer == layer]
        return sum(hits) / len(hits) if hits else 0.0

    null = [s for s in spans if s.layer == "linalg.nullspace"]
    rungs = [s for s in null if s.parent is not None and spans[s.parent].layer == "solver.search"]
    last_rungs = {}
    for s in rungs:
        last_rungs[s.parent] = s
    last = max(last_rungs.values(), key=lambda s: s.info["rows"] * s.info["cols"], default=None)

    return {
        "poly.mpoly_gcd.ms": ms.get("poly.mpoly_gcd", 0.0),
        "poly.mpoly_gcd.calls": calls.get("poly.mpoly_gcd", 0),
        "poly.squarefree.ms": ms.get("poly.squarefree", 0.0),
        "poly.squarefree.calls": calls.get("poly.squarefree", 0),
        "linalg.nullspace.ms": ms.get("linalg.nullspace", 0.0),
        "linalg.nullspace.calls": len(null),
        "linalg.exact_calls": sum(s.info["engine"] == "exact" for s in null),
        "linalg.modular_calls": sum(s.info["engine"] == "modular" for s in null),
        "linalg.empty_share": share("linalg.nullspace", "empty"),
        "linalg.max_cells": max((s.info["rows"] * s.info["cols"] for s in null), default=0),
        "solver.search.self_ms": selfs.get("solver.search", 0.0),
        "solver.rungs": len(rungs),
        "solver.last_rung.rows": last.info["rows"] if last else 0,
        "solver.last_rung.cols": last.info["cols"] if last else 0,
        "solver.last_rung.nnz": last.info["nnz"] if last else 0,
        "factor.degree1_dp_search.ms": ms.get("factor.degree1_dp_search", 0.0),
        "factor.factor_multivariate.self_ms": selfs.get("factor.factor_multivariate", 0.0),
        "factor.factor_multivariate.calls": calls.get("factor.factor_multivariate", 0),
        "factor.darboux_check.ms": ms.get("factor.darboux_check", 0.0),
        "factor.darboux_check.calls": calls.get("factor.darboux_check", 0),
        "factor.darboux_check.hit_share": share("factor.darboux_check", "hit"),
        "unifactor.zassenhaus.ms": ms.get("unifactor.zassenhaus", 0.0),
        "unifactor.zassenhaus.calls": calls.get("unifactor.zassenhaus", 0),
        "darboux.reconstruct.self_ms": selfs.get("darboux.reconstruct", 0.0),
        "darboux.reconstruct.calls": calls.get("darboux.reconstruct", 0),
        "darboux.reconstruct.found_share": share("darboux.reconstruct", "found"),
        "darboux.verify_first_integral.ms": ms.get("darboux.verify_first_integral", 0.0),
        "parser.parse_ode.ms": ms.get("parser.parse_ode", 0.0),
        "cli.main.self_ms": selfs.get(ROOT, 0.0),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
