"""``repro-tile serve`` at its CLI defaults, with per-layer spans recorded.

Usage: ``python3 perfbench/traced_serve.py SPANS_JSON``

Before handing over to the CLI, this launcher wraps the public entry
point of every layer with a timer.  Each name is patched where it is
looked up (``repro.plan.planner.parametric_tile_exponent``, not only
``repro.core.mplp``), so the calls the server really makes are the ones
timed.  Spans are kept per thread in memory; a span's self time is its
duration minus its children's.  SIGTERM takes the server's graceful
shutdown path, after which the spans are written to ``SPANS_JSON`` as a
list of ``[name, trace_id, depth, duration_s, self_s, extra]`` rows.
``trace_id`` is the request's ``X-Trace-Id`` (the client sets it), which
ties spans to the client's own latency for the same request.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import current_trace  # noqa: E402

_local = threading.local()
#: list.append is atomic under the GIL, so handler threads share it.
_records: list = []


def _timed(name: str, fn, extra=None):
    """``fn`` wrapped in a span; ``extra(result, args)`` annotates it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        trace = current_trace()
        stack.append(0.0)
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - t0
            children = stack.pop()
            if stack:
                stack[-1] += duration
            note = extra(result, args) if extra is not None and result is not None else None
            _records.append((
                name,
                trace.trace_id if trace is not None else None,
                len(stack),
                duration,
                duration - children,
                note,
            ))

    return wrapper


def _patch_functions(name: str, attr: str, modules: list[str], extra=None) -> None:
    for module_name in modules:
        module = importlib.import_module(module_name)
        setattr(module, attr, _timed(name, getattr(module, attr), extra))


def _patch_methods(cls, attrs: list[str], prefix: str) -> None:
    for attr in attrs:
        setattr(cls, attr, _timed(f"{prefix}.{attr}", cls.__dict__[attr]))


def _patch_classmethod(cls, attr: str, name: str) -> None:
    setattr(cls, attr, classmethod(_timed(name, cls.__dict__[attr].__func__)))


def _structure(result, args):
    nest = args[0]
    return {
        "pieces": len(result.pieces),
        "depth": nest.depth,
        "supports": [list(arr.support) for arr in nest.arrays],
    }


def install() -> None:
    from repro.api import requests as api_requests
    from repro.api.session import Session
    from repro.core.lp import LinearProgram
    from repro.plan.planner import Planner, TilePlan

    _patch_methods(
        Session,
        ["analyze", "batch", "sweep", "simulate", "tune", "hierarchy", "program", "distributed"],
        "Session",
    )
    for cls_name in ("AnalyzeRequest", "SimulateRequest", "SweepRequest", "TuneRequest",
                     "HierarchyRequest", "ProgramRequest", "DistributedRequest"):
        _patch_classmethod(getattr(api_requests, cls_name), "from_json", "Request.from_json")
    _patch_methods(Planner, ["plan", "certificate", "canonicalization"], "Planner")
    _patch_methods(LinearProgram, ["solve"], "LinearProgram")
    _patch_methods(TilePlan, ["to_json"], "TilePlan")
    _patch_functions("canonicalize", "canonicalize", ["repro.plan.planner"])
    _patch_functions(
        "parametric_tile_exponent", "parametric_tile_exponent",
        ["repro.plan.planner", "repro.plan.batch"], _structure,
    )
    # The mpLP prune is exactly its solve_lp calls; the rest of a solve
    # is vertex enumeration.
    _patch_functions("prune.solve_lp", "solve_lp", ["repro.core.mplp"])
    _patch_functions("solve_lp", "solve_lp", ["repro.core.lp"])
    _patch_functions("integer_repair", "integer_repair", ["repro.plan.planner", "repro.core.integer"])
    _patch_functions(
        "lower_bound_from_k_hat", "lower_bound_from_k_hat", ["repro.plan.planner", "repro.core.bounds"]
    )
    _patch_functions("json_safe", "json_safe", ["repro.api.result"])
    _patch_functions("parse_program", "parse_program", ["repro.frontend.program", "repro.api.requests"])
    _patch_functions("split_bands", "split_bands", ["repro.api.requests", "repro.frontend.pipeline"])
    _patch_functions("simulate_grid", "simulate_grid", ["repro.api.session"])
    _patch_functions("tune_tile", "tune_tile", ["repro.api.session", "repro.frontend.pipeline"])
    _patch_functions("tune_hierarchy", "tune_hierarchy", ["repro.api.session"])
    _patch_functions("evaluate_candidates", "evaluate_candidates", ["repro.tune.search"])
    _patch_functions(
        "run_trace_simulation", "run_trace_simulation", ["repro.api.session"],
        lambda result, args: result.meta.get("accesses"),
    )
    _patch_functions(
        "nest_miss_curve", "nest_miss_curve", ["repro.tune.evaluate", "repro.simulate.multilevel"]
    )
    _patch_functions("stack_distances", "stack_distances", ["repro.machine.cache"])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: traced_serve.py SPANS_JSON", file=sys.stderr)
        return 2
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", "--port", "0", "--quiet"])
    finally:
        Path(argv[0]).write_text(json.dumps(_records))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
