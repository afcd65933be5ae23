"""Per-layer figures from the traced run, the health counters and the client.

Inputs:

* spans from ``traced_serve.py`` — ``[name, trace_id, depth, duration_s,
  self_s, extra]`` rows; only rows whose trace id is one of the timed
  requests count;
* the client's samples of the same requests (latency, payload);
* ``/v1/health`` snapshots taken just before and after the timed phase.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.mplp import parametric_tile_exponent

#: Spans that are a request's top-level layers on the handler thread.
TOP_LEVEL = ("Request.from_json", "Session.")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def health_delta(before: dict, after: dict) -> dict:
    """Counter deltas of one timed phase, from two /v1/health bodies."""
    b, a = before["payload"], after["payload"]
    delta = {key: a["planner_stats"][key] - b["planner_stats"][key] for key in a["planner_stats"]}
    for key in ("hits", "misses"):
        delta[f"response_{key}"] = (
            a["server"]["response_cache"][key] - b["server"]["response_cache"][key]
        )
    delta["server_coalesced"] = a["server"]["coalesced"] - b["server"]["coalesced"]
    return delta


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def enumerate_sample(structures: list[dict], limit: int = 3) -> list[dict]:
    """Time the unpruned vertex enumeration of up to ``limit`` of the
    structures the server solved, in this process, and count their
    dual vertices."""
    if not structures:
        return []
    step = max(1, len(structures) // limit)
    out = []
    for entry in structures[::step][:limit]:
        depth = entry["depth"]
        nest = LoopNest(
            name="canonical",
            loops=tuple(f"x{i}" for i in range(depth)),
            bounds=(2,) * depth,
            arrays=tuple(ArrayRef(f"A{j}", tuple(s)) for j, s in enumerate(entry["supports"])),
        )
        started = time.perf_counter()
        pvf = parametric_tile_exponent(nest, prune=False)
        out.append({"enumerate_s": time.perf_counter() - started, "vertices": len(pvf.pieces)})
    return out


def per_layer(spans: list, samples: list, health: dict, traced_rps: float,
              untraced_rps: float) -> dict:
    """Every per-layer metric of one traced phase (values in their units)."""
    # Wall time, as the server's spans also count any time it was stopped
    # for a probe.
    latency = {s.trace_id: s.wall_s for s in samples}
    by_name: dict[str, list] = defaultdict(list)
    top_total: dict[str, float] = defaultdict(float)
    session_total: dict[str, float] = defaultdict(float)
    payload_build: dict[str, float] = defaultdict(float)
    prune: dict[str, float] = defaultdict(float)
    for name, trace_id, depth, duration, self_s, extra in spans:
        if trace_id not in latency:
            continue
        by_name[name].append((duration, self_s, extra))
        if depth == 0 and name.startswith(TOP_LEVEL):
            top_total[trace_id] += duration
            if name.startswith("Session."):
                session_total[trace_id] += duration
        if name in ("TilePlan.to_json", "json_safe"):
            payload_build[trace_id] += duration
        elif name == "prune.solve_lp":
            prune[trace_id] += duration

    def durations(name, scale):
        return [d * scale for d, _, _ in by_name.get(name, ())]

    def selfs(prefix, scale):
        return [s * scale for name, rows in by_name.items() if name.startswith(prefix)
                for _, s, _ in rows]

    solves = by_name.get("parametric_tile_exponent", [])
    sims = by_name.get("run_trace_simulation", [])
    enumerated = enumerate_sample([extra for _, _, extra in solves if extra is not None])
    lp_solves = by_name.get("solve_lp", []) + by_name.get("prune.solve_lp", [])
    tuned, programs = [], []
    for sample in samples:
        if sample.body and sample.kind in ("tune", "hierarchy", "program"):
            payload = json.loads(sample.body)["payload"]
            if sample.kind == "program":
                programs.append(payload["num_bands"])
            else:
                tuned.append(payload["evaluations_used"])
    total_latency = sum(latency.values())
    return {
        "serve.self_us_p50": percentile(
            [(lat - session_total.get(tid, 0.0)) * 1e6 for tid, lat in latency.items()], 0.5),
        "serve.response_cache_hit_share": _share(
            health["response_hits"], health["response_hits"] + health["response_misses"]),
        "serve.coalesced": health["server_coalesced"] + health["coalesced"],
        "api.request_from_json_us_p50": percentile(durations("Request.from_json", 1e6), 0.5),
        "api.payload_build_us_p50": percentile([v * 1e6 for v in payload_build.values()], 0.5),
        "api.session_self_us_p50": percentile(selfs("Session.", 1e6), 0.5),
        "plan.plan_self_us_p50": percentile(selfs("Planner.plan", 1e6), 0.5),
        "plan.certificate_us_p50": percentile(durations("Planner.certificate", 1e6), 0.5),
        "plan.structure_hit_share": _share(
            health["structure_hits"], health["structure_hits"] + health["structure_solves"]),
        "plan.primal_map_hit_share": _share(
            health["primal_map_hits"], health["primal_map_hits"] + health["primal_lp_solves"]),
        "plan.structure_solves": health["structure_solves"],
        "core.mplp_solve_ms_p50": percentile(durations("parametric_tile_exponent", 1e3), 0.5),
        "core.mplp_solve_ms_p90": percentile(durations("parametric_tile_exponent", 1e3), 0.9),
        "core.mplp_enumerate_ms_p50": percentile(
            [e["enumerate_s"] * 1e3 for e in enumerated], 0.5),
        "core.mplp_prune_ms_p50": percentile([v * 1e3 for v in prune.values()], 0.5),
        "core.lp_solves": len(lp_solves),
        "core.lp_solve_us_p50": percentile([d * 1e6 for d, _, _ in lp_solves], 0.5),
        "core.canonicalize_us_p50": percentile(durations("Planner.canonicalization", 1e6), 0.5),
        "core.integer_repair_us_p50": percentile(durations("integer_repair", 1e6), 0.5),
        "core.lower_bound_us_p50": percentile(durations("lower_bound_from_k_hat", 1e6), 0.5),
        "core.dual_vertices_per_structure": _share(
            sum(e["vertices"] for e in enumerated), len(enumerated)),
        "core.essential_pieces_per_structure": _share(
            sum(extra["pieces"] for _, _, extra in solves if extra), len(solves)),
        "frontend.parse_us_p50": percentile(durations("parse_program", 1e6), 0.5),
        "frontend.split_bands_us_p50": percentile(durations("split_bands", 1e6), 0.5),
        "frontend.bands_per_program": _share(sum(programs), len(programs)),
        "parallel.simulate_grid_us_p50": percentile(durations("simulate_grid", 1e6), 0.5),
        "tune.evaluate_ms_p50": percentile(durations("evaluate_candidates", 1e3), 0.5),
        "tune.self_ms_p50": percentile(selfs("tune_", 1e3), 0.5),
        "tune.candidates_per_request": _share(sum(tuned), len(tuned)),
        "simulate.run_trace_simulation_ms_p50": percentile(
            durations("run_trace_simulation", 1e3), 0.5),
        "simulate.miss_curve_ms_p50": percentile(durations("nest_miss_curve", 1e3), 0.5),
        "simulate.accesses_per_s": _share(
            sum(extra or 0 for _, _, extra in sims), sum(d for d, _, _ in sims)),
        "machine.stack_distances_ms_p50": percentile(durations("stack_distances", 1e3), 0.5),
        "trace.coverage_share": _share(sum(top_total.values()), total_latency),
        "trace.overhead_share": 1.0 - _share(traced_rps, untraced_rps),
    }
