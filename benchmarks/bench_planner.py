"""E17: the plan cache — structure sharing turns solves into lookups.

The service claim of the plan subsystem: a warm cache answers
structurally-shared queries (same projection pattern, arbitrary bounds
and cache sizes) an order of magnitude faster than per-query LP solves,
*exactly* (every warm answer is certified by the strong-duality guard).

This bench builds a compiler-shaped workload — >= 120 queries across a
handful of canonical structures, mixed bounds and cache sizes — and
measures:

* cold: per-query ``solve_tiling`` (what the pre-plan code paths did),
* cold+bound: ``solve_tiling`` + ``communication_lower_bound`` (the
  true per-query cost of what a plan contains),
* warm engine: a ``Planner.plan`` loop over the requests against the
  pre-warmed planner (the raw cache lookup path),
* warm service: ``repro.api.Session.batch`` — the full façade path,
  versioned Result envelope construction included,

and emits ``benchmarks/results/BENCH_planner.json`` with the measured
ratios plus cache-effectiveness counters, so future PRs can track the
service's trajectory.

A second leg times fresh cold solves: a new ``Planner`` answers one
query per distinct catalog structure, best of several passes, as
``cold_structures.structures_per_second`` (gated in CI as
``planner.cold_structures_per_second``).

A third leg, ``warm_novel_queries_per_second`` (not gated), sends warm
structures bounds that no earlier query used.  The warm leg replays the
same requests, so its betas come from the planner's log memo; here each
one pays ``log_ratio``, as a never-seen request to the service does.
"""

import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

from repro import canonical_key
from repro.api import AnalyzeRequest, Session

# The cold baselines measure the raw per-query solvers the façade
# replaced; imported under explicit names to mark them as baselines.
from repro.core.bounds import communication_lower_bound as cold_lower_bound
from repro.core.tiling import solve_tiling as cold_solve
from repro.library.problems import (
    catalog,
    fully_connected,
    matmul,
    mttkrp,
    nbody,
    pointwise_conv,
    syrk,
)
from repro.plan import Planner

RESULTS = Path(__file__).parent / "results"

_POW2 = [16, 64, 256, 1024, 4096]
_ODD = [12, 100, 500, 3000]


def _write_bench_json(update: dict, smoke: bool) -> None:
    """Merge ``update`` into BENCH_planner.json: in ``$REPRO_BENCH_DIR``
    (any mode; the CI regression gate reads fresh smoke numbers there)
    and, outside smoke mode, in the committed results."""
    out_dirs = [Path(d) for d in (os.environ.get("REPRO_BENCH_DIR"),) if d]
    if not smoke:
        out_dirs.append(RESULTS)
    for out_dir in out_dirs:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "BENCH_planner.json"
        payload = json.loads(path.read_text()) if path.exists() else {}
        payload.update(update)
        path.write_text(json.dumps(payload, indent=2) + "\n")


def _workload(rng: random.Random, count: int) -> list[AnalyzeRequest]:
    """A compiler-batch-shaped query mix over five canonical structures."""

    def size() -> int:
        return rng.choice(_POW2 if rng.random() < 0.7 else _ODD)

    makers = [
        lambda: matmul(size(), size(), size()),
        lambda: syrk(size(), size()),
        lambda: fully_connected(size(), size(), size()),
        lambda: mttkrp(size(), size(), size(), rng.choice([8, 16, 32])),
        lambda: pointwise_conv(rng.choice([4, 8]), size(), size(), 28, 28),
        lambda: nbody(size(), size()),
    ]
    out = []
    for idx in range(count):
        nest = makers[idx % len(makers)]()
        out.append(AnalyzeRequest(nest=nest, cache_words=rng.choice([2**12, 2**14, 2**16])))
    return out


def test_e17_warm_cache_speedup_json(table, smoke):
    rng = random.Random("bench-planner")
    n_queries = 12 if smoke else 120
    requests = _workload(rng, n_queries)

    session = Session()
    session.batch(requests)  # warm the cache
    warm_stats_before = dict(session.stats.as_dict())

    # Smoke repeats the tiny warm workload so the CI regression gate
    # compares a stable number, not a 12-query timing blip.
    passes = 10 if smoke else 1

    t0 = time.perf_counter()
    for _ in range(passes):
        results = session.batch(requests)
    t_warm = (time.perf_counter() - t0) / passes

    planner = session.planner
    t0 = time.perf_counter()
    for _ in range(passes):
        for r in requests:
            planner.plan(r.nest, r.cache_words, r.budget)
    t_warm_engine = (time.perf_counter() - t0) / passes

    t0 = time.perf_counter()
    cold = [cold_solve(r.nest, r.cache_words, budget=r.budget) for r in requests]
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    for r in requests:
        cold_solve(r.nest, r.cache_words, budget=r.budget)
        cold_lower_bound(r.nest, r.cache_words)
    t_cold_bound = time.perf_counter() - t0

    # Exactness before speed: every warm plan matches the cold solve.
    for result, sol in zip(results, cold):
        plan = result.detail
        assert result.schema_version == 1
        assert plan.exponent == sol.exponent
        assert plan.tile.is_feasible(plan.cache_words, plan.budget)
        assert sum(plan.lambdas, Fraction(0)) == plan.exponent

    stats = session.stats.as_dict()
    structures = len(session.planner.cached_keys())
    speedup = t_cold / t_warm
    speedup_with_bound = t_cold_bound / t_warm
    speedup_engine = t_cold / t_warm_engine

    t = table("e17_planner", ["quantity", "value"])
    t.add("queries", n_queries)
    t.add("distinct structures", structures)
    t.add("cold solve_tiling", f"{t_cold * 1000 / n_queries:.3f} ms/query")
    t.add("cold + lower bound", f"{t_cold_bound * 1000 / n_queries:.3f} ms/query")
    t.add("warm engine (Planner.plan loop)", f"{t_warm_engine * 1000 / n_queries:.3f} ms/query")
    t.add("warm service (Session.batch)", f"{t_warm * 1000 / n_queries:.3f} ms/query")
    t.add("engine speedup vs solve_tiling", f"{speedup_engine:.1f}x")
    t.add("service speedup vs solve_tiling", f"{speedup:.1f}x")
    t.add("service speedup vs solve+bound", f"{speedup_with_bound:.1f}x")

    payload = {
        "experiment": "planner_warm_cache",
        "queries": n_queries,
        "distinct_structures": structures,
        "cold": {
            "what": "per-query solve_tiling",
            "seconds": round(t_cold, 4),
            "ms_per_query": round(t_cold * 1000 / n_queries, 4),
        },
        "cold_with_bound": {
            "what": "per-query solve_tiling + communication_lower_bound",
            "seconds": round(t_cold_bound, 4),
            "ms_per_query": round(t_cold_bound * 1000 / n_queries, 4),
        },
        "warm_engine": {
            "what": "Planner.plan loop on the warm planner (tile + exponent + bound)",
            "seconds": round(t_warm_engine, 4),
            "ms_per_query": round(t_warm_engine * 1000 / n_queries, 4),
        },
        "warm": {
            "what": "Session.batch on a warm session (engine + versioned envelope)",
            "seconds": round(t_warm, 4),
            "ms_per_query": round(t_warm * 1000 / n_queries, 4),
        },
        "speedup_engine_vs_solve_tiling": round(speedup_engine, 2),
        "speedup_vs_solve_tiling": round(speedup, 2),
        "speedup_vs_solve_plus_bound": round(speedup_with_bound, 2),
        "warm_batch_stats": {
            k: stats[k] - warm_stats_before[k] for k in stats
        },
        "planner_stats_total": stats,
    }
    payload["warm_queries_per_second"] = round(n_queries / t_warm, 1)
    _write_bench_json(payload, smoke)
    # The warm batch re-solved nothing (any mode).
    assert stats["structure_solves"] == warm_stats_before["structure_solves"]
    if not smoke:
        assert n_queries >= 100
        assert speedup_engine >= 10.0, payload
        # The full service path adds envelope construction (~50us/query);
        # it must stay within 2x of the raw engine and >=7x over cold.
        assert speedup >= 7.0, payload
        assert t_warm <= 2.0 * t_warm_engine + 0.05, payload


def _novel_workload(rng: random.Random, count: int, used: set[int]) -> list[AnalyzeRequest]:
    """``_workload``'s structures with bounds no earlier query used.

    Every bound is fresh, so each beta misses the planner's log memo and
    pays ``log_ratio`` in full — the cost the repeated warm leg hides.
    """

    def size() -> int:
        while True:
            value = int(2 ** rng.uniform(3, 12))
            if value not in used:
                used.add(value)
                return value

    makers = [
        lambda: matmul(size(), size(), size()),
        lambda: syrk(size(), size()),
        lambda: fully_connected(size(), size(), size()),
        lambda: mttkrp(size(), size(), size(), size()),
        lambda: nbody(size(), size()),
    ]
    caches = [2**12, 2**14, 2**16]
    return [
        AnalyzeRequest(nest=makers[idx % len(makers)](), cache_words=rng.choice(caches))
        for idx in range(count)
    ]


def test_e17_warm_novel_queries_per_second(table, smoke):
    """Warm structures, never-repeated bounds: the β cost the memo hides."""
    rng = random.Random("bench-planner-novel")
    used: set[int] = set(_POW2 + _ODD)
    n_queries = 60 if smoke else 240
    session = Session()
    # Warm structures and warm-start bases on a separate novel sample.
    session.batch(_novel_workload(rng, n_queries, used))
    before = session.stats.as_dict()
    passes = 5 if smoke else 3
    batches = [_novel_workload(rng, n_queries, used) for _ in range(passes)]
    t0 = time.perf_counter()
    for requests in batches:
        session.batch(requests)
    elapsed = time.perf_counter() - t0
    stats = session.stats.as_dict()
    assert stats["structure_solves"] == before["structure_solves"]
    total = n_queries * passes
    rate = total / elapsed

    t = table("e17_warm_novel", ["quantity", "value"])
    t.add("queries (every bound fresh)", total)
    t.add("warm service (Session.batch)", f"{elapsed * 1000 / total:.3f} ms/query")
    t.add("warm novel queries per second", f"{rate:.1f}")
    _write_bench_json(
        {
            "warm_novel": {
                "what": "Session.batch on warm structures, every loop bound never seen before",
                "queries": total,
                "seconds": round(elapsed, 4),
                "ms_per_query": round(elapsed * 1000 / total, 4),
                "primal_lp_solves": stats["primal_lp_solves"] - before["primal_lp_solves"],
            },
            "warm_novel_queries_per_second": round(rate, 1),
        },
        smoke,
    )


def test_e17_cold_structures_per_second(table, smoke):
    """Fresh cold solves: one planner query per distinct catalog structure."""
    nests = {}
    for nest in catalog().values():
        nests.setdefault(canonical_key(nest), nest)
    passes = 3 if smoke else 5
    best = float("inf")
    for _ in range(passes):
        planner = Planner()
        t0 = time.perf_counter()
        for nest in nests.values():
            planner.plan(nest, 2**14)
        best = min(best, time.perf_counter() - t0)
        assert planner.stats.structure_solves == len(nests)
    rate = len(nests) / best

    t = table("e17_cold_structures", ["quantity", "value"])
    t.add("distinct catalog structures", len(nests))
    t.add("passes (best kept)", passes)
    t.add("cold pass", f"{best * 1000:.1f} ms")
    t.add("cold structures per second", f"{rate:.1f}")
    _write_bench_json(
        {
            "cold_structures": {
                "what": "fresh Planner, one query per distinct catalog structure",
                "structures": len(nests),
                "passes": passes,
                "best_pass_seconds": round(best, 4),
                "structures_per_second": round(rate, 1),
            }
        },
        smoke,
    )


def test_e17_structure_sharing_across_disguises(table, smoke):
    """matmul/syrk/fully_connected (and any loop order) share one entry."""
    planner = Planner()
    rng = random.Random("share")
    queries = 6 if smoke else 30
    for _ in range(queries):
        base = rng.choice([matmul(64, 64, 64), syrk(64, 64), fully_connected(64, 64, 64)])
        order = list(range(base.depth))
        rng.shuffle(order)
        nest = base.permuted(order).with_bounds(
            [rng.choice([16, 256, 2048]) for _ in range(base.depth)]
        )
        plan = planner.plan(nest, 2**14)
        assert plan.exponent == cold_solve(nest, 2**14).exponent
    stats = planner.stats.as_dict()
    t = table("e17_sharing", ["quantity", "value"])
    t.add("queries", queries)
    t.add("structure solves", stats["structure_solves"])
    t.add("structure hits", stats["structure_hits"])
    assert stats["structure_solves"] == 1
    assert stats["structure_hits"] == queries - 1
