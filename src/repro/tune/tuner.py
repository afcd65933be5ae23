"""The autotuning entry point: analytic seed -> budgeted search -> report.

:func:`tune_tile` is the orchestration every service surface calls:

1. **Seed.** Ask the plan cache (:class:`~repro.plan.Planner`) for the
   Theorem-3 optimum and its :func:`~repro.core.tiling.integer_repair`
   rounding — the analytically best rectangle, and the baseline every
   tuned plan must beat or match.
2. **Search.** Run one strategy (:mod:`repro.tune.search`) over the
   candidate lattice (:mod:`repro.tune.space`), scoring candidates with
   the one-pass trace simulator (:mod:`repro.tune.evaluate`) at every
   capacity of the Pareto axis simultaneously.
3. **Certify.** Price the Theorem lower bound at each capacity through
   the same plan cache (piecewise evaluation — no LP solve when warm)
   and report certificate ratios ``measured / bound``; the ratio at the
   tuning capacity is the report's headline number.

The whole run is deterministic for a fixed request (the random strategy
is seeded), which is what makes ``Session.tune``, ``/v1/tune`` and
``repro-tile tune`` return byte-identical payloads.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..core.bounds import lower_bound_from_k_hat
from ..core.hierarchy import MemoryHierarchy
from ..core.loopnest import LoopNest
from ..core.tiling import BUDGETS, TileShape
from ..plan.planner import Planner, TilePlan
from .result import HierarchyBoundary, HierarchyReport, TuneReport, build_pareto
from .search import STRATEGIES, search_tiles

__all__ = ["default_capacities", "tune_hierarchy", "tune_tile"]


def default_capacities(cache_words: int) -> tuple[int, ...]:
    """The default Pareto axis: powers of two up to ``cache_words``.

    Starts at 4 (the smallest capacity the plan cache prices) and always
    includes ``cache_words`` itself, so the front spans "tiny cache" to
    "the cache being tuned for".
    """
    caps = {int(cache_words)}
    c = 4
    while c < cache_words:
        caps.add(c)
        c *= 2
    return tuple(sorted(caps))


def tune_tile(
    nest: LoopNest,
    cache_words: int,
    *,
    budget: str = "aggregate",
    strategy: str = "exhaustive",
    max_evaluations: int = 64,
    radius: int = 1,
    capacities: Sequence[int] | None = None,
    include_candidates: bool = False,
    planner: Planner | None = None,
    workers: int | None = None,
    rng_seed: int = 0,
    events: dict | None = None,
) -> TuneReport:
    """Simulation-in-the-loop integer tile autotuning, certified.

    Parameters mirror the request schema (:class:`repro.api.TuneRequest`);
    ``planner`` shares a session's plan cache (seed plan and per-capacity
    bounds are cache hits on warm structures) and defaults to the
    process-wide :func:`repro.api.default_session`'s planner — like
    ``repro.analyze``, repeated top-level calls on structurally
    identical nests never re-run the simplex.  ``workers`` parallelises
    candidate evaluation (``0`` = serial).  ``include_candidates=True``
    attaches every evaluation to the report (the bench and notebooks
    want the full table; the wire default keeps payloads small).

    Returns a :class:`~repro.tune.TuneReport` whose winning tile is
    never worse (in measured traffic at ``cache_words``) than the
    analytically-rounded seed.
    """
    if cache_words < 2:
        raise ValueError("tuning needs cache_words >= 2")
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if planner is None:
        # Deferred import: repro.api.session imports this module, so the
        # dependency can only run at call time (by which point the api
        # package is fully initialised).
        from ..api.session import default_session

        planner = default_session().planner

    seed_plan: TilePlan = planner.plan(nest, cache_words, budget, include_bound=True)
    caps = tuple(sorted(set(default_capacities(cache_words) if capacities is None
                            else (int(c) for c in capacities)) | {int(cache_words)}))
    if any(c < 2 for c in caps):
        raise ValueError("capacities must be >= 2")

    outcome = search_tiles(
        nest,
        cache_words,
        seed_plan.tile.blocks,
        strategy,
        budget_conv=budget,
        max_evaluations=max_evaluations,
        radius=radius,
        capacities=caps,
        workers=workers,
        rng_seed=rng_seed,
        events=events,
    )

    # The lower bound at every capacity of the axis: one cached piece
    # evaluation each (always the paper-model per-array bound, like analyze).
    bounds_by_capacity = {
        capacity: lower_bound_from_k_hat(nest, capacity, planner.exponent(nest, capacity)).value
        for capacity in caps
    }

    seed_eval = outcome.evaluations[0]
    assert seed_eval.blocks == seed_plan.tile.blocks
    winning_plan = replace(
        seed_plan, tile=TileShape(nest=nest, blocks=outcome.best.blocks)
    )
    return TuneReport(
        plan=winning_plan,
        strategy=strategy,
        max_evaluations=max_evaluations,
        evaluations_used=outcome.evaluations_used,
        seed_blocks=seed_plan.tile.blocks,
        seed_traffic_words=seed_eval.traffic_at(cache_words),
        tuned_traffic_words=outcome.best.traffic_at(cache_words),
        lower_bound_words=bounds_by_capacity[int(cache_words)],
        accesses=seed_eval.accesses,
        pareto=build_pareto(outcome.evaluations, caps, bounds_by_capacity),
        candidates=outcome.evaluations if include_candidates else (),
    )


def tune_hierarchy(
    nest: LoopNest,
    hierarchy: "MemoryHierarchy | Sequence[int]",
    *,
    budget: str = "aggregate",
    strategy: str = "exhaustive",
    max_evaluations: int = 1,
    radius: int = 1,
    include_candidates: bool = False,
    planner: Planner | None = None,
    workers: int | None = None,
    rng_seed: int = 0,
    events: dict | None = None,
) -> HierarchyReport:
    """Plan (and optionally tune) a nested tiling for a whole hierarchy.

    The orchestration behind ``Session.hierarchy``, ``/v1/hierarchy``
    and ``repro-tile hierarchy``:

    1. **Plan.**  :meth:`~repro.plan.Planner.plan_hierarchy` answers
       every level from the shared canonical structure (one cached mpLP
       piece evaluation per level; warm across capacity stacks) and
       repairs the integer tiles jointly so levels nest.
    2. **Measure / tune.**  Because the executed schedule is the
       *innermost* tile walk (outer levels only group its tiles), one
       :func:`~repro.simulate.nest_miss_curve` pass prices **every**
       boundary of a candidate at once.  The search minimises the total
       boundary traffic over innermost candidates capped componentwise
       by the next level's tile — candidates never un-nest the
       hierarchy.  ``max_evaluations=1`` measures the analytic seed
       only (the pure serving path).
    3. **Certify.**  Each boundary reports measured traffic against its
       Theorem bound (``certificate_ratio >= 1`` always), and the
       seed-first tie-break guarantees the tuned total never exceeds
       the seed total.

    Deterministic for a fixed request — all three service surfaces
    return byte-identical payloads.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if max_evaluations < 1:
        raise ValueError("max_evaluations must be >= 1")
    if planner is None:
        # Deferred import, same reason as tune_tile (api imports us).
        from ..api.session import default_session

        planner = default_session().planner
    if not isinstance(hierarchy, MemoryHierarchy):
        hierarchy = MemoryHierarchy(capacities=tuple(int(c) for c in hierarchy))

    hplan = planner.plan_hierarchy(nest, hierarchy, budget, include_bound=True)
    capacities = hplan.capacities
    seed = hplan.levels[0].tile.blocks
    ceiling = hplan.levels[1].tile.blocks if len(hplan.levels) > 1 else nest.bounds
    outcome = search_tiles(
        nest,
        capacities[0],
        seed,
        strategy,
        budget_conv=budget,
        max_evaluations=max_evaluations,
        radius=radius,
        capacities=capacities,
        workers=workers,
        rng_seed=rng_seed,
        ceiling=ceiling,
        objective_capacities=capacities,
        events=events,
    )
    seed_eval = outcome.evaluations[0]
    assert seed_eval.blocks == seed
    best = outcome.best
    boundaries = []
    for idx, level in enumerate(hplan.levels):
        plan = level
        if idx == 0 and best.blocks != level.tile.blocks:
            plan = replace(level, tile=TileShape(nest=nest, blocks=best.blocks))
        boundaries.append(
            HierarchyBoundary(
                plan=plan,
                seed_blocks=level.tile.blocks,
                traffic_words=best.traffic_at(level.cache_words),
                seed_traffic_words=seed_eval.traffic_at(level.cache_words),
            )
        )
    return HierarchyReport(
        strategy=strategy,
        max_evaluations=max_evaluations,
        evaluations_used=outcome.evaluations_used,
        accesses=seed_eval.accesses,
        canonical_key=hplan.canonical_key,
        boundaries=tuple(boundaries),
        candidates=outcome.evaluations if include_candidates else (),
    )
