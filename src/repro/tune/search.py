"""Search strategies over the integer tile lattice, budgeted.

Every strategy spends a shared *evaluation budget* (distinct tiles
actually simulated — repeats are memoised and free) and shares one
:class:`BudgetedEvaluator`, so strategies are comparable at equal cost:

* ``"exhaustive"`` — evaluate the whole candidate neighbourhood
  (:func:`repro.tune.space.candidate_tiles`), closest-to-seed first,
  until the budget runs out.  One flat batch: maximally parallel.
* ``"coordinate"`` — descent on *measured traffic*: sweep the
  dimensions, trying each dimension's axis values
  (:func:`repro.tune.space.axis_values`) with the others held fixed,
  move to the best improving tile, repeat to a fixpoint.
* ``"random"`` — seeded random restarts: sample feasible tiles with
  log-uniform blocks (snapped to divisors or powers of two half the
  time), batch-evaluate, keep the best.  Deterministic for a fixed
  ``rng_seed``, so every service surface returns the same report.

The seed tile is always evaluated first and ties break toward earlier
candidates, so the winner's measured traffic is *never worse than the
analytically-rounded seed's* — the tuned-vs-seed invariant the test
suite and the certificate report rely on.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from ..core.loopnest import LoopNest
from ..core.tiling import TileShape
from ..util.deadline import checkpoint
from .evaluate import TileEvaluation, best_evaluation_multi, evaluate_candidates
from .space import GENERATORS, axis_values, candidate_tiles, clamp_block

__all__ = ["STRATEGIES", "BudgetedEvaluator", "SearchOutcome", "search_tiles"]

#: Strategy names accepted by :func:`search_tiles` (and the request schema).
STRATEGIES = ("exhaustive", "coordinate", "random")

#: Random-restart strategies sample in batches of this many candidates.
_RANDOM_BATCH = 8


@dataclass
class BudgetedEvaluator:
    """Memoised, budget-capped batch evaluator shared by the strategies.

    ``evaluate`` simulates at most ``budget - spent`` *new* tiles of a
    batch (already-seen tiles are served from the memo and cost
    nothing) and returns the evaluations it has for the batch, in batch
    order.  ``evaluations`` preserves first-evaluation order — the
    deterministic record the report's candidate table is built from.
    """

    nest: LoopNest
    capacities: tuple[int, ...]
    budget: int
    workers: int | None = None
    evaluations: "OrderedDict[tuple[int, ...], TileEvaluation]" = field(
        default_factory=OrderedDict
    )
    #: Degradation events observed during evaluation (e.g. a pool crash
    #: survived serially); service surfaces surface these in result meta.
    events: dict = field(default_factory=dict)

    @property
    def spent(self) -> int:
        return len(self.evaluations)

    @property
    def remaining(self) -> int:
        return max(0, self.budget - self.spent)

    def evaluate(self, batch: Sequence[Sequence[int]]) -> list[TileEvaluation]:
        fresh: list[tuple[int, ...]] = []
        seen_in_batch: set[tuple[int, ...]] = set()
        for blocks in batch:
            key = tuple(int(b) for b in blocks)
            if key in self.evaluations or key in seen_in_batch:
                continue
            if len(fresh) >= self.remaining:
                break
            seen_in_batch.add(key)
            fresh.append(key)
        checkpoint("tune-batch")
        for evaluation in evaluate_candidates(
            self.nest, fresh, self.capacities,
            workers=self.workers, events=self.events,
        ):
            self.evaluations[evaluation.blocks] = evaluation
        return [
            self.evaluations[key]
            for blocks in batch
            if (key := tuple(int(b) for b in blocks)) in self.evaluations
        ]


@dataclass(frozen=True)
class SearchOutcome:
    """Everything a strategy run produced."""

    strategy: str
    best: TileEvaluation
    evaluations: tuple[TileEvaluation, ...]  # first-evaluation order

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluations)


def _run_exhaustive(
    ev: BudgetedEvaluator,
    cache_words: int,
    budget_conv: str,
    seed: tuple[int, ...],
    radius: int,
    ceiling: tuple[int, ...],
) -> None:
    candidates = candidate_tiles(
        ev.nest, cache_words, seed, budget=budget_conv,
        radius=radius, generators=GENERATORS, limit=ev.budget, ceiling=ceiling,
    )
    ev.evaluate(candidates)


def _run_coordinate(
    ev: BudgetedEvaluator,
    cache_words: int,
    budget_conv: str,
    seed: tuple[int, ...],
    radius: int,
    ceiling: tuple[int, ...],
    objective: tuple[int, ...],
) -> None:
    nest = ev.nest
    current = seed
    current_traffic = ev.evaluations[seed].total_traffic(objective)
    improved = True
    while improved and ev.remaining:
        improved = False
        for i in range(nest.depth):
            variants = []
            for value in axis_values(nest, current, i, radius=radius):
                if value > ceiling[i]:
                    continue
                blocks = current[:i] + (value,) + current[i + 1:]
                if blocks != current and TileShape(
                    nest=nest, blocks=blocks
                ).is_feasible(cache_words, budget_conv):
                    variants.append(blocks)
            if not variants:
                continue
            for evaluation in ev.evaluate(variants):
                if evaluation.total_traffic(objective) < current_traffic:
                    current = evaluation.blocks
                    current_traffic = evaluation.total_traffic(objective)
                    improved = True
            if not ev.remaining:
                return


def _run_random(
    ev: BudgetedEvaluator,
    cache_words: int,
    budget_conv: str,
    seed: tuple[int, ...],
    rng_seed: int,
    ceiling: tuple[int, ...],
) -> None:
    nest = ev.nest
    rng = random.Random(rng_seed)
    misses_in_a_row = 0
    while ev.remaining and misses_in_a_row < 8:
        batch: list[tuple[int, ...]] = []
        for _ in range(4 * _RANDOM_BATCH):
            if len(batch) >= min(_RANDOM_BATCH, ev.remaining):
                break
            blocks = []
            for i, bound in enumerate(nest.bounds):
                raw = 2.0 ** rng.uniform(0.0, max(bound, 1).bit_length() - 1 or 1)
                value = clamp_block(raw, bound)
                snap = rng.random()
                if snap < 0.25:
                    value = min(axis_values(nest, seed, i), key=lambda v: abs(v - value))
                elif snap < 0.5:
                    value = clamp_block(1 << max(0, value.bit_length() - 1), bound)
                blocks.append(min(value, ceiling[i]))
            blocks = tuple(blocks)
            if TileShape(nest=nest, blocks=blocks).is_feasible(cache_words, budget_conv):
                batch.append(blocks)
        if not batch:
            misses_in_a_row += 1
            continue
        before = ev.spent
        ev.evaluate(batch)
        misses_in_a_row = misses_in_a_row + 1 if ev.spent == before else 0


def search_tiles(
    nest: LoopNest,
    cache_words: int,
    seed: Sequence[int],
    strategy: str = "exhaustive",
    *,
    budget_conv: str = "aggregate",
    max_evaluations: int = 64,
    radius: int = 1,
    capacities: Sequence[int] | None = None,
    workers: int | None = None,
    rng_seed: int = 0,
    ceiling: Sequence[int] | None = None,
    objective_capacities: Sequence[int] | None = None,
    events: dict | None = None,
) -> SearchOutcome:
    """Run one strategy from the analytic seed; return every evaluation.

    ``capacities`` is the Pareto axis every evaluation is priced on (it
    always includes ``cache_words``); ``max_evaluations`` caps distinct
    simulated tiles including the seed.  The returned ``best`` minimises
    the *summed* measured traffic over ``objective_capacities``
    (defaulting to ``cache_words`` alone — the classic single-cache
    objective) — by construction never worse than the seed, which is
    always evaluated first.  ``ceiling`` upper-bounds every candidate
    componentwise (the multi-level tuner passes the next hierarchy
    level's tile so candidates never un-nest the hierarchy).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if max_evaluations < 1:
        raise ValueError("max_evaluations must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    seed = tuple(int(b) for b in seed)
    if ceiling is not None and len(ceiling) != nest.depth:
        raise ValueError(f"ceiling must have {nest.depth} entries, got {len(ceiling)}")
    lid = tuple(nest.bounds) if ceiling is None else tuple(
        min(int(c), bound) for c, bound in zip(ceiling, nest.bounds)
    )
    if any(s > c for s, c in zip(seed, lid)):
        raise ValueError(f"seed {seed} exceeds the ceiling {lid}")
    objective = tuple(
        sorted({int(c) for c in (objective_capacities or (cache_words,))})
    )
    caps = {int(cache_words)}
    caps.update(objective)
    caps.update(int(c) for c in capacities or ())
    ev = BudgetedEvaluator(
        nest=nest,
        capacities=tuple(sorted(caps)),
        budget=max_evaluations,
        workers=workers,
        events=events if events is not None else {},
    )
    ev.evaluate([seed])  # the seed is always candidate #0
    if strategy == "exhaustive":
        _run_exhaustive(ev, cache_words, budget_conv, seed, radius, lid)
    elif strategy == "coordinate":
        _run_coordinate(ev, cache_words, budget_conv, seed, radius, lid, objective)
    else:
        _run_random(ev, cache_words, budget_conv, seed, rng_seed, lid)
    evaluations = tuple(ev.evaluations.values())
    return SearchOutcome(
        strategy=strategy,
        best=best_evaluation_multi(evaluations, objective),
        evaluations=evaluations,
    )
