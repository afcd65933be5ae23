"""Candidate scoring: the batched trace engine in the tuning loop.

Evaluating a candidate tile means generating its word-level trace with
the vectorised generator and running the one-pass stack-distance
simulation (:func:`repro.simulate.nest_miss_curve`).  The pay-off of
the one-pass engine is that *every* cache capacity is priced by the
same run: one evaluation yields the exact LRU traffic (misses +
write-backs, the words crossing the cache boundary) at the tuning
capacity **and** at every capacity of the requested Pareto axis, so a
single tuning run produces a whole capacity→best-tile front for free.

Evaluations are embarrassingly parallel across candidates;
:func:`evaluate_candidates` fans them out to worker processes
(JSON-able payloads only, serial fallback when no usable pool exists).
This is the repository's one process pool: scoring is numpy-heavy
enough to pay for the workers' start-up.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.loopnest import LoopNest
from ..core.tiling import TileShape
from ..obs import MetricsRegistry, merge_worker_delta
from ..simulate.multilevel import nest_miss_curve
from ..util import deadline, faults

__all__ = [
    "TileEvaluation",
    "best_evaluation",
    "best_evaluation_multi",
    "evaluate_tile",
    "evaluate_candidates",
]

#: Below this many candidates a process pool cannot pay for its own
#: startup (fork + numpy import per worker dwarfs a few tiny traces), so
#: smaller batches — coordinate descent's per-axis variants, random
#: restarts — always take the serial path.
MIN_PARALLEL_CANDIDATES = 8

#: How long the parent waits on a worker before polling the request
#: deadline again, in seconds.
_DEADLINE_POLL_S = 0.01


@dataclass(frozen=True)
class TileEvaluation:
    """Measured LRU traffic of one tile at every requested capacity.

    ``traffic[c]`` is the exact words moved across a capacity-``c``
    cache boundary (misses + write-backs, word-granular lines — the
    paper's model) by the tiled execution's trace.
    """

    blocks: tuple[int, ...]
    accesses: int
    traffic: Mapping[int, int]

    def traffic_at(self, capacity: int) -> int:
        return self.traffic[int(capacity)]

    def total_traffic(self, capacities: Sequence[int]) -> int:
        """Summed traffic across several boundaries (multi-level objective).

        The words crossing *every* cache boundary of a hierarchy, priced
        from the same one-pass curve — what the multi-level tuner
        minimises and what the hierarchy report totals.
        """
        return sum(self.traffic[int(c)] for c in capacities)

    def to_json(self) -> dict:
        return {
            "tile": list(self.blocks),
            "accesses": self.accesses,
            "traffic": {str(c): int(w) for c, w in sorted(self.traffic.items())},
        }

    @classmethod
    def from_json(cls, blob: Mapping) -> "TileEvaluation":
        return cls(
            blocks=tuple(int(b) for b in blob["tile"]),
            accesses=int(blob["accesses"]),
            traffic={int(c): int(w) for c, w in blob["traffic"].items()},
        )


def evaluate_tile(
    nest: LoopNest,
    blocks: Sequence[int],
    capacities: Sequence[int],
    use_native: bool | None = None,
) -> TileEvaluation:
    """One candidate through the one-pass simulator, all capacities at once."""
    tile = TileShape(nest=nest, blocks=tuple(int(b) for b in blocks))
    curve = nest_miss_curve(nest, tile=tile, use_native=use_native)
    caps = np.asarray(sorted({int(c) for c in capacities}), dtype=np.int64)
    _, misses, writebacks = curve.sweep(caps)
    return TileEvaluation(
        blocks=tile.blocks,
        accesses=curve.accesses,
        traffic={
            int(c): int(m + w) for c, m, w in zip(caps.tolist(), misses, writebacks)
        },
    )


def _evaluate_worker(payload: tuple[dict, list[int], list[int], bool | None]) -> dict:
    """Worker entry point: JSON in, JSON out (start-method agnostic).

    Returns ``{"evaluation": ..., "metrics": ...}`` — the evaluation
    plus a metrics-registry snapshot the parent merges, so worker-side
    observations survive the process boundary losslessly.
    """
    if faults.active("worker-crash"):
        # Hard exit, not an exception: a real crashed worker (OOM kill,
        # segfault) takes the process down without unwinding, which is
        # exactly what produces BrokenProcessPool in the parent.
        os._exit(17)
    nest_json, blocks, capacities, use_native = payload
    nest = LoopNest.from_json(nest_json)
    registry = MetricsRegistry()
    started = time.perf_counter()
    evaluation = evaluate_tile(nest, blocks, capacities, use_native=use_native)
    registry.histogram("repro_worker_eval_seconds").observe(
        time.perf_counter() - started
    )
    registry.counter("repro_worker_evaluations_total").inc()
    return {"evaluation": evaluation.to_json(), "metrics": registry.snapshot()}


def _await(future: Future):
    """``future.result()``, polling the request deadline while it waits."""
    while True:
        deadline.checkpoint("tune-candidate")
        if wait((future,), timeout=_DEADLINE_POLL_S).done:
            return future.result()


def evaluate_candidates(
    nest: LoopNest,
    candidates: Sequence[Sequence[int]],
    capacities: Sequence[int],
    workers: int | None = None,
    use_native: bool | None = None,
    events: dict | None = None,
) -> list[TileEvaluation]:
    """Evaluate many candidates, in order; parallel when it can pay.

    ``workers``: ``0``/``1`` force the serial path, ``None`` lets the
    executor pick.  A pool is only attempted for
    :data:`MIN_PARALLEL_CANDIDATES` or more candidates (below that, pool
    startup costs more than the simulations), and any pool failure falls
    back to serial — the answers are identical either way.  Two failure classes are told apart:

    * the pool never starts (restricted sandbox, missing semaphores) —
      the silent serial fallback this module always had;
    * the pool **breaks mid-run** (a worker crashed) — completed
      evaluations are kept, the missing candidates are re-evaluated
      serially, and ``events["degraded"]`` is set so service surfaces
      can report ``degraded: true`` without perturbing fault-free
      payloads.

    The request deadline is polled while the parent waits on workers;
    on expiry the candidates no worker has started are cancelled and
    :class:`~repro.util.deadline.DeadlineExceeded` propagates.
    """
    blocks_list = [tuple(int(b) for b in blocks) for blocks in candidates]
    if len(blocks_list) >= MIN_PARALLEL_CANDIDATES and workers not in (0, 1):
        nest_json = nest.to_json()
        payloads = [
            (nest_json, list(blocks), list(capacities), use_native)
            for blocks in blocks_list
        ]
        done: dict[int, TileEvaluation] = {}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_evaluate_worker, p) for p in payloads]
                try:
                    for idx, future in enumerate(futures):
                        blob = _await(future)
                        merge_worker_delta(blob["metrics"])
                        done[idx] = TileEvaluation.from_json(blob["evaluation"])
                except deadline.DeadlineExceeded:
                    # Drop what no worker has started; wait for the rest.
                    pool.shutdown(cancel_futures=True)
                    raise
                return [done[i] for i in range(len(blocks_list))]
        except BrokenProcessPool:
            # Mid-run crash: keep the survivors, finish the rest serially.
            if events is not None:
                events["degraded"] = True
                events.setdefault("degraded_reasons", []).append("tune-pool-crash")
            return [
                done.get(i)
                or evaluate_tile(
                    nest, blocks_list[i], capacities, use_native=use_native
                )
                for i in range(len(blocks_list))
            ]
        except deadline.DeadlineExceeded:
            raise
        except (OSError, RuntimeError):
            pass
    out = []
    for blocks in blocks_list:
        deadline.checkpoint("tune-candidate")
        out.append(evaluate_tile(nest, blocks, capacities, use_native=use_native))
    return out


def best_evaluation(
    evaluations: Sequence[TileEvaluation], capacity: int
) -> TileEvaluation:
    """Minimum measured traffic at ``capacity``; ties keep the earliest entry.

    The one tie-break rule of the subsystem: evaluations are ordered
    seed-first, so "earliest wins" is exactly the documented
    never-worse-than-seed guarantee.  Shared by the search driver
    (overall winner) and the Pareto front (per-capacity winners).
    """
    return best_evaluation_multi(evaluations, (capacity,))


def best_evaluation_multi(
    evaluations: Sequence[TileEvaluation], capacities: Sequence[int]
) -> TileEvaluation:
    """Minimum *summed* traffic over ``capacities``; earliest wins ties.

    The multi-boundary generalisation of :func:`best_evaluation` (one
    capacity reduces to it exactly): the winner moves the fewest words
    across all the hierarchy's boundaries together, and the seed-first
    tie-break keeps the tuned-never-worse-than-seed guarantee for the
    *total* just as it does per capacity.
    """
    best = evaluations[0]
    best_total = best.total_traffic(capacities)
    for evaluation in evaluations[1:]:
        total = evaluation.total_traffic(capacities)
        if total < best_total:
            best, best_total = evaluation, total
    return best
