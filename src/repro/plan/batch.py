"""Ordered batch planning over request lists.

:func:`plan_batch` answers each request in order through one shared
:class:`~repro.plan.planner.Planner`: a structure the batch has not met
yet is solved (or adopted from the plan store) on first use, and every
later request on it is a warm lookup.  Cold multiparametric solves
(§7) take milliseconds, less than a worker process takes to start, so
the batch runs serially.

Results are returned in request order, so callers can zip them back
against their inputs (the batch CLI emits them as JSON lines the same
way).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ..core.loopnest import LoopNest
# Not used here: perfbench/traced_serve.py patches this name in this
# module, so it must stay importable from it.
from ..core.mplp import parametric_tile_exponent  # noqa: F401
from ..util import deadline
from .planner import Planner, PlanRequest, TilePlan

__all__ = ["plan_batch", "sweep_requests"]


def _as_request(item: PlanRequest | tuple) -> PlanRequest:
    if isinstance(item, PlanRequest):
        return item
    if isinstance(item, LoopNest):
        raise TypeError("a bare LoopNest has no cache size; pass (nest, cache_words)")
    nest, cache_words, *rest = item
    if len(rest) > 1:
        raise TypeError(f"bad request tuple of length {2 + len(rest)}")
    return PlanRequest(nest=nest, cache_words=cache_words, budget=rest[0] if rest else "per-array")


def plan_batch(
    requests: Iterable[PlanRequest | tuple],
    planner: Planner | None = None,
    include_bound: bool = True,
) -> list[TilePlan]:
    """Serve a batch of plan queries, in request order.

    Parameters
    ----------
    requests:
        :class:`PlanRequest` objects, or ``(nest, cache_words)`` /
        ``(nest, cache_words, budget)`` tuples.
    planner:
        The cache to use (and warm).  A fresh private
        :class:`Planner` is created when omitted.
    """
    reqs = [_as_request(item) for item in requests]
    if planner is None:
        planner = Planner()
    out = []
    for req in reqs:
        deadline.checkpoint("plan-batch")
        out.append(planner.plan_request(req, include_bound=include_bound))
    return out


def sweep_requests(
    builder,
    size_axes: Sequence[Sequence[int]],
    cache_sizes: Sequence[int],
    budget: str = "per-array",
) -> list[PlanRequest]:
    """Cartesian-product request list: ``sizes x cache sizes``.

    ``builder`` is a catalog-style constructor (``matmul``, ``nbody``,
    ...); ``size_axes`` gives the candidate values per constructor
    argument.  Ordering is row-major with cache size innermost, matching
    the ``--sweep`` CLI.
    """
    out = []
    for sizes in itertools.product(*size_axes):
        nest = builder(*sizes)
        for m in cache_sizes:
            out.append(PlanRequest(nest=nest, cache_words=int(m), budget=budget))
    return out
