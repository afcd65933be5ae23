"""Batched tiling-plan service (paper §7's compiler-pass use case, at scale).

A *plan* is the answer a compiler or autotuner wants from the paper's
machinery: the optimal tile, its exponent, and the communication lower
bound for one (loop nest, cache size) query.  Serving many such queries
— problem x sizes x cache levels — without re-running the rational
simplex per call is what this package does:

* :mod:`repro.core.canonical` reduces each query to a bounds-independent
  canonical structure (the LP depends only on the projection pattern);
* :class:`Planner` memoises one multiparametric solve per structure (an
  in-memory LRU with an optional sharded on-disk plan store) and
  substitutes bounds and cache size at lookup time, exactly;
* :func:`plan_batch` serves request lists through one planner and
  returns the results in request order.
"""

from .batch import plan_batch, sweep_requests
from .planner import HierarchyPlan, Planner, PlannerStats, PlanRequest, TilePlan

__all__ = [
    "HierarchyPlan",
    "Planner",
    "PlannerStats",
    "PlanRequest",
    "TilePlan",
    "plan_batch",
    "sweep_requests",
]
