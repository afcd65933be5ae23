"""The tiling-plan cache (paper §7's compiler-pass use case, at scale).

A *plan* is the answer a compiler or autotuner wants from the paper's
machinery: the optimal tile, its exponent, and the communication lower
bound for one (loop nest, cache size) query.  Serving many such queries
— problem x sizes x cache levels — without re-running the rational
simplex per call is what this package does:

* :mod:`repro.core.canonical` reduces each query to a bounds-independent
  canonical structure (the LP depends only on the projection pattern);
* :class:`Planner` keeps, per structure, the final bases of a
  warm-started exact dual simplex (an in-memory LRU) and substitutes
  bounds and cache size at lookup time, exactly.

Ordered request lists and size x cache grids go through one planner via
:meth:`repro.api.Session.batch` and :meth:`repro.api.Session.sweep`.
"""

from .planner import HierarchyPlan, Planner, PlannerStats, TilePlan

__all__ = [
    "HierarchyPlan",
    "Planner",
    "PlannerStats",
    "TilePlan",
]
