"""Multi-level trace simulation via the LRU stack property.

For *inclusive* LRU hierarchies, the classic stack property says the
miss count at capacity ``C`` is monotone non-increasing in ``C`` and a
single trace evaluated against nested LRU stacks gives every level's
traffic at once: words crossing the ``l``/``l+1`` boundary equal the
LRU misses at capacity ``C_l``.  The stack-distance engine
(:func:`repro.machine.cache.miss_curve`) turns that observation into an
algorithm: **one** pass over the batched trace yields the exact
hit/miss/write-back counts of *every* capacity, so a whole hierarchy —
or a full miss-rate-curve sweep — costs one simulation instead of one
per level.  The result is an end-to-end validation target for
:func:`repro.core.hierarchy.solve_hierarchical_tiling` (the nested tile
should keep *every* boundary's traffic within a constant of that
boundary's lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.bounds import communication_lower_bound
from ..core.hierarchy import HierarchicalTiling, MemoryHierarchy
from ..core.loopnest import LoopNest
from ..core.tiling import TileShape
from ..machine.cache import MissCurve, miss_curve
from .trace import generate_trace_batched, trace_length

__all__ = [
    "BoundaryTraffic",
    "MultiLevelReport",
    "nest_miss_curve",
    "simulate_hierarchy_trace",
    "simulate_hierarchical_tiling_trace",
]


@dataclass(frozen=True)
class BoundaryTraffic:
    """Traffic across one cache boundary."""

    capacity: int
    words: int
    lower_bound: float

    @property
    def ratio(self) -> float:
        return self.words / self.lower_bound if self.lower_bound > 0 else float("inf")


@dataclass(frozen=True)
class MultiLevelReport:
    """Per-boundary traffic of one schedule on a full hierarchy."""

    nest_name: str
    schedule: str
    boundaries: tuple[BoundaryTraffic, ...]

    def summary(self) -> str:
        rows = ", ".join(
            f"M={b.capacity}: {b.words} ({b.ratio:.2f}x)" for b in self.boundaries
        )
        return f"{self.nest_name}[{self.schedule}] {rows}"


def nest_miss_curve(
    nest: LoopNest,
    tile: TileShape | None = None,
    order: Sequence[int] | None = None,
) -> MissCurve:
    """Stack-distance miss curve of one schedule's word-level trace.

    One pass over the batched trace; the returned curve answers exact
    LRU hits/misses/write-backs at *any* cache capacity (word-granular
    lines, the paper's model) — the primitive behind both the hierarchy
    report and miss-rate-curve sweeps per nest/tile.
    """
    total = trace_length(nest)
    lines = np.empty(total, dtype=np.int64)
    writes = np.empty(total, dtype=bool)
    pos = 0
    for batch in generate_trace_batched(nest, tile=tile, order=order):
        span = len(batch.addresses)
        lines[pos : pos + span] = batch.addresses
        writes[pos : pos + span] = batch.is_write
        pos += span
    return miss_curve(lines, writes)


def simulate_hierarchy_trace(
    nest: LoopNest,
    hierarchy: MemoryHierarchy,
    tile: TileShape | None = None,
    order: Sequence[int] | None = None,
    schedule: str = "tiled",
) -> MultiLevelReport:
    """Word-accurate per-boundary traffic of one schedule.

    ``tile=None`` simulates the untiled lexicographic schedule.  The
    trace is generated once and fed through the one-pass stack-distance
    engine; each level's boundary traffic (misses + write-backs at that
    level's capacity — the stack property makes this the
    inclusive-hierarchy traffic) is then a pair of O(log n) lookups on
    the shared curve, instead of one full LRU simulation per level.
    """
    curve = nest_miss_curve(nest, tile=tile, order=order)
    boundaries = []
    for capacity in hierarchy.capacities:
        words = curve.misses_at(capacity) + curve.writebacks_at(capacity)
        boundaries.append(
            BoundaryTraffic(
                capacity=capacity,
                words=words,
                lower_bound=communication_lower_bound(nest, capacity).value,
            )
        )
    return MultiLevelReport(
        nest_name=nest.name, schedule=schedule, boundaries=tuple(boundaries)
    )


def simulate_hierarchical_tiling_trace(
    tiling: HierarchicalTiling, order: Sequence[int] | None = None
) -> MultiLevelReport:
    """Per-boundary traffic of a nested tiling's *innermost* tile walk.

    Executing tiles of the innermost level in an order that groups them
    into the outer levels' tiles is what the nested construction
    prescribes; lexicographic order over the innermost grid already has
    this grouping when blocks are nested multiples (the common case).
    """
    return simulate_hierarchy_trace(
        tiling.nest,
        tiling.hierarchy,
        tile=tiling.levels[0].tile,
        order=order,
        schedule="nested-tiled",
    )
