"""Optimal tiling construction (paper §5, LP 5.1 and Theorem 3).

The bound-constrained tiling LP in log-space (``lambda_i = log_M b_i``,
``beta_i = log_M L_i``)::

    max  sum_i lambda_i
    s.t. sum_{i in supp(phi_j)} lambda_i <= 1      for each array j
         0 <= lambda_i <= beta_i                   for each loop i

Theorem 3: its optimum equals the strongest Theorem-2 exponent, so the
rectangle with sides ``b_i = M**lambda_i`` attains the lower bound —
the bound is tight and the optimal tile is a rectangle.

Real machines need integer block sizes.  :func:`solve_tiling` therefore
follows the exact LP solve with an integer *round-and-grow* repair:
clamp each side to ``min(L_i, max(1, round(M**lambda_i)))``, shrink if
the rounded start overshoots the budget, then grow each side in turn
to the largest value (a closed form, footprints being linear in each
side) at which every footprint still fits.  The result is a maximal
feasible tile anchored at the analytic optimum — within a ``2**d``
factor of the fractional volume, the usual constant-factor slack of
the model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from ..util.rationals import pow_fraction
from .loopnest import LoopNest
from .lp import LinearProgram

__all__ = [
    "TileShape",
    "TilingSolution",
    "build_tiling_lp",
    "clamp_block",
    "integer_repair",
    "solve_tiling",
    "lvar",
]


def clamp_block(x: float, bound: int) -> int:
    """Legal block size nearest ``x``: ``min(bound, max(1, round(x)))``.

    The one shared clamp for turning a fractional tile extent into a
    block — never 0 (a loop bound smaller than the analytic extent must
    still yield a block), never above the loop bound.  Used by
    :func:`integer_repair` and by the autotuner's candidate generators
    (:mod:`repro.tune.space`), which must round exactly the way the
    seed does.
    """
    return min(int(bound), max(1, round(x)))

#: Memory-budget conventions (see DESIGN.md §5).
#: "per-array"  — each array's tile footprint <= M (the paper's model);
#: "aggregate"  — the *sum* of tile footprints <= M (practical caches).
BUDGETS = ("per-array", "aggregate")

#: Largest cache or memory size a query may name: the bound, tile and
#: traffic figures are also floats, and a larger size overflows them.
MAX_CACHE_WORDS = int(sys.float_info.max)


def lvar(i: int, nest: LoopNest) -> str:
    """LP variable name for ``lambda_i = log_M b_i``."""
    return f"lambda[{nest.loops[i]}]"


@dataclass(frozen=True)
class TileShape:
    """An integer rectangular tile ``b_1 x ... x b_d`` for a nest.

    Feasibility (w.r.t. a cache of ``M`` words) is checked against a
    budget convention; see :data:`BUDGETS`.
    """

    nest: LoopNest
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != self.nest.depth:
            raise ValueError("block count must equal nest depth")
        for b, L in zip(self.blocks, self.nest.bounds):
            if not 1 <= b <= L:
                raise ValueError(f"block sizes must satisfy 1 <= b <= L, got {self.blocks}")

    @property
    def volume(self) -> int:
        """Tile cardinality ``prod_i b_i`` (operations per tile)."""
        return prod(self.blocks)

    def footprint(self, j: int) -> int:
        """``|phi_j(tile)| = prod_{i in supp(phi_j)} b_i`` (paper §3)."""
        return self.footprints()[j]

    def footprints(self) -> tuple[int, ...]:
        """Per-array footprints, computed once per (frozen) shape.

        Feasibility probes evaluate footprints repeatedly (enumeration
        oracles, the tuner's candidate checks), so the
        tuple is memoised on first use — the dataclass is frozen, so the
        value can never go stale.
        """
        cached = self.__dict__.get("_footprints")
        if cached is None:
            cached = tuple(
                prod(self.blocks[i] for i in arr.support) for arr in self.nest.arrays
            )
            object.__setattr__(self, "_footprints", cached)
        return cached

    def total_footprint(self) -> int:
        return sum(self.footprints())

    def is_feasible(self, cache_words: int, budget: str = "per-array") -> bool:
        if budget == "per-array":
            return all(f <= cache_words for f in self.footprints())
        if budget == "aggregate":
            return self.total_footprint() <= cache_words
        raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")

    def grid_extents(self) -> tuple[int, ...]:
        """Number of tiles along each loop (``ceil(L_i / b_i)``)."""
        return tuple(-(-L // b) for L, b in zip(self.nest.bounds, self.blocks))

    @property
    def num_tiles(self) -> int:
        return prod(self.grid_extents())

    def describe(self) -> str:
        dims = " x ".join(str(b) for b in self.blocks)
        return f"tile[{dims}] volume={self.volume} tiles={self.num_tiles}"


@dataclass(frozen=True)
class TilingSolution:
    """Exact LP solution plus the repaired integer tile.

    Attributes
    ----------
    nest, cache_words, budget:
        Problem instance and budget convention used for the integer
        repair (the LP itself always uses the paper's per-array model
        unless ``budget="aggregate"`` was requested, in which case the
        LP is solved with an effective ``M' = M / n`` so the analytic
        blocks already respect the aggregate budget up to constants).
    lambdas:
        Exact LP vertex (``lambda_i`` as Fractions).
    exponent:
        LP optimum ``sum_i lambda_i = k_hat`` (Theorem 3).
    fractional_blocks:
        ``M**lambda_i`` before integer repair.
    tile:
        Feasible integer :class:`TileShape` after round-and-grow.
    """

    nest: LoopNest
    cache_words: int
    budget: str
    lambdas: tuple[Fraction, ...]
    exponent: Fraction
    fractional_blocks: tuple[float, ...]
    tile: TileShape

    def tile_size_bound(self) -> float:
        """``M**k_hat``: the tile-cardinality bound this tiling attains."""
        return pow_fraction(self.cache_words, self.exponent)

    def summary(self) -> str:
        frac = ", ".join(f"{b:.4g}" for b in self.fractional_blocks)
        return (
            f"{self.nest.name}: k_hat={self.exponent} fractional=({frac}) "
            f"integer={self.tile.describe()}"
        )


def build_tiling_lp(
    nest: LoopNest, cache_words: int, betas: Sequence[Fraction] | None = None
) -> LinearProgram:
    """Construct LP (5.1) for ``nest`` with cache size ``cache_words``."""
    if betas is None:
        betas = nest.betas(cache_words)
    if len(betas) != nest.depth:
        raise ValueError("betas length must equal nest depth")
    lp = LinearProgram(sense="max")
    for i in range(nest.depth):
        lp.add_variable(lvar(i, nest), lo=0, hi=Fraction(betas[i]))
    for j, arr in enumerate(nest.arrays):
        if not arr.support:
            continue  # scalar access: footprint 1, no constraint
        lp.add_constraint(
            f"cap[{arr.name}]",
            {lvar(i, nest): 1 for i in arr.support},
            "<=",
            1,
        )
    lp.set_objective({lvar(i, nest): 1 for i in range(nest.depth)})
    return lp


def _max_block(
    nest: LoopNest,
    blocks: list[int],
    i: int,
    cache_words: int,
    budget: str,
) -> int:
    """Largest feasible value for ``blocks[i]`` holding the others fixed.

    Footprints are linear in the probed side: an array indexed by loop
    ``i`` holds ``partial * blocks[i]`` words (``partial`` the product
    of its other sides), any other array a fixed ``partial``.  So the
    answer has a closed form, clamped to ``[blocks[i], L_i]``:

    * per-array: the minimum of ``M // partial`` over the arrays
      indexed by ``i``;
    * aggregate: ``(M - sum of the fixed footprints) // (sum of the
      indexed partials)``.

    The starting value ``blocks[i]`` must be feasible.
    """
    lo, hi = blocks[i], nest.bounds[i]
    best = hi
    fixed = scaled = 0
    for arr in nest.arrays:
        partial = prod(blocks[k] for k in arr.support if k != i)
        if i in arr.support:
            scaled += partial
            if budget == "per-array":
                best = min(best, cache_words // partial)
        else:
            fixed += partial
    if budget != "per-array":
        # Every loop indexes some array (a LoopNest invariant): scaled >= 1.
        best = min(best, (cache_words - fixed) // scaled)
    return max(lo, best)


def integer_repair(
    nest: LoopNest,
    fractional: Sequence[float],
    cache_words: int,
    budget: str = "per-array",
    floors: Sequence[int] | None = None,
) -> TileShape:
    """Round-and-grow an LP-optimal fractional tile into a feasible integer one.

    Round each side with the clamp ``min(L, max(1, round(f)))`` — a side
    never rounds to 0, even when a loop bound is smaller than the
    analytic tile extent (skewed-bound nests hand us ``f > L``
    routinely, and extents below 1 must still yield a unit block) — then
    grow each side in turn to the largest value that keeps the tile
    within budget (one pass reaches the fixpoint).  Rounding to nearest
    can round *up* (fractional part above one half, or a tie landing on
    the even integer above) and overshoot the budget, and defensive
    callers may pass an outright infeasible fractional tile; a shrink
    pre-pass halves the largest sides until the start fits, so the
    returned tile is feasible unconditionally.
    Shared by :func:`solve_tiling` and the plan cache (:mod:`repro.plan`),
    which substitutes cached parametric exponents instead of re-solving
    the LP.

    ``floors`` optionally lower-bounds every side (default: the unit
    tile) — the multi-level repair
    (:func:`repro.core.integer.nested_integer_repair`) passes the
    previous hierarchy level's blocks, which are feasible here by
    monotonicity (they fit a smaller capacity under the same budget), so
    the shrink pre-pass can always retreat to them.  With non-trivial
    floors the only infeasible-return case is the floors themselves
    busting the budget, exactly as the unit tile can.
    """
    lo = (
        tuple(int(b) for b in floors)
        if floors is not None
        else tuple(1 for _ in range(nest.depth))
    )
    blocks = [max(f_lo, clamp_block(f, L)) for f, L, f_lo in zip(fractional, nest.bounds, lo)]
    while not TileShape(nest=nest, blocks=tuple(blocks)).is_feasible(cache_words, budget):
        shrinkable = [k for k in range(nest.depth) if blocks[k] > lo[k]]
        if not shrinkable:
            # Even the floor tile busts the budget (a unit tile under
            # "aggregate" with a cache smaller than one word per array);
            # return it as the minimum.
            return TileShape(nest=nest, blocks=tuple(blocks))
        i = max(shrinkable, key=lambda k: blocks[k])
        blocks[i] = max(lo[i], blocks[i] // 2)
    # One growth pass is already a fixpoint: growing later sides only
    # shrinks the room left for earlier ones, which already fill it.
    for i in range(nest.depth):
        blocks[i] = _max_block(nest, blocks, i, cache_words, budget)
    return TileShape(nest=nest, blocks=tuple(blocks))


def solve_tiling(
    nest: LoopNest,
    cache_words: int,
    budget: str = "per-array",
    betas: Sequence[Fraction] | None = None,
) -> TilingSolution:
    """Solve LP (5.1) and return the exact vertex plus a repaired tile.

    Parameters
    ----------
    budget:
        ``"per-array"`` reproduces the paper's model exactly.
        ``"aggregate"`` solves the LP with an effective cache of
        ``M // n`` so the resulting tile satisfies the aggregate budget
        (sum of footprints <= M) — the convention an executable kernel
        needs; the exponent reported is still w.r.t. the effective
        cache (log-space constants shift by ``log_M n``).
    """
    if cache_words < 1:
        raise ValueError("cache_words must be >= 1")
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
    if budget == "aggregate" and cache_words < nest.num_arrays:
        # Even the unit tile holds one word per array simultaneously; a
        # cache smaller than n words cannot satisfy the aggregate budget.
        raise ValueError(
            f"aggregate budget needs cache_words >= {nest.num_arrays} "
            f"(one word per array), got {cache_words}"
        )
    effective_m = cache_words if budget == "per-array" else max(1, cache_words // nest.num_arrays)
    if effective_m < 2:
        # Degenerate cache: every array footprint must be 1, so the only
        # rectangle is the unit tile (log base M is undefined at M=1).
        return TilingSolution(
            nest=nest,
            cache_words=cache_words,
            budget=budget,
            lambdas=tuple(Fraction(0) for _ in range(nest.depth)),
            exponent=Fraction(0),
            fractional_blocks=tuple(1.0 for _ in range(nest.depth)),
            tile=TileShape(nest=nest, blocks=tuple(1 for _ in range(nest.depth))),
        )
    if betas is None:
        betas = nest.betas(effective_m)
    lp = build_tiling_lp(nest, effective_m, betas=betas)
    report = lp.solve()
    if not report.is_optimal:  # pragma: no cover - LP is always feasible & bounded
        raise RuntimeError(f"tiling LP unexpectedly {report.status}")
    lambdas = tuple(report.values[lvar(i, nest)] for i in range(nest.depth))
    fractional = tuple(pow_fraction(effective_m, lam) for lam in lambdas)
    tile = integer_repair(nest, fractional, cache_words, budget)
    return TilingSolution(
        nest=nest,
        cache_words=cache_words,
        budget=budget,
        lambdas=lambdas,
        exponent=report.objective,
        fractional_blocks=fractional,
        tile=tile,
    )
