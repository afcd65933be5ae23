"""Integer tile search beyond the default round-and-grow repair.

The LP vertex is a *fractional* optimum; real block sizes are integers.
``solve_tiling`` floors and greedily grows — fast and within ``2^d`` of
optimal, but not always exactly optimal at small ``M``.  This module
provides progressively stronger searches, used by the integer-rounding
ablation (bench_integer.py) and available to users who care about the
last few percent:

* :func:`coordinate_descent_tile` — repeated per-coordinate maximal
  growth from a seed, over all ``d!`` growth orders (d is small);
* :func:`multi_seed_tile` — coordinate descent from several seeds:
  the floored LP vertex, every optimal-face vertex, and the unit tile;
* :func:`best_integer_tile` — the above, plus exhaustive search when
  the instance is small enough to afford ground truth.

plus the multi-level variant of the default repair:

* :func:`nested_integer_repair` — round-and-grow one fractional tile
  *per hierarchy level*, innermost first, keeping each repaired level
  componentwise inside the next (level-l blocks never exceed
  level-(l+1) blocks), so the integer tiles realise a nested execution.

All searches preserve feasibility invariantly (they only test-and-grow
feasible configurations), so any returned tile is valid for the given
budget.
"""

from __future__ import annotations

from itertools import permutations
from math import prod
from typing import Iterable, Sequence

from ..util.rationals import pow_fraction
from .alpha_family import optimal_tile_family
from .loopnest import LoopNest
from .tiling import BUDGETS, TileShape, _max_block, integer_repair, solve_tiling

__all__ = [
    "coordinate_descent_tile",
    "multi_seed_tile",
    "best_integer_tile",
    "nested_integer_repair",
]


def coordinate_descent_tile(
    nest: LoopNest,
    cache_words: int,
    seed: Sequence[int],
    budget: str = "per-array",
    orders: Iterable[Sequence[int]] | None = None,
) -> TileShape:
    """Best tile reachable from ``seed`` by per-coordinate maximal growth.

    Growth outcomes depend on which coordinate grows first; with ``d``
    small we simply try all ``d!`` orders (or the given subset) and keep
    the largest result.  The seed must be feasible.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}")
    seed_shape = TileShape(nest=nest, blocks=tuple(seed))
    if not seed_shape.is_feasible(cache_words, budget):
        raise ValueError(f"seed {tuple(seed)} infeasible for M={cache_words} ({budget})")
    if orders is None:
        orders = permutations(range(nest.depth))
    best = seed_shape
    for order in orders:
        blocks = list(seed)
        changed = True
        while changed:
            changed = False
            for i in order:
                grown = _max_block(nest, blocks, i, cache_words, budget)
                if grown > blocks[i]:
                    blocks[i] = grown
                    changed = True
        candidate = TileShape(nest=nest, blocks=tuple(blocks))
        if candidate.volume > best.volume:
            best = candidate
    return best


def _lp_seeds(nest: LoopNest, cache_words: int, budget: str) -> list[tuple[int, ...]]:
    """Feasible integer seeds: floored LP vertex + floored face vertices."""
    effective = cache_words if budget == "per-array" else max(2, cache_words // nest.num_arrays)
    seeds: list[tuple[int, ...]] = [tuple(1 for _ in range(nest.depth))]
    sol = solve_tiling(nest, cache_words, budget=budget)
    seeds.append(sol.tile.blocks)
    if effective >= 2:
        try:
            family = optimal_tile_family(nest, effective)
        except RuntimeError:  # pragma: no cover - defensive
            family = None
        if family is not None:
            for vertex in family.vertices:
                blocks = tuple(
                    max(1, min(L, int(pow_fraction(effective, lam) + 1e-9)))
                    for lam, L in zip(vertex, nest.bounds)
                )
                if TileShape(nest=nest, blocks=blocks).is_feasible(cache_words, budget):
                    seeds.append(blocks)
    # Deduplicate, preserve order.
    seen: set[tuple[int, ...]] = set()
    unique = []
    for s in seeds:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def multi_seed_tile(
    nest: LoopNest, cache_words: int, budget: str = "per-array"
) -> TileShape:
    """Coordinate descent from every LP-derived seed; best volume wins."""
    best: TileShape | None = None
    for seed in _lp_seeds(nest, cache_words, budget):
        candidate = coordinate_descent_tile(nest, cache_words, seed, budget=budget)
        if best is None or candidate.volume > best.volume:
            best = candidate
    assert best is not None
    return best


#: Instances with at most this many side combinations get exact search.
_EXHAUSTIVE_LIMIT = 250_000


def best_integer_tile(
    nest: LoopNest,
    cache_words: int,
    budget: str = "per-array",
    allow_exhaustive: bool = True,
) -> TileShape:
    """Strongest available integer tile.

    Uses exhaustive enumeration (guaranteed optimal) when the search
    space is small, otherwise multi-seed coordinate descent.  Always at
    least as large as ``solve_tiling``'s repaired tile.
    """
    if allow_exhaustive and prod(nest.bounds) <= _EXHAUSTIVE_LIMIT:
        from .bruteforce import best_rectangle

        res = best_rectangle(nest, cache_words, budget=budget)
        assert res.blocks is not None
        return TileShape(nest=nest, blocks=res.blocks)
    return multi_seed_tile(nest, cache_words, budget=budget)


def nested_integer_repair(
    nest: LoopNest,
    fractional_levels: Sequence[Sequence[float]],
    capacities: Sequence[int],
    budget: str = "per-array",
    floors: Sequence[int] | None = None,
) -> tuple[TileShape, ...]:
    """Round-and-grow one fractional tile per level, preserving nesting.

    ``fractional_levels[l]`` is level ``l``'s LP-optimal fractional tile
    and ``capacities[l]`` its budget (innermost first, non-decreasing).
    Each level is :func:`~repro.core.tiling.integer_repair` — the one
    shared implementation — floored at the previous level's repaired
    blocks, so the returned tiles satisfy the hierarchy invariant
    ``tiles[l].blocks[i] <= tiles[l+1].blocks[i]`` for every loop ``i``
    — repaired level-l blocks stay inside repaired level-(l+1) blocks,
    which is what lets one nested execution realise every level's
    blocking at once.  Every level is feasible because the previous
    level's blocks fit a smaller capacity under the same budget.

    ``floors`` optionally seeds the innermost level's lower bounds (used
    by the level-by-level LP driver in :mod:`repro.core.hierarchy`);
    the default is the unit tile, making the single-level call
    identical to ``integer_repair`` by construction.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
    if len(fractional_levels) != len(capacities):
        raise ValueError("need one fractional tile per capacity")
    if any(a > b for a, b in zip(capacities, capacities[1:])):
        raise ValueError(f"capacities must be non-decreasing, got {tuple(capacities)}")
    current = tuple(int(b) for b in floors) if floors is not None else tuple(
        1 for _ in range(nest.depth)
    )
    tiles: list[TileShape] = []
    for fractional, capacity in zip(fractional_levels, capacities):
        tile = integer_repair(nest, fractional, int(capacity), budget, floors=current)
        tiles.append(tile)
        current = tile.blocks
    return tuple(tiles)
