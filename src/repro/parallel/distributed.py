"""Distributed-memory traffic model and lower bounds (§7 extension).

Implements the memory-dependent distributed communication bound in the
style of [ITT04]/[Kni15]: with ``P`` processors each holding ``M_local``
words, a balanced execution gives every processor ``prod L / P``
operations, and the §4 tile-size bound caps the operations one
processor completes per ``M_local`` words received, yielding::

    words_per_processor >= (prod L / P) * M_local ** (1 - k_hat)

with ``k_hat`` the arbitrary-bound exponent — so the small-bound
corrections of the paper carry over to the distributed setting
unchanged.  :func:`simulate_grid` measures the footprint-based traffic
of an actual processor grid for comparison, and 1-D splits provide the
baseline the benchmarks contrast against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from ..core.bounds import tile_exponent
from ..core.loopnest import LoopNest
from ..util.rationals import pow_fraction
from .grid import GridCost, grid_cost, optimal_grid

__all__ = [
    "DistributedReport",
    "distributed_lower_bound",
    "simulate_grid",
    "one_dimensional_split",
]


@dataclass(frozen=True)
class DistributedReport:
    """Per-processor traffic of a grid execution vs the lower bound."""

    nest_name: str
    P: int
    grid: tuple[int, ...]
    words_per_processor: int
    lower_bound_words: float
    #: The exact §4 exponent at ``M_local`` behind the bound.
    k_hat: Fraction

    @property
    def ratio(self) -> float:
        if self.lower_bound_words <= 0:
            return float("inf")
        return self.words_per_processor / self.lower_bound_words

    def summary(self) -> str:
        g = "x".join(str(p) for p in self.grid)
        return (
            f"{self.nest_name} P={self.P} grid={g}: {self.words_per_processor} "
            f"words/proc (bound {self.lower_bound_words:.4g}, ratio {self.ratio:.2f})"
        )


def distributed_lower_bound(nest: LoopNest, P: int, M_local: int) -> float:
    """Memory-dependent per-processor communication lower bound (words).

    Composes the §4 exponent at the local memory size with balanced
    work; also floored by the balanced share of the largest array a
    processor cannot own (read-once floor divided by P).  Solves the
    exponent's LP.
    """
    _check_machine(P, M_local)
    return _bound_from_k_hat(nest, P, M_local, tile_exponent(nest, M_local))


def _check_machine(P: int, M_local: int) -> None:
    if P < 1:
        raise ValueError("P must be >= 1")
    if M_local < 2:
        raise ValueError("M_local must be >= 2")


def _bound_from_k_hat(nest: LoopNest, P: int, M_local: int, k_hat: Fraction) -> float:
    """:func:`distributed_lower_bound` for a known exponent ``k_hat``."""
    hbl = (nest.num_operations / P) * pow_fraction(M_local, 1 - k_hat)
    read_floor = nest.total_footprint() / P
    return max(hbl, read_floor)


def simulate_grid(
    nest: LoopNest,
    P: int,
    M_local: int,
    grid: tuple[int, ...] | None = None,
    k_hat: Fraction | None = None,
) -> DistributedReport:
    """Traffic of a grid execution (optimal grid by default) vs the bound.

    The per-processor traffic is the §7 footprint model of
    :func:`repro.parallel.grid.grid_cost`: words a processor must
    receive beyond its balanced owned share.  ``k_hat`` is the
    exponent at ``M_local`` when the caller already has it (the
    service reads it off the plan cache); otherwise the LP solves it.
    """
    cost: GridCost = grid_cost(nest, grid) if grid is not None else optimal_grid(nest, P)
    actual_P = prod(cost.grid)
    _check_machine(actual_P, M_local)
    if k_hat is None:
        k_hat = tile_exponent(nest, M_local)
    return DistributedReport(
        nest_name=nest.name,
        P=actual_P,
        grid=cost.grid,
        words_per_processor=cost.comm_words,
        lower_bound_words=_bound_from_k_hat(nest, actual_P, M_local, k_hat),
        k_hat=k_hat,
    )


def one_dimensional_split(nest: LoopNest, P: int, M_local: int, loop: int = 0) -> DistributedReport:
    """Baseline: split only one loop across all P processors."""
    if not 0 <= loop < nest.depth:
        raise ValueError("loop out of range")
    grid = tuple(P if i == loop else 1 for i in range(nest.depth))
    return simulate_grid(nest, P, M_local, grid=grid)
