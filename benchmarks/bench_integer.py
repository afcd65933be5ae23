"""E17 (ablation): integer rounding strategies for the LP tile.

DESIGN.md calls out round-and-grow as a design choice; this ablation
quantifies it against (a) plain flooring of the fractional vertex,
(b) multi-seed coordinate descent, and (c) the exhaustive integer
optimum, across cache sizes where rounding actually bites (small M).
Metric: tile volume as a fraction of the fractional bound M^k_hat.
"""

import math

import pytest

from repro.core.bruteforce import best_rectangle
from repro.core.integer import multi_seed_tile
from repro.core.tiling import TileShape, solve_tiling
from repro.library.problems import matmul, matvec, nbody, tensor_contraction
from repro.util.rationals import pow_fraction

CASES = {
    "matmul": matmul(40, 40, 40),
    "matvec": matvec(60, 60),
    "nbody": nbody(50, 50),
    "contraction": tensor_contraction((12,), (12,), (12,)),
}

SMALL_M = [3, 5, 7, 10, 13, 17, 23, 31]


@pytest.mark.parametrize("name", list(CASES), ids=str)
def test_e17_rounding_ablation(benchmark, table, name):
    nest = CASES[name]

    def ablation():
        rows = []
        for M in SMALL_M:
            sol = solve_tiling(nest, M)
            floored = TileShape(
                nest=nest,
                blocks=tuple(
                    max(1, min(L, math.floor(f + 1e-12)))
                    for f, L in zip(sol.fractional_blocks, nest.bounds)
                ),
            )
            descent = multi_seed_tile(nest, M)
            exact = best_rectangle(nest, M)
            bound = pow_fraction(M, sol.exponent)
            rows.append((M, floored, sol.tile, descent, exact, bound))
        return rows

    rows = benchmark(ablation)
    t = table(
        f"e17_{name}",
        ["M", "floor", "round&grow", "multi-seed", "exhaustive", "M^k_hat"],
    )
    for M, floored, grown, descent, exact, bound in rows:
        t.add(
            M,
            floored.volume,
            grown.volume,
            descent.volume,
            exact.volume,
            f"{bound:.1f}",
        )
        # Ordering: floor <= round&grow <= multi-seed <= exhaustive <= bound.
        assert floored.volume <= grown.volume
        assert grown.volume <= descent.volume
        assert descent.volume <= exact.volume
        assert exact.volume <= bound + 1e-9


def test_e17_aggregate_gap_summary(benchmark, table):
    """Average fraction of the fractional bound each strategy recovers."""

    def summarise():
        sums = {"floor": 0.0, "grow": 0.0, "descent": 0.0, "exact": 0.0}
        count = 0
        for nest in CASES.values():
            for M in SMALL_M:
                sol = solve_tiling(nest, M)
                bound = pow_fraction(M, sol.exponent)
                floored = TileShape(
                    nest=nest,
                    blocks=tuple(
                        max(1, min(L, math.floor(f + 1e-12)))
                        for f, L in zip(sol.fractional_blocks, nest.bounds)
                    ),
                )
                sums["floor"] += floored.volume / bound
                sums["grow"] += sol.tile.volume / bound
                sums["descent"] += multi_seed_tile(nest, M).volume / bound
                sums["exact"] += best_rectangle(nest, M).volume / bound
                count += 1
        return {k: v / count for k, v in sums.items()}, count

    means, count = benchmark(summarise)
    t = table("e17_summary", ["strategy", "mean volume / M^k_hat"])
    for key, label in [
        ("floor", "floor only"),
        ("grow", "round-and-grow (default)"),
        ("descent", "multi-seed descent"),
        ("exact", "exhaustive optimum"),
    ]:
        t.add(label, f"{means[key]:.3f}")
    # The default must recover most of the exhaustive optimum's quality.
    assert means["grow"] >= 0.8 * means["exact"]
    assert means["floor"] <= means["grow"]
