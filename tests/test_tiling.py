"""Tests for the tiling LP and integer tile repair (§5)."""

import random
from fractions import Fraction as F
from math import prod

import pytest

from repro.core.integer import nested_integer_repair
from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.tiling import (
    TileShape,
    _max_block,
    build_tiling_lp,
    clamp_block,
    integer_repair,
    solve_tiling,
)
from repro.library.problems import (
    matmul,
    matvec,
    mttkrp,
    nbody,
    pointwise_conv,
    tensor_contraction,
)


class TestTileShape:
    def test_volume_and_footprints(self):
        mm = matmul(8, 8, 8)
        t = TileShape(nest=mm, blocks=(2, 4, 8))
        assert t.volume == 64
        assert t.footprint(0) == 16  # C: b1*b3
        assert t.footprint(1) == 8  # A: b1*b2
        assert t.footprint(2) == 32  # B: b2*b3
        assert t.total_footprint() == 56

    def test_feasibility_budgets(self):
        mm = matmul(8, 8, 8)
        t = TileShape(nest=mm, blocks=(2, 4, 8))
        assert t.is_feasible(32, budget="per-array")
        assert not t.is_feasible(31, budget="per-array")
        assert t.is_feasible(56, budget="aggregate")
        assert not t.is_feasible(55, budget="aggregate")
        with pytest.raises(ValueError):
            t.is_feasible(32, budget="weird")

    def test_block_bounds_validation(self):
        mm = matmul(8, 8, 8)
        with pytest.raises(ValueError):
            TileShape(nest=mm, blocks=(0, 1, 1))
        with pytest.raises(ValueError):
            TileShape(nest=mm, blocks=(9, 1, 1))
        with pytest.raises(ValueError):
            TileShape(nest=mm, blocks=(1, 1))

    def test_grid(self):
        mm = matmul(10, 8, 8)
        t = TileShape(nest=mm, blocks=(3, 4, 8))
        assert t.grid_extents() == (4, 2, 1)
        assert t.num_tiles == 8


class TestTilingLP:
    M = 2**16

    def test_matmul_cube(self):
        sol = solve_tiling(matmul(2**10, 2**10, 2**10), self.M)
        assert sol.exponent == F(3, 2)
        assert sol.lambdas == (F(1, 2), F(1, 2), F(1, 2))
        assert sol.tile.blocks == (256, 256, 256)

    def test_matmul_small_l3_paper_tiles(self):
        # §6.1: for beta3 <= 1/2 the optimum is 1 + beta3 and both
        # (M/L3, L3, L3) and (sqrt M, sqrt M, L3) shapes attain it.
        nest = matmul(2**12, 2**12, 2**4)
        sol = solve_tiling(nest, self.M)
        assert sol.exponent == F(5, 4)
        t = sol.tile
        assert t.is_feasible(self.M, "per-array")
        # The integer tile attains the bound up to rounding: volume within
        # a factor 8 (=2^d) of M^(5/4).
        assert t.volume >= self.M ** 1.25 / 8

    def test_matvec_tile(self):
        nest = matvec(2**12, 2**12)
        sol = solve_tiling(nest, self.M)
        # k = 1: tile with b1*b2 <= M.
        assert sol.exponent == 1
        assert sol.tile.footprint(1) <= self.M

    def test_whole_problem_fits(self):
        nest = nbody(2**4, 2**4)
        sol = solve_tiling(nest, self.M)
        assert sol.tile.blocks == (16, 16)
        assert sol.tile.num_tiles == 1

    def test_blocks_never_exceed_bounds(self):
        for nest in [
            matmul(100, 3, 7),
            pointwise_conv(3, 5, 17, 9, 11),
            mttkrp(33, 5, 44, 7),
        ]:
            sol = solve_tiling(nest, 2**10)
            for b, L in zip(sol.tile.blocks, nest.bounds):
                assert 1 <= b <= L

    def test_integer_tile_always_feasible(self):
        for M in (7, 64, 1000, 2**14):
            for nest in [
                matmul(50, 60, 70),
                nbody(1000, 3),
                tensor_contraction((9, 9), (5,), (11,)),
            ]:
                sol = solve_tiling(nest, M)
                assert sol.tile.is_feasible(M, "per-array"), (nest.name, M)

    def test_aggregate_budget(self):
        nest = matmul(2**10, 2**10, 2**10)
        sol = solve_tiling(nest, self.M, budget="aggregate")
        assert sol.tile.total_footprint() <= self.M

    def test_grow_repair_beats_naive_floor(self):
        # With M = 10 and matmul, floors of M^lambda lose a lot; the
        # repair must recover a substantially larger feasible tile.
        nest = matmul(100, 100, 100)
        sol = solve_tiling(nest, 10)
        floored = prod(max(1, int(f)) for f in sol.fractional_blocks)
        assert sol.tile.volume >= floored

    def test_cache_of_one(self):
        sol = solve_tiling(matmul(4, 4, 4), 1)
        assert sol.tile.blocks == (1, 1, 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_tiling(matmul(4, 4, 4), 0)
        with pytest.raises(ValueError):
            solve_tiling(matmul(4, 4, 4), 16, budget="bogus")
        with pytest.raises(ValueError):
            build_tiling_lp(matmul(4, 4, 4), 16, betas=[1, 1])


class TestIntegerRepairClamp:
    """Regressions for the ``min(L, max(1, round(x)))`` clamp at skewed bounds."""

    def test_extent_above_bound_clamps_to_bound(self):
        # A loop bound smaller than the analytic tile extent must yield
        # the bound itself, never 0 and never above L.
        nest = matmul(4, 10_000, 3)
        tile = integer_repair(nest, [900.0, 2.5, 700.0], 10**6, "per-array")
        for b, L in zip(tile.blocks, nest.bounds):
            assert 1 <= b <= L
        assert tile.is_feasible(10**6, "per-array")

    def test_extent_below_one_clamps_to_unit(self):
        nest = nbody(7, 1)
        tile = integer_repair(nest, [0.3, 0.0001], 4, "per-array")
        assert all(b >= 1 for b in tile.blocks)
        assert tile.is_feasible(4, "per-array")

    def test_infeasible_fractional_input_is_repaired(self):
        # Defensive-caller path: garbage extents way over budget must
        # still come back feasible (shrink pre-pass), not crash.
        nest = matmul(64, 64, 64)
        tile = integer_repair(nest, [64.0, 64.0, 64.0], 32, "aggregate")
        assert tile.total_footprint() <= 32

    def test_round_up_overshoot_recovers(self):
        # Rounding 3.6 -> 4 per side busts the per-array budget (every
        # matmul footprint becomes 16 > 12); the shrink pre-pass must
        # kick in and the result still be feasible and no smaller than
        # the floored tile volume.
        nest = matmul(100, 100, 100)
        start = tuple(min(L, max(1, round(3.6))) for L in nest.bounds)
        assert not TileShape(nest=nest, blocks=start).is_feasible(12, "per-array")
        tile = integer_repair(nest, [3.6, 3.6, 3.6], 12, "per-array")
        assert tile.is_feasible(12, "per-array")
        assert tile.volume >= 3 * 3 * 3

    def test_skewed_bound_solves_across_budgets(self):
        # End-to-end regressions: skewed/small bounds where rationals
        # collide with tiny loop extents.
        for nest in [
            matmul(1, 1, 4096),
            matmul(2, 4096, 2),
            nbody(1, 4096),
            mttkrp(3, 1, 4096, 2),
            tensor_contraction((1,), (4096,), (1, 3)),
        ]:
            for M in (4, 10, 2**12):
                for budget in ("per-array", "aggregate"):
                    sol = solve_tiling(nest, M, budget=budget)
                    for b, L in zip(sol.tile.blocks, nest.bounds):
                        assert 1 <= b <= L, (nest.name, M, budget)
                    assert sol.tile.is_feasible(M, budget), (nest.name, M, budget)


class TestLPStructure:
    def test_rows_match_arrays(self):
        lp = build_tiling_lp(matmul(4, 4, 4), 16)
        names = [c.name for c in lp.constraints]
        assert names == ["cap[C]", "cap[A]", "cap[B]"]

    def test_scalar_array_skipped(self):
        from repro.library.problems import dot_product

        lp = build_tiling_lp(dot_product(16), 4)
        # Scalar output contributes no capacity row.
        assert [c.name for c in lp.constraints] == ["cap[u]", "cap[v]"]

    def test_upper_bounds_are_betas(self):
        nest = matmul(2**4, 2**8, 2**2)
        lp = build_tiling_lp(nest, 2**16)
        assert [lp.bounds[v][1] for v in lp.variables] == [F(1, 4), F(1, 2), F(1, 8)]


def _max_block_by_search(nest, blocks, i, cache_words, budget):
    """The binary search the closed-form ``_max_block`` replaced; the oracle."""
    lo, hi = blocks[i], nest.bounds[i]

    def ok(value):
        trial = list(blocks)
        trial[i] = value
        return TileShape(nest=nest, blocks=tuple(trial)).is_feasible(cache_words, budget)

    assert ok(lo)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _repair_by_search(nest, fractional, cache_words, budget, floors):
    """The pre-closed-form ``integer_repair``: shrink, then search to a fixpoint."""
    blocks = [max(f_lo, clamp_block(f, L)) for f, L, f_lo in zip(fractional, nest.bounds, floors)]
    while not TileShape(nest=nest, blocks=tuple(blocks)).is_feasible(cache_words, budget):
        shrinkable = [k for k in range(nest.depth) if blocks[k] > floors[k]]
        if not shrinkable:
            return tuple(blocks)
        i = max(shrinkable, key=lambda k: blocks[k])
        blocks[i] = max(floors[i], blocks[i] // 2)
    changed = True
    while changed:
        changed = False
        for i in range(nest.depth):
            best = _max_block_by_search(nest, blocks, i, cache_words, budget)
            if best > blocks[i]:
                blocks[i] = best
                changed = True
    return tuple(blocks)


def _random_nest(rng):
    depth = rng.randint(1, 6)
    while True:
        supports = [
            tuple(sorted(rng.sample(range(depth), rng.randint(0, depth))))
            for _ in range(rng.randint(1, 5))
        ]
        if len(set().union(*supports)) == depth:
            break
    return LoopNest(
        name="random",
        loops=tuple(f"x{i}" for i in range(depth)),
        bounds=tuple(rng.choice([1, 2, 3, 7, 64, 100, 1000, 5000]) for _ in range(depth)),
        arrays=tuple(ArrayRef(f"A{j}", s) for j, s in enumerate(supports)),
    )


class TestClosedFormMaxBlock:
    """``_max_block`` and ``integer_repair`` against the binary search."""

    @pytest.mark.parametrize("budget", ["per-array", "aggregate"])
    def test_max_block_matches_search(self, budget):
        rng = random.Random(f"max-block/{budget}")
        checked = 0
        while checked < 1500:
            nest = _random_nest(rng)
            cache = rng.choice([1, 2, 5, 16, 100, 1024, 2**14, 10**6])
            blocks = [rng.randint(1, L) for L in nest.bounds]
            if not TileShape(nest=nest, blocks=tuple(blocks)).is_feasible(cache, budget):
                blocks = [1] * nest.depth
                if not TileShape(nest=nest, blocks=tuple(blocks)).is_feasible(cache, budget):
                    continue
            for i in range(nest.depth):
                assert _max_block(nest, blocks, i, cache, budget) == _max_block_by_search(
                    nest, blocks, i, cache, budget
                ), (nest.arrays, nest.bounds, blocks, i, cache)
            checked += 1

    @pytest.mark.parametrize("budget", ["per-array", "aggregate"])
    def test_integer_repair_matches_search(self, budget):
        rng = random.Random(f"repair/{budget}")
        for _ in range(800):
            nest = _random_nest(rng)
            cache = rng.choice([2, 5, 16, 100, 1024, 2**14, 10**6])
            fractional = [rng.uniform(0.1, 1.5 * L) for L in nest.bounds]
            floors = (1,) * nest.depth
            got = integer_repair(nest, fractional, cache, budget)
            assert got.blocks == _repair_by_search(nest, fractional, cache, budget, floors)

    @pytest.mark.parametrize("budget", ["per-array", "aggregate"])
    def test_nested_repair_floors_match_search(self, budget):
        # Non-unit floors as nested_integer_repair passes them: the
        # previous level's repaired blocks.
        rng = random.Random(f"nested/{budget}")
        for _ in range(400):
            nest = _random_nest(rng)
            inner = rng.choice([4, 16, 64, 256])
            capacities = (inner, inner * rng.choice([2, 4, 8]), inner * 64)
            levels = [
                [rng.uniform(0.5, 1.2 * L) for L in nest.bounds] for _ in capacities
            ]
            tiles = nested_integer_repair(nest, levels, capacities, budget)
            floors = (1,) * nest.depth
            for fractional, capacity, tile in zip(levels, capacities, tiles):
                expected = _repair_by_search(nest, fractional, capacity, budget, floors)
                assert tile.blocks == expected
                floors = tile.blocks
