"""Tests for the §7 multiprocessor extension."""

import json
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.requests import DistributedRequest
from repro.core.bounds import tile_exponent
from repro.library.problems import matmul, matvec, nbody
from repro.parallel.distributed import (
    distributed_lower_bound,
    one_dimensional_split,
    simulate_grid,
)
from repro.parallel.grid import factor_grids, grid_cost, lp_grid, optimal_grid


class TestFactorGrids:
    def test_count_for_p8_d3(self):
        grids = list(factor_grids(8, 3))
        assert all(prod(g) == 8 for g in grids)
        # Ordered factorizations of 2^3 into 3 factors: C(3+2,2) = 10.
        assert len(grids) == 10

    def test_p1(self):
        assert list(factor_grids(1, 2)) == [(1, 1)]

    def test_d1(self):
        assert list(factor_grids(6, 1)) == [(6,)]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(factor_grids(0, 2))


class TestGridCost:
    def test_matmul_cube_grid(self):
        nest = matmul(512, 512, 512)
        cost = grid_cost(nest, (4, 4, 4))
        assert cost.block == (128, 128, 128)
        assert cost.footprint_words == 3 * 128 * 128
        # owned share = 512^2/64 = 4096 per array.
        assert cost.comm_words == 3 * (128 * 128 - 4096)

    def test_validation(self):
        nest = matmul(8, 8, 8)
        with pytest.raises(ValueError):
            grid_cost(nest, (2, 2))
        with pytest.raises(ValueError):
            grid_cost(nest, (0, 2, 2))


class TestOptimalGrid:
    def test_matmul_prefers_cubic(self):
        # The classic 3D result: balanced cube grid minimises traffic.
        best = optimal_grid(matmul(512, 512, 512), 64)
        assert best.grid == (4, 4, 4)

    def test_matvec_splits_both_dims(self):
        best = optimal_grid(matvec(2**10, 2**10), 16)
        assert prod(best.grid) == 16
        # A dominates traffic; splitting evenly across rows/cols wins
        # over any 1-D split.
        one_d = grid_cost(matvec(2**10, 2**10), (16, 1))
        assert best.comm_words <= one_d.comm_words

    def test_skewed_bounds_skew_grid(self):
        # x1 much longer than x3: optimal grid puts more processors on x1.
        best = optimal_grid(matmul(2**12, 2**6, 2**6), 16)
        assert best.grid[0] >= best.grid[1]
        assert best.grid[0] >= best.grid[2]

    def test_footprint_objective(self):
        best = optimal_grid(matmul(256, 256, 256), 8, objective="footprint")
        assert best.grid == (2, 2, 2)
        with pytest.raises(ValueError):
            optimal_grid(matmul(8, 8, 8), 4, objective="latency")


class TestLPGrid:
    def test_matches_exhaustive_for_cube(self):
        nest = matmul(512, 512, 512)
        mu, t = lp_grid(nest, 64)
        # mu = (2, 2, 2) in log2 -> grid 4x4x4; makespan = log2(128^2) = 14.
        assert mu == (F(2), F(2), F(2))
        assert t == 14

    def test_infeasible_when_p_too_large(self):
        with pytest.raises(RuntimeError):
            lp_grid(matmul(2, 2, 2), 1024)


class TestDistributed:
    def test_lower_bound_decreases_with_p(self):
        nest = matmul(512, 512, 512)
        b1 = distributed_lower_bound(nest, 1, 2**12)
        b64 = distributed_lower_bound(nest, 64, 2**12)
        assert b64 < b1

    def test_lower_bound_validation(self):
        with pytest.raises(ValueError):
            distributed_lower_bound(matmul(8, 8, 8), 0, 64)
        with pytest.raises(ValueError):
            distributed_lower_bound(matmul(8, 8, 8), 4, 1)

    def test_simulate_grid_ratio_small(self):
        rep = simulate_grid(matmul(512, 512, 512), 64, 2**12)
        assert rep.ratio < 4.0
        assert "words/proc" in rep.summary()

    def test_one_d_split_worse_than_optimal(self):
        opt = simulate_grid(matmul(512, 512, 512), 64, 2**12)
        bad = one_dimensional_split(matmul(512, 512, 512), 64, 2**12)
        assert bad.words_per_processor > 2 * opt.words_per_processor

    def test_one_d_split_validation(self):
        with pytest.raises(ValueError):
            one_dimensional_split(matmul(8, 8, 8), 4, 64, loop=5)

    def test_nbody_grid(self):
        rep = simulate_grid(nbody(2**12, 2**12), 16, 2**10)
        assert prod(rep.grid) == 16
        assert rep.words_per_processor >= 0


class TestDistributedGolden:
    """Session-served distributed payloads against the LP-backed bound.

    ``tests/golden/distributed_payloads.json`` was captured with the
    exponent solved by the exact LP (:func:`distributed_lower_bound`);
    the session now reads it off the plan cache.
    """

    GOLDEN = json.loads(
        (Path(__file__).parent / "golden" / "distributed_payloads.json").read_text()
    )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_payload_matches_golden(self, name):
        case = self.GOLDEN[name]
        request = DistributedRequest.from_json(case["request"])
        payload = Session().distributed(request).payload
        assert json.dumps(payload, sort_keys=True) == json.dumps(case["payload"], sort_keys=True)
        assert F(payload["lower_bound_k_hat"]) == tile_exponent(
            request.nest, request.memory_words
        )

    def test_warm_request_runs_no_lp(self, monkeypatch):
        session = Session()
        body = {"problem": "mttkrp", "sizes": [300, 200, 100, 30], "memory_words": 1000}
        session.distributed(DistributedRequest.from_json({**body, "processors": 6}))
        solves = session.planner.stats.structure_solves

        def no_lp(*args, **kwargs):
            raise AssertionError("warm distributed request ran an LP")

        monkeypatch.setattr("repro.core.lp.solve_lp", no_lp)
        monkeypatch.setattr("repro.core.mplp.solve_lp", no_lp)
        result = session.distributed(
            DistributedRequest.from_json({**body, "sizes": [301, 77, 1003, 29], "processors": 8})
        )
        assert result.ok
        assert session.planner.stats.structure_solves == solves
