"""The plan cache must be exact: every warm answer equals a cold solve.

The planner's guard (primal feasibility + strong duality against the
cached piecewise value function) is what lets it skip the simplex; the
tests here pin that guarantee across the catalog, budgets, cache sizes,
disguised structures, plan-store round-trips, eviction, ``Session.batch``,
and the batch CLI.
"""

import json
import random
from fractions import Fraction

import pytest

import repro
from repro.api import AnalyzeRequest, RequestError, Session
from repro.cli import main
from repro.core.bounds import communication_lower_bound, tile_exponent
from repro.core.tiling import solve_tiling
from repro.core.verify import check_tile
from repro.library.problems import catalog, matmul, mttkrp, nbody
from repro.plan import Planner, TilePlan

CATALOG = catalog()

# Structures cheap enough for exhaustive parity runs (tucker_core's
# multiparametric solve costs seconds and adds no new code path).
FAST_PROBLEMS = sorted(set(CATALOG) - {"tucker_core", "attention_scores"})


def assert_plan_matches_solver(plan: TilePlan, nest, cache_words, budget):
    sol = solve_tiling(nest, cache_words, budget=budget)
    assert plan.exponent == sol.exponent
    assert sum(plan.lambdas, Fraction(0)) == plan.exponent
    assert plan.tile.is_feasible(cache_words, budget)
    # The plan's lambdas must be LP-feasible w.r.t. the same effective
    # cache solve_tiling uses (vertex choice may differ; value may not).
    effective = (
        cache_words if budget == "per-array" else max(1, cache_words // nest.num_arrays)
    )
    if effective >= 2:
        betas = nest.betas(effective)
        for lam, beta in zip(plan.lambdas, betas):
            assert 0 <= lam <= beta
        for arr in nest.arrays:
            if arr.support:
                assert sum((plan.lambdas[i] for i in arr.support), Fraction(0)) <= 1


class TestPlannerParity:
    @pytest.mark.parametrize("name", FAST_PROBLEMS, ids=str)
    def test_matches_solve_tiling_everywhere(self, name):
        nest = CATALOG[name]
        planner = Planner()
        for cache_words in (16, 1024, 2**16):
            for budget in ("per-array", "aggregate"):
                if budget == "aggregate" and cache_words < nest.num_arrays:
                    continue
                plan = planner.plan(nest, cache_words, budget=budget)
                assert_plan_matches_solver(plan, nest, cache_words, budget)

    @pytest.mark.parametrize("name", ["matmul", "nbody", "mttkrp"], ids=str)
    def test_lower_bound_matches_direct_computation(self, name):
        nest = CATALOG[name]
        planner = Planner()
        for cache_words in (64, 4096):
            for budget in ("per-array", "aggregate"):
                plan = planner.plan(nest, cache_words, budget=budget)
                direct = communication_lower_bound(nest, cache_words)
                assert plan.lower_bound.k_hat == direct.k_hat
                assert plan.lower_bound.value == direct.value
                assert plan.lower_bound.hong_kung_words == direct.hong_kung_words

    def test_warm_answers_stay_exact_across_a_sweep(self):
        """Many bounds against one structure: the map-reuse hot path."""
        rng = random.Random("sweep")
        planner = Planner()
        for _ in range(60):
            nest = matmul(
                rng.choice([3, 100, 512, 4096]),
                rng.choice([7, 64, 2048]),
                rng.choice([2, 16, 999]),
            )
            plan = planner.plan(nest, 2**14)
            assert_plan_matches_solver(plan, nest, 2**14, "per-array")
        assert planner.stats.structure_solves == 1
        assert planner.stats.primal_map_hits > 40

    def test_disguised_structures_share_one_solve(self):
        planner = Planner()
        rng = random.Random("disguise")
        base = CATALOG["matmul"]
        plans = []
        for _ in range(12):
            order = list(range(base.depth))
            rng.shuffle(order)
            nest = base.permuted(order).with_bounds(
                [rng.choice([64, 512, 4096]) for _ in range(base.depth)]
            )
            plans.append(planner.plan(nest, 2**16))
        assert planner.stats.structure_solves == 1
        assert planner.stats.structure_hits == 11
        for plan in plans:
            assert_plan_matches_solver(plan, plan.nest, 2**16, "per-array")

    def test_tiling_solution_adapter_passes_verifier(self):
        planner = Planner()
        nest = CATALOG["mttkrp"]
        sol = planner.plan(nest, 2**12).tiling_solution()
        check = check_tile(sol.nest, sol.tile, 2**12, sol.exponent)
        assert check.ok

    def test_validation_errors(self):
        planner = Planner()
        with pytest.raises(ValueError):
            planner.plan(CATALOG["matmul"], 1)
        with pytest.raises(ValueError):
            planner.plan(CATALOG["matmul"], 4096, budget="bogus")
        with pytest.raises(ValueError):
            planner.plan(CATALOG["matmul"], 2, budget="aggregate")
        with pytest.raises(ValueError):
            Planner(capacity=0)

    def test_degenerate_aggregate_cache_gives_unit_tile(self):
        nest = CATALOG["matmul"]
        plan = Planner().plan(nest, 4, budget="aggregate")
        assert plan.tile.blocks == (1, 1, 1)
        assert plan.exponent == 0
        assert plan.lower_bound is not None

    def test_astronomical_bounds_bypass_the_piece_cache(self):
        # beta > 64 lies outside the pruned piece set's certified domain;
        # both the tile path and the aggregate-budget lower-bound path
        # must fall back to the exact LP and still match the direct solve.
        nest = matmul(3**65, 4, 4)
        planner = Planner()
        for budget in ("per-array", "aggregate"):
            plan = planner.plan(nest, 3, budget=budget)
            assert plan.exponent == solve_tiling(nest, 3, budget=budget).exponent
            direct = communication_lower_bound(nest, 3)
            assert plan.lower_bound.k_hat == direct.k_hat


    @pytest.mark.parametrize("name", FAST_PROBLEMS, ids=str)
    def test_exponent_matches_tile_exponent(self, name):
        # The value-only query the distributed route uses: no primal
        # recovery, and no LP once the structure is warm.
        nest = CATALOG[name]
        planner = Planner()
        rng = random.Random(name)
        for cache_words in (2, 100, 4096, 2**16):
            bounds = [rng.choice([1, 3, 100, 777, 4096]) for _ in nest.bounds]
            probe = nest.with_bounds(bounds)
            assert planner.exponent(probe, cache_words) == tile_exponent(probe, cache_words)
        assert planner.stats.primal_lp_solves == 0
        assert planner.stats.primal_map_hits == 0

    def test_exponent_beyond_beta_cap_and_validation(self):
        nest = matmul(3**65, 4, 4)
        assert Planner().exponent(nest, 3) == tile_exponent(nest, 3)
        with pytest.raises(ValueError):
            Planner().exponent(nest, 1)

class TestCacheMechanics:
    def test_lru_eviction_order(self):
        planner = Planner(capacity=2)
        planner.plan(matmul(8, 8, 8), 64)
        planner.plan(nbody(8, 8), 64)
        planner.plan(matmul(16, 16, 16), 64)  # refreshes matmul
        planner.plan(mttkrp(8, 8, 8, 8), 64)  # evicts nbody
        keys = planner.cached_keys()
        assert len(keys) == 2
        assert planner.stats.evictions == 1
        assert repro.canonical_key(CATALOG["nbody"]) not in keys
        assert repro.canonical_key(CATALOG["matmul"]) in keys

    def test_persistence_round_trip(self, tmp_path):
        first = Planner(shared_store=tmp_path)
        plan_a = first.plan(CATALOG["matmul"], 2**16)
        first.plan(CATALOG["nbody"], 2**12)

        # A second planner on the same store (a later run) adopts every
        # structure on its first miss instead of re-solving it.
        second = Planner(shared_store=tmp_path)
        plan_b = second.plan(CATALOG["matmul"], 2**16)
        second.plan(CATALOG["nbody"], 2**12)
        assert second.stats.structure_solves == 0
        assert sorted(second.cached_keys()) == sorted(first.cached_keys())
        assert plan_b.exponent == plan_a.exponent
        assert plan_b.tile.blocks == plan_a.tile.blocks
        assert plan_b.cache_hit

    def test_persisted_pieces_are_exact_fractions(self, tmp_path):
        planner = Planner(shared_store=tmp_path)
        planner.plan(CATALOG["matmul"], 2**16)
        key = repro.canonical_key(CATALOG["matmul"])
        (shard,) = tmp_path.glob("shard-*.json")
        entry = json.loads(shard.read_text())["entries"][key]
        constants = {piece["c"] for piece in entry["pieces"]}
        assert "3/2" in constants  # the classical sqrt(M) piece, exactly


class TestPlanBatch:
    """``Session.batch``: one planner, request order, every tuple spelling."""

    def test_ordered_results_and_tuple_requests(self):
        reqs = [
            (matmul(64, 64, 64), 4096),
            AnalyzeRequest(nest=CATALOG["nbody"], cache_words=1024),
            (mttkrp(32, 32, 32, 8), 4096, "aggregate"),
        ]
        plans = [result.detail for result in Session().batch(reqs)]
        assert [p.nest.name for p in plans] == ["matmul", "nbody", "mttkrp"]
        for plan in plans:
            assert_plan_matches_solver(plan, plan.nest, plan.cache_words, plan.budget)

    def test_warm_batch_never_resolves_structures(self):
        session = Session()
        reqs = [(matmul(2**i, 64, 64), 4096) for i in range(4, 10)]
        session.batch(reqs)
        solves = session.planner.stats.structure_solves
        results = session.batch(reqs)
        assert session.planner.stats.structure_solves == solves == 1
        assert all(result.cache_hit for result in results)

    def test_empty_batch(self):
        assert Session().batch([]) == []

    def test_bad_request_tuples_rejected(self):
        with pytest.raises(RequestError):
            Session().batch([CATALOG["matmul"]])
        with pytest.raises(RequestError):
            Session().batch([(CATALOG["matmul"], 64, "per-array", "extra")])


class TestBatchCLI:
    def test_batch_mode_emits_ordered_jsonl(self, tmp_path, capsys):
        requests = [
            {"problem": "matmul", "sizes": [256, 256, 16], "cache_words": 4096},
            {"problem": "syrk", "sizes": [256, 32], "cache_words": 4096},
            {
                "statement": "F[i] += P[i] * Q[j]",
                "bounds": {"i": 512, "j": 512},
                "cache_words": 256,
                "name": "pairwise",
            },
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests))
        rc = main(["--batch", str(path)])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        # Each line is a schema-v1 Result envelope around the plan payload.
        assert all(entry["schema_version"] == 1 for entry in lines)
        payloads = [entry["payload"] for entry in lines]
        assert [p["name"] for p in payloads] == ["matmul", "syrk", "pairwise"]
        # matmul and syrk share one canonical structure.
        assert payloads[0]["canonical_key"] == payloads[1]["canonical_key"]
        sol = solve_tiling(matmul(256, 256, 16), 4096)
        assert Fraction(payloads[0]["k_hat"]) == sol.exponent

    def test_batch_mode_with_plan_cache(self, tmp_path, capsys, monkeypatch):
        requests = [{"problem": "matvec", "cache_words": 1024},
                    {"problem": "matmul", "cache_words": 1024}]
        req_path = tmp_path / "requests.json"
        req_path.write_text(json.dumps({"requests": requests}))
        store = tmp_path / "plans"
        argv = ["--batch", str(req_path), "--plan-cache", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        assert list(store.glob("shard-*.json"))
        # Second run adopts from the store: nothing is solved again and
        # every query is a structure hit.
        def no_solve(nest):
            raise AssertionError("structure re-solved despite the plan store")

        monkeypatch.setattr("repro.plan.planner.parametric_tile_exponent", no_solve)
        assert main(argv) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert len(lines) == 2
        assert all(ln["meta"]["cache_hit"] is True for ln in lines)

    def test_sweep_mode_problem(self, capsys):
        rc = main([
            "--problem", "matmul", "--sweep",
            "--sizes", "64:128,64,16", "-M", "256:1024",
        ])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 4
        assert [(e["payload"]["bounds"][0], e["payload"]["cache_words"]) for e in lines] == [
            (64, 256), (64, 1024), (128, 256), (128, 1024),
        ]

    def test_sweep_mode_statement(self, capsys):
        rc = main([
            "F[i] += P[i] * Q[j]", "--sweep",
            "--bounds", "i=64:128,j=32", "-M", "64",
        ])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [entry["payload"]["bounds"] for entry in lines] == [[64, 32], [128, 32]]

    def test_batch_conflicts_with_problem(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text("[]")
        with pytest.raises(SystemExit):
            main(["--problem", "matmul", "--batch", str(path)])

    def test_bad_batch_file(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"problem": "matmul"}]))  # no cache_words
        assert main(["--batch", str(path)]) == 2
        assert "cache_words" in capsys.readouterr().err
        path.write_text("{not json")
        assert main(["--batch", str(path)]) == 2

    def test_missing_batch_file(self, capsys):
        assert main(["--batch", "/nonexistent/requests.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_bad_sizes_arity_is_a_clean_error(self, capsys):
        rc = main(["--problem", "matmul", "--sweep", "--sizes", "64", "-M", "256"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_batch_bad_cache_words_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"problem": "matmul", "cache_words": "abc"}]))
        assert main(["--batch", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_invalid_cache_size_is_a_clean_error(self, capsys):
        rc = main(["--problem", "matvec", "--sweep", "--sizes", "64,64", "-M", "0:256"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
