"""The plan cache must be exact: every warm answer equals a cold solve.

The planner's guard (primal feasibility + strong duality against the
cached piecewise value function) is what lets it skip the simplex; the
tests here pin that guarantee across the catalog, budgets, cache sizes,
disguised structures, persistence round-trips, eviction, the batch
engine, and the batch CLI.
"""

import json
import random
from fractions import Fraction

import pytest

import repro
from repro.cli import main
from repro.core.bounds import communication_lower_bound, tile_exponent
from repro.core.tiling import solve_tiling
from repro.core.verify import check_tile
from repro.library.problems import catalog, matmul, mttkrp, nbody
from repro.plan import Planner, PlanRequest, TilePlan, plan_batch, sweep_requests

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
        path = tmp_path / "plans.json"
        first = Planner(cache_path=path)
        plan_a = first.plan(CATALOG["matmul"], 2**16)
        first.plan(CATALOG["nbody"], 2**12)
        first.save()

        second = Planner(cache_path=path)
        assert sorted(second.cached_keys()) == sorted(first.cached_keys())
        plan_b = second.plan(CATALOG["matmul"], 2**16)
        # Loaded structures serve without any multiparametric re-solve.
        assert second.stats.structure_solves == 0
        assert plan_b.exponent == plan_a.exponent
        assert plan_b.tile.blocks == plan_a.tile.blocks
        assert plan_b.cache_hit

    def test_persisted_pieces_are_exact_fractions(self, tmp_path):
        path = tmp_path / "plans.json"
        planner = Planner(cache_path=path)
        planner.plan(CATALOG["matmul"], 2**16)
        planner.save()
        blob = json.loads(path.read_text())
        entry = blob["entries"][repro.canonical_key(CATALOG["matmul"])]
        constants = {piece["c"] for piece in entry["pieces"]}
        assert "3/2" in constants  # the classical sqrt(M) piece, exactly

    def test_unsupported_cache_version_quarantined(self, tmp_path):
        # An unreadable cache must never take the planner down: the bad
        # file is moved aside as <name>.corrupt and planning starts from
        # an empty cache.
        path = tmp_path / "plans.json"
        original = json.dumps({"version": 999, "entries": {}})
        path.write_text(original)
        planner = Planner(cache_path=path)
        assert planner.cached_keys() == []
        assert not path.exists()
        corrupt = tmp_path / "plans.json.corrupt"
        assert corrupt.read_text() == original
        # And the planner still works end to end afterwards.
        plan = planner.plan(CATALOG["matmul"], 2**12)
        assert plan.exponent > 0

    def test_truncated_cache_quarantined(self, tmp_path):
        # Simulates a crash mid-write by a non-atomic writer (or disk
        # corruption): half a JSON document on disk.
        path = tmp_path / "plans.json"
        good = Planner(cache_path=path)
        good.plan(CATALOG["matmul"], 2**12)
        good.save()
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        planner = Planner(cache_path=path)
        assert planner.cached_keys() == []
        assert (tmp_path / "plans.json.corrupt").exists()
        assert not path.exists()

    def test_empty_cache_file_quarantined(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("")
        planner = Planner(cache_path=path)
        assert planner.cached_keys() == []
        assert (tmp_path / "plans.json.corrupt").exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        # A bit-flipped entry is caught by the embedded sha256 even when
        # the JSON itself still parses.
        path = tmp_path / "plans.json"
        good = Planner(cache_path=path)
        good.plan(CATALOG["matmul"], 2**12)
        good.save()
        blob = json.loads(path.read_text())
        key = next(iter(blob["entries"]))
        blob["entries"][key]["pieces"][0]["c"] = "999999/7"
        path.write_text(json.dumps(blob))
        planner = Planner(cache_path=path)
        assert planner.cached_keys() == []
        assert (tmp_path / "plans.json.corrupt").exists()

    def test_quarantine_then_save_round_trips(self, tmp_path):
        # After quarantining, the same path is reusable for a fresh
        # save/load cycle.
        path = tmp_path / "plans.json"
        path.write_text("{not json")
        planner = Planner(cache_path=path)
        planner.plan(CATALOG["nbody"], 2**12)
        planner.save()
        reloaded = Planner(cache_path=path)
        assert reloaded.cached_keys() == planner.cached_keys()
        assert (tmp_path / "plans.json.corrupt").exists()

    def test_save_is_atomic_no_tmp_droppings(self, tmp_path):
        # Crash-safety contract: the write goes to a mkstemp sibling and
        # lands via os.replace; after a successful save no temp files
        # remain and the target parses as complete JSON.
        path = tmp_path / "plans.json"
        planner = Planner(cache_path=path)
        planner.plan(CATALOG["matmul"], 2**12)
        planner.save()
        planner.plan(CATALOG["nbody"], 2**12)
        planner.save()  # overwrite: still atomic, still complete
        assert [p.name for p in tmp_path.iterdir()] == ["plans.json"]
        blob = json.loads(path.read_text())
        assert len(blob["entries"]) == 2

    def test_concurrent_saves_never_interleave(self, tmp_path):
        # Many threads hammering save() on one shared planner (the
        # concurrent-Session scenario): every observable file state must
        # be a complete, parseable snapshot with all structures present.
        import threading

        path = tmp_path / "plans.json"
        planner = Planner(cache_path=path)
        for nest in (CATALOG["matmul"], CATALOG["nbody"], CATALOG["matvec"]):
            planner.plan(nest, 2**12)
        expected = sorted(planner.cached_keys())
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    planner.save()
                    blob = json.loads(path.read_text())
                    assert blob["version"] == 1
                    assert sorted(blob["entries"]) == expected
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert Planner(cache_path=path).stats.structure_solves == 0


class TestPlanBatch:
    def test_ordered_results_and_tuple_requests(self):
        reqs = [
            (matmul(64, 64, 64), 4096),
            PlanRequest(nest=CATALOG["nbody"], cache_words=1024),
            (mttkrp(32, 32, 32, 8), 4096, "aggregate"),
        ]
        plans = plan_batch(reqs, max_workers=0)
        assert [p.nest.name for p in plans] == ["matmul", "nbody", "mttkrp"]
        for plan in plans:
            assert_plan_matches_solver(plan, plan.nest, plan.cache_words, plan.budget)

    def test_parallel_warming_matches_serial(self):
        reqs = [
            (matmul(64, 64, 64), 4096),
            (CATALOG["nbody"], 1024),
            (CATALOG["matvec"], 4096),
            (mttkrp(32, 32, 32, 8), 4096),
        ]
        serial_planner = Planner()
        serial = plan_batch(reqs, planner=serial_planner, max_workers=0)
        parallel_planner = Planner()
        parallel = plan_batch(reqs, planner=parallel_planner, max_workers=2)
        assert serial_planner.stats.structure_solves == 4
        for left, right in zip(serial, parallel):
            assert left.exponent == right.exponent
            assert left.tile.blocks == right.tile.blocks
            assert left.canonical_key == right.canonical_key

    def test_warm_batch_never_resolves_structures(self):
        planner = Planner()
        reqs = [(matmul(2**i, 64, 64), 4096) for i in range(4, 10)]
        plan_batch(reqs, planner=planner, max_workers=0)
        solves = planner.stats.structure_solves
        plan_batch(reqs, planner=planner)
        assert planner.stats.structure_solves == solves == 1

    def test_empty_batch(self):
        assert plan_batch([], max_workers=0) == []

    def test_bad_request_tuples_rejected(self):
        with pytest.raises(TypeError):
            plan_batch([CATALOG["matmul"]], max_workers=0)
        with pytest.raises(TypeError):
            plan_batch([(CATALOG["matmul"], 64, "per-array", "extra")], max_workers=0)

    def test_sweep_requests_ordering(self):
        reqs = sweep_requests(matmul, [[64, 128], [64], [16]], [256, 1024])
        assert len(reqs) == 4
        assert [r.nest.bounds[0] for r in reqs] == [64, 64, 128, 128]
        assert [r.cache_words for r in reqs] == [256, 1024, 256, 1024]


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
        rc = main(["--batch", str(path), "--workers", "0"])
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

    def test_batch_mode_with_plan_cache(self, tmp_path, capsys):
        requests = [{"problem": "matvec", "cache_words": 1024}]
        req_path = tmp_path / "requests.json"
        req_path.write_text(json.dumps({"requests": requests}))
        cache_path = tmp_path / "plans.json"
        assert main(["--batch", str(req_path), "--workers", "0",
                     "--plan-cache", str(cache_path)]) == 0
        capsys.readouterr()
        assert cache_path.exists()
        # Second run loads the cache: the query is a structure hit.
        assert main(["--batch", str(req_path), "--workers", "0",
                     "--plan-cache", str(cache_path)]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["meta"]["cache_hit"] is True

    def test_sweep_mode_problem(self, capsys):
        rc = main([
            "--problem", "matmul", "--sweep", "--workers", "0",
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
            "F[i] += P[i] * Q[j]", "--sweep", "--workers", "0",
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
