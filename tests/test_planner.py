"""The plan cache must be exact: every warm answer equals a cold solve.

The planner's guard (primal feasibility + strong duality against the
cached piecewise value function) is what lets it skip the simplex; the
tests here pin that guarantee across the catalog, budgets, cache sizes,
disguised structures, plan-store round-trips, eviction, ``Session.batch``,
and the batch CLI.
"""

import json
import random
import sys
import threading
from fractions import Fraction

import pytest

import repro
from repro.api import AnalyzeRequest, DistributedRequest, RequestError, Session
from repro.cli import main
from repro.core import lexdual
from repro.core.bounds import communication_lower_bound, tile_exponent
from repro.core.fraction_lp import solve_lp
from repro.core.loopnest import ArrayRef, LoopNest
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
    def test_every_lookup_counts_one_query_and_one_probe(self, tmp_path):
        # plan, exponent and certificate each count one query, and each
        # query probes the structure cache exactly once: a hit, a solve
        # or an adoption from the shared store.
        def balanced(stats):
            probes = stats.structure_hits + stats.structure_solves + stats.shared_hits
            return stats.queries == probes

        session = Session(Planner(shared_store=tmp_path))
        analyze = AnalyzeRequest(nest=matmul(64, 48, 32), cache_words=256, certificate=True)
        for _ in range(2):
            assert session.analyze(analyze).ok
        stats = session.stats
        assert (stats.queries, stats.structure_hits, stats.structure_solves) == (4, 3, 1)
        assert session.distributed(
            DistributedRequest(nest=nbody(300, 70), processors=6, memory_words=1000)
        ).ok
        assert session.analyze(AnalyzeRequest(nest=mttkrp(9, 8, 7, 6), cache_words=64)).ok
        assert balanced(session.stats)

        restarted = Session(Planner(shared_store=tmp_path))
        assert restarted.analyze(analyze).ok
        restarted.planner.exponent(nbody(30, 70), 100)
        restarted.planner.plan(mttkrp(9, 8, 7, 6), 64, "aggregate")
        assert restarted.stats.shared_hits == 3
        assert balanced(restarted.stats)

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


# ---------------------------------------------------------------------------
# The served vertex: the lexicographically smallest optimum, whatever the
# planner saw before.


def _lex_min_oracle(depth, rows, betas):
    """Sequential exact LPs: max sum(lambda), then min lambda_1, fix it, ..."""
    rows = [row for row in rows if row]
    a_ub = [[1 if i in row else 0 for i in range(depth)] for row in rows]
    b_ub = [1] * len(rows)
    bounds = [(0, beta) for beta in betas]
    best = solve_lp([1] * depth, a_ub, b_ub, bounds=bounds, sense="max").objective
    a_eq, b_eq = [[1] * depth], [best]
    for k in range(depth):
        unit = [1 if i == k else 0 for i in range(depth)]
        low = solve_lp(unit, a_ub, b_ub, a_eq, b_eq, bounds=bounds).objective
        a_eq.append(unit)
        b_eq.append(low)
    return tuple(b_eq[1:])


def _structure_nest(supports, bounds, name="structure"):
    return LoopNest(
        name=name,
        loops=tuple(f"x{i}" for i in range(len(bounds))),
        bounds=tuple(bounds),
        arrays=tuple(ArrayRef(f"A{j}", s, is_output=(j == 0)) for j, s in enumerate(supports)),
    )


def _random_supports(rng, depth, arrays):
    while True:
        supports = [
            tuple(sorted(rng.sample(range(depth), rng.randint(0, depth)))) for _ in range(arrays)
        ]
        if len(set().union(*supports)) == depth:
            return supports


#: LP (5.1) with a non-unique optimum on which a fresh planner used to
#: serve lambda_2 = 405183559364307/831913371846980; the lex-min optimum
#: has lambda_2 = 0.
DEGENERATE_SUPPORTS = ((0, 1, 3, 4), (2,), (2, 3, 5), (0, 1, 2, 5))
DEGENERATE_BOUNDS = (869, 60, 41, 46, 26, 342)


def _mixed_queries(seed, count):
    """(nest, cache_words, budget): catalog problems and depth-4-6 random structures."""
    rng = random.Random(seed)
    names = sorted(CATALOG)
    structures = [_random_supports(rng, rng.randint(4, 6), rng.randint(3, 5)) for _ in range(12)]
    structures.append(DEGENERATE_SUPPORTS)
    out = []
    for k in range(count):
        if k % 2:
            base = CATALOG[rng.choice(names)]
        else:
            supports = rng.choice(structures)
            base = _structure_nest(supports, (2,) * (1 + max(max(s, default=0) for s in supports)))
        bounds = [round(2 ** rng.uniform(0, 12)) for _ in range(base.depth)]
        out.append((
            base.with_bounds(bounds),
            rng.choice([16, 256, 2048, 2**16]),
            rng.choice(["per-array", "aggregate"]),
        ))
    return out


def _no_lp_fallback(monkeypatch):
    def fail(self, structure, betas):
        raise AssertionError(f"primal certificate failed on {structure.form.key()}")

    monkeypatch.setattr(Planner, "_lp_solve", fail)


def _payload(plan):
    blob = plan.to_json()
    del blob["cache_hit"]
    return json.dumps(blob, sort_keys=True)


class TestLexMinVertex:
    def assert_lex_min(self, planner, nest, cache_words, budget="per-array"):
        plan = planner.plan(nest, cache_words, budget=budget)
        effective = (
            cache_words if budget == "per-array" else max(1, cache_words // nest.num_arrays)
        )
        if effective < 2:
            return
        canon = planner.canonicalization(nest)
        canon_betas = canon.to_canonical(tuple(nest.betas(effective)))
        expected = _lex_min_oracle(nest.depth, canon.form.rows, canon_betas)
        assert plan.lambdas == canon.from_canonical(expected), (nest, cache_words, budget)

    def test_degenerate_optimum_serves_the_lex_min_vertex(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        nest = _structure_nest(DEGENERATE_SUPPORTS, DEGENERATE_BOUNDS)
        planner = Planner()
        plan = planner.plan(nest, 2048)
        assert plan.lambdas[2] == 0
        self.assert_lex_min(planner, nest, 2048)
        # A different-bounds query on the structure first changes nothing.
        warm = Planner()
        warm.plan(nest.with_bounds((12, 3000, 7, 900, 64, 5)), 2048)
        assert _payload(warm.plan(nest, 2048)) == _payload(plan)

    @pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
    def test_catalog_matches_the_oracle(self, name, monkeypatch):
        _no_lp_fallback(monkeypatch)
        rng = random.Random(f"lex-min/{name}")
        nest = CATALOG[name]
        planner = Planner()
        for _ in range(8):
            bounds = [round(2 ** rng.uniform(0, 13)) for _ in range(nest.depth)]
            cache_words = rng.choice([16, 256, 2048, 2**16])
            budget = rng.choice(["per-array", "aggregate"])
            self.assert_lex_min(planner, nest.with_bounds(bounds), cache_words, budget)

    def test_random_structures_match_the_oracle(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        rng = random.Random("lex-min/random")
        planner = Planner()
        for _ in range(30):
            depth = rng.randint(4, 6)
            supports = _random_supports(rng, depth, rng.randint(3, 5))
            for _ in range(3):
                bounds = [round(2 ** rng.uniform(0, 12)) for _ in range(depth)]
                nest = _structure_nest(supports, bounds)
                self.assert_lex_min(planner, nest, rng.choice([16, 256, 2048, 2**16]))

    def test_betas_beyond_the_prune_box_serve_one_vertex(self, monkeypatch):
        # The pieces are pruned on [0, 64]^d and serve every beta >= 0:
        # plan, exponent and certificate agree with the LPs beyond it.
        _no_lp_fallback(monkeypatch)
        planner = Planner()

        def check(nest, cache_words):
            assert max(nest.betas(cache_words)) > 64
            self.assert_lex_min(planner, nest, cache_words)
            plan = planner.plan(nest, cache_words)
            cert = planner.certificate(nest, cache_words)
            assert cert.tight and cert.primal_value == plan.exponent
            assert cert.lambdas == plan.lambdas, (nest, cache_words)
            assert planner.exponent(nest, cache_words) == tile_exponent(nest, cache_words)

        check(_structure_nest(DEGENERATE_SUPPORTS, (3**70,) + DEGENERATE_BOUNDS[1:]), 3)
        # A certificate that solved its own LP here carried
        # lambda = (0, 0, 0, 0, 1); the plan serves (1, 0, 0, 0, 0).
        check(
            _structure_nest(
                ((1,), (2, 3), (0, 1, 2, 3, 4), (0, 4), (1, 2, 3, 4)),
                (521, 2694, 10**24 + 1, 3465, 2552),
            ),
            2,
        )
        rng = random.Random("lex-min/beyond-64")
        for _ in range(20):
            depth = rng.randint(2, 6)
            supports = _random_supports(rng, depth, rng.randint(2, 5))
            bounds = [round(2 ** rng.uniform(0, 12)) for _ in range(depth)]
            bounds[rng.randrange(depth)] = rng.randint(2**65, 2**300)
            check(_structure_nest(supports, bounds), 2)

    def test_answers_do_not_depend_on_history(self, tmp_path, monkeypatch):
        _no_lp_fallback(monkeypatch)
        queries = _mixed_queries("lex-min/replay", 200)
        fresh = [_payload(Planner().plan(*query)) for query in queries]
        shared = Planner(shared_store=tmp_path)
        rng = random.Random("lex-min/orders")
        for _ in range(3):
            order = list(range(len(queries)))
            rng.shuffle(order)
            for idx in order:
                assert _payload(shared.plan(*queries[idx])) == fresh[idx], queries[idx]
        restarted = Planner(shared_store=tmp_path)
        for query, expected in zip(queries, fresh):
            assert _payload(restarted.plan(*query)) == expected, query
        assert restarted.stats.structure_solves == 0

    def test_every_warm_start_reaches_the_oracle_vertex(self):
        # Small-denominator betas make ties and degenerate vertices common.
        rng = random.Random("lex-min/dual-simplex")
        for _ in range(60):
            depth = rng.randint(1, 6)
            rows = [
                tuple(sorted(rng.sample(range(depth), rng.randint(0, depth))))
                for _ in range(rng.randint(1, 5))
            ]
            start = lexdual.slack_basis(depth, rows)
            for _ in range(3):
                betas = [
                    Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4])) for _ in range(depth)
                ]
                lambdas, start = lexdual.lex_min_vertex(start, betas)
                assert lambdas == _lex_min_oracle(depth, rows, betas), (rows, betas)

    def test_threads_sharing_the_basis_lists_serve_fresh_answers(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        queries = [q for q in _mixed_queries("lex-min/threads", 120) if q[0].depth >= 4]
        fresh = [_payload(Planner().plan(*query)) for query in queries]
        shared = Planner(capacity=4)  # evictions re-solve structures mid-run
        wrong: list = []

        def worker(offset: int) -> None:
            for k in range(len(queries)):
                idx = (k * 7 + offset) % len(queries)
                try:
                    if _payload(shared.plan(*queries[idx])) != fresh[idx]:
                        wrong.append(queries[idx])
                except Exception as exc:  # reported by the assertion below
                    wrong.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert shared.stats.queries == 6 * len(queries)

    def test_cached_bases_answer_without_pivots(self):
        planner = Planner()
        nest = CATALOG["matmul"]
        planner.plan(nest, 2**14)
        assert planner.stats.primal_lp_solves == 1
        planner.plan(nest.with_bounds((1000, 900, 800)), 2**14)
        assert planner.stats.primal_map_hits == 1
        assert planner.stats.primal_lp_solves == 1

    def test_a_failed_certificate_falls_back_to_the_lp(self, monkeypatch):
        nest = _structure_nest(DEGENERATE_SUPPORTS, DEGENERATE_BOUNDS)
        expected = Planner().plan(nest, 2048)
        planner = Planner()
        monkeypatch.setattr(Planner, "_verified", lambda *args: False)
        plan = planner.plan(nest, 2048)
        assert plan.exponent == expected.exponent
        assert sum(plan.lambdas) == plan.exponent


def _random_betas(rng, depth):
    """Exact betas of every kind a query brings: ties, huge denominators, beta > 64."""
    kind = rng.randrange(4)
    if kind == 0:  # integers and halves: many pieces tie
        return tuple(Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(depth))
    if kind == 1:  # log_ratio-sized denominators
        return tuple(
            Fraction(rng.randint(0, 3 * 10**15), rng.randint(10**14, 10**15))
            for _ in range(depth)
        )
    if kind == 2:  # far past the prune box
        return tuple(Fraction(rng.randint(65 * 7, 10**6), 7) for _ in range(depth))
    return tuple(
        Fraction(rng.randint(0, 10**4), rng.randint(1, 97)) if rng.random() < 0.8 else Fraction(0)
        for _ in range(depth)
    )


class TestIntegerEvaluation:
    """``Planner._evaluate`` against a ``Fraction`` reference: same value, same piece."""

    @staticmethod
    def _reference(pieces, betas):
        values = [piece.evaluate(betas) for piece in pieces]
        best = min(values)
        return best, values.index(best)  # the first minimal piece wins ties

    def _check(self, planner, nest, rng, queries):
        structure, _ = planner._structure(planner.canonicalization(nest))
        for _ in range(queries):
            betas = _random_betas(rng, nest.depth)
            assert planner._evaluate(structure, betas) == self._reference(
                structure.pvf.pieces, betas
            ), (nest.name, betas)

    def test_catalog_structures(self):
        rng = random.Random(5)
        planner = Planner()
        for name in FAST_PROBLEMS:
            self._check(planner, CATALOG[name], rng, 60)

    def test_random_deep_structures(self):
        rng = random.Random(6)
        planner = Planner()
        for depth in range(4, 9):
            supports = _random_supports(rng, depth, rng.randint(3, 5))
            self._check(planner, _structure_nest(supports, (2,) * depth), rng, 60)


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
