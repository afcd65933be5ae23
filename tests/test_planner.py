"""The plan cache must be exact: every warm answer equals a cold solve.

The planner's guard (an integer primal-dual certificate read off the
final dual simplex basis) is what lets it answer from cached bases; the
tests here pin that guarantee across the catalog, budgets, cache sizes,
disguised structures, deep random structures, eviction, query history,
``Session.batch``, and the batch CLI.
"""

import json
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest

import repro
from repro.api import AnalyzeRequest, DistributedRequest, RequestError, Session
from repro.cli import main
from repro.core import lexdual
from repro.core.bounds import communication_lower_bound, tile_exponent
from repro.core.fraction_lp import solve_lp
from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.mplp import parametric_tile_exponent
from repro.core.tiling import solve_tiling
from repro.core.verify import check_dual_certificate, check_tile
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
        # beta > 64: both the tile path and the aggregate-budget
        # lower-bound path must still match the direct solve.
        nest = matmul(3**65, 4, 4)
        planner = Planner()
        for budget in ("per-array", "aggregate"):
            plan = planner.plan(nest, 3, budget=budget)
            assert plan.exponent == solve_tiling(nest, 3, budget=budget).exponent
            direct = communication_lower_bound(nest, 3)
            assert plan.lower_bound.k_hat == direct.k_hat


    @pytest.mark.parametrize("name", FAST_PROBLEMS, ids=str)
    def test_exponent_matches_tile_exponent(self, name):
        # The value-only query the distributed route uses: sum(lambda)
        # of the certified vertex, each query served by a cached basis
        # or one dual simplex run, and one structure solve.
        nest = CATALOG[name]
        planner = Planner()
        rng = random.Random(name)
        for cache_words in (2, 100, 4096, 2**16):
            bounds = [rng.choice([1, 3, 100, 777, 4096]) for _ in nest.bounds]
            probe = nest.with_bounds(bounds)
            assert planner.exponent(probe, cache_words) == tile_exponent(probe, cache_words)
        stats = planner.stats
        assert stats.structure_solves == 1
        assert stats.primal_map_hits + stats.primal_lp_solves == stats.queries == 4

    def test_exponent_beyond_beta_cap_and_validation(self):
        nest = matmul(3**65, 4, 4)
        assert Planner().exponent(nest, 3) == tile_exponent(nest, 3)
        with pytest.raises(ValueError):
            Planner().exponent(nest, 1)

    def test_cache_size_past_the_float_range_is_a_value_error(self):
        # The same ceiling request validation applies: a ValueError,
        # never an OverflowError from the float tile blocks.
        planner = Planner()
        nest = CATALOG["matmul"]
        for entry in (
            lambda: planner.plan(nest, 10**400),
            lambda: planner.plan(nest, 10**400, budget="aggregate"),
            lambda: planner.exponent(nest, 10**400),
            lambda: planner.certificate(nest, 10**400),
            lambda: planner.plan_hierarchy(nest, [64, 10**400]),
        ):
            with pytest.raises(ValueError, match="more than a float can hold"):
                entry()
        assert planner.exponent(nest, 10**300) == tile_exponent(nest, 10**300)

    def test_session_cache_size_past_the_float_range_is_a_value_error(self):
        session = Session()
        with pytest.raises(ValueError, match="more than a float can hold"):
            session.analysis(CATALOG["matmul"], 10**400)
        with pytest.raises(ValueError, match="more than a float can hold"):
            repro.analyze(CATALOG["matmul"], 10**400)
        assert session.analysis(CATALOG["matmul"], 10**300).tiling.tile.blocks

class TestCacheMechanics:
    def test_every_lookup_counts_one_query_and_one_probe(self):
        # plan, exponent and certificate each count one query, and each
        # query probes the structure cache exactly once: a hit or a solve.
        def balanced(stats):
            return stats.queries == stats.structure_hits + stats.structure_solves

        session = Session(Planner())
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
        session.planner.exponent(nbody(30, 70), 100)
        session.planner.plan(mttkrp(9, 8, 7, 6), 64, "aggregate")
        session.planner.plan_hierarchy(matmul(64, 48, 32), [64, 4096])
        assert session.stats.structure_solves == 3
        assert balanced(session.stats)

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
    """Make a failed basis certificate fail the test instead of re-solving."""
    certified = lexdual.Vertex.certified

    def strict(vertex, rows):
        value = certified(vertex, rows)
        if value is None:
            raise AssertionError(f"basis certificate failed on rows {rows}")
        return value

    monkeypatch.setattr(lexdual.Vertex, "certified", strict)


def _payload(plan):
    blob = plan.to_json()
    del blob["cache_hit"]
    return json.dumps(blob, sort_keys=True)


def _certificate_payload(cert):
    return json.dumps(
        [str(v) for v in (*cert.lambdas, *cert.dual.zeta, *cert.dual.s, cert.dual_value)]
    )


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

    def test_answers_do_not_depend_on_history(self, monkeypatch):
        # The plan (lambda) and the certificate (lambda, zeta and s) of
        # each query equal a fresh planner's, in shuffled orders on one
        # planner and after a restart that replays in another order.
        _no_lp_fallback(monkeypatch)
        queries = _mixed_queries("lex-min/replay", 200)
        fresh = [_payload(Planner().plan(*query)) for query in queries]
        fresh_certs = [_certificate_payload(Planner().certificate(*q[:2])) for q in queries]
        shared = Planner()
        rng = random.Random("lex-min/orders")
        for _ in range(3):
            order = list(range(len(queries)))
            rng.shuffle(order)
            for idx in order:
                query = queries[idx]
                assert _payload(shared.plan(*query)) == fresh[idx], query
                cert = shared.certificate(*query[:2])
                assert _certificate_payload(cert) == fresh_certs[idx], query
        restarted = Planner()
        for idx in reversed(range(len(queries))):
            query = queries[idx]
            assert _certificate_payload(restarted.certificate(*query[:2])) == fresh_certs[idx]
            assert _payload(restarted.plan(*query)) == fresh[idx], query

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
                vertex = lexdual.lex_min_vertex(start, lexdual.point(betas))
                assert vertex.lambdas() == _lex_min_oracle(depth, rows, betas), (rows, betas)
                assert vertex.certified(rows) == sum(vertex.lambdas(), Fraction(0))
                start = vertex.basis

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

    def test_an_equal_basis_takes_no_second_slot(self):
        # Every certificate pivots from the slack basis to a new Basis
        # object equal to the cold solve's; the list keeps one copy.
        planner = Planner()
        nest = CATALOG["matmul"]
        planner.plan(nest, 2**14)
        for _ in range(3):
            planner.certificate(nest, 2**14)
        assert planner.stats.primal_lp_solves == 4
        assert planner.cache_sizes()["bases"] == 1

    def test_aggregate_plan_without_bound_solves_only_the_served_size(self):
        planner = Planner()
        nest = CATALOG["matmul"]
        plan = planner.plan(nest, 3 * 2**12, budget="aggregate", include_bound=False)
        assert plan.exponent == solve_tiling(nest, 3 * 2**12, budget="aggregate").exponent
        assert planner.stats.primal_lp_solves == 1
        assert planner.stats.primal_map_hits == 0
        assert planner.cache_sizes()["bases"] == 1

    def test_a_failed_certificate_falls_back_to_the_lp(self):
        # A cached basis whose reduced costs no longer certify its vertex
        # (here: a corrupted objective row) is dropped, and the query is
        # re-solved from the slack basis with the same answer.
        nest = _structure_nest(DEGENERATE_SUPPORTS, DEGENERATE_BOUNDS)
        expected = Planner().plan(nest, 2048)
        planner = Planner()
        planner.plan(nest, 2048)
        (key,) = planner.cached_keys()
        (basis,) = planner._structures[key]
        bad = replace(basis, costs=(tuple(-c for c in basis.costs[0]),) + basis.costs[1:])
        planner._structures[key][:] = [bad]
        plan = planner.plan(nest, 2048)
        assert _payload(plan) == _payload(expected)
        assert bad not in planner._structures[key]
        assert planner.stats.primal_lp_solves == 2

    def test_a_certificate_failing_from_the_slack_basis_raises(self, monkeypatch):
        monkeypatch.setattr(lexdual.Vertex, "certified", lambda vertex, rows: None)
        with pytest.raises(RuntimeError, match="certificate failed"):
            Planner().plan(CATALOG["matmul"], 2048)


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
    """The basis certificate's value against the ``Fraction`` piecewise ``f(beta)``."""

    @staticmethod
    def _reference(pieces, betas):
        return min(piece.evaluate(betas) for piece in pieces)

    def _check(self, planner, nest, rng, queries):
        canon = planner.canonicalization(nest)
        pieces = parametric_tile_exponent(canon.form.to_nest()).pieces
        bases: list = []
        for _ in range(queries):
            betas = _random_betas(rng, nest.depth)
            vertex, value = planner._vertex(canon, bases, lexdual.point(betas))
            assert value == self._reference(pieces, betas), (nest.name, betas)
            assert sum(vertex.lambdas(), Fraction(0)) == value
            assert vertex.certified(canon.form.rows) == value

    def test_catalog_structures(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        rng = random.Random(5)
        planner = Planner()
        for name in FAST_PROBLEMS:
            self._check(planner, CATALOG[name], rng, 60)

    def test_random_deep_structures(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        rng = random.Random(6)
        planner = Planner()
        for depth in range(4, 9):
            supports = _random_supports(rng, depth, rng.randint(3, 5))
            self._check(planner, _structure_nest(supports, (2,) * depth), rng, 60)


def _canonical_pieces(planner, nest):
    return parametric_tile_exponent(planner.canonicalization(nest).form.to_nest()).pieces


def _piece_zetas(canon, pieces, betas):
    """Value and the distinct ``zeta`` of the minimal §7 pieces at canonical ``betas``."""
    values = [piece.evaluate(betas) for piece in pieces]
    best = min(values)
    zetas = {canon.from_canonical(p.source_zeta) for p, v in zip(pieces, values) if v == best}
    return best, zetas


def _deep_structures(seed, count):
    """Random structures of depth 4-14 with 2-6 arrays (every loop covered)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        depth = 4 + k % 11
        out.append(_structure_nest(_random_supports(rng, depth, rng.randint(2, 6)), (2,) * depth))
    return out


def _queries(rng, nest, count):
    """(nest with bounds, cache_words), a quarter of them with some beta > 64."""
    out = []
    for k in range(count):
        bounds = [round(2 ** rng.uniform(0, 14)) for _ in range(nest.depth)]
        cache_words = rng.choice([2, 3, 16, 256, 4096, 2**16])
        if k % 4 == 3:
            bounds[rng.randrange(nest.depth)] = rng.randint(2**70, 2**300)
        out.append((nest.with_bounds(bounds), cache_words))
    return out


class TestBasisOnlyPath:
    """Plans, exponents and certificates from dual simplex bases alone."""

    def _check(self, planner, nest, cache_words, pieces) -> bool:
        """Check one query; True if its optimal ``zeta`` was unique and compared."""
        canon = planner.canonicalization(nest)
        canon_betas = canon.to_canonical(tuple(nest.betas(cache_words)))
        value, zetas = _piece_zetas(canon, pieces, canon_betas)
        plan = planner.plan(nest, cache_words)
        assert plan.exponent == value == solve_tiling(nest, cache_words).exponent
        assert sum(plan.lambdas, Fraction(0)) == value
        assert planner.exponent(nest, cache_words) == value
        cert = planner.certificate(nest, cache_words)
        assert cert.lambdas == plan.lambdas
        assert cert.dual_value == cert.primal_value == value
        assert cert.complementary_slackness and cert.tight
        check = check_dual_certificate(nest, cert.betas, cert.dual.zeta, cert.dual.s)
        assert check.ok and check.certified_exponent == value
        # Where minimal pieces tie with different zeta (exact logs make
        # ties common), several optimal duals exist and any one is right.
        if len(zetas) == 1:
            assert {cert.dual.zeta} == zetas, (nest, cache_words)
        return len(zetas) == 1

    def test_catalog_matches_solve_tiling_and_the_value_function(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        rng = random.Random("basis-only/catalog")
        planner = Planner()
        compared = 0
        for name in sorted(CATALOG):
            nest = CATALOG[name]
            pieces = _canonical_pieces(planner, nest)
            compared += sum(
                self._check(planner, probe, cache_words, pieces)
                for probe, cache_words in _queries(rng, nest, 12)
            )
        assert compared > 0.6 * 12 * len(CATALOG)

    def test_random_deep_structures(self, monkeypatch):
        _no_lp_fallback(monkeypatch)
        rng = random.Random("basis-only/deep")
        planner = Planner(capacity=4)  # evictions re-solve structures mid-run
        structures = _deep_structures("basis-only/deep", 22)
        compared = 0
        for nest in structures:
            pieces = _canonical_pieces(planner, nest)
            compared += sum(
                self._check(planner, probe, cache_words, pieces)
                for probe, cache_words in _queries(rng, nest, 4)
            )
        assert compared > 0.6 * 4 * len(structures)

    def test_certificate_dual_is_the_slack_start_dual(self, monkeypatch):
        # Warm bases must not leak into a certificate: its dual is the one
        # a run from the slack basis reads, on every query.
        _no_lp_fallback(monkeypatch)
        rng = random.Random("basis-only/slack-dual")
        planner = Planner()
        nests = [CATALOG[name] for name in sorted(CATALOG)]
        nests += _deep_structures("basis-only/slack-dual", 11)
        for nest in nests:
            for probe, cache_words in _queries(rng, nest, 10):
                planner.plan(probe, cache_words)  # warms the structure's bases
                cert = planner.certificate(probe, cache_words)
                canon = planner.canonicalization(probe)
                at = lexdual.point(canon.to_canonical(tuple(probe.betas(cache_words))))
                form = canon.form
                slack = lexdual.lex_min_vertex(lexdual.slack_basis(form.depth, form.rows), at)
                zeta, s = slack.dual(form.rows)
                assert cert.dual.zeta == canon.from_canonical(zeta), (probe, cache_words)
                assert cert.dual.s == tuple(
                    s[row] for row in sorted(range(len(s)), key=canon.array_order.__getitem__)
                )

    def test_request_path_never_runs_the_piecewise_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("parametric_tile_exponent on the request path")

        for module in ("repro", "repro.core", "repro.core.mplp", "repro.plan.planner",
                       "repro.plan.batch"):
            monkeypatch.setattr(f"{module}.parametric_tile_exponent", no_solve)
        planner = Planner()
        nest = _deep_structures("basis-only/no-mplp", 11)[-1]  # depth 14
        assert nest.depth == 14
        for probe in (nest, CATALOG["tucker_core"], CATALOG["matmul"]):
            plan = planner.plan(probe, 4096)
            assert planner.exponent(probe, 4096) == plan.exponent
            assert planner.certificate(probe, 4096).tight
            assert planner.plan_hierarchy(probe, [64, 4096]).levels[1].exponent == plan.exponent
            assert planner.plan(probe, 4096, budget="aggregate").tile.blocks
        session = Session()
        analyze = {"problem": "mttkrp", "sizes": [60, 50, 40, 30], "cache_words": 4096,
                   "certificate": True}
        assert session.analyze(AnalyzeRequest.from_json(analyze)).ok
        assert session.distributed(
            DistributedRequest(nest=nbody(300, 70), processors=6, memory_words=1000)
        ).ok


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
