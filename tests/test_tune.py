"""Tests for ``repro.tune``: the simulation-in-the-loop tile autotuner.

The subsystem's contract, pinned here:

* **Certificate invariant** — every measured traffic is >= the Theorem
  lower bound (the bound holds for *any* schedule, so the certificate
  ratio is >= 1 by theory; the simulator must agree exactly).
* **Seed invariant** — the tuned plan's measured traffic is never worse
  than the analytically-rounded seed's (the seed is always candidate
  #0 and ties break toward it).
* **Determinism** — one request produces one payload, byte-identical
  across ``Session.tune``, ``/v1/tune`` and ``repro-tile tune``.

Plus unit coverage of the space generators, the budgeted evaluator, the
strategies, and the report's wire round trip.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RequestError, Session, TuneRequest
from repro.cli import main
from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.tiling import TileShape
from repro.library.problems import matmul, mttkrp, nbody, tensor_contraction
from repro.machine.model import MachineModel
from repro.plan import Planner
from repro.serve import make_server
from repro.simulate.trace_sim import run_trace_simulation
from repro.tune import (
    BudgetedEvaluator,
    TileEvaluation,
    TuneReport,
    candidate_tiles,
    clamp_block,
    default_capacities,
    evaluate_candidates,
    evaluate_tile,
    search_tiles,
    tune_tile,
)

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSpace:
    def test_clamp_block_formula(self):
        # The satellite clamp: min(bound, max(1, round(x))).
        assert clamp_block(0.2, 10) == 1
        assert clamp_block(0.0, 10) == 1
        assert clamp_block(3.6, 10) == 4
        assert clamp_block(99.0, 10) == 10
        assert clamp_block(7, 3) == 3
        assert clamp_block(-5.0, 10) == 1

    def test_candidates_feasible_within_bounds_seed_first(self):
        nest = matmul(24, 24, 6)
        seed = (4, 4, 4)
        tiles = candidate_tiles(nest, 64, seed, budget="aggregate", radius=1)
        assert tiles[0] == seed
        assert len(tiles) == len(set(tiles))
        for blocks in tiles:
            assert all(1 <= b <= L for b, L in zip(blocks, nest.bounds))
            assert TileShape(nest=nest, blocks=blocks).is_feasible(64, "aggregate")

    def test_candidate_limit_respected(self):
        nest = matmul(24, 24, 24)
        tiles = candidate_tiles(nest, 128, (4, 4, 4), limit=7)
        assert len(tiles) <= 7

    def test_divisor_candidates_divide_bounds(self):
        nest = matmul(24, 24, 24)
        tiles = candidate_tiles(
            nest, 10**6, (5, 5, 5), budget="per-array", generators=("divisor",)
        )
        # Excluding the seed itself, every axis value divides its bound.
        for blocks in tiles[1:]:
            assert all(L % b == 0 for b, L in zip(blocks, nest.bounds))

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            candidate_tiles(matmul(4, 4, 4), 16, (1, 1, 1), generators=("magic",))


class TestEvaluate:
    def test_traffic_matches_trace_simulation(self):
        # The one-pass evaluation must agree exactly with the per-run
        # LRU simulator (misses + writebacks = loads + stores).
        nest = matmul(12, 12, 12)
        blocks = (3, 4, 6)
        for capacity in (8, 32, 96):
            evaluation = evaluate_tile(nest, blocks, [capacity])
            report = run_trace_simulation(
                nest,
                MachineModel(cache_words=capacity, line_words=1),
                tile=TileShape(nest=nest, blocks=blocks),
            )
            assert evaluation.traffic_at(capacity) == report.total_words

    def test_parallel_serial_identical(self, monkeypatch):
        # >= MIN_PARALLEL_CANDIDATES candidates so the pool path engages.
        nest = nbody(30, 30)
        candidates = [(b1, b2) for b1 in (2, 5, 10, 15) for b2 in (3, 12)]
        serial = evaluate_candidates(nest, candidates, [16, 64], workers=0)
        parallel = evaluate_candidates(nest, candidates, [16, 64], workers=2)
        assert [e.to_json() for e in serial] == [e.to_json() for e in parallel]
        # The forced pure-Python fallback reaches the workers through
        # the environment they inherit.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        fallback = evaluate_candidates(nest, candidates, [16, 64], workers=2)
        assert [e.to_json() for e in fallback] == [e.to_json() for e in serial]

    def test_evaluation_round_trip(self):
        evaluation = evaluate_tile(matmul(8, 8, 8), (2, 2, 2), [4, 16])
        again = TileEvaluation.from_json(evaluation.to_json())
        assert again == evaluation


class TestSearch:
    def test_budget_caps_distinct_evaluations(self):
        nest = matmul(24, 24, 24)
        outcome = search_tiles(nest, 128, (7, 6, 6), "exhaustive", max_evaluations=9)
        assert outcome.evaluations_used <= 9

    def test_memoised_repeats_are_free(self):
        ev = BudgetedEvaluator(nest=nbody(20, 20), capacities=(16,), budget=4)
        ev.evaluate([(4, 4), (4, 4), (2, 2)])
        assert ev.spent == 2
        ev.evaluate([(4, 4)])  # memo hit, no budget spent
        assert ev.spent == 2

    @pytest.mark.parametrize("strategy", ["exhaustive", "coordinate", "random"])
    def test_best_never_worse_than_seed(self, strategy):
        nest = matmul(20, 20, 5)
        seed = (4, 4, 4)
        outcome = search_tiles(nest, 64, seed, strategy, max_evaluations=24)
        assert outcome.evaluations[0].blocks == seed
        assert outcome.best.traffic_at(64) <= outcome.evaluations[0].traffic_at(64)

    def test_random_is_deterministic(self):
        nest = nbody(40, 40)
        runs = [
            search_tiles(nest, 32, (5, 5), "random", max_evaluations=20, rng_seed=7)
            for _ in range(2)
        ]
        assert [e.blocks for e in runs[0].evaluations] == [
            e.blocks for e in runs[1].evaluations
        ]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            search_tiles(matmul(4, 4, 4), 16, (1, 1, 1), "simulated-annealing")


class TestTuneTile:
    def test_report_invariants_and_pareto(self):
        nest = matmul(24, 24, 6)
        planner = Planner()
        report = tune_tile(nest, 96, planner=planner, max_evaluations=32, workers=0)
        assert report.tuned_traffic_words <= report.seed_traffic_words
        assert report.tuned_ratio >= 1.0
        assert report.seed_ratio >= report.tuned_ratio
        assert report.plan.tile.blocks == report.tuned_blocks
        assert report.plan.tile.is_feasible(96, "aggregate")
        # Pareto axis: sorted capacities, tuning capacity included, every
        # point certified (ratio >= 1) and at least as good as the seed.
        caps = [p.cache_words for p in report.pareto]
        assert caps == sorted(set(caps)) and 96 in caps
        seed_eval = evaluate_tile(nest, report.seed_blocks, caps)
        for point in report.pareto:
            assert point.certificate_ratio >= 1.0
            assert point.traffic_words <= seed_eval.traffic_at(point.cache_words)

    def test_default_capacities_axis(self):
        assert default_capacities(64) == (4, 8, 16, 32, 64)
        assert default_capacities(96)[-1] == 96

    def test_report_round_trip(self):
        report = tune_tile(nbody(20, 20), 16, max_evaluations=8, workers=0)
        again = TuneReport.from_json(json.loads(json.dumps(report.to_json())))
        assert again.to_json() == report.to_json()

    def test_include_candidates_attaches_table(self):
        report = tune_tile(
            nbody(16, 16), 16, max_evaluations=6, workers=0, include_candidates=True
        )
        assert len(report.candidates) == report.evaluations_used
        assert report.candidates[0].blocks == report.seed_blocks

    def test_catalog_invariants_across_strategies(self):
        cases = [
            (matmul(16, 16, 16), 64),
            (matmul(30, 30, 4), 48),
            (nbody(40, 40), 24),
            (tensor_contraction((6, 6), (6,), (6, 6)), 100),
            (mttkrp(10, 10, 10, 3), 64),
        ]
        for nest, cache_words in cases:
            for strategy in ("exhaustive", "coordinate"):
                report = tune_tile(
                    nest, cache_words, strategy=strategy,
                    max_evaluations=20, workers=0,
                )
                assert report.tuned_ratio >= 1.0, (nest.name, strategy)
                assert report.tuned_traffic_words <= report.seed_traffic_words, (
                    nest.name, strategy,
                )


@st.composite
def small_nests(draw):
    """Random small projective nests the trace engine can chew fast."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    supports = []
    for _ in range(n):
        support = draw(
            st.sets(st.integers(0, d - 1), min_size=0, max_size=d).map(
                lambda s: tuple(sorted(s))
            )
        )
        supports.append(list(support))
    covered = set()
    for s in supports:
        covered.update(s)
    for loop in range(d):
        if loop not in covered:
            idx = draw(st.integers(0, n - 1))
            supports[idx] = sorted(set(supports[idx]) | {loop})
    bounds = tuple(draw(st.integers(1, 20)) for _ in range(d))
    arrays = tuple(
        ArrayRef(name=f"A{j}", support=tuple(s), is_output=(j == 0))
        for j, s in enumerate(supports)
    )
    return LoopNest(
        name="random", loops=tuple(f"x{i}" for i in range(d)), bounds=bounds, arrays=arrays
    )


class TestTuningProperties:
    """The certificate and seed invariants, universally quantified."""

    @SETTINGS
    @given(nest=small_nests(), M=st.sampled_from([4, 8, 16, 64]))
    def test_certified_and_never_worse_than_seed(self, nest, M):
        if M < nest.num_arrays:
            M = nest.num_arrays  # aggregate feasibility floor
        report = tune_tile(nest, max(M, 2), max_evaluations=12, workers=0)
        assert report.tuned_ratio >= 1.0
        assert report.tuned_traffic_words <= report.seed_traffic_words
        for b, L in zip(report.tuned_blocks, nest.bounds):
            assert 1 <= b <= L


class TestTuneSurfaces:
    """One request, three surfaces, byte-identical payloads."""

    REQUEST = {
        "problem": "nbody",
        "sizes": [50, 50],
        "cache_words": 32,
        "strategy": "exhaustive",
        "max_evaluations": 12,
    }

    @pytest.fixture()
    def service(self):
        server = make_server(port=0, session=Session(workers=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_session_http_cli_payloads_identical(self, service, capsys):
        request = TuneRequest.from_json(self.REQUEST)
        session_payload = Session(workers=0).tune(request).payload

        data = json.dumps(self.REQUEST).encode()
        http = urllib.request.Request(
            service + "/v1/tune",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(http, timeout=60) as resp:
            body = json.load(resp)
        assert body["schema_version"] == 1 and body["kind"] == "tune"

        rc = main([
            "tune", "--problem", "nbody", "--sizes", "50,50", "-M", "32",
            "--strategy", "exhaustive", "--max-evals", "12", "--workers", "0",
        ])
        assert rc == 0
        cli_body = json.loads(capsys.readouterr().out.strip())

        assert body["payload"] == session_payload
        assert cli_body["payload"] == session_payload

    def test_payload_identical_cold_and_warm(self):
        # cache_hit is envelope meta, not payload: a repeat of the same
        # request on a warm session must yield a byte-identical payload.
        request = TuneRequest.from_json(self.REQUEST)
        session = Session(workers=0)
        cold = session.tune(request)
        warm = session.tune(request)
        assert cold.payload == warm.payload
        assert "cache_hit" not in cold.payload["plan"]
        assert cold.meta["cache_hit"] is False and warm.meta["cache_hit"] is True

    def test_tune_request_round_trip(self):
        request = TuneRequest.from_json(self.REQUEST)
        assert TuneRequest.from_json(request.to_json()) == request

    def test_tune_request_validation(self):
        nest = nbody(8, 8)
        with pytest.raises(RequestError):
            TuneRequest(nest=nest, cache_words=1).validate()
        with pytest.raises(RequestError):
            TuneRequest(nest=nest, cache_words=16, strategy="magic").validate()
        with pytest.raises(RequestError):
            TuneRequest(nest=nest, cache_words=16, max_evaluations=0).validate()
        with pytest.raises(RequestError):
            TuneRequest(nest=nest, cache_words=16, radius=99).validate()
        with pytest.raises(RequestError):
            TuneRequest(nest=nest, cache_words=16, capacities=(1,)).validate()

    def test_http_validation_error_is_structured_400(self, service):
        data = json.dumps({"problem": "nbody", "cache_words": 16, "strategy": "magic"})
        request = urllib.request.Request(
            service + "/v1/tune",
            data=data.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        body = json.load(err.value)
        assert body["kind"] == "error" and body["payload"]["status"] == 400

    def test_cli_smoke_clamps_budget(self, capsys):
        rc = main([
            "tune", "--problem", "nbody", "--sizes", "30,30", "-M", "16",
            "--workers", "0", "--smoke",
        ])
        assert rc == 0
        body = json.loads(capsys.readouterr().out.strip())
        assert body["kind"] == "tune"
        assert body["payload"]["evaluations_used"] <= 8

    def test_cli_bad_inputs_clean_errors(self, capsys):
        assert main(["tune", "--problem", "matmul", "--sizes", "4,4", "-M", "16"]) == 2
        assert "error" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["tune", "--problem", "matmul"])  # missing -M
