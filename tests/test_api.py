"""Tests for the ``repro.api`` façade: requests, results, sessions.

Covers the schema-v1 contract — every request and result type
round-trips losslessly through JSON (Fractions as exact ``"p/q"``
strings, property-tested) — and the session semantics: warm repeats hit
the plan cache, ``repro.analyze`` routes through the default session,
and ``Session.batch``/``sweep`` stay the only analyze-list path.
"""

import doctest
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.api
from repro.api import (
    AnalyzeRequest,
    DistributedRequest,
    RequestError,
    Result,
    Session,
    SimulateRequest,
    SweepRequest,
)
from repro.api.wire import json_safe, nest_from_json
from repro.core.bounds import communication_lower_bound
from repro.core.duality import theorem3_certificate
from repro.core.tiling import TileShape, solve_tiling
from repro.core.verify import verify_analysis
from repro.library.problems import catalog, matmul, mttkrp, nbody
from repro.machine.model import MachineModel
from repro.plan import Planner
from repro.simulate.trace_sim import run_trace_simulation

SETTINGS = settings(max_examples=25, deadline=None)


# -- wire vocabulary ----------------------------------------------------------


class TestWire:
    def test_json_safe_normalises(self):
        blob = json_safe({"f": Fraction(5, 4), "t": (1, 2), "n": [Fraction(-1, 3)]})
        assert blob == {"f": "5/4", "t": [1, 2], "n": ["-1/3"]}
        assert json.loads(json.dumps(blob)) == blob

    def test_json_safe_rejects_unknown(self):
        with pytest.raises(TypeError):
            json_safe({"x": object()})

    def test_nest_from_json_spellings(self):
        inline = nest_from_json({"nest": matmul(4, 5, 6).to_json()})
        prob = nest_from_json({"problem": "matmul", "sizes": [4, 5, 6]})
        stmt = nest_from_json(
            {"statement": "C[x1,x3] += A[x1,x2] * B[x2,x3]",
             "bounds": {"x1": 4, "x2": 5, "x3": 6}}
        )
        assert inline.bounds == prob.bounds == (4, 5, 6)
        # parse_nest orders loops by first appearance (x1, x3, x2).
        assert dict(zip(stmt.loops, stmt.bounds)) == {"x1": 4, "x2": 5, "x3": 6}

    @pytest.mark.parametrize(
        "blob",
        [
            {},
            {"problem": "nope"},
            {"statement": "C[i] += A[i]"},
            {"nest": {"loops": ["i"]}},
            "not-an-object",
        ],
    )
    def test_nest_from_json_rejects(self, blob):
        with pytest.raises(RequestError):
            nest_from_json(blob)


# -- the Result envelope ------------------------------------------------------


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.fractions(),
)
payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(
        json_scalars,
        st.lists(json_scalars, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=6), json_scalars, max_size=3),
    ),
    max_size=6,
)


class TestResult:
    @SETTINGS
    @given(payload=payloads, kind=st.sampled_from(["analyze", "simulate", "health"]))
    def test_roundtrip_exact_property(self, payload, kind):
        result = Result(kind=kind, payload=payload, meta={"elapsed_ms": 0.5})
        assert Result.from_json(result.to_json()) == result
        assert Result.from_json(result.to_json_str()) == result
        # ... and through an actual serialized wire hop.
        assert Result.from_json(json.loads(json.dumps(result.to_json()))) == result

    def test_fractions_survive_exactly(self):
        result = Result(kind="analyze", payload={"k_hat": Fraction(10**40, 3)})
        back = Result.from_json(result.to_json())
        assert back.fraction("k_hat") == Fraction(10**40, 3)

    def test_version_gate(self):
        blob = Result(kind="health", payload={}).to_json()
        blob["schema_version"] = 99
        with pytest.raises(RequestError):
            Result.from_json(blob)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError):
            Result(kind="mystery", payload={})

    def test_error_envelope(self):
        err = Result.error("bad request", status=400, detail={"field": "cache_words"})
        assert not err.ok
        assert err.payload == {
            "error": "bad request", "status": 400, "detail": {"field": "cache_words"}
        }

    def test_detail_excluded_from_wire_and_eq(self):
        a = Result(kind="analyze", payload={"x": 1}, detail=object())
        b = Result.from_json(a.to_json())
        assert a == b and b.detail is None


# -- request schema round trips ----------------------------------------------


bounds_st = st.integers(min_value=1, max_value=500)
cache_st = st.sampled_from([4, 64, 1024, 2**14])


class TestRequestRoundTrips:
    @SETTINGS
    @given(b1=bounds_st, b2=bounds_st, b3=bounds_st, m=cache_st,
           budget=st.sampled_from(["per-array", "aggregate"]), cert=st.booleans())
    def test_analyze_request_property(self, b1, b2, b3, m, budget, cert):
        req = AnalyzeRequest(
            nest=matmul(b1, b2, b3), cache_words=m, budget=budget, certificate=cert
        )
        assert AnalyzeRequest.from_json(json.loads(json.dumps(req.to_json()))) == req

    def test_simulate_request_roundtrip(self):
        req = SimulateRequest(
            nest=nbody(32, 48), cache_words=64, tile=(8, 16), line_words=2, policy="belady"
        )
        assert SimulateRequest.from_json(json.loads(json.dumps(req.to_json()))) == req

    def test_sweep_request_roundtrip_both_forms(self):
        by_problem = SweepRequest(
            problem="matmul", size_axes=((64, 128), (64,), (8,)), cache_sizes=(256, 1024)
        )
        by_statement = SweepRequest(
            statement="F[i] += P[i] * Q[j]",
            bound_axes=(("i", (16, 64)), ("j", (32,))),
            cache_sizes=(64,),
        )
        for req in (by_problem, by_statement):
            assert SweepRequest.from_json(json.loads(json.dumps(req.to_json()))) == req

    def test_distributed_request_roundtrip(self):
        req = DistributedRequest(nest=matmul(64, 64, 64), processors=8, memory_words=512)
        assert DistributedRequest.from_json(json.loads(json.dumps(req.to_json()))) == req

    def test_sweep_expansion_order(self):
        req = SweepRequest(
            problem="matmul", size_axes=((8, 16), (8,), (4,)), cache_sizes=(16, 64)
        )
        grid = req.expand()
        assert [(r.nest.bounds[0], r.cache_words) for r in grid] == [
            (8, 16), (8, 64), (16, 16), (16, 64)
        ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AnalyzeRequest(nest=matmul(4, 4, 4), cache_words=1).validate(),
            lambda: AnalyzeRequest(nest=matmul(4, 4, 4), cache_words=2,
                                   budget="nope").validate(),
            lambda: SimulateRequest(nest=nbody(8, 8), cache_words=4,
                                    tile=(9, 1)).validate(),
            lambda: SimulateRequest(nest=nbody(8, 8), cache_words=4,
                                    policy="mru").validate(),
            lambda: SweepRequest(cache_sizes=(64,)).validate(),
            lambda: SweepRequest(problem="matmul", statement="x",
                                 cache_sizes=(64,)).validate(),
            lambda: DistributedRequest(nest=matmul(4, 4, 4), processors=0,
                                       memory_words=64).validate(),
            lambda: SweepRequest(problem="matmul", size_axes=((), (8,), (8,)),
                                 cache_sizes=(64,)).validate(),
            lambda: SweepRequest(problem="matmul", size_axes=((8,), (8,), (8,)),
                                 bound_axes=(("i", (8,)),), cache_sizes=(64,)).validate(),
            lambda: SweepRequest(statement="F[i] += P[i] * Q[j]",
                                 bound_axes=(("i", (8,)), ("j", ())),
                                 cache_sizes=(64,)).validate(),
            lambda: SweepRequest(statement="F[i] += P[i] * Q[j]",
                                 bound_axes=(("i", (8,)), ("j", (8,))),
                                 size_axes=((8,),), cache_sizes=(64,)).validate(),
        ],
    )
    def test_validation_rejects(self, make):
        with pytest.raises(RequestError):
            make()


# -- the lossless TilePlan round trips ----------------------------------------


class TestPlanRoundTrips:
    @SETTINGS
    @given(b1=bounds_st, b2=bounds_st, b3=bounds_st, r=st.sampled_from([3, 7, 32]),
           m=cache_st, budget=st.sampled_from(["per-array", "aggregate"]))
    def test_tileplan_roundtrip_property(self, b1, b2, b3, r, m, budget):
        planner = _SHARED_PLANNER
        plan = planner.plan(mttkrp(b1, b2, b3, r), m, budget)
        blob = json.loads(json.dumps(plan.to_json()))
        back = repro.TilePlan.from_json(blob)
        assert back == plan
        assert back.exponent == plan.exponent  # exact Fractions, not floats

    def test_analyze_payload_reconstructs_tileplan(self):
        # Result payloads move cache_hit into meta; from_json still works.
        result = Session().analyze(matmul(40, 50, 60), cache_words=256)
        back = repro.TilePlan.from_json(result.payload)
        assert back.exponent == result.fraction("k_hat")
        assert back.cache_hit is False

    def test_tileplan_roundtrip_without_bound(self):
        plan = Planner().plan(matmul(40, 50, 60), 128, include_bound=False)
        assert plan.lower_bound is None
        back = repro.TilePlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert back == plan

    def test_nest_json_rejects_malformed(self):
        with pytest.raises(repro.LoopNestError):
            repro.LoopNest.from_json({"loops": ["i"], "bounds": [2]})


#: One planner for the property test above: hypothesis re-runs share the
#: mpLP structure solve instead of re-paying it per example.
_SHARED_PLANNER = Planner()


# -- Session semantics --------------------------------------------------------


class TestSession:
    def test_analyze_cold_then_warm(self):
        session = Session()
        first = session.analyze(matmul(64, 64, 8), cache_words=256)
        again = session.analyze(matmul(500, 12, 7), cache_words=2**12)
        assert first.cache_hit is False
        assert again.cache_hit is True
        assert first.kind == again.kind == "analyze"
        assert first.schema_version == 1
        assert first.elapsed_ms is not None and first.elapsed_ms >= 0

    def test_analyze_accepts_all_spellings(self):
        session = Session()
        nest = nbody(64, 64)
        results = [
            session.analyze(AnalyzeRequest(nest=nest, cache_words=64)),
            session.analyze(nest, cache_words=64),
            session.analyze((nest, 64)),
        ]
        assert len({r.fraction("k_hat") for r in results}) == 1

    def test_analyze_matches_direct_solvers(self):
        session = Session()
        for name, nest in list(catalog().items())[:6]:
            result = session.analyze(nest, cache_words=2**10, certificate=True)
            direct = solve_tiling(nest, 2**10)
            bound = communication_lower_bound(nest, 2**10)
            assert result.fraction("k_hat") == direct.exponent, name
            assert result.fraction("lower_bound_k_hat") == bound.k_hat, name
            cert = result.payload["certificate"]
            assert cert["tight"] is True
            assert Fraction(cert["primal"]) == direct.exponent

    def test_batch_order_and_cache(self):
        session = Session()
        reqs = [
            AnalyzeRequest(nest=matmul(64, 64, 2**i), cache_words=1024) for i in range(6)
        ]
        results = session.batch(reqs)
        assert [r.payload["bounds"][2] for r in results] == [2**i for i in range(6)]
        assert session.stats.structure_solves <= 2  # skinny + cubic shapes share

    def test_sweep_matches_expand(self):
        session = Session()
        sweep = SweepRequest(
            problem="nbody", size_axes=((32, 64), (32,)), cache_sizes=(64, 256)
        )
        results = session.sweep(sweep)
        assert len(results) == len(sweep.expand()) == 4
        assert all(r.kind == "analyze" for r in results)

    def test_simulate_planned_vs_explicit(self):
        session = Session()
        planned = session.simulate(SimulateRequest(nest=nbody(96, 96), cache_words=64))
        explicit = session.simulate(
            SimulateRequest(nest=nbody(96, 96), cache_words=64,
                            tile=tuple(planned.payload["tile"]))
        )
        assert planned.payload["tile_planned"] is True
        assert explicit.payload["tile_planned"] is False
        assert planned.payload["total_words"] == explicit.payload["total_words"]
        assert planned.payload["total_words"] >= planned.payload["lower_bound_words"] * 0.5

    def test_simulate_session_line_words_default(self):
        nest = nbody(64, 64)
        by_session = Session(line_words=2).simulate(
            SimulateRequest(nest=nest, cache_words=64)
        )
        by_request = Session().simulate(
            SimulateRequest(nest=nest, cache_words=64, line_words=2)
        )
        assert by_session.payload["line_words"] == 2
        assert by_session.payload["total_words"] == by_request.payload["total_words"]

    def test_analyze_rejects_conflicting_overrides(self):
        session = Session()
        request = AnalyzeRequest(nest=matmul(8, 8, 8), cache_words=1024)
        with pytest.raises(RequestError, match="not both"):
            session.analyze(request, cache_words=512)
        with pytest.raises(RequestError, match="not both"):
            session.analyze(request, budget="aggregate")

    def test_certificate_payload_is_self_describing(self):
        result = Session().analyze(
            matmul(64, 64, 64), cache_words=256, budget="aggregate", certificate=True
        )
        cert = result.payload["certificate"]
        # Per-array certificate at the full cache, regardless of budget.
        assert cert["budget"] == "per-array" and cert["cache_words"] == 256
        assert cert["tight"] is True

    def test_simulate_engines_agree(self):
        nest = nbody(48, 48)
        req = SimulateRequest(nest=nest, cache_words=32)
        batched = Session().simulate(req)
        assert batched.payload["engine"] == "batched"
        reference = run_trace_simulation(
            nest, MachineModel(cache_words=32),
            tile=TileShape(nest=nest, blocks=tuple(batched.payload["tile"])), engine="reference",
        )
        assert batched.payload["total_words"] == reference.total_words
        assert batched.payload["per_array"] == [
            {"name": a.name, "loads": a.loads, "stores": a.stores} for a in reference.per_array
        ]

    def test_distributed(self):
        session = Session()
        result = session.distributed(
            DistributedRequest(nest=matmul(128, 128, 128), processors=8, memory_words=1024)
        )
        assert result.kind == "distributed"
        assert result.payload["processors"] == 8
        assert result.payload["words_per_processor"] > 0
        assert Result.from_json(result.to_json()) == result

    def test_health(self):
        session = Session()
        session.analyze(matmul(16, 16, 16), cache_words=64)
        health = session.health()
        assert health.payload["status"] == "ok"
        assert health.payload["structures_cached"] == 1
        assert health.payload["version"] == repro.__version__

    def test_tiling_facade_exact_escape(self):
        session = Session()
        nest = matmul(100, 90, 7)
        cached = session.tiling(nest, 512, "aggregate")
        exact = solve_tiling(nest, 512, "aggregate")
        assert cached.exponent == exact.exponent
        assert cached.tile.is_feasible(512, "aggregate")

    def test_shared_planner(self):
        planner = Planner()
        a, b = Session(planner=planner), Session(planner=planner)
        a.analyze(matmul(32, 32, 32), cache_words=64)
        assert b.analyze(matmul(8, 64, 2), cache_words=256).cache_hit is True

    def test_invalid_session_args(self, tmp_path):
        with pytest.raises(TypeError):
            Session(engine="batched")  # simulate always runs the batched engine
        with pytest.raises(ValueError):
            Session(line_words=0)
        with pytest.raises(TypeError):
            Session(plan_cache=tmp_path)  # no plan store: never silently ignored
        with pytest.raises(RequestError):
            Session().analyze(matmul(4, 4, 4))  # missing cache_words


class TestAnalysisBundleParity:
    """repro.analyze must stay byte-compatible with the pre-façade bundle."""

    @pytest.mark.parametrize("name", ["matmul", "nbody", "mttkrp", "pointwise_conv"])
    def test_bundle_matches_direct_path(self, name):
        nest = catalog()[name]
        analysis = repro.analyze(nest, cache_words=2**12)
        assert analysis.lower_bound.k_hat == solve_tiling(nest, 2**12).exponent
        assert analysis.tiling.exponent == analysis.lower_bound.k_hat
        assert analysis.certificate.tight
        direct_cert = theorem3_certificate(nest, 2**12)
        assert analysis.certificate.primal_value == direct_cert.primal_value
        assert analysis.certificate.dual_value == direct_cert.dual_value
        assert analysis.certificate.betas == direct_cert.betas
        assert verify_analysis(analysis) == []

    def test_default_session_caches_across_calls(self):
        repro.api.reset_default_session()
        try:
            nest = matmul(96, 96, 96)
            repro.analyze(nest, cache_words=2**10)
            stats = repro.default_session().stats
            solves_after_first = stats.structure_solves
            repro.analyze(matmul(33, 44, 55), cache_words=2**14)
            repro.analyze(nest, cache_words=2**8, budget="aggregate")
            assert stats.structure_solves == solves_after_first  # cache, not simplex
            assert stats.structure_hits >= 2
        finally:
            repro.api.reset_default_session()

    def test_degenerate_cache_unit_tile(self):
        # M=1 predates the planner's domain; the façade's tiling path
        # still answers it through the core solver's degenerate branch.
        sol = Session().tiling(nbody(4, 4), 1)
        assert sol.tile.blocks == (1, 1) and sol.exponent == 0

    @pytest.mark.parametrize("cache_words", [0, 1])
    def test_degenerate_cache_analysis_is_refused(self, cache_words):
        # The bound and certificate are undefined below M = 2, so the
        # planner's domain check is the answer, not an arithmetic error.
        with pytest.raises(ValueError, match="planning needs cache_words >= 2"):
            repro.analyze(nbody(4, 4), cache_words)
        with pytest.raises(ValueError, match="planning needs cache_words >= 2"):
            Session().lower_bound(nbody(4, 4), cache_words)


class TestPlannerCertificate:
    def test_matches_lp_certificate_across_catalog(self):
        planner = Planner()
        for name, nest in catalog().items():
            served = planner.certificate(nest, 2**10)
            direct = theorem3_certificate(nest, 2**10)
            assert served.tight and direct.tight, name
            assert served.primal_value == direct.primal_value, name
            assert served.betas == direct.betas, name
            # The served dual point is itself a valid weak-duality
            # certificate reaching the same objective.
            from repro.core.verify import check_dual_certificate

            check = check_dual_certificate(nest, served.betas, served.dual.zeta,
                                           served.dual.s)
            assert check.ok and check.certified_exponent == served.dual_value, name

    def test_certificate_requires_planning_domain(self):
        with pytest.raises(ValueError):
            Planner().certificate(matmul(4, 4, 4), 1)


class TestHugeExactPowers:
    def test_analyze_beyond_float_range_matches_solve_tiling(self):
        # The lower bound takes M ** k_hat exactly; here M ** 59 has
        # ~1000 bits, past the float range a float root seed needs.
        nest = mttkrp(1180, 482, 32, 2901)
        result = Session().analyze(nest, 2**18)
        assert result.ok
        assert result.fraction("k_hat") == solve_tiling(nest, 2**18).exponent == Fraction(59, 36)


class TestDeprecatedShims:
    def test_flat_shims_are_gone(self):
        assert not hasattr(repro, "plan_batch") and "plan_batch" not in repro.__all__
        assert not hasattr(repro, "sweep_requests") and "sweep_requests" not in repro.__all__

    def test_plan_engine_duplicates_are_gone(self):
        # Session.batch/sweep are the one analyze-list path.
        for name in ("plan_batch", "sweep_requests", "PlanRequest"):
            assert not hasattr(repro.plan, name) and name not in repro.plan.__all__
        assert "PlanRequest" not in repro.__all__
        assert not hasattr(repro.Planner, "plan_request")


class TestDocstrings:
    """The quickstart doctests in the public entry points stay honest."""

    @pytest.mark.parametrize("module", [repro, repro.api], ids=["repro", "repro.api"])
    def test_quickstart_doctest(self, module):
        outcome = doctest.testmod(module, verbose=False)
        assert outcome.attempted > 0
        assert outcome.failed == 0
