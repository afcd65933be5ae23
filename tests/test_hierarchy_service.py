"""Hierarchy-native serving: request schema, invariants, golden surfaces.

The tentpole contract, pinned here:

* **Nesting invariant** — after nested integer repair, level-l blocks
  never exceed level-(l+1) blocks, tuned or not.
* **Certificate invariant** — every boundary's measured traffic is >=
  that boundary's Theorem bound (ratio >= 1, always).
* **Seed invariant** — the tuned nested tiling's *total* boundary
  traffic never exceeds the analytic seed's.
* **Determinism** — one request produces one payload, byte-identical
  across ``Session.hierarchy``, ``/v1/hierarchy`` and ``repro-tile
  hierarchy`` (golden file shared by all three).
* **Degeneration** — a single-level hierarchy is exactly
  ``Session.analyze`` (untuned) / ``Session.tune`` (tuned).
"""

import doctest
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import HierarchyRequest, RequestError, Session, TuneRequest
from repro.cli import main
from repro.core.loopnest import ArrayRef, LoopNest
from repro.library.problems import (
    matmul,
    mttkrp,
    nbody,
    pointwise_conv,
    tensor_contraction,
)
from repro.plan import Planner
from repro.serve import make_server
from repro.tune import HierarchyReport, tune_hierarchy

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "hierarchy_payloads.json").read_text()
)

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestHierarchyRequest:
    def test_round_trip(self):
        request = HierarchyRequest.from_json(
            {"problem": "matmul", "sizes": [24, 24, 24],
             "capacities": [48, 192], "tune_budget": 8}
        )
        assert HierarchyRequest.from_json(request.to_json()) == request

    def test_validation(self):
        nest = nbody(8, 8)
        with pytest.raises(RequestError, match="at least one"):
            HierarchyRequest(nest=nest, capacities=())
        with pytest.raises(RequestError, match=">= 2"):
            HierarchyRequest(nest=nest, capacities=(1, 8))
        with pytest.raises(RequestError, match="strictly increasing"):
            HierarchyRequest(nest=nest, capacities=(64, 8))
        with pytest.raises(RequestError, match="strategy"):
            HierarchyRequest(nest=nest, capacities=(8, 64), strategy="magic")
        with pytest.raises(RequestError, match="tune_budget"):
            HierarchyRequest(nest=nest, capacities=(8, 64), tune_budget=-1)
        with pytest.raises(RequestError, match="radius"):
            HierarchyRequest(nest=nest, capacities=(8, 64), radius=99)
        with pytest.raises(RequestError, match="aggregate"):
            HierarchyRequest(nest=nest, capacities=(2, 64))

    def test_trace_guard(self):
        with pytest.raises(RequestError, match="guard"):
            HierarchyRequest(
                nest=matmul(4096, 4096, 4096), capacities=(1024, 65536)
            )


@pytest.fixture()
def service():
    server = make_server(port=0, session=Session(workers=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _post(base, path, blob):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(blob).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.status, json.load(resp)


class TestHierarchySurfaces:
    """One request, three surfaces, one golden payload."""

    REQUEST = {
        "problem": "matmul",
        "sizes": [24, 24, 24],
        "capacities": [48, 192, 768],
        "tune_budget": 12,
    }
    CLI = [
        "hierarchy", "--problem", "matmul", "--sizes", "24,24,24",
        "--capacities", "48:192:768", "--tune", "12", "--workers", "0",
    ]

    def test_session_matches_golden(self):
        result = Session(workers=0).hierarchy(HierarchyRequest.from_json(self.REQUEST))
        assert result.kind == "hierarchy"
        assert result.payload == GOLDEN["hierarchy_matmul_tuned"]

    def test_untuned_and_per_array_golden(self):
        session = Session(workers=0)
        untuned = session.hierarchy(
            HierarchyRequest.from_json({k: v for k, v in self.REQUEST.items()
                                        if k != "tune_budget"})
        )
        assert untuned.payload == GOLDEN["hierarchy_matmul"]
        assert untuned.payload["evaluations_used"] == 1
        assert untuned.payload["tuned"] == untuned.payload["seed"]
        per_array = session.hierarchy(
            HierarchyRequest.from_json(
                {"problem": "nbody", "sizes": [40, 40],
                 "capacities": [32, 256], "budget": "per-array"}
            )
        )
        assert per_array.payload == GOLDEN["hierarchy_nbody_per_array"]

    def test_http_matches_golden(self, service):
        status, body = _post(service, "/v1/hierarchy", self.REQUEST)
        assert status == 200
        assert body["schema_version"] == 1 and body["kind"] == "hierarchy"
        assert body["payload"] == GOLDEN["hierarchy_matmul_tuned"]

    def test_cli_matches_golden(self, capsys):
        assert main(self.CLI) == 0
        body = json.loads(capsys.readouterr().out.strip())
        assert body["kind"] == "hierarchy"
        assert body["payload"] == GOLDEN["hierarchy_matmul_tuned"]

    def test_payload_identical_cold_and_warm(self):
        request = HierarchyRequest.from_json(self.REQUEST)
        session = Session(workers=0)
        cold = session.hierarchy(request)
        warm = session.hierarchy(request)
        assert cold.payload == warm.payload
        assert cold.meta["cache_hit"] is False and warm.meta["cache_hit"] is True
        for boundary in cold.payload["boundaries"]:
            assert "cache_hit" not in boundary["plan"]

    def test_http_validation_error_is_structured_400(self, service):
        request = urllib.request.Request(
            service + "/v1/hierarchy",
            data=json.dumps({"problem": "nbody", "capacities": [64, 8]}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        body = json.load(err.value)
        assert body["kind"] == "error" and body["payload"]["status"] == 400

    def test_cli_smoke_clamps_tune_budget(self, capsys):
        rc = main([
            "hierarchy", "--problem", "nbody", "--sizes", "30,30",
            "--capacities", "16:64", "--tune", "64", "--workers", "0", "--smoke",
        ])
        assert rc == 0
        body = json.loads(capsys.readouterr().out.strip())
        assert body["payload"]["evaluations_used"] <= 8

    def test_cli_bad_inputs_clean_errors(self, capsys):
        rc = main(["hierarchy", "--problem", "nbody", "--capacities", "64:8"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["hierarchy", "--problem", "nbody"])  # missing --capacities


class TestHierarchyInvariants:
    CATALOG = [
        (matmul(16, 16, 16), (32, 128, 512)),
        (matmul(30, 30, 4), (48, 96)),
        (nbody(40, 40), (16, 64, 256)),
        (pointwise_conv(4, 8, 8, 6, 6), (64, 300, 301)),
        (tensor_contraction((6, 6), (6,), (6, 6)), (100, 400)),
        (mttkrp(10, 10, 10, 3), (64, 128)),
    ]

    def test_catalog_certified_nested_and_never_worse(self):
        planner = Planner()
        for nest, capacities in self.CATALOG:
            report = tune_hierarchy(
                nest, capacities, planner=planner, max_evaluations=12, workers=0
            )
            label = (nest.name, capacities)
            assert report.tuned_total_traffic_words <= report.seed_total_traffic_words, label
            for boundary in report.boundaries:
                assert boundary.certificate_ratio >= 1.0, label
                assert boundary.plan.tile.is_feasible(
                    boundary.cache_words, report.budget
                ), label
            for inner, outer in zip(report.tiles, report.tiles[1:]):
                assert all(a <= b for a, b in zip(inner, outer)), label

    def test_report_round_trip(self):
        report = tune_hierarchy(
            nbody(20, 20), (8, 32), planner=Planner(), max_evaluations=6, workers=0
        )
        again = HierarchyReport.from_json(json.loads(json.dumps(report.to_json())))
        assert again.to_json() == report.to_json()

    def test_equal_capacity_adjacent_served(self):
        # The nested-LP edge case, exercised through the full façade.
        result = Session(workers=0).hierarchy(
            HierarchyRequest(nest=matmul(16, 16, 16), capacities=(300, 301))
        )
        inner, outer = result.payload["boundaries"]
        assert all(a <= b for a, b in zip(inner["tile"], outer["tile"]))

    def test_huge_top_level_served_as_whole_nest(self):
        nest = matmul(16, 16, 16)
        result = Session(workers=0).hierarchy(
            HierarchyRequest(nest=nest, capacities=(64, 2**20), budget="per-array")
        )
        assert result.payload["boundaries"][1]["tile"] == list(nest.bounds)


@st.composite
def small_nests(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    supports = []
    for _ in range(n):
        support = draw(
            st.sets(st.integers(0, d - 1), min_size=0, max_size=d).map(
                lambda s: tuple(sorted(s))
            )
        )
        supports.append(set(support))
    covered = {i for s in supports for i in s}
    for loop in range(d):
        if loop not in covered:
            supports[draw(st.integers(0, n - 1))].add(loop)
    bounds = tuple(draw(st.integers(1, 16)) for _ in range(d))
    arrays = tuple(
        ArrayRef(name=f"A{j}", support=tuple(sorted(s)), is_output=(j == 0))
        for j, s in enumerate(supports)
    )
    return LoopNest(
        name="random", loops=tuple(f"x{i}" for i in range(d)), bounds=bounds,
        arrays=arrays,
    )


class TestHierarchyProperties:
    """The three invariants, universally quantified over random nests."""

    @SETTINGS
    @given(
        nest=small_nests(),
        stack=st.lists(st.integers(4, 256), min_size=1, max_size=3, unique=True),
        tune_budget=st.sampled_from([1, 6]),
    )
    def test_nested_certified_never_worse(self, nest, stack, tune_budget):
        capacities = tuple(sorted(stack))
        if capacities[0] < nest.num_arrays:  # aggregate feasibility floor
            capacities = (nest.num_arrays,) + tuple(
                c for c in capacities if c > nest.num_arrays
            )
        report = tune_hierarchy(
            nest, capacities, planner=Planner(),
            max_evaluations=tune_budget, workers=0,
        )
        assert report.tuned_total_traffic_words <= report.seed_total_traffic_words
        for boundary in report.boundaries:
            assert boundary.certificate_ratio >= 1.0
        for inner, outer in zip(report.tiles, report.tiles[1:]):
            assert all(a <= b for a, b in zip(inner, outer))
        for blocks, L in zip(zip(*report.tiles), nest.bounds):
            assert all(1 <= b <= L for b in blocks)


class TestSingleLevelDegeneration:
    """A one-level hierarchy is exactly analyze (untuned) / tune (tuned)."""

    def test_untuned_equals_analyze(self):
        session = Session(workers=0)
        nest = matmul(16, 16, 16)
        hierarchy = session.hierarchy(
            HierarchyRequest(nest=nest, capacities=(256,), budget="per-array")
        )
        analyze = session.analyze(nest, cache_words=256)
        expected = dict(analyze.payload)
        expected.pop("certificate")
        for key in ("name", "loops", "bounds", "arrays"):
            # The hierarchy payload carries the nest once, on the report
            # envelope, not per level.
            expected.pop(key)
        boundary = hierarchy.payload["boundaries"][0]
        assert boundary["plan"] == expected
        assert hierarchy.payload["nest"] == nest.to_json()
        assert hierarchy.payload["seed"]["tile"] == expected["tile"]
        assert hierarchy.payload["tuned"]["tile"] == expected["tile"]

    def test_tuned_equals_tune(self):
        session = Session(workers=0)
        nest = nbody(50, 50)
        hierarchy = session.hierarchy(
            HierarchyRequest(nest=nest, capacities=(32,), tune_budget=12)
        )
        tune = session.tune(
            TuneRequest(nest=nest, cache_words=32, max_evaluations=12,
                        capacities=(32,))
        )
        assert hierarchy.payload["tuned"]["tile"] == tune.payload["tuned"]["tile"]
        assert hierarchy.payload["seed"]["tile"] == tune.payload["seed"]["tile"]
        assert (
            hierarchy.payload["tuned"]["total_traffic_words"]
            == tune.payload["tuned"]["traffic_words"]
        )
        assert (
            hierarchy.payload["boundaries"][0]["lower_bound_words"]
            == tune.payload["lower_bound_words"]
        )


class TestDocsExamples:
    """The executable examples in docs/hierarchy.md stay honest."""

    def test_docs_hierarchy_doctests(self):
        path = Path(__file__).parent.parent / "docs" / "hierarchy.md"
        outcome = doctest.testfile(
            str(path),
            module_relative=False,
            optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        )
        assert outcome.attempted > 0
        assert outcome.failed == 0
