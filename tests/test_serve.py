"""Tests for the ``repro-tile serve`` JSON endpoint.

Spins the stdlib HTTP server up in-process on an ephemeral port and
drives it with urllib: schema-version-tagged success envelopes,
structured 4xx payloads, warm-cache metadata, and golden-file payload
comparisons shared with the CLI surface.
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, Session, SweepRequest
from repro.serve import MAX_BATCH_REQUESTS, make_server

GOLDEN = json.loads((Path(__file__).parent / "golden" / "analyze_payloads.json").read_text())


@pytest.fixture(scope="module")
def service():
    """One shared server (and Session) for the whole module."""
    server = make_server(port=0, session=Session())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _post(base: str, path: str, blob) -> tuple[int, dict]:
    data = blob if isinstance(blob, bytes) else json.dumps(blob).encode()
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestHealth:
    def test_health_envelope(self, service):
        status, body = _get(service, "/v1/health")
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "health"
        assert body["payload"]["status"] == "ok"
        assert "planner_stats" in body["payload"]

    def test_trailing_slash_ok(self, service):
        status, body = _get(service, "/v1/health/")
        assert status == 200 and body["payload"]["status"] == "ok"

    def test_query_string_ok(self, service):
        # Load balancers append probe/cache-busting params to health URLs.
        status, body = _get(service, "/v1/health?probe=1")
        assert status == 200 and body["payload"]["status"] == "ok"


class TestAnalyze:
    def test_golden_payload_and_warm_cache_hit(self, service):
        request = {"problem": "matmul", "sizes": [64, 64, 64], "cache_words": 1024}
        status, cold = _post(service, "/v1/analyze", request)
        assert status == 200
        assert cold["schema_version"] == SCHEMA_VERSION
        assert cold["kind"] == "analyze"
        assert cold["payload"] == GOLDEN["analyze_matmul"]

        status, warm = _post(service, "/v1/analyze", request)
        assert status == 200
        assert warm["meta"]["cache_hit"] is True
        assert warm["payload"] == cold["payload"]

    def test_aggregate_budget_golden(self, service):
        status, body = _post(
            service,
            "/v1/analyze",
            {"problem": "nbody", "sizes": [4096, 4096], "cache_words": 4096,
             "budget": "aggregate"},
        )
        assert status == 200
        assert body["payload"] == GOLDEN["analyze_nbody_aggregate"]

    def test_statement_spelling_with_certificate(self, service):
        status, body = _post(
            service,
            "/v1/analyze",
            {"statement": "C[i,k] += A[i,j] * B[j,k]",
             "bounds": {"i": 1024, "j": 1024, "k": 16},
             "cache_words": 65536, "certificate": True},
        )
        assert status == 200
        assert body["payload"]["k_hat"] == "5/4"
        cert = body["payload"]["certificate"]
        assert cert["tight"] is True and cert["primal"] == "5/4"


def _post_raw(base: str, path: str, blob) -> bytes:
    request = urllib.request.Request(
        base + path, data=json.dumps(blob).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        assert resp.status == 200
        return resp.read()


@pytest.fixture(scope="module")
def cached_service():
    server = make_server(port=0, session=Session(), response_cache=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestResponseBytes:
    """A cacheable 200's payload is serialised once, for the response
    cache and the fresh answer alike; both must be the same bytes."""

    @pytest.mark.parametrize("path, blob", [
        ("/v1/analyze", {"problem": "mttkrp", "sizes": [33, 20, 17, 9],
                         "cache_words": 300, "certificate": True}),
        ("/v1/distributed", {"problem": "nbody", "sizes": [300, 70],
                             "processors": 6, "memory_words": 1000}),
        ("/v1/program", {"einsum": "ik,kj->ij", "sizes": {"i": 19, "k": 23, "j": 29},
                         "cache_words": 128}),
    ])
    def test_fresh_and_cached_bytes_identical_up_to_meta(self, cached_service, path, blob):
        fresh = _post_raw(cached_service, path, blob)
        cached = _post_raw(cached_service, path, blob)
        assert json.loads(cached)["meta"]["response_cache"] is True
        assert "response_cache" not in json.loads(fresh)["meta"]
        head = fresh[: fresh.rindex(b', "meta": ')]
        assert cached[: cached.rindex(b', "meta": ')] == head
        # Spliced bytes are exactly json.dumps of the whole envelope.
        assert fresh.decode() == json.dumps(json.loads(fresh))
        assert cached.decode() == json.dumps(json.loads(cached))


class TestBatchAndSweep:
    def test_batch_ordered_results(self, service):
        requests = [
            {"problem": "matmul", "sizes": [2**e, 64, 64], "cache_words": 1024}
            for e in (3, 4, 5)
        ]
        status, body = _post(service, "/v1/batch", {"requests": requests})
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "batch" and body["count"] == 3
        assert [r["payload"]["bounds"][0] for r in body["results"]] == [8, 16, 32]
        assert all(r["schema_version"] == SCHEMA_VERSION for r in body["results"])

    def test_sweep_grid(self, service):
        status, body = _post(
            service,
            "/v1/sweep",
            {"problem": "nbody", "size_axes": [[32, 64], [32]], "cache_sizes": [64, 256]},
        )
        assert status == 200
        assert body["kind"] == "sweep" and body["count"] == 4
        assert {r["payload"]["cache_words"] for r in body["results"]} == {64, 256}

    def test_batch_requires_list(self, service):
        status, body = _post(service, "/v1/batch", {"requests": "nope"})
        assert status == 400 and body["kind"] == "error"

    def test_sweep_size_guard_refuses_before_expanding(self, service, monkeypatch):
        expanded = []
        monkeypatch.setattr(
            SweepRequest, "expand", lambda self: expanded.append(self) or []
        )
        axis = list(range(1, 451))  # 450 x 450 = 202,500 requests
        status, body = _post(
            service,
            "/v1/sweep",
            {"problem": "matvec", "size_axes": [axis, axis], "cache_sizes": [64]},
        )
        assert status == 400
        assert f"sweep grid exceeds {MAX_BATCH_REQUESTS}" in body["payload"]["error"]
        assert expanded == []

    def test_batch_size_guard(self, service):
        entries = [{"problem": "matmul", "cache_words": 64}] * (MAX_BATCH_REQUESTS + 1)
        status, body = _post(service, "/v1/batch", {"requests": entries})
        assert status == 400
        assert str(MAX_BATCH_REQUESTS) in body["payload"]["error"]


class TestErrorPayloads:
    @pytest.mark.parametrize(
        "blob, fragment",
        [
            ({}, "need one of"),
            ({"problem": "matmul"}, "cache_words"),
            ({"problem": "unknown-kernel", "cache_words": 64}, "unknown problem"),
            ({"problem": "matmul", "cache_words": 1}, ">= 2"),
            ({"statement": "C[i] += A[i+1]", "bounds": {"i": 4}, "cache_words": 64}, ""),
            ({"problem": "matmul", "cache_words": 2, "budget": "aggregate"}, "aggregate"),
        ],
    )
    def test_validation_maps_to_structured_400(self, service, blob, fragment):
        status, body = _post(service, "/v1/analyze", blob)
        assert status == 400
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "error"
        assert body["payload"]["status"] == 400
        assert fragment in body["payload"]["error"]

    def test_malformed_json_body(self, service):
        status, body = _post(service, "/v1/analyze", b"{not json")
        assert status == 400 and "JSON" in body["payload"]["error"]

    def test_empty_body(self, service):
        status, body = _post(service, "/v1/analyze", b"")
        assert status == 400 and "empty" in body["payload"]["error"]

    def test_unknown_path_404(self, service):
        status, body = _get(service, "/v2/analyze")
        assert status == 404 and body["kind"] == "error"
        assert body["payload"]["status"] == 404

    @pytest.mark.parametrize(
        "path", ["/v1/analyze", "/v1/batch", "/v1/sweep", "/v1/simulate", "/v1/distributed"]
    )
    def test_get_on_post_endpoint_405(self, service, path):
        status, body = _get(service, path)
        assert status == 405 and body["payload"]["status"] == 405


class TestSimulateAndDistributed:
    def test_simulate_endpoint(self, service):
        status, body = _post(
            service, "/v1/simulate",
            {"problem": "nbody", "sizes": [96, 96], "cache_words": 64},
        )
        assert status == 200 and body["kind"] == "simulate"
        assert body["payload"]["total_words"] > 0
        assert len(body["payload"]["tile"]) == 2

    def test_simulate_trace_guard_400(self, service):
        status, body = _post(
            service, "/v1/simulate",
            {"problem": "matmul", "sizes": [4096, 4096, 4096], "cache_words": 1024},
        )
        assert status == 400 and "guard" in body["payload"]["error"]

    def test_distributed_endpoint(self, service):
        status, body = _post(
            service, "/v1/distributed",
            {"problem": "matmul", "sizes": [256, 256, 256],
             "processors": 8, "memory_words": 4096},
        )
        assert status == 200 and body["kind"] == "distributed"
        assert body["payload"]["grid"] == [2, 2, 2]
