"""Service-level observability tests.

Complements the unit suite in ``test_obs.py`` and the soak's scrape
contract: here every count is pinned *exactly* against a live
server under parallel mixed traffic, golden payloads are
checked byte-for-byte with tracing on (meta-only by construction), and
trace ids are followed through headers, bodies, the response-cache
splice, deadline 504s, and internal 500s.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, Session
from repro.cli import main
from repro.library.problems import matmul
from repro.obs import global_registry
from repro.serve import make_server
from repro.tune.evaluate import MIN_PARALLEL_CANDIDATES, evaluate_candidates
from repro.util import faults

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "analyze_payloads.json").read_text()
)
ANALYZE = {"problem": "matmul", "sizes": [64, 64, 64], "cache_words": 1024}


@pytest.fixture(scope="module")
def service():
    """One shared server for the module, response cache on."""
    server = make_server(
        port=0,
        session=Session(workers=0),
        max_inflight=32,
        response_cache=64,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _request(base, path, blob=None, headers=None):
    data = None
    if blob is not None:
        data = blob if isinstance(blob, bytes) else json.dumps(blob).encode()
    req = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), exc.headers


def _post(base, path, blob, headers=None):
    status, raw, hdrs = _request(base, path, blob, headers)
    return status, json.loads(raw), hdrs


def _get(base, path):
    status, raw, hdrs = _request(base, path)
    return status, json.loads(raw), hdrs


def _scrape(base):
    """(content_type, text) from one ``GET /v1/metrics``."""
    with urllib.request.urlopen(base + "/v1/metrics", timeout=10) as resp:
        return resp.headers.get("Content-Type", ""), resp.read().decode("utf-8")


def _samples(text):
    """Prometheus text -> ``{'name{labels}': float}`` (comments skipped)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def _requests_total(samples, route, status):
    return sum(
        value
        for key, value in samples.items()
        if key.startswith("repro_requests_total{")
        and f'route="{route}"' in key
        and f'status="{status}"' in key
    )


def _assert_timings(meta):
    assert sorted(meta["timings"]) == ["stages", "total_ms"]
    assert meta["timings"]["total_ms"] >= 0.0
    return meta["trace_id"]


class TestMetricsEndpoint:
    def test_scrape_content_type_and_grammar(self, service):
        _, base = service
        status, body, _ = _post(base, "/v1/analyze", ANALYZE)
        assert status == 200
        ctype, text = _scrape(base)
        assert ctype.startswith("text/plain; version=0.0.4")
        lines = text.splitlines()
        assert "# TYPE repro_requests_total counter" in lines
        assert "# TYPE repro_request_seconds histogram" in lines
        samples = _samples(text)
        assert _requests_total(samples, "/v1/analyze", "200") >= 1
        assert samples["repro_draining"] == 0.0

    def test_post_metrics_is_405(self, service):
        _, base = service
        status, body, _ = _post(base, "/v1/metrics", {})
        assert status == 405
        assert body["payload"]["status"] == 405

    def test_both_405s_count_as_bad_method(self, service):
        _, base = service
        key = 'repro_rejected_total{reason="bad-method"}'
        before = _samples(_scrape(base)[1]).get(key, 0.0)
        assert _request(base, "/v1/analyze")[0] == 405  # GET on a POST route
        assert _request(base, "/v1/metrics", {})[0] == 405  # POST on a GET route
        after = _samples(_scrape(base)[1]).get(key, 0.0)
        assert after - before == 2

    def test_exact_counts_under_parallel_mixed_traffic(self, service):
        """Scrape deltas match the traffic exactly — nothing lost, nothing
        double-counted — across handler threads, coalescing, and the
        response-cache splice path."""
        _, base = service
        n_threads, per_thread = 6, 8
        good = per_thread // 2 * n_threads
        bad = per_thread // 2 * n_threads

        _, before_text = _scrape(base)
        before = _samples(before_text)
        outcomes: list[list[tuple[str, int]]] = [[] for _ in range(n_threads)]

        def worker(idx: int) -> None:
            for i in range(per_thread):
                if i % 2 == 0:
                    blob = {
                        "problem": "matmul",
                        "sizes": [16, 16, 16],
                        "cache_words": 64 + idx,  # distinct per thread
                    }
                    status, _, _ = _post(base, "/v1/analyze", blob)
                    outcomes[idx].append(("good", status))
                else:
                    status, _, _ = _post(base, "/v1/analyze", {"problem": "matmul"})
                    outcomes[idx].append(("bad", status))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        flat = [item for per in outcomes for item in per]
        assert all(s == 200 for kind, s in flat if kind == "good")
        assert all(s == 400 for kind, s in flat if kind == "bad")

        _, after_text = _scrape(base)
        after = _samples(after_text)
        d200 = _requests_total(after, "/v1/analyze", "200") - _requests_total(
            before, "/v1/analyze", "200"
        )
        d400 = _requests_total(after, "/v1/analyze", "400") - _requests_total(
            before, "/v1/analyze", "400"
        )
        assert d200 == good
        assert d400 == bad
        hist_key = 'repro_request_seconds_count{route="/v1/analyze"}'
        assert after[hist_key] - before.get(hist_key, 0.0) == good + bad

    def test_counters_are_monotonic_across_scrapes(self, service):
        _, base = service
        before = _samples(_scrape(base)[1])
        _post(base, "/v1/analyze", ANALYZE)
        after = _samples(_scrape(base)[1])
        for key, value in before.items():
            if key.startswith(("repro_requests_total", "repro_rejected_total")):
                assert after.get(key, -1.0) >= value, key


class TestTracePropagation:
    def test_header_id_is_echoed_in_meta_and_header(self, service):
        _, base = service
        status, body, headers = _post(
            base, "/v1/analyze", ANALYZE, headers={"X-Trace-Id": "client-id-1"}
        )
        assert status == 200
        assert body["meta"]["trace_id"] == "client-id-1"
        assert headers.get("X-Trace-Id") == "client-id-1"
        _assert_timings(body["meta"])

    def test_id_is_minted_when_absent(self, service):
        _, base = service
        status, body, headers = _post(base, "/v1/analyze", ANALYZE)
        assert status == 200
        tid = body["meta"]["trace_id"]
        assert len(tid) == 16 and int(tid, 16) >= 0
        assert headers.get("X-Trace-Id") == tid

    def test_body_field_wins_over_header(self, service):
        _, base = service
        status, body, headers = _post(
            base,
            "/v1/analyze",
            {**ANALYZE, "trace_id": "body-id"},
            headers={"X-Trace-Id": "header-id"},
        )
        assert status == 200
        assert body["meta"]["trace_id"] == "body-id"
        assert headers.get("X-Trace-Id") == "body-id"

    def test_malformed_id_is_ignored_not_rejected(self, service):
        _, base = service
        status, body, _ = _post(
            base, "/v1/analyze", ANALYZE, headers={"X-Trace-Id": "not a trace id!"}
        )
        assert status == 200
        tid = body["meta"]["trace_id"]
        assert len(tid) == 16 and int(tid, 16) >= 0

    def test_splice_path_echoes_the_callers_id(self, service):
        _, base = service
        blob = {"problem": "matmul", "sizes": [32, 32, 32], "cache_words": 2048}
        status, first, _ = _post(base, "/v1/analyze", blob)
        assert status == 200
        status, body, headers = _post(
            base, "/v1/analyze", blob, headers={"X-Trace-Id": "retry-7"}
        )
        assert status == 200
        assert body["meta"]["response_cache"] is True
        assert body["meta"]["trace_id"] == "retry-7"
        assert headers.get("X-Trace-Id") == "retry-7"
        # No handler ran, so the splice carries a stage-free timing.
        assert body["meta"]["timings"]["stages"] == {}
        assert body["payload"] == first["payload"]

    def test_deadline_504_detail_carries_trace_id(self):
        # A server with a *fresh* Session: the deadline needs a cold
        # solve to interrupt (warm cache hits finish inside any budget).
        server = make_server(port=0, session=Session())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with faults.inject("slow-lp"):
                status, body, headers = _post(
                    base,
                    "/v1/analyze",
                    {**ANALYZE, "deadline_ms": 1, "trace_id": "deadline-trace"},
                )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert status == 504
        detail = body["payload"]["detail"]
        assert detail["reason"] == "deadline_exceeded"
        assert detail["trace_id"] == "deadline-trace"
        assert headers.get("X-Trace-Id") == "deadline-trace"

    def test_internal_500_correlates_error_and_trace_ids(
        self, service, monkeypatch, caplog
    ):
        _, base = service

        def boom(self, *args, **kwargs):
            raise RuntimeError("obs internal detail")

        monkeypatch.setattr(Session, "analyze", boom)
        # A body the response cache has never seen, so the request must
        # reach the (now exploding) session instead of splicing a hit.
        with caplog.at_level("ERROR", logger="repro.serve"):
            status, body, headers = _post(
                base,
                "/v1/analyze",
                {"problem": "matmul", "sizes": [24, 24, 24], "cache_words": 96},
                headers={"X-Trace-Id": "incident-1"},
            )
        assert status == 500
        detail = body["payload"]["detail"]
        assert detail["reason"] == "internal"
        assert detail["trace_id"] == "incident-1"
        error_id = detail["error_id"]
        assert len(error_id) == 12 and error_id == error_id.lower()
        assert headers.get("X-Trace-Id") == "incident-1"
        # The log line is structured JSON joining both correlation ids
        # with the traceback the body never leaks.
        logged = None
        for record in caplog.records:
            try:
                blob = json.loads(record.message)
            except ValueError:
                continue
            if blob.get("event") == "internal-error":
                logged = blob
        assert logged is not None
        assert logged["error_id"] == error_id
        assert logged["trace_id"] == "incident-1"
        assert "obs internal detail" in logged["traceback"]


class TestGoldenByteIdentity:
    @staticmethod
    def _payload_bytes(raw: bytes) -> bytes:
        start = raw.index(b'"payload": ') + len(b'"payload": ')
        return raw[start:raw.index(b', "meta": ')]

    def test_golden_payload_is_byte_identical_with_tracing_on(self, service):
        """Tracing is meta-only: the payload bytes are identical with
        tracing on and off, on the fresh path and on the splice, and the
        parsed payload is exactly the golden one."""
        from repro.obs import trace as obs_trace

        _, base = service
        obs_trace.set_enabled(False)
        try:
            status, untraced, _ = _request(base, "/v1/analyze", ANALYZE)
            assert status == 200
        finally:
            obs_trace.set_enabled(True)
        expected = self._payload_bytes(untraced)
        assert json.loads(untraced)["meta"].get("trace_id") is None
        for attempt in ("traced", "response-cache hit"):
            status, raw, _ = _request(base, "/v1/analyze", ANALYZE)
            assert status == 200, (attempt, raw)
            body = json.loads(raw)
            assert body["payload"] == GOLDEN["analyze_matmul"], attempt
            assert self._payload_bytes(raw) == expected, attempt
            assert "trace_id" in body["meta"], attempt


class TestWorkerDeltaMerges:
    def test_evaluate_candidates_ships_every_workers_observations(self):
        """workers=2 evaluation merges one delta per candidate — no
        observation is lost crossing the pool boundary."""
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                assert pool.submit(len, ()).result(timeout=60) == 0
        except Exception:
            pytest.skip("no usable process pool in this sandbox")
        nest = matmul(64, 64, 64)
        candidates = [
            [4 + i, 4, 4] for i in range(MIN_PARALLEL_CANDIDATES)
        ]
        registry = global_registry()
        merges = registry.counter("repro_worker_merges_total")
        evals = registry.counter("repro_worker_evaluations_total")
        hist = registry.histogram("repro_worker_eval_seconds")
        before = (merges.value, evals.value, hist.count)
        results = evaluate_candidates(nest, candidates, [64, 1024], workers=2)
        assert len(results) == len(candidates)
        if merges.value == before[0]:
            pytest.skip("pool fell back to serial; no deltas to merge")
        assert merges.value - before[0] == len(candidates)
        assert evals.value - before[1] == len(candidates)
        assert hist.count - before[2] == len(candidates)


class TestDrainVisibility:
    def test_metrics_and_health_stay_scrapeable_while_draining(self):
        server = make_server(port=0, session=Session(workers=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            server.drain()
            status, body, _ = _get(base, "/v1/health")
            assert status == 200
            assert body["payload"]["server"]["draining"] is True
            ctype, text = _scrape(base)
            assert ctype.startswith("text/plain")
            assert _samples(text)["repro_draining"] == 1.0
            status, body, headers = _post(base, "/v1/analyze", ANALYZE)
            assert status == 503
            assert body["payload"]["detail"]["reason"] == "draining"
            assert headers.get("Retry-After") == "5"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_server_stats_snapshot_is_atomic(self):
        """Health read under live mixed traffic and a mid-run ``drain()``
        is always one consistent moment: ``requests_served`` is the sum of
        ``requests_by_route``, every count an ``int``, and a reader that
        has seen the server draining never sees it undrained again.  No
        update is lost: the final counts match what the clients saw."""
        server = make_server(port=0, session=Session(workers=0), max_inflight=32)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        stop = threading.Event()
        reads: list[list[dict]] = [[], []]
        statuses: list[list[int]] = [[], [], []]

        def poster(idx: int) -> None:
            bodies = [ANALYZE, {"problem": "matmul"}]  # a 200 and a 400
            while not stop.is_set():
                body = bodies[len(statuses[idx]) % 2]
                statuses[idx].append(_request(base, "/v1/analyze", body)[0])

        def reader(idx: int) -> None:
            while not stop.is_set():
                status, body, _ = _get(base, "/v1/health")
                assert status == 200
                reads[idx].append(body["payload"]["server"])

        def wait_for(total: int) -> None:
            for _ in range(3000):
                if sum(map(len, reads)) >= total:
                    return
                stop.wait(0.01)

        threads = [threading.Thread(target=poster, args=(i,)) for i in range(3)]
        threads += [threading.Thread(target=reader, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            wait_for(40)
            server.drain()
            wait_for(80)
            stop.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            _, final, _ = _get(base, "/v1/health")
            samples = _samples(_scrape(base)[1])
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        seen = [snap for per in reads for snap in per]
        assert len(seen) >= 80
        for snap in seen:
            routes = snap["requests_by_route"]
            assert type(snap["requests_served"]) is int, snap
            assert all(type(count) is int for count in routes.values()), snap
            assert snap["requests_served"] == sum(routes.values()), snap
        for per in reads:
            flags = [snap["draining"] for snap in per]
            assert flags == sorted(flags), flags  # False ... then True
        assert any(snap["draining"] for snap in seen)
        assert any(not snap["draining"] for snap in seen)
        sent = [status for per in statuses for status in per]
        assert set(sent) <= {200, 400, 503} and 503 in sent
        routes = final["payload"]["server"]["requests_by_route"]
        assert routes["/v1/analyze"] == sum(s != 503 for s in sent)
        assert routes["/v1/health"] == len(seen)
        assert samples['repro_rejected_total{reason="draining"}'] == sent.count(503)


class TestOneRegistry:
    """Health's ``server`` block and ``/v1/metrics`` render the same
    per-server registry, so they agree on every count they share."""

    def test_health_and_metrics_agree_after_mixed_traffic(self):
        server = make_server(port=0, session=Session(workers=0), response_cache=16)
        twin = {"problem": "matmul", "sizes": [40, 40, 40], "cache_words": 512}
        twin_bytes = json.dumps(twin).encode()
        handle = server._handle_request
        slept = []

        def slow_first_twin(route, raw, trace_id=None):
            # The first twin sleeps so the second coalesces onto it.
            if raw == twin_bytes and not slept:
                slept.append(True)
                time.sleep(0.5)
            return handle(route, raw, trace_id)

        server._handle_request = slow_first_twin
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            assert _request(base, "/v1/analyze", ANALYZE)[0] == 200  # miss
            assert _request(base, "/v1/analyze", ANALYZE)[0] == 200  # hit
            barrier = threading.Barrier(2)
            twins: list = []

            def fire() -> None:
                barrier.wait()
                twins.append(_request(base, "/v1/analyze", twin_bytes)[0])

            pair = [threading.Thread(target=fire) for _ in range(2)]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=60)
            assert twins == [200, 200]
            assert _request(base, "/v1/nowhere")[0] == 404
            assert _request(base, "/v1/analyze")[0] == 405  # GET, POST route
            assert _request(base, "/v1/metrics", {})[0] == 405  # POST, GET route
            assert _request(base, "/v1/analyze", {"problem": "matmul"})[0] == 400
            status, body, _ = _get(base, "/v1/health")
            assert status == 200
            _, text = _scrape(base)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        health = body["payload"]["server"]
        assert "shared_cache" not in health
        assert body["payload"]["shared_cache"] is None
        samples = _samples(text)
        metric_routes: dict[str, float] = {}
        for key, value in samples.items():
            if key.startswith("repro_requests_total{"):
                route = key.split('route="', 1)[1].split('"', 1)[0]
                metric_routes[route] = metric_routes.get(route, 0.0) + value
        # The scrape also counts the health request that preceded it.
        assert health["requests_by_route"] == {"/v1/analyze": 5}
        assert metric_routes == {"/v1/analyze": 5.0, "/v1/health": 1.0}
        assert health["requests_served"] == 5
        cache = health["response_cache"]
        assert (cache["hits"], cache["misses"], cache["entries"]) == (1, 4, 2)
        assert samples['repro_response_cache_events_total{event="hits"}'] == 1.0
        assert samples['repro_response_cache_events_total{event="misses"}'] == 4.0
        assert samples["repro_response_cache_entries"] == 2.0
        assert health["coalesced"] == 1
        assert samples["repro_coalesced_total"] == 1.0
        assert samples['repro_rejected_total{reason="bad-method"}'] == 2.0
        assert samples['repro_rejected_total{reason="not-found"}'] == 1.0
        assert (health["inflight"], health["draining"]) == (0, False)
        assert (samples["repro_inflight"], samples["repro_draining"]) == (0.0, 0.0)


class TestSessionAndCliSurface:
    def test_session_metrics_shape(self):
        from repro.api import AnalyzeRequest

        session = Session(workers=0)
        session.analyze(AnalyzeRequest(nest=matmul(16, 16, 16), cache_words=64))
        stats = session.metrics()
        assert sorted(stats) == ["planner_stats", "registry", "shared_cache"]
        summary = stats["registry"]
        assert sorted(summary) == ["counters", "gauges", "histograms"]
        assert isinstance(stats["planner_stats"], dict)

    def test_cli_stats_prints_prometheus_text(self, capsys):
        from repro.api import AnalyzeRequest

        Session(workers=0).analyze(
            AnalyzeRequest(nest=matmul(16, 16, 16), cache_words=64)
        )
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_stage_seconds histogram" in out

    def test_cli_stats_json(self, capsys):
        assert main(["stats", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert sorted(blob) == ["planner_stats", "registry", "shared_cache"]

    def test_cli_stats_url_scrapes_a_live_server(self, service, capsys):
        _, base = service
        assert main(["stats", "--url", base]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "repro_requests_total" in out


class TestMetaTimingsEverywhere:
    def test_analyze_batch_simulate_and_health_carry_timings(self, service):
        _, base = service
        status, body, _ = _post(base, "/v1/analyze", ANALYZE)
        assert status == 200
        _assert_timings(body["meta"])

        status, body, _ = _post(
            base,
            "/v1/batch",
            {"requests": [
                {"problem": "matmul", "sizes": [8, 8, 8], "cache_words": 64},
                {"problem": "nbody", "sizes": [32, 32], "cache_words": 64},
            ]},
        )
        assert status == 200 and body["count"] == 2
        # One request, one trace: every batch item shares the id.
        ids = {_assert_timings(item["meta"]) for item in body["results"]}
        assert len(ids) == 1

        status, body, _ = _post(
            base,
            "/v1/simulate",
            {"problem": "nbody", "sizes": [96, 96], "cache_words": 64},
        )
        assert status == 200
        _assert_timings(body["meta"])

        status, body, _ = _get(base, "/v1/health")
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        _assert_timings(body["meta"])
