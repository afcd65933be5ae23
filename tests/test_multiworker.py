"""Multi-worker serving: coalescing, shared plan cache, golden parity.

End-to-end tests for the PR's fleet features, over real HTTP:

* N concurrent structurally-identical requests cost exactly one
  structure solve (request coalescing + the planner's per-key gate);
* a shared plan cache directory survives a full server restart — the
  second server answers warm with zero solves;
* the worker pool, shared cache, and response cache all report through
  ``/v1/health``;
* golden payloads are byte-identical whether the server runs inline,
  with a process pool, or off the response cache.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import Session
from repro.serve import WORKERS_ENV_VAR, make_server

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "analyze_payloads.json").read_text()
)
GOLDEN_REQUESTS = {
    "analyze_matmul": {"problem": "matmul", "sizes": [64, 64, 64], "cache_words": 1024},
    "analyze_nbody_aggregate": {"problem": "nbody", "sizes": [4096, 4096],
                                "cache_words": 4096, "budget": "aggregate"},
}


def _serve(session=None, **kwargs):
    server = make_server(port=0, session=session or Session(), **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, f"http://127.0.0.1:{server.server_address[1]}"


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _post_raw(base: str, path: str, blob) -> tuple[int, bytes]:
    data = blob if isinstance(blob, bytes) else json.dumps(blob).encode()
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _health(base: str) -> dict:
    with urllib.request.urlopen(base + "/v1/health", timeout=30) as resp:
        return json.load(resp)


def _payload_bytes(raw: bytes) -> bytes:
    """The verbatim payload substring of a schema-v1 envelope."""
    return raw.split(b'"payload": ', 1)[1].rsplit(b', "meta": ', 1)[0]


def _total_solves(health_payload: dict) -> int:
    """Structure solves paid anywhere: inline or dispatched to the pool.

    Under ``REPRO_SERVE_WORKERS`` (CI's chaos leg) cold solves run in
    pool workers, so the in-process ``structure_solves`` counter stays
    0 and the work shows up as a pool dispatch instead.
    """
    return (health_payload["planner_stats"]["structure_solves"]
            + health_payload["server"]["workers"]["dispatched"])


class TestCoalescing:
    def test_concurrent_same_structure_costs_one_solve(self):
        # 4 identical bodies + 4 same-structure different-bound bodies,
        # fired together against a cold server: the response cache is
        # off, so all 8 reach the planner — which must solve the mpLP
        # exactly once (coalescing, not luck: late arrivals block on the
        # leader's in-flight solve rather than re-running it).
        server, thread, base = _serve(response_cache=0)
        bodies = [
            {"problem": "mttkrp", "sizes": [24, 24, 24, 8], "cache_words": 4096}
        ] * 4 + [
            {"problem": "mttkrp", "sizes": [n, n, n, 16], "cache_words": 1024}
            for n in (16, 20, 28, 32)
        ]
        results: list = [None] * len(bodies)
        barrier = threading.Barrier(len(bodies))

        def fire(index: int, body: dict) -> None:
            barrier.wait()
            results[index] = _post_raw(base, "/v1/analyze", body)

        threads = [
            threading.Thread(target=fire, args=(i, b), daemon=True)
            for i, b in enumerate(bodies)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert all(status == 200 for status, _ in results), results
            # Identical bodies got identical (byte-identical) answers.
            first = _payload_bytes(results[0][1])
            assert all(_payload_bytes(raw) == first for _, raw in results[:4])
            health = _health(base)["payload"]
            assert _total_solves(health) == 1, health
        finally:
            _stop(server, thread)


class TestSharedCacheAcrossRestarts:
    def test_warm_restart_costs_zero_solves(self, tmp_path):
        store_dir = tmp_path / "plans"
        body = {"problem": "matmul", "sizes": [48, 48, 48], "cache_words": 4096}

        server, thread, base = _serve(Session(plan_cache=store_dir))
        try:
            status, first_raw = _post_raw(base, "/v1/analyze", body)
            assert status == 200
            health = _health(base)["payload"]
            assert _total_solves(health) == 1, health
            assert health["shared_cache"]["puts"] >= 1
        finally:
            _stop(server, thread)

        # A brand-new process (fresh Session, fresh planner) over the
        # same directory answers warm: the solve happened last "boot".
        server, thread, base = _serve(Session(plan_cache=store_dir))
        try:
            status, second_raw = _post_raw(base, "/v1/analyze", body)
            assert status == 200
            assert _payload_bytes(second_raw) == _payload_bytes(first_raw)
            health = _health(base)["payload"]
            assert _total_solves(health) == 0, health
            assert health["planner_stats"]["shared_hits"] >= 1, health
            assert health["shared_cache"]["hits"] >= 1, health
        finally:
            _stop(server, thread)

    def test_version_bump_discards_stale_store(self, tmp_path):
        from repro.util.sharedstore import SharedPlanStore

        store_dir = tmp_path / "plans"
        body = {"problem": "matmul", "sizes": [16, 16, 16], "cache_words": 256}

        server, thread, base = _serve(Session(plan_cache=store_dir))
        try:
            assert _post_raw(base, "/v1/analyze", body)[0] == 200
        finally:
            _stop(server, thread)

        # Restart under a bumped plan-cache schema: yesterday's entries
        # are invalid, so the server re-solves instead of trusting them.
        bumped = SharedPlanStore(store_dir, version=99)
        server, thread, base = _serve(Session(plan_cache=bumped))
        try:
            assert _post_raw(base, "/v1/analyze", body)[0] == 200
            health = _health(base)["payload"]
            assert _total_solves(health) == 1, health
            assert health["planner_stats"]["shared_hits"] == 0, health
            assert health["shared_cache"]["invalidated"] >= 1, health
        finally:
            _stop(server, thread)


class TestWorkerPool:
    def test_pool_solves_and_reports_liveness(self):
        server, thread, base = _serve(workers=2)
        try:
            body = {"problem": "matmul", "sizes": [32, 32, 32], "cache_words": 1024}
            status, raw = _post_raw(base, "/v1/analyze", body)
            assert status == 200
            stats = _health(base)["payload"]["server"]
            assert stats["workers"]["configured"] == 2
            assert stats["workers"]["pool_started"] is True
            assert stats["workers"]["pool_alive"] is True
            assert stats["workers"]["dispatched"] >= 1
            # The solve ran in a pool worker, never in this process.
            planner = _health(base)["payload"]["planner_stats"]
            assert planner["structure_solves"] == 0, planner
        finally:
            _stop(server, thread)

    def test_env_var_configures_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        server = make_server(port=0)
        try:
            assert server.workers == 3
        finally:
            server.server_close()
        monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            make_server(port=0)


class TestSignalShutdown:
    def test_sigterm_shuts_down_pool_and_releases_port(self):
        # `kill` must take the graceful path: with fork-started pool
        # workers, the default SIGTERM disposition would kill only the
        # parent and orphan the workers — which inherited the listening
        # socket, so the port would stay busy and a restarted server
        # could never bind it.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
            assert match, line
            port = int(match.group(1))
            body = {"problem": "matmul", "sizes": [32, 32, 32], "cache_words": 1024}
            status, _ = _post_raw(f"http://127.0.0.1:{port}", "/v1/analyze", body)
            assert status == 200  # pool is live: workers exist to orphan
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "shutting down" in proc.stdout.read()
            # The workers died with the parent, so the port frees up.
            # SO_REUSEADDR matches what a restarted server would use: it
            # ignores TIME_WAIT remnants but still fails EADDRINUSE if
            # an orphaned worker is holding the listening socket.
            deadline = time.monotonic() + 10
            while True:
                probe = socket.socket()
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    probe.bind(("127.0.0.1", port))
                    probe.listen(1)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.2)
                finally:
                    probe.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestGoldenParityAcrossModes:
    def test_golden_payloads_byte_identical_in_every_mode(self):
        # Inline server (reference), pooled server (fresh solve path),
        # pooled server again (response-cache splice path): all three
        # must produce the same payload bytes, equal to the golden file.
        inline_server, inline_thread, inline_base = _serve(response_cache=0)
        pooled_server, pooled_thread, pooled_base = _serve(
            workers=2, response_cache=64
        )
        try:
            for name, request in GOLDEN_REQUESTS.items():
                _, inline_raw = _post_raw(inline_base, "/v1/analyze", request)
                _, fresh_raw = _post_raw(pooled_base, "/v1/analyze", request)
                _, cached_raw = _post_raw(pooled_base, "/v1/analyze", request)
                expected = _payload_bytes(inline_raw)
                assert _payload_bytes(fresh_raw) == expected, name
                assert _payload_bytes(cached_raw) == expected, name
                assert json.loads(expected) == GOLDEN[name], name
                meta = json.loads(cached_raw)["meta"]
                assert meta["cache_hit"] is True
                assert meta.get("response_cache") is True, meta
        finally:
            _stop(inline_server, inline_thread)
            _stop(pooled_server, pooled_thread)

    def test_batch_golden_parity_under_workers(self):
        server, thread, base = _serve(workers=2)
        try:
            batch = {"requests": list(GOLDEN_REQUESTS.values())}
            status, raw = _post_raw(base, "/v1/batch", batch)
            assert status == 200
            body = json.loads(raw)
            assert body["count"] == len(GOLDEN_REQUESTS)
            for result, name in zip(body["results"], GOLDEN_REQUESTS):
                assert result["payload"] == GOLDEN[name], name
        finally:
            _stop(server, thread)
