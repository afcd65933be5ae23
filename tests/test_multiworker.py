"""Concurrent serving: coalescing, golden parity.

End-to-end tests over real HTTP:

* N concurrent structurally-identical requests install the structure
  once and each get the answer a fresh planner gives;
* followers of a coalesced request whose leader failed still get an
  answer of their own;
* SIGTERM drains the CLI server and frees its port;
* golden payloads are byte-identical whether a request is solved fresh
  or answered off the response cache.
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

from repro.api import AnalyzeRequest, Session
from repro.plan import Planner
from repro.serve import make_server

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


class TestCoalescing:
    def test_concurrent_same_structure_installs_one_structure(self):
        # 4 identical bodies + 4 same-structure different-bound bodies,
        # fired together against a cold server: the response cache is
        # off, so all 8 reach the planner.  Threads that meet the cold
        # structure each pivot from the slack basis, but every answer is
        # the one lex-min vertex a fresh planner serves, and the structure
        # is installed once.
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
            for body, (_, raw) in zip(bodies, results):
                fresh = Session(Planner()).analyze(AnalyzeRequest.from_json(body))
                assert json.loads(_payload_bytes(raw)) == json.loads(fresh.to_json_str())["payload"]
            stats = _health(base)["payload"]["planner_stats"]
            assert stats["structure_solves"] - stats["coalesced"] == 1, stats
        finally:
            _stop(server, thread)

    def test_followers_of_a_failed_leader_get_their_own_answer(self):
        # The first execution sleeps (so the other two coalesce onto it)
        # and then raises: the leader answers with a structured 500, and
        # each follower runs the request itself instead of losing its
        # connection.
        server, thread, base = _serve(response_cache=0)
        handle = server._handle_request
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                time.sleep(0.5)
                raise RuntimeError("leader failed")
            return handle(*args)

        server._handle_request = fail_first
        body = {"problem": "matmul", "sizes": [40, 40, 40], "cache_words": 512}
        results: list = [None] * 3
        barrier = threading.Barrier(len(results))

        def fire(index: int) -> None:
            barrier.wait()
            try:
                results[index] = _post_raw(base, "/v1/analyze", body)[0]
            except Exception as exc:  # a dropped connection
                results[index] = repr(exc)

        threads = [
            threading.Thread(target=fire, args=(i,), daemon=True)
            for i in range(len(results))
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert sorted(results, key=str) == [200, 200, 500], results
            assert _health(base)["payload"]["server"]["coalesced"] == 2
        finally:
            _stop(server, thread)


class TestSignalShutdown:
    def test_sigterm_drains_and_releases_port(self):
        # `kill` must take the graceful path: drain, close the listening
        # socket and exit 0, so a restarted server can bind the port.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
            assert match, line
            port = int(match.group(1))
            body = {"problem": "matmul", "sizes": [32, 32, 32], "cache_words": 1024}
            status, _ = _post_raw(f"http://127.0.0.1:{port}", "/v1/analyze", body)
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "shutting down" in proc.stdout.read()
            # SO_REUSEADDR matches what a restarted server would use: it
            # ignores TIME_WAIT remnants but still fails EADDRINUSE if
            # anything is holding the listening socket.
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
            proc.stdout.close()


class TestGoldenParityAcrossModes:
    def test_golden_payloads_byte_identical_in_every_mode(self):
        # A fresh solve (reference) and a repeat off the response-cache
        # splice path must produce the same payload bytes, equal to the
        # golden file.
        server, thread, base = _serve(response_cache=64)
        try:
            for name, request in GOLDEN_REQUESTS.items():
                _, fresh_raw = _post_raw(base, "/v1/analyze", request)
                _, cached_raw = _post_raw(base, "/v1/analyze", request)
                expected = _payload_bytes(fresh_raw)
                assert _payload_bytes(cached_raw) == expected, name
                assert json.loads(expected) == GOLDEN[name], name
                meta = json.loads(cached_raw)["meta"]
                assert meta["cache_hit"] is True
                assert meta.get("response_cache") is True, meta
        finally:
            _stop(server, thread)

    def test_batch_golden_parity_under_workers(self):
        server, thread, base = _serve()
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
