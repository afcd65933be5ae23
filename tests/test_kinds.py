"""Tests for the request-kind table that drives Session, serve and the CLI.

One parametrized pass over the table's rows pins, per POST kind: the
route answers POST and refuses GET with 405, the response-cacheable
routes are exactly the single-Result kinds, the Session entry point and
the request class's own ``from_json`` sit in their class ``__dict__``
(where the layer-timing launcher ``perfbench/traced_serve.py`` patches
them), and the exact meta key set of a clean answer.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import serve
from repro.api import Session
from repro.api.kinds import REQUEST_KINDS
from repro.api.result import KINDS

_ANALYZE = {"problem": "matmul", "sizes": [16, 16, 16], "cache_words": 64}

#: kind -> (a small valid body, the exact meta keys of its clean answer
#: without the trace stamp).  List-envelope kinds give their items' keys.
CASES = {
    "analyze": (_ANALYZE, {"elapsed_ms", "cache_hit"}),
    "batch": ({"requests": [_ANALYZE, _ANALYZE]}, {"elapsed_ms", "cache_hit"}),
    "sweep": (
        {"problem": "matmul", "size_axes": [[16], [16, 24], [16]], "cache_sizes": [64]},
        {"elapsed_ms", "cache_hit"},
    ),
    "simulate": (
        {"problem": "nbody", "sizes": [24, 24], "cache_words": 64},
        {"elapsed_ms", "cache_hit"},
    ),
    "tune": (
        {"problem": "nbody", "sizes": [30, 30], "cache_words": 16, "max_evaluations": 4},
        {"elapsed_ms", "cache_hit"},
    ),
    "hierarchy": (
        {"problem": "matmul", "sizes": [16, 16, 16], "capacities": [32, 128]},
        {"elapsed_ms", "cache_hit"},
    ),
    "program": (
        {"einsum": "ik,kj->ij", "sizes": {"i": 16, "k": 16, "j": 16}, "cache_words": 64},
        {"elapsed_ms", "cache_hit", "planner_delta"},
    ),
    "distributed": (
        {"problem": "matmul", "sizes": [16, 16, 16], "processors": 4, "memory_words": 256},
        {"elapsed_ms"},
    ),
}

#: The trace stamp every answer carries while tracing is on (the default).
TRACE_KEYS = {"trace_id", "timings"}

ROWS = {row.kind: row for row in REQUEST_KINDS}


@pytest.fixture(scope="module")
def service():
    server = serve.make_server(port=0, session=Session())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _call(base: str, path: str, blob=None) -> tuple[int, dict]:
    data = None if blob is None else json.dumps(blob).encode()
    request = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method="GET" if data is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def test_table_lists_every_post_kind_once():
    assert sorted(ROWS) == sorted(CASES)
    assert len({row.route for row in REQUEST_KINDS}) == len(REQUEST_KINDS)
    assert set(KINDS) == set(ROWS) | {"health", "error"}


@pytest.mark.parametrize("kind", sorted(CASES))
class TestKindRow:
    def test_route_answers_post_and_refuses_get(self, service, kind):
        row = ROWS[kind]
        assert row.route == f"/v1/{kind}"
        status, body = _call(service, row.route, CASES[kind][0])
        assert status == 200, body
        status, body = _call(service, row.route)
        assert status == 405 and body["payload"]["status"] == 405

    def test_cacheable_iff_single_result(self, kind):
        row = ROWS[kind]
        assert (row.route in serve._CACHEABLE_ROUTES) == row.single

    def test_patch_points_live_in_class_dicts(self, kind):
        row = ROWS[kind]
        assert kind in Session.__dict__
        assert "from_json" in row.request.__dict__

    def test_clean_meta_key_set(self, service, kind):
        row = ROWS[kind]
        body, expected = CASES[kind]
        status, answer = _call(service, row.route, body)
        assert status == 200, answer
        if row.single:
            assert answer["kind"] == kind
            metas = [answer["meta"]]
        else:
            assert answer["kind"] == kind and answer["count"] == len(answer["results"]) > 0
            metas = [item["meta"] for item in answer["results"]]
        for meta in metas:
            assert set(meta) - TRACE_KEYS == expected
            assert meta["elapsed_ms"] >= 0
            assert "degraded" not in meta


def test_serial_kinds_are_the_tuners():
    assert {row.kind for row in REQUEST_KINDS if row.serial} == {"tune", "hierarchy", "program"}


def test_simulate_explicit_tile_has_null_cache_hit(service):
    body = {"problem": "nbody", "sizes": [24, 24], "cache_words": 64, "tile": [4, 4]}
    status, answer = _call(service, "/v1/simulate", body)
    assert status == 200, answer
    assert answer["meta"]["cache_hit"] is None
    assert set(answer["meta"]) - TRACE_KEYS == {"elapsed_ms", "cache_hit"}


def test_program_meta_carries_planner_delta(service):
    status, answer = _call(service, "/v1/program", CASES["program"][0])
    assert status == 200, answer
    assert set(answer["meta"]["planner_delta"]) == {
        "queries", "structure_hits", "structure_solves",
    }
