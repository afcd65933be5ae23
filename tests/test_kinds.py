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
from repro.api import Result, Session
from repro.api.kinds import REQUEST_KINDS
from repro.api.result import KINDS
from repro.api.wire import json_safe

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


#: kind -> extra bodies that reach the payload builders' other branches
#: (certificates, aggregate budgets, explicit tiles and grids, tuning).
_MORE_BODIES = {
    "analyze": [
        {**_ANALYZE, "certificate": True},
        {"problem": "mttkrp", "sizes": [30, 20, 10, 7], "cache_words": 100,
         "budget": "aggregate", "certificate": True},
    ],
    "simulate": [{"problem": "nbody", "sizes": [24, 24], "cache_words": 64, "tile": [4, 4]}],
    "tune": [{"problem": "matmul", "sizes": [12, 12, 12], "cache_words": 32,
              "max_evaluations": 3, "capacities": [16, 64]}],
    "hierarchy": [{"problem": "matmul", "sizes": [12, 12, 12], "capacities": [16, 64],
                   "tune_budget": 3}],
    "program": [{
        "program": {"name": "mlp", "bounds": {"b": 9, "i": 10, "j": 11, "k": 12},
                    "statements": ["H[b,j] += X[b,i] * W[i,j]", "O[b,k] += H[b,j] * V[j,k]"]},
        "cache_words": 64, "certificate": True, "tune_budget": 2,
    }],
    "distributed": [{"problem": "nbody", "sizes": [100, 70], "processors": 6,
                     "memory_words": 1000, "grid": [3, 2]}],
}


def _assert_plain_json(value, where="payload"):
    """Only dicts with str keys, lists, str, int, float, bool and None."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, where
            _assert_plain_json(item, f"{where}.{key}")
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _assert_plain_json(item, f"{where}[{idx}]")
    else:
        assert value is None or type(value) in (str, int, float, bool), (
            f"{where}: {type(value).__name__}"
        )


@pytest.mark.parametrize("kind", sorted(CASES))
def test_session_payloads_are_already_json_safe(kind):
    """Session skips the normalising walk, so its builders must emit plain
    JSON themselves: the round trip then holds with no walk at all."""
    row = ROWS[kind]
    session = Session(workers=0)
    for body in [CASES[kind][0], *_MORE_BODIES.get(kind, [])]:
        if row.single:
            results = [getattr(session, kind)(row.request.from_json(body, kind))]
        elif kind == "sweep":
            results = session.sweep(row.request.from_json(body, kind))
        else:
            results = session.batch([row.request.from_json(b) for b in body["requests"]])
        for result in results:
            assert result.ok, result.payload
            _assert_plain_json(result.payload)
            _assert_plain_json(result.meta, "meta")
            assert json_safe(result.payload) == result.payload
            assert Result.from_json(result.to_json()) == result
            assert Result.from_json(json.loads(result.to_json_str())) == result
