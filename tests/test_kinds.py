"""Tests for the request-kind table that drives Session, serve and the CLI.

One parametrized pass over the table's rows pins, per POST kind: the
route answers POST and refuses GET with 405, the response-cacheable
routes are exactly the single-Result kinds, the Session entry point and
the request class's own ``from_json`` sit in their class ``__dict__``
(where the layer-timing launcher ``perfbench/traced_serve.py`` patches
them), and the exact meta key set of a clean answer.  Every request
class validates on construction with the message ``from_json`` gives,
and a served request validates, splits its program and stamps its
trace once each.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import serve
from repro.api import (
    AnalyzeRequest,
    DistributedRequest,
    HierarchyRequest,
    ProgramRequest,
    RequestError,
    Result,
    Session,
    SimulateRequest,
    SweepRequest,
    TuneRequest,
)
from repro.api.kinds import REQUEST_KINDS
from repro.api.result import KINDS
from repro.api.wire import json_safe
from repro.frontend import pipeline
from repro.frontend.program import parse_program
from repro.library.problems import matmul, nbody
from repro.obs import RequestTrace
from repro.util.deadline import DeadlineExceeded

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

#: The module the request classes (and their ``split_bands``) live in.
api_requests = sys.modules[ProgramRequest.__module__]


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


def test_traced_serve_install_finds_every_patched_name():
    """The layer-timing launcher patches each name in the module the
    server looks it up in; a refactor that moves one must fail here, not
    only in traced benchmark runs."""
    root = Path(__file__).resolve().parents[1]
    code = "import runpy; runpy.run_path('perfbench/traced_serve.py')['install']()"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: Request class -> (constructor fields of an invalid request, the same
#: request as a wire body, the RequestError message both must give).
_INVALID = {
    AnalyzeRequest: (
        {"nest": matmul(4, 4, 4), "cache_words": 1},
        {"problem": "matmul", "sizes": [4, 4, 4], "cache_words": 1},
        "cache_words must be >= 2, got 1",
    ),
    SimulateRequest: (
        {"nest": nbody(8, 8), "cache_words": 4, "policy": "mru"},
        {"problem": "nbody", "sizes": [8, 8], "cache_words": 4, "policy": "mru"},
        "unknown policy 'mru'; expected ('lru', 'belady', 'direct')",
    ),
    SweepRequest: (
        {"cache_sizes": (64,)},
        {"cache_sizes": [64]},
        "sweep needs exactly one of 'problem' or 'statement'",
    ),
    TuneRequest: (
        {"nest": nbody(8, 8), "cache_words": 16, "strategy": "magic"},
        {"problem": "nbody", "sizes": [8, 8], "cache_words": 16, "strategy": "magic"},
        "unknown strategy 'magic'; expected one of ('exhaustive', 'coordinate', 'random')",
    ),
    HierarchyRequest: (
        {"nest": nbody(8, 8), "capacities": (64, 8)},
        {"problem": "nbody", "sizes": [8, 8], "capacities": [64, 8]},
        "capacities must be strictly increasing, got [64, 8]",
    ),
    ProgramRequest: (
        {
            "program": parse_program(["C[i,j] += A[i,k] * B[k,j]"],
                                     {"i": 4, "k": 4, "j": 4}, name="einsum"),
            "cache_words": 2,
            "budget": "aggregate",
        },
        {"einsum": "ik,kj->ij", "sizes": {"i": 4, "k": 4, "j": 4}, "cache_words": 2,
         "budget": "aggregate"},
        "aggregate budget needs cache_words >= 3 (one word per array of einsum.band0), got 2",
    ),
    DistributedRequest: (
        {"nest": matmul(4, 4, 4), "processors": 0, "memory_words": 64},
        {"problem": "matmul", "sizes": [4, 4, 4], "processors": 0, "memory_words": 64},
        "processors must be >= 1, got 0",
    ),
}


def test_invalid_table_covers_every_request_class():
    assert set(_INVALID) == {row.request for row in REQUEST_KINDS}


@pytest.mark.parametrize("cls", sorted(_INVALID, key=lambda cls: cls.__name__))
def test_construction_validates_like_from_json(cls):
    """A request object that exists is valid: building an invalid one
    raises the very message its wire body gets from ``from_json``."""
    fields, body, message = _INVALID[cls]
    with pytest.raises(RequestError) as wire:
        cls.from_json(body)
    with pytest.raises(RequestError) as built:
        cls(**fields)
    assert str(wire.value) == str(built.value) == message


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so each call appends to the returned list."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOnePassPerRequest:
    """Each stage of a served request runs once: validation at
    construction, the program split, and the trace stamp."""

    def test_program_splits_and_validates_once(self, service, monkeypatch):
        validations = _count_calls(monkeypatch, ProgramRequest, "__post_init__")
        splits = _count_calls(monkeypatch, api_requests, "split_bands")
        splits_again = _count_calls(monkeypatch, pipeline, "split_bands")
        status, body = _call(service, "/v1/program", CASES["program"][0])
        assert status == 200, body
        assert len(validations) == 1
        assert len(splits) + len(splits_again) == 1

    def test_analyze_validates_and_stamps_once(self, service, monkeypatch):
        validations = _count_calls(monkeypatch, AnalyzeRequest, "__post_init__")
        stamps = _count_calls(monkeypatch, RequestTrace, "timings_ms")
        status, body = _call(service, "/v1/analyze", _ANALYZE)
        assert status == 200, body
        assert "timings" in body["meta"]
        assert len(validations) == 1
        assert len(stamps) == 1

    def test_sweep_validates_each_point_once(self, service, monkeypatch):
        sweeps = _count_calls(monkeypatch, SweepRequest, "__post_init__")
        points = _count_calls(monkeypatch, AnalyzeRequest, "__post_init__")
        body = {"problem": "matmul", "size_axes": [[16, 24], [16], [16]],
                "cache_sizes": [64, 128]}
        status, answer = _call(service, "/v1/sweep", body)
        assert status == 200, answer
        assert answer["count"] == 4
        assert len(sweeps) == 1
        assert len(points) == 4

    def test_library_sweep_stamps_its_own_trace_once(self, monkeypatch):
        stamps = _count_calls(monkeypatch, RequestTrace, "timings_ms")
        request = SweepRequest(problem="matmul", size_axes=((16, 24), (16,), (16,)),
                               cache_sizes=(64,))
        results = Session(workers=0).sweep(request)
        assert len(stamps) == 1
        assert len({r.meta["trace_id"] for r in results}) == 1


def test_serve_layer_deadline_uses_the_session_504_envelope(service, monkeypatch):
    """Expiry outside a Session entry point answers with the envelope
    ``deadline_error`` builds, trace id included."""
    expired = DeadlineExceeded(5.0, "request-parse")

    def parse(cls, blob, where="analyze request"):
        raise expired

    monkeypatch.setattr(AnalyzeRequest, "from_json", classmethod(parse))
    request = urllib.request.Request(
        service + "/v1/analyze",
        data=json.dumps(_ANALYZE).encode(),
        headers={"Content-Type": "application/json", "X-Trace-Id": "late-parse"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(request, timeout=60)
    assert raised.value.code == 504
    body = json.load(raised.value)
    assert body["payload"] == {
        "error": "deadline of 5 ms exceeded at request-parse",
        "status": 504,
        "detail": {"reason": "deadline_exceeded", "deadline_ms": 5.0,
                   "where": "request-parse", "trace_id": "late-parse"},
    }
    assert raised.value.headers.get("Retry-After") is None
