"""Chaos suite: every injected fault must degrade gracefully.

Arms each fault from :mod:`repro.util.faults` against the layer that
hosts its injection point and asserts the failure-hardening contract:

* no request ever hangs, crashes the process, or surfaces a raw
  traceback — every surface answers with a structured envelope;
* degraded runs still return *correct* answers (identical payloads to a
  clean run), flagged via ``meta.degraded``;
* fault-free behaviour is untouched (the golden-payload suites in
  ``test_serve.py`` / ``test_cli.py`` pin that side).
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api import SCHEMA_VERSION, Session, TuneRequest
from repro.library.problems import catalog, matmul
from repro.machine import native
from repro.machine.native import NativeKernelError
from repro.machine.stackdist import (
    _distances_native,
    previous_occurrences,
    stack_distances,
)
from repro.serve import make_server
from repro.tune.evaluate import evaluate_candidates
from repro.util import faults
from repro.util.deadline import (
    Deadline,
    DeadlineExceeded,
    checkpoint,
    current_deadline,
    deadline_scope,
)

CATALOG = catalog()


def _probe(x):
    return x + 1


def _pools_available() -> bool:
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(_probe, 1).result(timeout=60) == 2
    except Exception:
        return False


_POOLS_OK: bool | None = None


def _require_pool() -> None:
    """Skip when no usable process pool exists.

    Probed once, lazily: creating a ProcessPoolExecutor at import time
    deadlocks pytest's collection phase, so the probe must run inside a
    test body.
    """
    global _POOLS_OK
    if _POOLS_OK is None:
        _POOLS_OK = _pools_available()
    if not _POOLS_OK:
        pytest.skip("no usable process pool in this sandbox")


@pytest.fixture(autouse=True)
def _pristine_native():
    """Injected native faults demote the kernel for the whole process;
    undo that after every test so later suites see the real kernel."""
    yield
    native.reset()


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    yield
    assert not faults.any_active(), "a test leaked an armed fault"


# ---------------------------------------------------------------------------
# The fault harness itself


class TestFaultHarness:
    def test_catalogue_is_closed(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with faults.inject("no-such-fault"):
                pass

    def test_inject_is_scoped_and_nests(self):
        assert not faults.active("slow-lp")
        with faults.inject("slow-lp"):
            assert faults.active("slow-lp")
            assert faults.any_active()
            with faults.inject("slow-lp"):
                assert faults.active("slow-lp")
            # inner exit must not disarm the outer scope
            assert faults.active("slow-lp")
        assert not faults.active("slow-lp")
        assert not faults.any_active()

    def test_env_publication_merges_and_restores(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "slow-lp")
        with faults.inject("worker-crash", env=True):
            armed = set(os.environ[faults.ENV_VAR].split(","))
            assert armed == {"slow-lp", "worker-crash"}
            # env-armed faults are visible without a local inject
            assert faults.active("slow-lp")
        assert os.environ[faults.ENV_VAR] == "slow-lp"

    def test_injected_fault_names_its_point(self):
        exc = faults.InjectedFault("native-kernel")
        assert exc.point == "native-kernel"
        assert "native-kernel" in str(exc)


# ---------------------------------------------------------------------------
# Deadline primitives


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_checkpoint_raises_after_expiry(self):
        with deadline_scope(0.01):
            time.sleep(0.002)
            with pytest.raises(DeadlineExceeded) as err:
                checkpoint("unit-test")
        assert err.value.where == "unit-test"
        assert err.value.budget_ms == 0.01
        assert "unit-test" in str(err.value)

    def test_scope_none_is_noop(self):
        with deadline_scope(None):
            assert current_deadline() is None
            checkpoint("anywhere")  # must never raise

    def test_scope_restores_ambient(self):
        assert current_deadline() is None
        with deadline_scope(60_000) as deadline:
            assert current_deadline() is deadline
            assert deadline.remaining_ms() > 0
            checkpoint("plenty-left")  # a fresh generous budget never fires
        assert current_deadline() is None


# ---------------------------------------------------------------------------
# Session-level degradation


class TestSessionChaos:
    def test_deadline_expires_mid_simplex(self):
        session = Session()  # fresh planner: the solve is cold
        with faults.inject("slow-lp"):
            result = session.analyze(CATALOG["matmul"], 4096, deadline_ms=1)
        assert not result.ok
        assert result.kind == "error"
        assert result.payload["status"] == 504
        detail = result.payload["detail"]
        assert detail["reason"] == "deadline_exceeded"
        assert detail["deadline_ms"] == 1
        assert detail["where"]  # names the checkpoint that noticed

    def test_batch_deadline_maps_every_request(self):
        session = Session()
        reqs = [(CATALOG["matmul"], 1024), (CATALOG["nbody"], 1024)]
        with faults.inject("slow-lp"):
            results = session.batch(reqs, deadline_ms=1)
        assert len(results) == len(reqs)
        assert all(not r.ok for r in results)
        assert all(
            r.payload["detail"]["reason"] == "deadline_exceeded" for r in results
        )

    def test_generous_deadline_leaves_payload_untouched(self):
        baseline = Session().analyze(CATALOG["matmul"], 1024)
        deadlined = Session().analyze(CATALOG["matmul"], 1024, deadline_ms=600_000)
        assert deadlined.ok
        assert deadlined.payload == baseline.payload

    def test_corrupt_cache_at_session_start(self, tmp_path, caplog):
        store = tmp_path / "plans"
        store.mkdir()
        for index in range(8):
            (store / f"shard-{index:03d}.json").write_text(
                '{"version": 1, "entries": {"garbage": 12}}'
            )
        session = Session(plan_cache=store)  # must not raise
        with caplog.at_level("WARNING", logger="repro.util.sharedstore"):
            result = session.analyze(CATALOG["matmul"], 1024)
        assert result.ok
        assert result.payload == Session().analyze(CATALOG["matmul"], 1024).payload
        assert session.planner.shared_store.stats_dict()["invalidated"] >= 1
        assert "shard-" in caplog.text and "malformed entry" in caplog.text

    def test_injected_corrupt_cache_read(self, tmp_path):
        store = tmp_path / "plans"
        good = Session(plan_cache=store)
        clean = good.analyze(CATALOG["matmul"], 1024)
        with faults.inject("corrupt-cache-read"):
            session = Session(plan_cache=store)
            result = session.analyze(CATALOG["matmul"], 1024)
        # The torn shard read as empty: the structure was solved afresh.
        assert result.ok and result.payload == clean.payload
        assert session.planner.stats.structure_solves == 1
        assert session.planner.shared_store.stats_dict()["invalidated"] >= 1


# ---------------------------------------------------------------------------
# Worker crash in the tuning pool


class TestTuneChaos:
    def test_worker_crash_mid_evaluation_keeps_answers(self):
        _require_pool()
        nest = matmul(8, 8, 8)
        # 12 candidates >= MIN_PARALLEL_CANDIDATES, so the pool engages.
        candidates = [(i, j, 8) for i in (1, 2, 4, 8) for j in (1, 2, 4)]
        clean = evaluate_candidates(nest, candidates, [64], workers=0)
        events = {}
        with faults.inject("worker-crash", env=True):
            crashed = evaluate_candidates(
                nest, candidates, [64], workers=2, events=events
            )
        assert events.get("degraded") is True
        assert "tune-pool-crash" in events["degraded_reasons"]
        assert [e.to_json() for e in crashed] == [e.to_json() for e in clean]

    def test_worker_crash_mid_tune_same_payload(self):
        _require_pool()
        request = TuneRequest(nest=matmul(16, 16, 16), cache_words=128,
                              max_evaluations=24)
        clean = Session().tune(request, workers=0)
        session = Session()
        with faults.inject("worker-crash", env=True):
            result = session.tune(request, workers=2)
        assert result.ok
        assert result.payload == clean.payload
        if "degraded" in result.meta:  # pool engaged: reason must be precise
            assert result.meta["degraded_reasons"] == ["tune-pool-crash"]

    def test_deadline_expires_mid_tune(self):
        request = TuneRequest(nest=matmul(16, 16, 16), cache_words=128,
                              max_evaluations=24)
        session = Session()
        with faults.inject("slow-lp"):
            result = session.tune(request, workers=0, deadline_ms=1)
        assert not result.ok
        assert result.payload["status"] == 504
        assert result.payload["detail"]["reason"] == "deadline_exceeded"

    def test_deadline_expires_mid_pooled_tune(self):
        # 64 candidates take the pool; the parent must poll the deadline
        # while it waits on the workers.
        _require_pool()
        request = TuneRequest(nest=matmul(24, 24, 24), cache_words=128,
                              max_evaluations=64)
        result = Session().tune(request, deadline_ms=50)
        assert not result.ok
        assert result.payload["status"] == 504
        detail = result.payload["detail"]
        assert detail["reason"] == "deadline_exceeded"
        assert detail["where"] == "tune-candidate"

    def test_clean_pooled_tune_meta_has_no_degraded_flag(self):
        _require_pool()
        request = TuneRequest(nest=matmul(16, 16, 16), cache_words=128,
                              max_evaluations=24)
        result = Session().tune(request, workers=2)
        assert result.ok
        assert "degraded" not in result.meta


# ---------------------------------------------------------------------------
# Native-kernel degradation


class TestNativeChaos:
    def test_mark_unavailable_is_sticky_and_warns_once(self):
        native.reset()
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            native.mark_unavailable("chaos-test reason")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would fail
            native.mark_unavailable("another reason")
        assert native.get_kernel() is None
        assert not native.native_available()

    def test_injected_fault_demotes_get_kernel(self):
        native.reset()
        with faults.inject("native-kernel"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert native.get_kernel() is None

    def test_midrun_kernel_failure_retries_on_numpy(self, monkeypatch):
        kernel = native.get_kernel()
        if kernel is None:
            pytest.skip("native kernel unavailable in this environment")
        lines = np.array([0, 1, 0, 2, 1, 0, 3, 2], dtype=np.int64)
        with monkeypatch.context() as env:
            env.setenv("REPRO_NO_NATIVE", "1")
            expected, _ = stack_distances(lines)
        prev, _ = previous_occurrences(lines)
        with faults.inject("native-kernel"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                # the raw native pass surfaces the typed error...
                with pytest.raises(NativeKernelError):
                    _distances_native(prev, kernel)
                # ...and the public entry point degrades to the exact
                # numpy answer instead of propagating it.
                got, _ = stack_distances(lines)
        assert np.array_equal(got, expected)

    def test_native_fault_mid_tune_same_payload(self):
        request = TuneRequest(nest=matmul(12, 12, 12), cache_words=96,
                              max_evaluations=8)
        clean = Session().tune(request, workers=0)
        native.reset()
        with faults.inject("native-kernel"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                faulty = Session().tune(request, workers=0)
        assert faulty.ok
        assert faulty.payload == clean.payload


# ---------------------------------------------------------------------------
# HTTP surface: admission control, deadlines, structured 5xx


def _post(base: str, path: str, blob) -> tuple[int, dict, dict]:
    data = blob if isinstance(blob, bytes) else json.dumps(blob).encode()
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc), dict(exc.headers)


def _get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


@pytest.fixture()
def service():
    """A per-test server with a tiny in-flight limit (and fresh Session)."""
    server = make_server(port=0, session=Session(), max_inflight=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


ANALYZE = {"problem": "matmul", "sizes": [16, 16, 16], "cache_words": 64}


def _assert_error_envelope(body: dict, status: int) -> dict:
    assert body["schema_version"] == SCHEMA_VERSION
    assert body["kind"] == "error"
    assert body["payload"]["status"] == status
    return body["payload"]


class TestServeBackpressure:
    def test_saturated_server_sheds_with_429(self, service):
        server, base = service
        assert server.try_acquire() and server.try_acquire()  # fill both slots
        try:
            status, body, headers = _post(base, "/v1/analyze", ANALYZE)
            assert status == 429
            payload = _assert_error_envelope(body, 429)
            assert payload["detail"] == {"reason": "overloaded", "max_inflight": 2}
            assert headers.get("Retry-After") == "1"
        finally:
            server.release()
            server.release()
        # capacity back: the same request now succeeds
        status, body, _ = _post(base, "/v1/analyze", ANALYZE)
        assert status == 200 and body["kind"] == "analyze"

    def test_draining_server_sheds_with_503_but_health_stays(self, service):
        server, base = service
        server.drain()
        status, body, headers = _post(base, "/v1/analyze", ANALYZE)
        assert status == 503
        payload = _assert_error_envelope(body, 503)
        assert payload["detail"] == {"reason": "draining"}
        assert headers.get("Retry-After") == "5"
        # probes bypass admission control in both methods
        status, body = _get(base, "/v1/health")
        assert status == 200 and body["payload"]["status"] == "ok"
        status, body, _ = _post(base, "/v1/health", {})
        assert status == 200 and body["payload"]["status"] == "ok"

    def test_make_server_validates_knobs(self):
        with pytest.raises(ValueError):
            make_server(max_inflight=0, session=Session())
        with pytest.raises(ValueError):
            make_server(default_deadline_ms=0, session=Session())


class TestServeDeadlines:
    def test_client_deadline_maps_to_504(self, service):
        _, base = service
        with faults.inject("slow-lp"):
            status, body, _ = _post(
                base, "/v1/analyze", {**ANALYZE, "deadline_ms": 1}
            )
        assert status == 504
        payload = _assert_error_envelope(body, 504)
        assert payload["detail"]["reason"] == "deadline_exceeded"
        assert payload["detail"]["deadline_ms"] == 1

    def test_batch_deadline_is_one_unit(self, service):
        _, base = service
        requests = [
            {"problem": "matmul", "sizes": [16, 16, 16], "cache_words": 64},
            {"problem": "nbody", "sizes": [32, 32], "cache_words": 64},
        ]
        with faults.inject("slow-lp"):
            status, body, _ = _post(
                base, "/v1/batch", {"requests": requests, "deadline_ms": 1}
            )
        assert status == 504
        payload = _assert_error_envelope(body, 504)
        assert payload["detail"]["reason"] == "deadline_exceeded"

    def test_server_default_deadline_applies(self):
        server = make_server(port=0, session=Session(), default_deadline_ms=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with faults.inject("slow-lp"):
                status, body, _ = _post(base, "/v1/analyze", ANALYZE)
            assert status == 504
            assert body["payload"]["detail"]["reason"] == "deadline_exceeded"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @pytest.mark.parametrize("bad", [0, -1, "soon", True, [1]])
    def test_deadline_ms_is_validated(self, service, bad):
        _, base = service
        status, body, _ = _post(
            base, "/v1/analyze", {**ANALYZE, "deadline_ms": bad}
        )
        assert status == 400
        payload = _assert_error_envelope(body, 400)
        assert "deadline_ms" in payload["error"]


class TestServeStructured500:
    def test_internal_error_yields_envelope_with_id(self, service, monkeypatch, caplog):
        _, base = service

        def boom(self, *args, **kwargs):
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(Session, "analyze", boom)
        with caplog.at_level("ERROR", logger="repro.serve"):
            status, body, _ = _post(base, "/v1/analyze", ANALYZE)
        assert status == 500
        payload = _assert_error_envelope(body, 500)
        detail = payload["detail"]
        assert detail["reason"] == "internal"
        assert detail["exception"] == "RuntimeError"
        error_id = detail["error_id"]
        assert len(error_id) == 12 and error_id == error_id.lower()
        # the body never leaks internals...
        text = json.dumps(body)
        assert "secret internal detail" not in text
        assert "Traceback" not in text
        # ...the log carries both the id and the full traceback
        assert error_id in caplog.text
        assert "Traceback" in caplog.text
        assert "secret internal detail" in caplog.text

    def test_unhandled_injected_fault_is_labelled(self, service, monkeypatch):
        _, base = service

        def boom(self, *args, **kwargs):
            raise faults.InjectedFault("corrupt-cache-read")

        monkeypatch.setattr(Session, "analyze", boom)
        status, body, _ = _post(base, "/v1/analyze", ANALYZE)
        assert status == 500
        payload = _assert_error_envelope(body, 500)
        assert payload["detail"] == {
            "reason": "injected-fault", "point": "corrupt-cache-read",
        }
