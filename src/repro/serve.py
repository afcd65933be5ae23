"""``repro-tile serve`` — an asyncio JSON endpoint over one shared Session.

The paper's value function is piecewise-linear in the loop bounds (§7),
which makes "ask many questions about many nests" a natural service
shape: one process holds a warm :class:`~repro.api.Session` (one
multiparametric solve per canonical structure, ever) and answers every
query by exact piecewise evaluation.  This module is that shape over
HTTP, with zero dependencies beyond the standard library:

====================  ======  =============================================
``/v1/health``        GET     liveness + plan-cache + worker-pool stats
``/v1/metrics``       GET     Prometheus text exposition (repro.obs)
``/v1/<kind>``        POST    one row of :data:`repro.api.kinds.REQUEST_KINDS`
====================  ======  =============================================

The POST routes, the request class that parses each body, and which
answers are response-cacheable all come from that table; ``batch``
(``{"requests": [...]}``) and ``sweep`` answer with an ordered list
envelope, every other kind with one Result.

Architecture (see ``docs/serving.md``): an asyncio event loop owns the
sockets (keep-alive, ``TCP_NODELAY``) and never blocks on solver work —
request handling runs on a bounded thread pool, cold multiparametric
solves can be dispatched to a **process pool** (``workers > 0``), and
three caches stack in front of the solver:

* a **response cache** (``response_cache > 0``): verbatim repeats of a
  single-result request are answered on the event loop by splicing the
  cached payload bytes under fresh ``meta`` — no thread handoff at all;
* **request coalescing**: identical in-flight requests share one
  execution (the planner additionally coalesces concurrent solves of
  the same canonical structure, so N distinct requests needing one new
  structure still cost one solve);
* the planner's **shared cross-process plan store** (wire it via
  ``Session(shared_cache=...)``), so sibling server processes warm each
  other.

Every response body is a schema-versioned envelope
(:class:`repro.api.Result` for single answers; batch/sweep wrap a
result list) — including every failure.  The error catalogue (see
``docs/resilience.md``): validation ``400``, unknown path ``404``,
wrong method ``405``, over capacity ``429`` (+ ``Retry-After``),
draining ``503`` (+ ``Retry-After``), expired deadline ``504``, and a
structured ``500`` carrying an ``error_id`` whose traceback goes to the
server log — never into the body.

**Deadlines**: a request may carry ``"deadline_ms"`` (stripped before
schema validation); otherwise the server's ``default_deadline_ms``
applies.  The budget is enforced cooperatively at solver checkpoints
(:mod:`repro.util.deadline`), so a cold exact-rational solve cannot pin
a handler thread past its budget.

**Backpressure**: at most ``max_inflight`` POST bodies are processed
concurrently; excess load is shed immediately with ``429`` rather than
queued into memory, and a draining server sheds everything with
``503``.  ``/v1/health`` bypasses admission control so load balancers
can always probe.

The server is intentionally an in-process building block: ``make_server``
returns a :class:`ServiceServer` bound to an ephemeral port when
``port=0`` whose blocking ``serve_forever()``/thread-safe ``shutdown()``
mirror the stdlib server API, which is exactly how the test suite and
the service benchmark drive it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import socket
import sys
import threading
import time
import traceback
import uuid
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

from .api import SCHEMA_VERSION, RequestError, Result, Session
from .api.kinds import REQUEST_KINDS, RequestKind
from .core.loopnest import LoopNestError
from .core.parser import ParseError
from .obs import (
    PROMETHEUS_CONTENT_TYPE,
    RequestTrace,
    coerce_trace_id,
    global_registry,
    merge_worker_delta,
    mint_trace_id,
    render_counters,
    render_registry,
    span,
)
from .obs import trace as obs_trace
from .plan.batch import _solve_structure
from .util import faults
from .util.deadline import (
    Deadline,
    DeadlineExceeded,
    activate,
    checkpoint,
    current_deadline,
    deactivate,
)
from .util.faults import InjectedFault

__all__ = [
    "make_server",
    "serve",
    "ServiceServer",
    "MAX_BODY_BYTES",
    "MAX_BATCH_REQUESTS",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_RESPONSE_CACHE",
    "DEFAULT_SLOW_REQUEST_MS",
    "WORKERS_ENV_VAR",
]

_log = logging.getLogger("repro.serve")

#: Request-body guard: tiling queries are tiny; anything bigger is abuse.
MAX_BODY_BYTES = 8 << 20

#: One POST may expand to at most this many analyze queries.
MAX_BATCH_REQUESTS = 10_000

#: Default bound on concurrently-processed POST requests.
DEFAULT_MAX_INFLIGHT = 64

#: Response-cache capacity the CLI server runs with (``make_server``
#: defaults to 0 = off, so tests opt in explicitly).
DEFAULT_RESPONSE_CACHE = 1024

#: ``make_server(workers=None)`` reads the worker-pool size from here,
#: so an unmodified test suite can run against a multi-worker server.
WORKERS_ENV_VAR = "REPRO_SERVE_WORKERS"

#: Requests slower than this get their span tree logged (structured
#: JSON on the ``repro.serve`` logger); CLI flag ``--slow-request-ms``.
DEFAULT_SLOW_REQUEST_MS = 1000.0

#: Bodies larger than this skip response-cache/coalescing key building
#: (hashing a huge batch on the event loop would defeat the point).
_COALESCE_MAX_BODY = 64 << 10

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The POST routes, one per row of the request-kind table.
_KIND_BY_ROUTE = {row.route: row for row in REQUEST_KINDS}

#: Routes answered from the response cache (single-Result 200 bodies;
#: batch/sweep envelopes and health are excluded by construction).
_CACHEABLE_ROUTES = frozenset(row.route for row in REQUEST_KINDS if row.single)


def _error_body(message: str, status: int, detail: dict | None = None) -> dict:
    return Result.error(message, status=status, detail=detail).to_json()


def _results_body(kind: str, results: list[Result]) -> dict:
    """The list envelope for batch/sweep: same version tag, ordered items."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "count": len(results),
        "results": [r.to_json() for r in results],
    }


def _result_response(result: Result) -> tuple[int, dict]:
    """HTTP status + body for one Result (error envelopes carry their own)."""
    blob = result.to_json()
    if result.kind == "error":
        return int(blob["payload"].get("status", 500)), blob
    return 200, blob


def _dump(body: dict) -> bytes:
    return json.dumps(body).encode()


def _splice_envelope(kind: str, payload_json: str, meta_json: str) -> bytes:
    """A Result envelope assembled from pre-serialised payload bytes.

    Key order and separators match ``json.dumps(Result.to_json())``
    exactly (``schema_version``, ``kind``, ``payload``, ``meta``), so a
    response-cache hit is byte-identical to a fresh response in
    everything but ``meta``.  ``meta_json`` arrives pre-serialised —
    the caller hand-builds it so the hot splice path never pays
    ``json.dumps`` for a three-key dict.
    """
    return (
        f'{{"schema_version": {SCHEMA_VERSION}, "kind": {json.dumps(kind)}, '
        f'"payload": {payload_json}, "meta": {meta_json}}}'
    ).encode()


def _parse_head(header: bytes) -> tuple[str, str, str, dict]:
    """(method, target, version, lowercased headers) of one request head."""
    lines = header.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return parts[0], parts[1], parts[2], headers


class ServiceServer:
    """Asyncio front-end + admission control behind the stdlib-server API.

    The listening socket is bound in ``__init__`` (so ``server_address``
    is final before ``serve_forever`` runs on its thread), the event
    loop lives entirely inside :meth:`serve_forever`, and
    :meth:`shutdown` is thread-safe and blocks until the loop exits —
    the exact contract tests and benchmarks relied on with
    ``ThreadingHTTPServer``.

    ``max_inflight`` bounds concurrently-processed POSTs (load beyond it
    is shed with 429); ``default_deadline_ms`` applies to requests that
    do not carry their own ``deadline_ms``; :meth:`drain` flips the
    server into load-shedding-everything mode (503) ahead of shutdown;
    ``workers > 0`` adds a process pool for cold structure solves;
    ``response_cache > 0`` turns on the full-request response cache.
    """

    def __init__(
        self,
        address: tuple[str, int],
        session: Session,
        *,
        verbose: bool = False,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        default_deadline_ms: float | None = None,
        workers: int = 0,
        response_cache: int = 0,
        slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS,
    ):
        self.session = session
        self.verbose = verbose
        self.max_inflight = int(max_inflight)
        self.default_deadline_ms = default_deadline_ms
        self.workers = int(workers)
        self.slow_request_ms = slow_request_ms
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: One lock makes every server-stat snapshot atomic (satellite
        #: fix: health/metrics taken mid-drain() must never see torn
        #: worker/cache state).  Order: _stats_lock before _pool_lock /
        #: _response_cache_lock / _inflight_lock, never the reverse.
        self._stats_lock = threading.Lock()
        self._registry = global_registry()
        #: Event-loop-confined caches of live metric handles, so the
        #: per-request cost is a dict lookup, not label-key building.
        self._request_counters: dict[tuple[str, int], object] = {}
        self._request_hists: dict[str, object] = {}
        self._socket = socket.create_server(address, backlog=128)
        self.server_address = self._socket.getsockname()
        # Handler threads: admission control bounds real work at
        # max_inflight; the slack absorbs health probes and shed (429/
        # 503) responses so probes never queue behind solver work.
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight + 4, thread_name_prefix="repro-serve"
        )
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._pool_dispatched = 0
        self._pool_failures = 0
        #: Per-structure prewarm gate: concurrent same-structure
        #: requests ride one pool dispatch (mirrors the planner's gate).
        self._prewarming: dict[str, threading.Event] = {}
        self._prewarm_lock = threading.Lock()
        self._response_cache_cap = int(response_cache)
        self._response_cache: OrderedDict[tuple, tuple[str, str]] = OrderedDict()
        self._response_cache_lock = threading.Lock()
        self._response_hits = 0
        self._response_misses = 0
        self._coalesced = 0
        self._requests_served = 0
        #: Per-route served-request counts (event-loop confined), so
        #: health shows every kind — frontend programs included —
        #: counted exactly like the rest.
        self._route_counts: dict[str, int] = {}
        #: In-flight coalescing map (event-loop confined): key -> Future.
        self._pending: dict[tuple, asyncio.Future] = {}
        self._client_tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stop_requested = False
        self._closed = False
        self._done = threading.Event()
        self._done.set()  # not running until serve_forever

    # -- admission control (same contract as the stdlib-based server) -------

    def try_acquire(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self) -> None:
        """Start refusing new work (503) while in-flight requests finish."""
        with self._stats_lock:
            self.draining = True

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`.

        ``poll_interval`` is accepted for stdlib-server signature
        compatibility and ignored (the loop wakes on events, not polls).
        """
        del poll_interval
        if self._closed:
            raise RuntimeError("server is closed")
        self._done.clear()
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve_main())
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                self._loop = None
                loop.close()
                self._done.set()

    async def _serve_main(self) -> None:
        self._stop_event = asyncio.Event()
        if self._stop_requested:
            return
        server = await asyncio.start_server(self._client_connected, sock=self._socket)
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            for task in list(self._client_tasks):
                task.cancel()
            if self._client_tasks:
                await asyncio.gather(*list(self._client_tasks), return_exceptions=True)

    def _request_stop(self) -> None:
        self._stop_requested = True
        if self._stop_event is not None:
            self._stop_event.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from any thread; blocks until it returns."""
        self._stop_requested = True
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._request_stop)
        self._done.wait(timeout=30)

    def server_close(self) -> None:
        """Release the socket and the worker pools (idempotent)."""
        self._closed = True
        with contextlib.suppress(OSError):
            self._socket.close()
        self._executor.shutdown(wait=False, cancel_futures=True)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- connection handling (event loop) ------------------------------------

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            await self._handle_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutdown
        except (ConnectionError, TimeoutError, OSError):
            pass  # client went away mid-exchange
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return  # clean close between requests
            except asyncio.LimitOverrunError:
                await self._write_response(
                    writer, 431, _dump(_error_body("request head too large", 431)),
                    close=True,
                )
                return
            try:
                method, target, version, headers = _parse_head(head)
            except ValueError as exc:
                await self._write_response(
                    writer, 400, _dump(_error_body(str(exc), 400)), close=True
                )
                return
            if "chunked" in headers.get("transfer-encoding", "").lower():
                await self._write_response(
                    writer, 400,
                    _dump(_error_body("chunked request bodies are not supported", 400)),
                    close=True,
                )
                return
            try:
                length = int(headers.get("content-length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                await self._write_response(
                    writer, 400, _dump(_error_body("bad Content-Length", 400)),
                    close=True,
                )
                return
            if length > MAX_BODY_BYTES:
                # The old server let RequestError produce this message;
                # keep the wording but refuse to read the body at all.
                await self._write_response(
                    writer, 400,
                    _dump(_error_body(
                        f"request body exceeds {MAX_BODY_BYTES} bytes", 400)),
                    close=True,
                )
                return
            if headers.get("expect", "").lower() == "100-continue":
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = b""
            if length:
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
            keep_alive = (
                version != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close"
                and not self._stop_requested
            )
            try:
                status, payload, extra = await self._dispatch(
                    method, target, body, headers
                )
            except asyncio.CancelledError:
                raise
            except Exception:
                # Transport-layer defensive 500 (executor refused work,
                # loop-side bug): still a structured envelope.
                error_id = uuid.uuid4().hex[:12]
                _log.error(
                    "internal error %s dispatching %s\n%s",
                    error_id, target, traceback.format_exc(),
                )
                status, extra = 500, None
                payload = _dump(_error_body(
                    f"internal error (id {error_id})", 500,
                    {"reason": "internal", "error_id": error_id},
                ))
            if self.verbose:
                peer = writer.get_extra_info("peername") or ("-",)
                print(
                    f'{peer[0]} - "{method} {target} {version}" {status} -',
                    file=sys.stderr,
                )
            await self._write_response(
                writer, status, payload, headers=extra, close=not keep_alive
            )
            if not keep_alive:
                return

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        headers: dict | None = None,
        close: bool = False,
    ) -> None:
        content_type = "application/json"
        if headers and "Content-Type" in headers:
            headers = dict(headers)
            content_type = headers.pop("Content-Type")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Server: repro-tile/2\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
        )
        if headers:
            head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()

    # -- routing (event loop) -------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes, headers: dict | None = None
    ) -> tuple[int, bytes, dict | None]:
        route = target.partition("?")[0].rstrip("/")
        loop = asyncio.get_running_loop()
        trace_id = coerce_trace_id(headers.get("x-trace-id")) if headers else None
        if method == "GET":
            if route == "/v1/health":
                return await self._run_guarded(loop, "/v1/health", b"", trace_id)
            if route == "/v1/metrics":
                # Like health, metrics bypasses admission control:
                # scrapers must see an overloaded or draining server.
                return await self._run_guarded(loop, "/v1/metrics", b"", trace_id)
            if route in _KIND_BY_ROUTE:
                return 405, _dump(_error_body("use POST with a JSON body", 405)), None
            self._count_rejected("not-found")
            return 404, _dump(_error_body(f"unknown path {target!r}", 404)), None
        if method != "POST":
            self._count_rejected("bad-method")
            return 405, _dump(_error_body(f"method {method} not supported", 405)), None
        if route == "/v1/health":
            # Health bypasses admission control: probes must always land.
            return await self._run_guarded(loop, "/v1/health", b"", trace_id)
        if route == "/v1/metrics":
            return 405, _dump(_error_body("use GET to scrape /v1/metrics", 405)), None
        if route not in _KIND_BY_ROUTE:
            self._count_rejected("not-found")
            return 404, _dump(_error_body(f"unknown path {target!r}", 404)), None
        if self.draining:
            self._count_rejected("draining")
            return (
                503,
                _dump(_error_body(
                    "server is draining; retry against another instance",
                    503, {"reason": "draining"})),
                {"Retry-After": "5"},
            )
        if not self.try_acquire():
            self._count_rejected("overloaded")
            return (
                429,
                _dump(_error_body(
                    f"server is over its in-flight limit of {self.max_inflight}; "
                    "retry after a short backoff",
                    429,
                    {"reason": "overloaded", "max_inflight": self.max_inflight})),
                {"Retry-After": "1"},
            )
        try:
            return await self._admitted(loop, route, body, trace_id)
        finally:
            self.release()

    def _request_key(self, route: str, body: bytes) -> tuple[tuple | None, str | None]:
        """(request identity for caching/coalescing, body-level trace id).

        ``trace_id`` is an envelope field like ``deadline_ms``; it is
        excluded from the key so retries carrying fresh ids still hit
        the response cache and coalesce.
        """
        if len(body) > _COALESCE_MAX_BODY:
            return None, None
        try:
            blob = json.loads(body)
        except ValueError:
            return None, None
        if not isinstance(blob, dict):
            return None, None
        trace_id = coerce_trace_id(blob.pop("trace_id", None))
        try:
            key = route, json.dumps(blob, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return None, trace_id
        return key, trace_id

    async def _admitted(
        self,
        loop: asyncio.AbstractEventLoop,
        route: str,
        body: bytes,
        header_tid: str | None = None,
    ) -> tuple[int, bytes, dict | None]:
        started = time.perf_counter()
        key, body_tid = self._request_key(route, body)
        trace_id = body_tid or header_tid
        if key is not None and self._response_cache_cap and route in _CACHEABLE_ROUTES:
            entry = self._response_cache_get(key)
            if entry is not None:
                kind, payload_json = entry
                elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
                # Meta is hand-serialised: trace ids are regex-vetted
                # ([0-9a-zA-Z._-], no escapes needed) and elapsed_ms is
                # a rounded float, so this matches json.dumps exactly.
                headers = None
                if obs_trace.enabled():
                    # The splice path runs no handler, so the trace is
                    # this meta itself: id + a stage-free timing.
                    tid = trace_id or mint_trace_id()
                    meta_json = (
                        f'{{"elapsed_ms": {elapsed_ms}, "cache_hit": true, '
                        f'"response_cache": true, "trace_id": "{tid}", '
                        f'"timings": {{"total_ms": {elapsed_ms}, "stages": {{}}}}}}'
                    )
                    headers = {"X-Trace-Id": tid}
                else:
                    meta_json = (
                        f'{{"elapsed_ms": {elapsed_ms}, "cache_hit": true, '
                        f'"response_cache": true}}'
                    )
                self._count_served(route, 200, time.perf_counter() - started)
                return 200, _splice_envelope(kind, payload_json, meta_json), headers
        if key is not None:
            pending = self._pending.get(key)
            if pending is not None:
                # Identical request already executing: wait for its
                # outcome instead of burning a second handler thread.
                # Followers share the leader's envelope verbatim —
                # including the leader's trace id.
                with self._stats_lock:
                    self._coalesced += 1
                try:
                    status, payload, headers, _ = await asyncio.shield(pending)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    return await self._run_guarded(loop, route, body, trace_id)
                self._count_served(route, status, time.perf_counter() - started)
                return status, payload, headers
            fut: asyncio.Future = loop.create_future()
            self._pending[key] = fut
        outcome = None
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._handle_request, route, body, trace_id
            )
        finally:
            if key is not None:
                pending = self._pending.pop(key, None)
                if pending is not None and not pending.done():
                    if outcome is not None:
                        pending.set_result(outcome)
                    else:
                        pending.cancel()
        status, payload, headers, cache_entry = outcome
        if (
            cache_entry is not None
            and key is not None
            and self._response_cache_cap
            and route in _CACHEABLE_ROUTES
        ):
            self._response_cache_put(key, cache_entry)
        self._count_served(route, status, time.perf_counter() - started)
        return status, payload, headers

    async def _run_guarded(
        self,
        loop: asyncio.AbstractEventLoop,
        route: str,
        body: bytes,
        trace_id: str | None = None,
    ) -> tuple[int, bytes, dict | None]:
        """One uncoalesced, uncached pass through the guarded handler."""
        started = time.perf_counter()
        status, payload, headers, _ = await loop.run_in_executor(
            self._executor, self._handle_request, route, body, trace_id
        )
        self._count_served(route, status, time.perf_counter() - started)
        return status, payload, headers

    def _count_served(self, route: str, status: int = 200,
                      elapsed_s: float | None = None) -> None:
        """Tally one served request, total and per route (event loop only).

        Updates both the legacy health counters and the registry
        (``repro_requests_total{route,status}`` +
        ``repro_request_seconds{route}``); metric handles are cached per
        route so the hot path is two dict lookups.
        """
        with self._stats_lock:
            self._requests_served += 1
            self._route_counts[route] = self._route_counts.get(route, 0) + 1
        counter_key = (route, status)
        counter = self._request_counters.get(counter_key)
        if counter is None:
            counter = self._registry.counter(
                "repro_requests_total", route=route, status=str(status)
            )
            self._request_counters[counter_key] = counter
        counter.inc()
        if elapsed_s is not None:
            hist = self._request_hists.get(route)
            if hist is None:
                hist = self._registry.histogram("repro_request_seconds", route=route)
                self._request_hists[route] = hist
            hist.observe(elapsed_s)

    def _count_rejected(self, reason: str) -> None:
        """One shed/refused request (404/405/429/503) by reason."""
        self._registry.counter("repro_rejected_total", reason=reason).inc()

    # -- response cache -------------------------------------------------------

    def _response_cache_get(self, key: tuple) -> tuple[str, str] | None:
        with self._response_cache_lock:
            entry = self._response_cache.get(key)
            if entry is None:
                self._response_misses += 1
                return None
            self._response_cache.move_to_end(key)
            self._response_hits += 1
            return entry

    def _response_cache_put(self, key: tuple, entry: tuple[str, str]) -> None:
        with self._response_cache_lock:
            self._response_cache[key] = entry
            self._response_cache.move_to_end(key)
            while len(self._response_cache) > self._response_cache_cap:
                self._response_cache.popitem(last=False)

    # -- request handling (thread pool) ---------------------------------------

    def _handle_request(
        self, route: str, raw: bytes, trace_id: str | None = None
    ) -> tuple[int, bytes, dict | None, tuple[str, str] | None]:
        """Parse, guard, and answer one request body on a handler thread.

        Returns ``(status, body_bytes, extra_headers, cache_entry)``;
        ``cache_entry`` is ``(kind, payload_json)`` for cacheable 200s.
        ``trace_id`` is the caller-supplied id (``X-Trace-Id`` header or
        ``trace_id`` envelope field); the trace itself is activated here,
        on the handler thread, because ContextVars do not propagate into
        ``run_in_executor``.
        """
        if route == "/v1/metrics":
            return self._metrics_response()
        token = None
        trace = None
        trace_token = None
        if obs_trace.enabled():
            trace = RequestTrace(trace_id)
            trace_token = obs_trace.activate(trace)
        try:
            try:
                if route == "/v1/health":
                    status, body = 200, self._health_body()
                else:
                    blob = self._parse_body(raw)
                    body_tid = coerce_trace_id(blob.pop("trace_id", None))
                    if body_tid is not None and trace is not None:
                        # The envelope field wins over the header (it is
                        # part of the request proper); adopt it before
                        # any failure path can echo the id.
                        trace.trace_id = body_tid
                    token = self._activate_deadline(blob)
                    status, body = self._answer(_KIND_BY_ROUTE[route], blob)
            except RequestError as exc:
                status, body = 400, _error_body(str(exc), 400, exc.detail or None)
            except DeadlineExceeded as exc:
                # Normally the Session converts expiry into a 504 Result;
                # this catches expiry in serve-layer code outside a Session
                # entry point, so a deadline can never surface as a 500.
                detail = {
                    "reason": "deadline_exceeded",
                    "deadline_ms": exc.budget_ms,
                    "where": exc.where,
                }
                if trace is not None:
                    detail["trace_id"] = trace.trace_id
                status, body = 504, _error_body(str(exc), 504, detail)
            except (LoopNestError, ParseError, ValueError, TypeError, KeyError) as exc:
                status, body = 400, _error_body(str(exc) or type(exc).__name__, 400)
            except InjectedFault as exc:
                # The chaos suite's escape hatch: an armed fault that nothing
                # degraded around still maps to a structured envelope.
                status, body = 500, _error_body(str(exc), 500, {
                    "reason": "injected-fault", "point": exc.point,
                })
            except Exception as exc:
                # The defensive 500: a structured envelope with an error id;
                # the traceback goes to the log (as a structured line
                # correlating error_id with trace_id), never into the body.
                error_id = uuid.uuid4().hex[:12]
                _log.error("%s", json.dumps({
                    "event": "internal-error",
                    "error_id": error_id,
                    "trace_id": trace.trace_id if trace is not None else None,
                    "route": route,
                    "exception": type(exc).__name__,
                    "traceback": traceback.format_exc(),
                }))
                detail = {
                    "reason": "internal",
                    "error_id": error_id,
                    "exception": type(exc).__name__,
                }
                if trace is not None:
                    detail["trace_id"] = trace.trace_id
                status, body = 500, _error_body(
                    f"internal error (id {error_id})", 500, detail,
                )
            finally:
                if token is not None:
                    deactivate(token)
            headers = None
            if status == 429:
                headers = {"Retry-After": "1"}
            elif status == 503:
                headers = {"Retry-After": "5"}
            cache_entry = None
            if status == 200 and route in _CACHEABLE_ROUTES:
                cache_entry = (body["kind"], json.dumps(body["payload"]))
            if trace is not None:
                self._stamp_trace_meta(body, trace)
                headers = dict(headers or {})
                headers["X-Trace-Id"] = trace.trace_id
                with span("serialize"):
                    data = _dump(body)
            else:
                data = _dump(body)
        finally:
            if trace_token is not None:
                obs_trace.deactivate(trace_token)
        if trace is not None:
            self._finish_trace(trace, route, status)
        return status, data, headers, cache_entry

    @staticmethod
    def _stamp_trace_meta(body: dict, trace: RequestTrace) -> None:
        """``meta.trace_id`` + ``meta.timings`` on every envelope in
        ``body`` — the single-result meta and each batch/sweep item.
        Meta-only, so cached payload bytes and goldens are untouched."""
        timings = trace.timings_ms()
        results = body.get("results")
        if isinstance(results, list):
            for item in results:
                if isinstance(item, dict) and isinstance(item.get("meta"), dict):
                    item["meta"]["trace_id"] = trace.trace_id
                    item["meta"]["timings"] = timings
        meta = body.get("meta")
        if isinstance(meta, dict):
            meta["trace_id"] = trace.trace_id
            meta["timings"] = timings

    def _finish_trace(self, trace: RequestTrace, route: str, status: int) -> None:
        """Harvest stage totals into the registry; log slow requests."""
        obs_trace.harvest(trace)
        threshold = self.slow_request_ms
        if threshold is None:
            return
        total_ms = trace.total_seconds() * 1000.0
        if total_ms >= threshold:
            _log.warning("%s", json.dumps({
                "event": "slow-request",
                "trace_id": trace.trace_id,
                "route": route,
                "status": status,
                "total_ms": round(total_ms, 3),
                "threshold_ms": threshold,
                "stages": {k: round(v * 1000.0, 3)
                           for k, v in sorted(trace.stages.items())},
                "spans": trace.span_tree_lines(),
            }))

    def _metrics_response(self) -> tuple[int, bytes, dict | None, None]:
        """The ``GET /v1/metrics`` Prometheus text exposition."""
        try:
            text = self._metrics_text()
        except Exception:
            error_id = uuid.uuid4().hex[:12]
            _log.error("%s", json.dumps({
                "event": "internal-error",
                "error_id": error_id,
                "route": "/v1/metrics",
                "traceback": traceback.format_exc(),
            }))
            body = _error_body(f"internal error (id {error_id})", 500,
                               {"reason": "internal", "error_id": error_id})
            return 500, _dump(body), None, None
        return (
            200,
            text.encode("utf-8"),
            {"Content-Type": PROMETHEUS_CONTENT_TYPE},
            None,
        )

    def _metrics_text(self) -> str:
        """Registry metrics + live planner/shared-store/server counters."""
        parts = [render_registry(self._registry)]
        stats = self._server_stats()
        planner_stats = getattr(getattr(self.session, "planner", None), "stats", None)
        if planner_stats is not None:
            parts.append(render_counters(
                "repro_plan_cache_events_total", "event", planner_stats.as_dict(),
                "Planner structure-cache events (hits, solves, coalesced, ...).",
            ))
        shared = stats.get("shared_cache")
        if shared:
            parts.append(render_counters(
                "repro_shared_store_events_total", "event",
                {k: v for k, v in shared.items()
                 if k not in ("version", "shards")},
                "Cross-process shared plan-store events.",
            ))
        response_cache = stats["response_cache"]
        parts.append(render_counters(
            "repro_response_cache_events_total", "event",
            {"hits": response_cache["hits"], "misses": response_cache["misses"]},
            "Full-request response-cache events.",
        ))
        workers = stats["workers"]
        parts.append(render_counters(
            "repro_pool_events_total", "event",
            {"dispatched": workers["dispatched"], "failures": workers["failures"]},
            "Worker-pool prewarm dispatches and failures.",
        ))
        parts.append(
            "# TYPE repro_coalesced_total counter\n"
            f"repro_coalesced_total {stats['coalesced']}\n"
            "# TYPE repro_inflight gauge\n"
            f"repro_inflight {stats['inflight']}\n"
            "# TYPE repro_draining gauge\n"
            f"repro_draining {int(stats['draining'])}\n"
        )
        return "".join(parts)

    def _parse_body(self, raw: bytes) -> dict:
        if not raw:
            raise RequestError("empty request body; POST a JSON object")
        try:
            blob = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(blob, dict):
            raise RequestError("request body must be a JSON object")
        return blob

    def _activate_deadline(self, blob: dict):
        """Strip/validate ``deadline_ms`` and make the budget ambient.

        ``deadline_ms`` is an envelope-level field shared by every POST
        schema, so it is validated here (before per-request
        ``from_json``); the caller's ``finally`` clears the token.
        """
        deadline_ms = blob.pop("deadline_ms", None)
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                raise RequestError("deadline_ms must be a positive number of milliseconds")
        else:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is None:
            return None
        return activate(Deadline(float(deadline_ms)))

    def _health_body(self) -> dict:
        body = self.session.health().to_json()
        body["payload"]["server"] = self._server_stats()
        return body

    def _server_stats(self) -> dict:
        # The whole snapshot is taken under _stats_lock (satellite fix):
        # health/metrics scraped mid-drain() see one consistent moment —
        # never a drained flag next to pre-drain counters, and never a
        # route-count dict mutating underfoot.  Lock order is always
        # _stats_lock -> _pool_lock / _response_cache_lock /
        # _inflight_lock; no path takes them in reverse.
        with self._stats_lock:
            with self._pool_lock:
                pool = self._pool
                pool_alive = pool is not None and not getattr(pool, "_broken", False)
            with self._response_cache_lock:
                response_cache = {
                    "capacity": self._response_cache_cap,
                    "entries": len(self._response_cache),
                    "hits": self._response_hits,
                    "misses": self._response_misses,
                }
            store = getattr(
                getattr(self.session, "planner", None), "shared_store", None
            )
            return {
                "workers": {
                    "configured": self.workers,
                    "pool_started": pool is not None,
                    "pool_alive": pool_alive,
                    "dispatched": self._pool_dispatched,
                    "failures": self._pool_failures,
                },
                "shared_cache": store.stats_dict() if store is not None else None,
                "response_cache": response_cache,
                "coalesced": self._coalesced,
                "requests_served": self._requests_served,
                "requests_by_route": dict(sorted(self._route_counts.items())),
                "inflight": self.inflight,
                "draining": self.draining,
            }

    # -- worker pool (cold structure solves) ----------------------------------

    def _get_pool(self) -> ProcessPoolExecutor | None:
        failed = False
        try:
            with self._pool_lock:
                if self._pool is None and not self._closed:
                    try:
                        self._pool = ProcessPoolExecutor(max_workers=self.workers)
                    except (OSError, RuntimeError):
                        # Restricted sandbox (no semaphores, fork
                        # disabled): the inline solve path is the
                        # documented fallback.  (The failure is counted
                        # outside _pool_lock — _stats_lock is always the
                        # outer lock of the pair.)
                        failed = True
                        return None
                return self._pool
        finally:
            if failed:
                with self._stats_lock:
                    self._pool_failures += 1

    def _prewarm(self, nest) -> None:
        """Solve a missing canonical structure in the worker pool.

        Best-effort: any pool problem falls back to the inline solve the
        session would do anyway.  Skipped while faults are armed —
        in-process injected faults are invisible to pool workers, and
        the chaos suite's contracts are about the inline path.
        """
        if self.workers <= 0 or faults.any_active():
            return
        planner = getattr(self.session, "planner", None)
        if planner is None or not hasattr(planner, "probe_structure"):
            return
        try:
            key = planner.canonicalization(nest).form.key()
        except Exception:
            return  # invalid nests surface properly in the session call
        if planner.probe_structure(key):
            return
        checkpoint("serve-prewarm")
        while True:
            with self._prewarm_lock:
                event = self._prewarming.get(key)
                if event is None:
                    event = threading.Event()
                    self._prewarming[key] = event
                    break
            # Another handler is already dispatching this structure:
            # wait it out, then answer from the (now warm) planner.
            while not event.wait(0.02):
                checkpoint("serve-prewarm")
            if planner.probe_structure(key):
                return
            # The leader failed (broken pool, timeout): take over.
        try:
            pool = self._get_pool()
            if pool is None:
                return
            timeout = None
            ambient = current_deadline()
            if ambient is not None:
                timeout = max(ambient.remaining_ms, 0.0) / 1000.0
            try:
                solved_key, pieces, delta = pool.submit(
                    _solve_structure, key
                ).result(timeout)
            except FuturesTimeoutError:
                return  # the inline path will raise DeadlineExceeded cleanly
            except BrokenProcessPool:
                with self._stats_lock:
                    self._pool_failures += 1
                with self._pool_lock:
                    broken, self._pool = self._pool, None
                if broken is not None:
                    broken.shutdown(wait=False, cancel_futures=True)
                return
            except (OSError, RuntimeError):
                with self._stats_lock:
                    self._pool_failures += 1
                return
            with self._stats_lock:
                self._pool_dispatched += 1
            planner.install_structure(solved_key, pieces)
            merge_worker_delta(delta)
        finally:
            with self._prewarm_lock:
                self._prewarming.pop(key, None)
            event.set()
        checkpoint("serve-prewarm")

    # -- endpoints (thread pool) ----------------------------------------------

    def _batch_workers(self) -> int:
        # Injected faults must hit the inline path (pool workers cannot
        # see in-process fault state), mirroring _prewarm's guard.
        if self.workers > 0 and not faults.any_active():
            return self.workers
        return 0

    def _answer(self, row: RequestKind, blob: dict) -> tuple[int, dict]:
        """Parse ``blob`` as a ``row`` request and answer it via the Session.

        The request class and the Session entry point are looked up at
        call time.  Single-result kinds answer with their Result (serial
        kinds with ``workers=0``); batch and sweep answer with a list
        envelope over ``Session.batch``.
        """
        if not row.single:
            return self._answer_list(row, blob)
        request = row.request.from_json(blob, row.kind)
        if row.kind == "analyze":
            self._prewarm(request.nest)
        run = getattr(self.session, row.kind)
        result = run(request, workers=0) if row.serial else run(request)
        return _result_response(result)

    def _answer_list(self, row: RequestKind, blob: dict) -> tuple[int, dict]:
        if row.kind == "sweep":
            requests = row.request.from_json(blob, row.kind).expand()
            if len(requests) > MAX_BATCH_REQUESTS:
                raise RequestError(f"sweep grid exceeds {MAX_BATCH_REQUESTS} requests")
        else:
            entries = blob.get("requests")
            if not isinstance(entries, list):
                raise RequestError("batch body needs a 'requests' list")
            if len(entries) > MAX_BATCH_REQUESTS:
                raise RequestError(
                    f"batch of {len(entries)} exceeds {MAX_BATCH_REQUESTS} requests"
                )
            requests = [
                row.request.from_json(entry, f"requests[{idx}]")
                for idx, entry in enumerate(entries)
            ]
        results = self.session.batch(requests, workers=self._batch_workers())
        if results and all(not r.ok for r in results):
            # The batch failed as one unit (an expired deadline maps every
            # request to the same envelope): answer with that envelope and
            # its own status rather than a 200 wrapping N copies.
            return _result_response(results[0])
        return 200, _results_body(row.kind, results)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    session: Session | None = None,
    verbose: bool = False,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    default_deadline_ms: float | None = None,
    workers: int | None = None,
    response_cache: int = 0,
    slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS,
) -> ServiceServer:
    """Bound, ready-to-``serve_forever`` server (``port=0`` = ephemeral).

    ``max_inflight`` bounds concurrently-processed POSTs (excess load is
    shed with 429); ``default_deadline_ms`` deadline-bounds requests
    that do not set their own ``deadline_ms``; ``workers`` sizes the
    process pool for cold structure solves (``None`` reads
    ``REPRO_SERVE_WORKERS``, default 0 = no pool); ``response_cache``
    turns on the full-request response cache (entries; 0 = off);
    ``slow_request_ms`` sets the slow-request span-tree log threshold
    (``None`` disables it).
    """
    if max_inflight < 1:
        raise ValueError("max_inflight must be >= 1")
    if default_deadline_ms is not None and default_deadline_ms <= 0:
        raise ValueError("default_deadline_ms must be positive")
    if slow_request_ms is not None and slow_request_ms <= 0:
        raise ValueError("slow_request_ms must be positive (or None to disable)")
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        try:
            workers = int(raw) if raw else 0
        except ValueError as exc:
            raise ValueError(f"bad {WORKERS_ENV_VAR} value {raw!r}") from exc
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if response_cache < 0:
        raise ValueError("response_cache must be >= 0")
    return ServiceServer(
        (host, port),
        session if session is not None else Session(),
        verbose=verbose,
        max_inflight=int(max_inflight),
        default_deadline_ms=default_deadline_ms,
        workers=int(workers),
        response_cache=int(response_cache),
        slow_request_ms=slow_request_ms,
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    session: Session | None = None,
    verbose: bool = True,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    default_deadline_ms: float | None = None,
    workers: int | None = None,
    response_cache: int = DEFAULT_RESPONSE_CACHE,
    slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS,
) -> int:
    """Run the JSON service until interrupted (the CLI entry point)."""
    server = make_server(
        host, port, session=session, verbose=verbose,
        max_inflight=max_inflight, default_deadline_ms=default_deadline_ms,
        workers=workers, response_cache=response_cache,
        slow_request_ms=slow_request_ms,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"repro-tile serve: listening on http://{bound_host}:{bound_port}/v1/ "
          f"(schema v{SCHEMA_VERSION}; workers={server.workers}; Ctrl-C to stop)",
          flush=True)

    # SIGTERM (what `kill`, systemd, and containers send) must take the
    # same graceful path as Ctrl-C: the default handler would kill only
    # this process, orphaning fork-started pool workers that inherited
    # the listening socket — the port would stay busy and a restarted
    # server could never bind it.
    def _graceful_term(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _graceful_term)
    except (ValueError, OSError):  # non-main thread (embedded use)
        previous = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.drain()
        print("repro-tile serve: shutting down")
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()
    return 0
