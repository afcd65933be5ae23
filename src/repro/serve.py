"""``repro-tile serve`` — an asyncio JSON endpoint over one shared Session.

The tiling LP depends on the loop bounds only through ``beta`` (§7),
which makes "ask many questions about many nests" a natural service
shape: one process holds a warm :class:`~repro.api.Session` (cached
dual simplex bases per canonical structure) and answers every query by
an exact, certified warm-started solve.  This module is that shape over
HTTP, with zero dependencies beyond the standard library:

====================  ======  =============================================
``/v1/health``        GET     liveness + plan-cache + server stats
``/v1/metrics``       GET     Prometheus text exposition (repro.obs)
``/v1/<kind>``        POST    one row of :data:`repro.api.kinds.REQUEST_KINDS`
====================  ======  =============================================

The POST routes, the request class that parses each body, and which
answers are response-cacheable all come from that table; ``batch``
(``{"requests": [...]}``) and ``sweep`` answer with an ordered list
envelope, every other kind with one Result.

Architecture (see ``docs/serving.md``): an asyncio event loop owns the
sockets (keep-alive, ``TCP_NODELAY``) and never blocks on solver work —
request handling runs on a bounded thread pool, a cold structure's
dual simplex run (from the slack basis) runs on the handler thread
that needs it, and three caches stack in front of the solver:

* a **response cache** (``response_cache > 0``): verbatim repeats of a
  single-result request are answered on the event loop by splicing the
  cached payload bytes under fresh ``meta`` — no thread handoff at all;
* **request coalescing**: identical in-flight requests share one
  execution (the only in-flight dedupe: distinct requests that meet
  one new structure together each pivot from the slack basis);
* the planner's **structure cache**: per canonical structure, the
  final dual simplex bases its queries reached, so a warm query costs
  a feasibility test and an integer certificate, and a cold one a few
  pivots from the slack basis.

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
import signal
import socket
import sys
import threading
import time
import traceback
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from .api import SCHEMA_VERSION, RequestError, Result, Session
from .api.kinds import REQUEST_KINDS, RequestKind
from .core.loopnest import LoopNestError
from .core.parser import ParseError
from .obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    RequestTrace,
    coerce_trace_id,
    global_registry,
    mint_trace_id,
    render_counters,
    render_registry,
    span,
)
from .obs import trace as obs_trace
from .util.deadline import Deadline, DeadlineExceeded, activate, deactivate
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

#: Requests slower than this get their span tree logged (structured
#: JSON on the ``repro.serve`` logger); CLI flag ``--slow-request-ms``.
DEFAULT_SLOW_REQUEST_MS = 1000.0

#: ``/v1/metrics`` gauge for each of the planner's in-memory caches
#: (:meth:`repro.plan.Planner.cache_sizes`), set at scrape time.
_PLANNER_GAUGES = {
    "structures": "repro_plan_structures",
    "bases": "repro_plan_cached_bases",
    "canon_memo": "repro_plan_canon_memo_entries",
    "log_memo": "repro_plan_log_memo_entries",
}

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
    ``response_cache > 0`` turns on the full-request response cache.
    Cold structures are solved by the session's planner on the handler
    thread, with no per-structure gate: concurrent requests for one
    new structure each run the slack-start simplex.

    :attr:`metrics` is this server's own :class:`MetricsRegistry` and
    the only store of its counts (requests, rejections, response-cache
    events and entries, coalesced followers, in-flight, draining): the
    health ``server`` block and ``/v1/metrics`` are two renderings of it.
    """

    def __init__(
        self,
        address: tuple[str, int],
        session: Session,
        *,
        verbose: bool = False,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        default_deadline_ms: float | None = None,
        response_cache: int = 0,
        slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS,
    ):
        self.session = session
        self.verbose = verbose
        self.max_inflight = int(max_inflight)
        self.default_deadline_ms = default_deadline_ms
        self.slow_request_ms = slow_request_ms
        #: Per server, not process-global: one process may run many
        #: servers, and each one's health must count only its own.
        self.metrics = MetricsRegistry()
        #: The admission count is the gauge itself; _inflight_lock makes
        #: try_acquire's check-and-increment atomic.
        self._inflight = self.metrics.gauge("repro_inflight")
        self._inflight_lock = threading.Lock()
        self._draining = self.metrics.gauge("repro_draining")
        self._followers = self.metrics.counter("repro_coalesced_total")
        self._cache_hits = self.metrics.counter(
            "repro_response_cache_events_total", event="hits")
        self._cache_misses = self.metrics.counter(
            "repro_response_cache_events_total", event="misses")
        self._cache_entries = self.metrics.gauge("repro_response_cache_entries")
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
        self._response_cache_cap = int(response_cache)
        #: Event-loop confined, like the coalescing map below.
        self._response_cache: OrderedDict[tuple, tuple[str, str]] = OrderedDict()
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
            if self._inflight.value >= self.max_inflight:
                return False
            self._inflight.inc()
            return True

    def release(self) -> None:
        with self._inflight_lock:
            self._inflight.inc(-1)

    @property
    def inflight(self) -> int:
        return int(self._inflight.value)

    @property
    def draining(self) -> bool:
        return bool(self._draining.value)

    def drain(self) -> None:
        """Start refusing new work (503) while in-flight requests finish."""
        self._draining.set(1)

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
        """Release the socket and the handler threads (idempotent)."""
        self._closed = True
        with contextlib.suppress(OSError):
            self._socket.close()
        self._executor.shutdown(wait=False, cancel_futures=True)

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
                self._count_rejected("bad-method")
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
            self._count_rejected("bad-method")
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
                self._followers.inc()
                # Unlike awaiting the future itself, asyncio.wait raises
                # CancelledError only when this task is cancelled.  A
                # failed leader leaves the future cancelled, and the
                # follower then runs the request on its own.
                await asyncio.wait((pending,))
                if pending.cancelled():
                    return await self._run_guarded(loop, route, body, trace_id)
                status, payload, headers, _ = pending.result()
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

    def _count_served(self, route: str, status: int, elapsed_s: float) -> None:
        """Tally one served request (event loop only):
        ``repro_requests_total{route,status}`` and
        ``repro_request_seconds{route}``.  Metric handles are cached per
        route so the hot path is two dict lookups.
        """
        counter_key = (route, status)
        counter = self._request_counters.get(counter_key)
        if counter is None:
            counter = self.metrics.counter(
                "repro_requests_total", route=route, status=str(status)
            )
            self._request_counters[counter_key] = counter
        counter.inc()
        hist = self._request_hists.get(route)
        if hist is None:
            hist = self.metrics.histogram("repro_request_seconds", route=route)
            self._request_hists[route] = hist
        hist.observe(elapsed_s)

    def _count_rejected(self, reason: str) -> None:
        """One shed/refused request (404/405/429/503) by reason."""
        self.metrics.counter("repro_rejected_total", reason=reason).inc()

    # -- response cache -------------------------------------------------------

    def _response_cache_get(self, key: tuple) -> tuple[str, str] | None:
        entry = self._response_cache.get(key)
        if entry is None:
            self._cache_misses.inc()
            return None
        self._response_cache.move_to_end(key)
        self._cache_hits.inc()
        return entry

    def _response_cache_put(self, key: tuple, entry: tuple[str, str]) -> None:
        self._response_cache[key] = entry
        self._response_cache.move_to_end(key)
        while len(self._response_cache) > self._response_cache_cap:
            self._response_cache.popitem(last=False)
        self._cache_entries.set(len(self._response_cache))

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
            if trace is not None:
                self._stamp_trace_meta(body, trace)
                headers = dict(headers or {})
                headers["X-Trace-Id"] = trace.trace_id
            with span("serialize"):
                if status == 200 and route in _CACHEABLE_ROUTES:
                    # The payload is serialised once, for the response
                    # cache and for these bytes alike.
                    cache_entry = (body["kind"], json.dumps(body["payload"]))
                    data = _splice_envelope(*cache_entry, json.dumps(body["meta"]))
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
        """This server's registry (with the planner's cache sizes as
        gauges), the process-global one (trace stages, merged worker
        deltas), then the planner counters."""
        planner = getattr(self.session, "planner", None)
        if planner is not None:
            for name, size in planner.cache_sizes().items():
                self.metrics.gauge(_PLANNER_GAUGES[name]).set(size)
        parts = [render_registry(self.metrics), render_registry(global_registry())]
        if planner is not None:
            parts.append(render_counters(
                "repro_plan_cache_events_total", "event", planner.stats.as_dict(),
                "Planner structure-cache events (hits, solves, coalesced, ...).",
            ))
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
        """Health's ``server`` block, read from one registry snapshot.

        Every metric update takes the registry lock the snapshot holds,
        so the block is one consistent moment: ``requests_served`` always
        equals the sum of ``requests_by_route``, and the draining flag
        never sits next to counts from another instant.
        """
        snap = self.metrics.snapshot()
        counts = {
            (entry["name"], *(value for _, value in entry["labels"])): int(entry["value"])
            for entry in snap["counters"] + snap["gauges"]
        }
        by_route: dict[str, int] = {}
        for (name, *labels), count in counts.items():
            if name == "repro_requests_total":
                route = labels[0]  # labels sort as (route, status)
                by_route[route] = by_route.get(route, 0) + count
        events = "repro_response_cache_events_total"
        return {
            "response_cache": {
                "capacity": self._response_cache_cap,
                "entries": counts[("repro_response_cache_entries",)],
                "hits": counts[(events, "hits")],
                "misses": counts[(events, "misses")],
            },
            "coalesced": counts[("repro_coalesced_total",)],
            "requests_served": sum(by_route.values()),
            "requests_by_route": dict(sorted(by_route.items())),
            "inflight": counts[("repro_inflight",)],
            "draining": bool(counts[("repro_draining",)]),
        }

    # -- endpoints (thread pool) ----------------------------------------------

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
        run = getattr(self.session, row.kind)
        result = run(request, workers=0) if row.serial else run(request)
        return _result_response(result)

    def _answer_list(self, row: RequestKind, blob: dict) -> tuple[int, dict]:
        if row.kind == "sweep":
            sweep = row.request.from_json(blob, row.kind)
            # Refuse an oversized grid before building any of its nests.
            if sweep.grid_size() > MAX_BATCH_REQUESTS:
                raise RequestError(f"sweep grid exceeds {MAX_BATCH_REQUESTS} requests")
            requests = sweep.expand()
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
        results = self.session.batch(requests)
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
    response_cache: int = 0,
    slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS,
) -> ServiceServer:
    """Bound, ready-to-``serve_forever`` server (``port=0`` = ephemeral).

    ``max_inflight`` bounds concurrently-processed POSTs (excess load is
    shed with 429); ``default_deadline_ms`` deadline-bounds requests
    that do not set their own ``deadline_ms``; ``response_cache``
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
    if response_cache < 0:
        raise ValueError("response_cache must be >= 0")
    return ServiceServer(
        (host, port),
        session if session is not None else Session(),
        verbose=verbose,
        max_inflight=int(max_inflight),
        default_deadline_ms=default_deadline_ms,
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
    response_cache: int = DEFAULT_RESPONSE_CACHE,
    slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS,
) -> int:
    """Run the JSON service until interrupted (the CLI entry point)."""
    server = make_server(
        host, port, session=session, verbose=verbose,
        max_inflight=max_inflight, default_deadline_ms=default_deadline_ms,
        response_cache=response_cache,
        slow_request_ms=slow_request_ms,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"repro-tile serve: listening on http://{bound_host}:{bound_port}/v1/ "
          f"(schema v{SCHEMA_VERSION}; Ctrl-C to stop)",
          flush=True)

    # SIGTERM (what `kill`, systemd, and containers send) must take the
    # same graceful path as Ctrl-C: drain, then close the listening
    # socket and the handler threads, and let the caller's cleanup run.
    # The default disposition would end the process on the spot.
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
