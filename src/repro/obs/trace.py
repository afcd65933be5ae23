"""Per-request tracing: a ``trace_id`` plus a stage-attributed span tree.

A :class:`RequestTrace` travels in a :class:`contextvars.ContextVar`
alongside the ambient :class:`~repro.util.deadline.Deadline`, so the
solver layers need no new parameters: the deadline checkpoints that
already punctuate the hot loops (``lp-pivot``, ``mplp-enumeration``,
``plan-batch``, ``tune-candidate``, ...) double as trace *ticks* — the
wall time since the previous trace event is attributed to the stage
named by the checkpoint.  Coarser phases that are not polling loops
(cache probe, band plan, simulation, serialization) open
explicit :func:`span`\\ s instead.

``trace_id`` is 16 lowercase hex characters, minted at the outermost
surface (HTTP server or ``Session``) or accepted from the caller via the
``X-Trace-Id`` header / ``trace_id`` envelope field; the result's
``meta.timings`` and the structured failure envelopes echo it, so one id
correlates the client's view, the server log, and the metrics.

Tracing can be disabled wholesale with :func:`set_enabled` — the bench
overhead leg measures exactly this on/off delta, and the CI gate pins it
under 5% on the cached path.
"""

from __future__ import annotations

import random
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Iterator

__all__ = [
    "RequestTrace",
    "activate",
    "coerce_trace_id",
    "current_trace",
    "deactivate",
    "enabled",
    "harvest",
    "mint_trace_id",
    "set_enabled",
    "span",
    "tick",
    "trace_scope",
]

#: Accepted inbound ids: hex-ish tokens up to 64 chars (W3C-trace-parent
#: friendly without importing its full grammar).  Anything else is
#: ignored and a fresh id is minted — a malformed header must never 400.
_TRACE_ID_RE = re.compile(r"^[0-9a-zA-Z][0-9a-zA-Z._-]{0,63}$")

#: Span-tree safety valve: a runaway loop opening spans keeps the stage
#: totals exact but stops growing the per-span list.
_MAX_SPANS = 256

_enabled = True


def enabled() -> bool:
    """Whether new traces are being created (observation kill switch)."""
    return _enabled


def set_enabled(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)


def mint_trace_id() -> str:
    """A fresh 16-hex id.  ``random`` beats ``uuid4`` ~10x on the cached
    HTTP path, and request ids need no cryptographic strength."""
    return "%016x" % random.getrandbits(64)


def coerce_trace_id(raw: object) -> str | None:
    """A caller-supplied id if it is shaped like one, else ``None``."""
    if isinstance(raw, str) and _TRACE_ID_RE.match(raw):
        return raw
    return None


class RequestTrace:
    """One request's id, stage totals, and (bounded) span list.

    ``stages`` maps stage name -> seconds; ``tick(where)`` attributes the
    time since the previous trace event to ``where``, so polling loops
    accumulate their true duration without per-iteration span objects.
    """

    __slots__ = ("trace_id", "started", "_last", "stages", "stage_counts",
                 "spans", "_depth")

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or mint_trace_id()
        self.started = time.perf_counter()
        self._last = self.started
        self.stages: dict[str, float] = {}
        self.stage_counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self._depth = 0

    def tick(self, where: str) -> None:
        now = time.perf_counter()
        self.stages[where] = self.stages.get(where, 0.0) + (now - self._last)
        self.stage_counts[where] = self.stage_counts.get(where, 0) + 1
        self._last = now

    def add_span(self, name: str, started: float, ended: float, depth: int) -> None:
        duration = ended - started
        self.stages[name] = self.stages.get(name, 0.0) + duration
        self.stage_counts[name] = self.stage_counts.get(name, 0) + 1
        if len(self.spans) < _MAX_SPANS:
            self.spans.append({
                "name": name,
                "depth": depth,
                "start_ms": round((started - self.started) * 1000.0, 3),
                "ms": round(duration * 1000.0, 3),
            })

    def total_seconds(self) -> float:
        return time.perf_counter() - self.started

    def timings_ms(self) -> dict:
        """The compact ``meta.timings`` breakdown."""
        return {
            "total_ms": round(self.total_seconds() * 1000.0, 3),
            "stages": {name: round(seconds * 1000.0, 3)
                       for name, seconds in sorted(self.stages.items())},
        }

    def stamp(self, metas) -> None:
        """Write ``trace_id`` and one ``timings_ms()`` reading into each
        envelope meta dict: meta-only, so payloads stay byte-identical."""
        timings = self.timings_ms()
        for meta in metas:
            meta["trace_id"] = self.trace_id
            meta["timings"] = timings

    def span_tree_lines(self) -> list[str]:
        """Indented one-line-per-span rendering for the slow-request log."""
        return [
            "%s%s %+0.3fms %0.3fms" % ("  " * entry["depth"], entry["name"],
                                       entry["start_ms"], entry["ms"])
            for entry in self.spans
        ]


_current: ContextVar[RequestTrace | None] = ContextVar("repro_trace", default=None)


def current_trace() -> RequestTrace | None:
    """The trace following the current request, if any."""
    return _current.get()


def activate(trace: RequestTrace | None) -> Token:
    """Install ``trace`` as the ambient trace; pair with :func:`deactivate`.

    Token API for callers whose enter/exit spans separate methods (the
    HTTP handler); everything else uses :func:`trace_scope`.
    """
    return _current.set(trace)


def deactivate(token: Token) -> None:
    _current.reset(token)


def tick(where: str) -> None:
    """Attribute time-since-last-event to ``where`` on the ambient trace.

    Called from ``deadline.checkpoint`` — one extra ContextVar read on
    the solver hot loops, a no-op when nothing is tracing.
    """
    trace = _current.get()
    if trace is not None:
        trace.tick(where)


class span:
    """``with span("plan-cache-probe"): ...`` — an explicit stage.

    Reads the ContextVar once at entry; a no-op (no allocation beyond
    the context manager itself) when no trace is active.
    """

    __slots__ = ("name", "_trace", "_start")

    def __init__(self, name: str):
        self.name = name
        self._trace = None
        self._start = 0.0

    def __enter__(self) -> "span":
        trace = _current.get()
        if trace is not None:
            self._trace = trace
            self._start = time.perf_counter()
            trace._depth += 1
            trace._last = self._start
        return self

    def __exit__(self, *exc_info) -> None:
        trace = self._trace
        if trace is not None:
            ended = time.perf_counter()
            trace._depth -= 1
            trace.add_span(self.name, self._start, ended, trace._depth)
            trace._last = ended
            self._trace = None


@contextmanager
def trace_scope(trace_id: str | None = None) -> Iterator[RequestTrace | None]:
    """Run the block under a trace, creating one if none is ambient.

    An already-active trace — e.g. the one the HTTP server installed
    before calling into the Session — is *reused*, not replaced, so
    nested surfaces share one id and one stage map.  Only the scope
    that actually created the trace harvests its stage totals into the
    global registry on exit.
    """
    ambient = _current.get()
    if ambient is not None:
        yield ambient
        return
    if not _enabled:
        yield None
        return
    trace = RequestTrace(trace_id)
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)
        _harvest(trace)


def _harvest(trace: RequestTrace) -> None:
    """Fold a finished trace's stage totals into the global registry."""
    from .metrics import global_registry

    registry = global_registry()
    for stage, seconds in trace.stages.items():
        registry.histogram("repro_stage_seconds", stage=stage).observe(seconds)


def harvest(trace: RequestTrace) -> None:
    """Public alias for call sites that own activation directly (serve)."""
    _harvest(trace)
