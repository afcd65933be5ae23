"""The session-scoped service façade: one object, every entry point.

A :class:`Session` owns the machinery a stream of queries shares —

* a :class:`~repro.plan.Planner` (the canonical-structure plan cache),
* machine-model defaults for simulation,
* a worker-count default for parallel tune-candidate evaluation —

and exposes the typed entry points ``analyze``/``batch``/``sweep``/
``simulate``/``tune``/``hierarchy``/``program``/``distributed``/``health``,
each returning a versioned
:class:`~repro.api.Result` envelope with timing and cache-hit metadata.
The CLI, the HTTP service (:mod:`repro.serve`), the benchmarks and the
examples all go through this class; the flat top-level helpers
(``repro.analyze`` and friends) delegate to a process-wide
:func:`default_session`, which is what makes repeated one-call analyses
of structurally identical nests hit the plan cache instead of
re-running the rational simplex.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import replace
from typing import Iterable

from ..core.bounds import CommunicationLowerBound
from ..core.duality import Theorem3Certificate
from ..core.loopnest import LoopNest
from ..core.tiling import TileShape, TilingSolution, solve_tiling
from ..frontend.pipeline import plan_program
from ..machine.model import MachineModel
from ..obs import current_trace, global_registry, span, trace_scope
from ..parallel.distributed import DistributedReport, simulate_grid
from ..plan.planner import Planner, TilePlan
from ..simulate.trace_sim import run_trace_simulation
from ..tune.tuner import tune_hierarchy, tune_tile
from ..util.deadline import DeadlineExceeded, checkpoint, deadline_scope
from .requests import (
    AnalyzeRequest,
    DistributedRequest,
    HierarchyRequest,
    ProgramRequest,
    SimulateRequest,
    SweepRequest,
    TuneRequest,
)
from .result import Result
from .wire import RequestError

__all__ = ["Session", "default_session", "reset_default_session"]


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _deadline_error(exc: DeadlineExceeded) -> Result:
    """The structured 504 envelope for an expired request deadline."""
    detail = {
        "reason": "deadline_exceeded",
        "deadline_ms": exc.budget_ms,
        "where": exc.where,
    }
    trace = current_trace()
    if trace is not None:
        # Correlate the timeout with the request trace, next to `where`.
        detail["trace_id"] = trace.trace_id
    return Result.error(str(exc), status=504, detail=detail)


def _stamp_trace(out, trace) -> None:
    """Write ``meta.trace_id``/``meta.timings`` onto a Result (or each of
    a batch's Results) in place — meta-only, so golden payloads stay
    byte-identical with tracing enabled."""
    timings = trace.timings_ms()
    for result in out if isinstance(out, list) else (out,):
        if isinstance(result, Result):
            result.meta["trace_id"] = trace.trace_id
            result.meta["timings"] = timings


def _traced(method):
    """Run a Session entry point under an ambient request trace.

    Reuses the trace the HTTP layer installed (same id end to end) or
    creates one for direct library/CLI calls; either way the returned
    envelope(s) carry the stage breakdown in meta.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with trace_scope() as trace:
            out = method(self, *args, **kwargs)
            if trace is not None:
                _stamp_trace(out, trace)
            return out

    return wrapper


def _degraded_meta(events: dict) -> dict | None:
    """Meta fields describing observed degradation; None when clean.

    Returning ``None`` on the clean path keeps fault-free payloads
    byte-identical to the historical golden envelopes — ``degraded``
    never appears unless something actually degraded.
    """
    if not events.get("degraded"):
        return None
    extra: dict = {"degraded": True}
    reasons = events.get("degraded_reasons")
    if reasons:
        extra["degraded_reasons"] = sorted(set(reasons))
    return extra


class Session:
    """A service scope: plan cache + machine defaults + typed entry points.

    Parameters
    ----------
    planner:
        An existing :class:`~repro.plan.Planner` to share; a private one
        is created from ``plan_capacity`` when omitted.
    plan_capacity:
        LRU capacity (canonical structures) of the private planner.
    line_words:
        Cache-line granularity for :meth:`simulate` (1 = paper model).
    workers:
        Default worker-process count for tune-candidate evaluation in
        :meth:`tune`, :meth:`hierarchy` and :meth:`program` (None =
        executor default; 0 = serial).
    """

    def __init__(
        self,
        planner: Planner | None = None,
        *,
        plan_capacity: int = 128,
        line_words: int = 1,
        workers: int | None = None,
    ):
        if line_words < 1:
            raise ValueError("line_words must be >= 1")
        self.planner = planner if planner is not None else Planner(capacity=plan_capacity)
        self.line_words = line_words
        self.workers = workers
        self._started = time.time()

    # -- request coercion ---------------------------------------------------

    def _as_analyze(
        self,
        request,
        cache_words: int | None = None,
        budget: str = "per-array",
        certificate: bool = False,
    ) -> AnalyzeRequest:
        if isinstance(request, AnalyzeRequest):
            # A request object is authoritative; mixing in overrides
            # would silently answer for the wrong instance.
            if cache_words is not None or budget != "per-array":
                raise RequestError(
                    "pass cache_words/budget either inside the request object "
                    "or alongside a bare nest, not both"
                )
            if certificate and not request.certificate:
                request = replace(request, certificate=True)
            return request
        if isinstance(request, LoopNest):
            if cache_words is None:
                raise RequestError("analyze(nest, ...) needs cache_words")
            return AnalyzeRequest(
                nest=request,
                cache_words=int(cache_words),
                budget=budget,
                certificate=certificate,
            )
        if isinstance(request, tuple) and 2 <= len(request) <= 3:
            nest, m, *rest = request
            return AnalyzeRequest(
                nest=nest,
                cache_words=int(m),
                budget=rest[0] if rest else budget,
                certificate=certificate,
            )
        raise RequestError(
            f"cannot interpret {type(request).__name__} as an analyze request"
        )

    def _workers(self, workers: int | None) -> int | None:
        return self.workers if workers is None else workers

    # -- the wrapper every entry point shares -------------------------------

    def _answer(self, kind: str, requests: list, deadline_ms: float | None, run) -> list[Result]:
        """Validate, run under the deadline, and wrap the answers.

        ``run(events)`` returns one ``(payload, meta, detail)`` per
        request; each becomes a ``kind`` Result whose meta is
        ``elapsed_ms`` (amortised over ``requests``), then the kind's own
        ``meta`` keys, then ``degraded``/``degraded_reasons`` if the
        tune-candidate pool broke.  Payload builders emit plain JSON
        types themselves (lists, ``"p/q"`` strings), so no normalising
        walk runs here.
        An expired deadline maps every request to the structured 504
        envelope.
        """
        t0 = time.perf_counter()
        for request in requests:
            request.validate()
        events: dict = {}
        try:
            with deadline_scope(deadline_ms):
                answers = run(events)
        except DeadlineExceeded as exc:
            return [_deadline_error(exc) for _ in requests]
        elapsed_ms = _ms((time.perf_counter() - t0) / max(1, len(requests)))
        degraded = _degraded_meta(events) or {}
        return [
            Result(
                kind=kind,
                payload=payload,
                meta={"elapsed_ms": elapsed_ms, **meta, **degraded},
                detail=detail,
                normalise=False,
            )
            for payload, meta, detail in answers
        ]

    # -- payload builders ---------------------------------------------------

    @staticmethod
    def _certificate_payload(cert: Theorem3Certificate) -> dict:
        # Like the lower bound (and the pre-façade repro.analyze), the
        # certificate always certifies the paper-model per-array LP at
        # the full cache size; the self-describing fields below keep
        # that unambiguous next to an aggregate-budget k_hat.
        return {
            "tight": cert.tight,
            "primal": str(cert.primal_value),
            "dual": str(cert.dual_value),
            "zeta": [str(z) for z in cert.dual.zeta],
            "s": [str(s) for s in cert.dual.s],
            "complementary_slackness": cert.complementary_slackness,
            "cache_words": cert.cache_words,
            "budget": "per-array",
        }

    def _analyze_answer(self, request: AnalyzeRequest, plan: TilePlan) -> tuple:
        payload = plan.to_json()
        payload.pop("cache_hit", None)
        payload["certificate"] = (
            self._certificate_payload(
                self.planner.certificate(request.nest, request.cache_words)
            )
            if request.certificate
            else None
        )
        return payload, {"cache_hit": plan.cache_hit}, plan

    # -- service entry points -----------------------------------------------

    @_traced
    def analyze(
        self,
        request,
        cache_words: int | None = None,
        *,
        budget: str = "per-array",
        certificate: bool = False,
        deadline_ms: float | None = None,
    ) -> Result:
        """One query through the plan cache; the ``/v1/analyze`` core.

        Accepts an :class:`AnalyzeRequest`, a bare nest plus
        ``cache_words``, or a ``(nest, cache_words[, budget])`` tuple.
        ``deadline_ms`` bounds the solve cooperatively: a cold structure
        whose simplex outruns the budget yields a structured 504
        envelope instead of blocking indefinitely.
        """
        request = self._as_analyze(request, cache_words, budget, certificate)

        def run(events):
            plan = self.planner.plan(request.nest, request.cache_words, request.budget)
            return [self._analyze_answer(request, plan)]

        return self._answer("analyze", [request], deadline_ms, run)[0]

    @_traced
    def batch(
        self,
        requests: Iterable,
        *,
        budget: str = "per-array",
        deadline_ms: float | None = None,
    ) -> list[Result]:
        """Serve many analyze queries in request order.

        Items take any :meth:`analyze` spelling except a bare nest.  Each
        request goes through the plan cache in turn, so a structure
        solved for one request is a
        warm lookup for the later ones.  Each result's
        ``meta.elapsed_ms`` is the *amortised* per-request batch time
        (total batch wall clock / request count).  If ``deadline_ms``
        expires mid-batch, every request maps to the structured 504
        envelope (the batch is one unit of work — per-request partial
        answers would break positional zipping).
        """
        reqs = [self._as_analyze(item, budget=budget) for item in requests]

        def run(events):
            answers = []
            for req in reqs:
                checkpoint("plan-batch")
                plan = self.planner.plan(req.nest, req.cache_words, req.budget)
                answers.append(self._analyze_answer(req, plan))
            return answers

        return self._answer("analyze", reqs, deadline_ms, run)

    @_traced
    def sweep(
        self,
        request: SweepRequest,
        *,
        deadline_ms: float | None = None,
    ) -> list[Result]:
        """Expand a :class:`SweepRequest` grid and serve it as a batch."""
        return self.batch(request.expand(), deadline_ms=deadline_ms)

    @_traced
    def simulate(self, request: SimulateRequest, *, deadline_ms: float | None = None) -> Result:
        """Trace-driven cache simulation; the ``/v1`` story's ground truth.

        Always the batched trace engine; ``run_trace_simulation(...,
        engine="reference")`` is the oracle the tests hold it to.
        """
        return self._answer(
            "simulate", [request], deadline_ms, lambda events: [self._simulate_answer(request)]
        )[0]

    def _simulate_answer(self, request: SimulateRequest) -> tuple:
        planned: TilePlan | None = None
        if request.tile is not None:
            tile = TileShape(nest=request.nest, blocks=request.tile)
        else:
            planned = self.planner.plan(
                request.nest, request.cache_words, request.budget, include_bound=True
            )
            tile = planned.tile
        line_words = request.line_words if request.line_words is not None else self.line_words
        machine = MachineModel(cache_words=request.cache_words, line_words=line_words)
        with span("simulation"):
            report = run_trace_simulation(request.nest, machine, tile=tile, policy=request.policy)
        payload = {
            "nest": request.nest.to_json(),
            "cache_words": request.cache_words,
            "line_words": line_words,
            "policy": request.policy,
            "engine": "batched",
            "tile": list(tile.blocks),
            "tile_planned": request.tile is None,
            "total_words": report.total_words,
            "loads": report.loads,
            "stores": report.stores,
            "per_array": [
                {"name": a.name, "loads": a.loads, "stores": a.stores}
                for a in report.per_array
            ],
            "accesses": report.meta.get("accesses"),
            "misses": report.meta.get("misses"),
            "lower_bound_words": (
                planned.lower_bound.value
                if planned is not None and planned.lower_bound is not None
                else None
            ),
        }
        meta = {"cache_hit": planned.cache_hit if planned is not None else None}
        return payload, meta, report

    @_traced
    def tune(
        self,
        request: TuneRequest,
        *,
        workers: int | None = None,
        deadline_ms: float | None = None,
    ) -> Result:
        """Simulation-in-the-loop tile autotuning; the ``/v1/tune`` core.

        Seeds at the plan cache's analytic optimum, searches the integer
        tile lattice with the trace simulator scoring candidates, and
        returns a :class:`~repro.tune.TuneReport` payload certified
        against the Theorem lower bound.  ``workers`` parallelises
        candidate evaluation (defaults to the session setting; the
        payload is identical either way).  A crashed evaluation pool is
        survived serially (``meta.degraded``); an expired ``deadline_ms``
        yields the structured 504 envelope.
        """

        def run(events):
            report = tune_tile(
                request.nest,
                request.cache_words,
                budget=request.budget,
                strategy=request.strategy,
                max_evaluations=request.max_evaluations,
                radius=request.radius,
                capacities=request.capacities,
                planner=self.planner,
                workers=self._workers(workers),
                events=events,
            )
            return [(report.to_json(), {"cache_hit": report.plan.cache_hit}, report)]

        return self._answer("tune", [request], deadline_ms, run)[0]

    @_traced
    def hierarchy(
        self,
        request: HierarchyRequest,
        *,
        workers: int | None = None,
        deadline_ms: float | None = None,
    ) -> Result:
        """Hierarchy-native planning; the ``/v1/hierarchy`` core.

        Plans one nested tiling per level through the plan cache (one
        warm dual simplex answer per level — structurally identical
        nests at different capacity stacks are warm hits), measures the
        innermost walk across every boundary from a single one-pass
        trace, certifies each boundary against its Theorem bound, and —
        when the request carries a tune budget — searches innermost
        tiles that never un-nest the hierarchy.  Returns a
        :class:`~repro.tune.HierarchyReport` payload; like tune, the
        payload is byte-identical across surfaces and worker counts.
        """

        def run(events):
            report = tune_hierarchy(
                request.nest,
                request.capacities,
                budget=request.budget,
                strategy=request.strategy,
                max_evaluations=max(1, request.tune_budget),
                radius=request.radius,
                planner=self.planner,
                workers=self._workers(workers),
                events=events,
            )
            return [(report.to_json(), {"cache_hit": report.cache_hit}, report)]

        return self._answer("hierarchy", [request], deadline_ms, run)[0]

    @_traced
    def program(
        self,
        request: ProgramRequest,
        *,
        workers: int | None = None,
        deadline_ms: float | None = None,
    ) -> Result:
        """Whole-program ingestion; the ``/v1/program`` core.

        Splits the request's program into maximal perfect projective
        bands and plans each through this session's one shared plan
        cache, so structurally identical bands — and any single-nest
        query that came before — warm each other.  The payload is a pure
        function of the request (per-band ``cache_hit`` and the live
        planner-stats delta ride on meta), so the same program yields
        byte-identical payloads across surfaces and cache temperatures.
        """

        def run(events):
            before = self.planner.stats.as_dict()
            report = plan_program(
                request.program,
                request.cache_words,
                budget=request.budget,
                certificate=request.certificate,
                tune_budget=request.tune_budget,
                strategy=request.strategy,
                radius=request.radius,
                planner=self.planner,
                workers=self._workers(workers),
                events=events,
            )
            after = self.planner.stats.as_dict()
            delta = {
                key: after[key] - before.get(key, 0)
                for key in ("queries", "structure_hits", "structure_solves")
            }
            meta = {"cache_hit": report.cache_hit, "planner_delta": delta}
            return [(report.to_json(), meta, report)]

        return self._answer("program", [request], deadline_ms, run)[0]

    @_traced
    def distributed(
        self, request: DistributedRequest, *, deadline_ms: float | None = None
    ) -> Result:
        """Processor-grid traffic against the distributed lower bound.

        The bound's exponent ``k_hat`` at ``memory_words`` is one piece
        evaluation on the plan cache (no LP on a warm structure), and
        travels exactly as ``lower_bound_k_hat``.
        """

        def run(events):
            k_hat = self.planner.exponent(request.nest, request.memory_words)
            report: DistributedReport = simulate_grid(
                request.nest,
                request.processors,
                request.memory_words,
                grid=request.grid,
                k_hat=k_hat,
            )
            payload = {
                "nest": request.nest.to_json(),
                "processors": report.P,
                "memory_words": request.memory_words,
                "grid": list(report.grid),
                "grid_searched": request.grid is None,
                "words_per_processor": report.words_per_processor,
                "lower_bound_words": report.lower_bound_words,
                "lower_bound_k_hat": str(report.k_hat),
                "ratio": report.ratio,
            }
            return [(payload, {}, report)]

        return self._answer("distributed", [request], deadline_ms, run)[0]

    @_traced
    def health(self) -> Result:
        """Liveness + cache effectiveness snapshot (``/v1/health``)."""
        from .. import __version__

        stats = self.planner.stats.as_dict()
        return Result(
            kind="health",
            payload={
                "status": "ok",
                "version": __version__,
                "engine": "batched",
                "structures_cached": len(self.planner.cached_keys()),
                "planner_stats": stats,
                "uptime_s": round(time.time() - self._started, 3),
            },
        )

    def metrics(self) -> dict:
        """The library-surface view of the observability registry.

        The process-global registry's summary (trace stages and merged
        worker deltas, p50/p95/p99 derived) plus this session's planner
        counters.  A server's request families live in its own registry
        (``ServiceServer.metrics``), not here.
        """
        return {
            "registry": global_registry().summary(),
            "planner_stats": self.planner.stats.as_dict(),
        }

    # -- legacy-shaped conveniences -----------------------------------------

    def tiling(
        self,
        nest: LoopNest,
        cache_words: int,
        budget: str = "per-array",
    ) -> TilingSolution:
        """A :func:`~repro.core.tiling.solve_tiling`-shaped answer.

        Returns the planner's certified vertex (identical exponent;
        possibly a different — equally optimal — vertex when the LP
        optimum is degenerate).  A cache below 2 words, which the
        planner refuses, goes to ``solve_tiling`` itself.
        """
        if cache_words < 2:
            return solve_tiling(nest, cache_words, budget=budget)
        return self.planner.plan(
            nest, cache_words, budget, include_bound=False
        ).tiling_solution()

    def lower_bound(self, nest: LoopNest, cache_words: int) -> CommunicationLowerBound:
        """Cache-aware :func:`~repro.core.bounds.communication_lower_bound`."""
        bound = self.planner.plan(nest, cache_words, include_bound=True).lower_bound
        assert bound is not None
        return bound

    def analysis(self, nest: LoopNest, cache_words: int, budget: str = "per-array"):
        """The legacy one-call :class:`repro.Analysis` bundle, cache-aware.

        Exactly what ``repro.analyze`` returns — bound, tiling and
        Theorem-3 certificate — but served from the plan cache: on a
        warm structure no rational simplex runs at all.  The bound and
        certificate need ``cache_words >= 2``; below that the planner
        raises ``ValueError``.
        """
        from .. import Analysis

        plan = self.planner.plan(nest, cache_words, budget, include_bound=True)
        return Analysis(
            nest=nest,
            cache_words=cache_words,
            lower_bound=plan.lower_bound,
            tiling=plan.tiling_solution(),
            certificate=self.planner.certificate(nest, cache_words),
        )

    # -- housekeeping -------------------------------------------------------

    @property
    def stats(self):
        return self.planner.stats


_default_lock = threading.Lock()
_default_session: Session | None = None


def default_session() -> Session:
    """The process-wide session behind the flat ``repro.*`` helpers.

    Created on first use; shared thereafter, so repeated
    ``repro.analyze`` calls on structurally identical nests are plan
    cache hits.
    """
    global _default_session
    with _default_lock:
        if _default_session is None:
            _default_session = Session()
        return _default_session


def reset_default_session() -> None:
    """Drop the process-wide session (tests; forces a cold cache)."""
    global _default_session
    with _default_lock:
        _default_session = None
