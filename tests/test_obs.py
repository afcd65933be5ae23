"""Tests for :mod:`repro.obs`: registry, tracing, Prometheus rendering.

The registry tests pin the worker-delta protocol (snapshot/merge is
lossless for counts, even under thread contention); the trace tests pin
the ContextVar plumbing shared with the ambient deadline; the prom
tests pin the text-exposition grammar the soak re-parses; and the docs
test executes every example in ``docs/observability.md``.
"""

import doctest
import json
import threading
from pathlib import Path

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    coerce_trace_id,
    current_trace,
    global_registry,
    merge_worker_delta,
    mint_trace_id,
    render_counters,
    render_registry,
    span,
    trace_scope,
)
from repro.obs import trace as obs_trace
from repro.util.deadline import checkpoint, deadline_scope


class TestRegistry:
    def test_counter_handles_are_cached_and_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", route="/v1/analyze")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("requests_total", route="/v1/analyze") is counter
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", route="/a", status="200")
        b = registry.counter("x_total", status="200", route="/a")
        assert a is b

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")
        with pytest.raises(TypeError):
            registry.histogram("thing")

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.set(4)
        gauge.inc()
        gauge.set(2)
        assert gauge.value == 2.0

    def test_histogram_percentiles_interpolate(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.555)
        # Rank 1.5 crosses the (0.01, 0.1] bucket half-way through it.
        assert hist.percentile(0.5) == pytest.approx(0.055)
        # Rank beyond the last bound reports the observed maximum.
        hist.observe(7.0)
        assert hist.percentile(1.0) == 7.0
        assert hist.max == 7.0
        with pytest.raises(ValueError):
            hist.percentile(0.0)

    def test_histogram_empty_and_bad_bounds(self):
        registry = MetricsRegistry()
        assert registry.histogram("empty").percentile(0.99) == 0.0
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 0.5))

    def test_snapshot_merge_is_lossless(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("solves_total").inc(2)
        parent.histogram("secs", buckets=(0.1, 1.0)).observe(0.05)
        worker.counter("solves_total").inc(3)
        for value in (0.5, 0.05, 9.0):
            worker.histogram("secs", buckets=(0.1, 1.0)).observe(value)
        # The snapshot survives the pool's JSON boundary verbatim.
        delta = json.loads(json.dumps(worker.snapshot()))
        parent.merge(delta)
        assert parent.counter("solves_total").value == 5
        merged = parent.histogram("secs", buckets=(0.1, 1.0))
        assert merged.count == 4
        assert sum(merged.bucket_counts) == 4
        assert merged.max == 9.0
        assert merged.sum == pytest.approx(0.05 + 0.5 + 0.05 + 9.0)

    def test_merge_rejects_mismatched_bounds(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("secs", buckets=(0.1, 1.0)).observe(0.5)
        worker.histogram("secs", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            parent.merge(worker.snapshot())

    def test_threaded_observations_are_not_lost(self):
        registry = MetricsRegistry()
        hist = registry.histogram("contended", buckets=DEFAULT_LATENCY_BUCKETS)
        counter = registry.counter("contended_total")
        per_thread = 1000

        def work():
            for i in range(per_thread):
                hist.observe((i % 20) / 1000.0)
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * per_thread
        assert hist.count == 8 * per_thread
        assert sum(hist.bucket_counts) == 8 * per_thread

    def test_merge_worker_delta_counts_merges(self):
        registry = global_registry()
        merges = registry.counter("repro_worker_merges_total")
        before = merges.value
        worker = MetricsRegistry()
        worker.counter("repro_worker_evaluations_total").inc()
        solves = registry.counter("repro_worker_evaluations_total")
        solved_before = solves.value
        merge_worker_delta(worker.snapshot())
        merge_worker_delta(None)  # a no-delta worker is a no-op
        merge_worker_delta({})
        assert merges.value == before + 1
        assert solves.value == solved_before + 1

    def test_summary_derives_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("c_total", route="/x").inc(2)
        registry.gauge("g").set(7)
        hist = registry.histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5):
            hist.observe(value)
        summary = registry.summary()
        assert summary["counters"] == {"c_total{route=/x}": 2.0}
        assert summary["gauges"] == {"g": 7.0}
        entry = summary["histograms"]["h"]
        assert entry["count"] == 3
        assert entry["p50"] == pytest.approx(0.055)


class TestTrace:
    def test_mint_and_coerce(self):
        tid = mint_trace_id()
        assert len(tid) == 16 and int(tid, 16) >= 0
        assert coerce_trace_id(tid) == tid
        assert coerce_trace_id("client-id_1.2") == "client-id_1.2"
        assert coerce_trace_id("") is None
        assert coerce_trace_id("bad id with spaces") is None
        assert coerce_trace_id("x" * 65) is None
        assert coerce_trace_id(123) is None
        assert coerce_trace_id(None) is None

    def test_trace_scope_installs_and_clears(self):
        assert current_trace() is None
        with trace_scope("abc123") as trace:
            assert trace is current_trace()
            assert trace.trace_id == "abc123"
        assert current_trace() is None

    def test_nested_scope_reuses_the_ambient_trace(self):
        with trace_scope() as outer:
            with trace_scope() as inner:
                assert inner is outer

    def test_spans_nest_and_attribute_stages(self):
        with trace_scope() as trace:
            with span("outer"):
                with span("inner"):
                    pass
        assert set(trace.stages) == {"outer", "inner"}
        assert [s["name"] for s in trace.spans] == ["inner", "outer"]
        assert trace.spans[0]["depth"] == 1
        assert trace.spans[1]["depth"] == 0
        timings = trace.timings_ms()
        assert sorted(timings) == ["stages", "total_ms"]
        assert sorted(timings["stages"]) == ["inner", "outer"]
        assert len(trace.span_tree_lines()) == 2

    def test_deadline_checkpoints_double_as_ticks(self):
        with deadline_scope(10_000):
            with trace_scope() as trace:
                checkpoint("lp-pivot")
                checkpoint("lp-pivot")
                checkpoint("mplp-enumeration")
        assert trace.stage_counts["lp-pivot"] == 2
        assert trace.stage_counts["mplp-enumeration"] == 1
        assert trace.stages["lp-pivot"] >= 0.0

    def test_span_is_a_noop_without_a_trace(self):
        with span("nowhere"):
            pass  # must not raise, must not allocate a trace
        assert current_trace() is None

    def test_disabled_tracing_creates_nothing(self):
        obs_trace.set_enabled(False)
        try:
            with trace_scope() as trace:
                assert trace is None
                assert current_trace() is None
        finally:
            obs_trace.set_enabled(True)

    def test_finished_scope_harvests_stage_histograms(self):
        registry = global_registry()
        with trace_scope() as trace:
            with span("harvest-me"):
                pass
        assert trace.stages["harvest-me"] >= 0.0
        hist = registry.histogram("repro_stage_seconds", stage="harvest-me")
        assert hist.count >= 1

    def test_span_list_is_bounded(self):
        with trace_scope() as trace:
            for _ in range(obs_trace._MAX_SPANS + 50):
                with span("loop"):
                    pass
        assert len(trace.spans) == obs_trace._MAX_SPANS
        # ...but the stage totals stay exact past the cap.
        assert trace.stage_counts["loop"] == obs_trace._MAX_SPANS + 50


class TestPromRendering:
    def test_registry_renders_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", route="/v1/analyze", status="200").inc(3)
        registry.gauge("inflight").set(2)
        hist = registry.histogram("secs", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = render_registry(registry)
        lines = text.splitlines()
        assert "# TYPE req_total counter" in lines
        assert 'req_total{route="/v1/analyze",status="200"} 3' in lines
        assert "# TYPE inflight gauge" in lines
        assert "inflight 2" in lines
        assert "# TYPE secs histogram" in lines
        # Cumulative buckets, then +Inf == count, then sum/count.
        assert 'secs_bucket{le="0.1"} 1' in lines
        assert 'secs_bucket{le="1"} 2' in lines
        assert 'secs_bucket{le="+Inf"} 3' in lines
        assert "secs_count 3" in lines
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", what='a"b\\c\nd').inc()
        text = render_registry(registry)
        assert 'odd_total{what="a\\"b\\\\c\\nd"} 1' in text

    def test_render_counters_from_stat_dicts(self):
        text = render_counters(
            "repro_plan_cache_events_total", "event",
            {"hits": 4, "misses": 1}, "Planner events.",
        )
        lines = text.splitlines()
        assert lines[0] == "# HELP repro_plan_cache_events_total Planner events."
        assert lines[1] == "# TYPE repro_plan_cache_events_total counter"
        assert 'repro_plan_cache_events_total{event="hits"} 4' in lines
        assert 'repro_plan_cache_events_total{event="misses"} 1' in lines

    def test_content_type_pins_the_exposition_version(self):
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"

    def test_empty_registry_renders_empty(self):
        assert render_registry(MetricsRegistry()) == ""


class TestDocsExamples:
    """The executable examples in docs/observability.md stay honest."""

    def test_docs_observability_doctests(self):
        path = Path(__file__).parent.parent / "docs" / "observability.md"
        outcome = doctest.testfile(
            str(path),
            module_relative=False,
            optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        )
        assert outcome.attempted > 0
        assert outcome.failed == 0
