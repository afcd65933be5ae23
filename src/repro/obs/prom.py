"""Prometheus text-exposition rendering (format version 0.0.4), by hand.

The repo's stdlib-only rule applies to observability too: this renders
a :class:`~repro.obs.metrics.MetricsRegistry` — plus the planner's own
stat dict — into the plain-text format
every Prometheus-compatible scraper speaks.  Histograms emit cumulative
``_bucket{le=...}`` series (so p50/p95/p99 are derivable server-side via
``histogram_quantile``), ``_sum`` and ``_count``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["CONTENT_TYPE", "render_counters", "render_registry"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _labels(pairs: Iterable[tuple[str, str]]) -> str:
    rendered = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return "{" + rendered + "}" if rendered else ""


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_registry(registry: MetricsRegistry) -> str:
    """The full registry as exposition text (trailing newline included)."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for metric in registry:
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{metric.name}{_labels(metric.labels)} {_number(metric.value)}")
        elif isinstance(metric, Histogram):
            cumulative = 0
            for index, bound in enumerate(metric.bounds):
                cumulative += metric.bucket_counts[index]
                pairs = (*metric.labels, ("le", _number(bound)))
                lines.append(f"{metric.name}_bucket{_labels(pairs)} {cumulative}")
            pairs = (*metric.labels, ("le", "+Inf"))
            lines.append(f"{metric.name}_bucket{_labels(pairs)} {metric.count}")
            lines.append(
                f"{metric.name}_sum{_labels(metric.labels)} {_number(metric.sum)}")
            lines.append(
                f"{metric.name}_count{_labels(metric.labels)} {metric.count}")
    return "\n".join(lines) + "\n" if lines else ""


def render_counters(name: str, label: str, values: Mapping[str, float],
                    help_text: str = "") -> str:
    """One counter family from a plain ``{label_value: count}`` stats dict.

    For the planner's ``PlannerStats``: a per-instance stat object with
    one source, rendered here without copying it into a registry.
    """
    lines = []
    if help_text:
        lines.append(f"# HELP {name} {_escape(help_text)}")
    lines.append(f"# TYPE {name} counter")
    for key in sorted(values):
        lines.append(f"{name}{_labels(((label, key),))} {_number(float(values[key]))}")
    return "\n".join(lines) + "\n"
