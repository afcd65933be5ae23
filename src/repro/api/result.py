"""The versioned response envelope every façade entry point returns.

A :class:`Result` is the one shape consumers see — from
:meth:`repro.api.Session.analyze`, from ``Session.batch``/``sweep``,
and on the wire from ``repro-tile serve``::

    {
      "schema_version": 1,
      "kind": "analyze",
      "payload": { ... JSON-safe, Fractions as "p/q" strings ... },
      "meta": { "elapsed_ms": 0.21, "cache_hit": true }
    }

``payload`` and ``meta`` are plain JSON types, so
``Result.from_json(r.to_json()) == r`` holds exactly — including every
Fraction, which travels as an exact ``"p/q"`` string.  The constructor
normalises them (:func:`~repro.api.wire.json_safe`); the
:class:`~repro.api.Session` payload builders already emit lists and
``"p/q"`` strings and pass ``normalise=False`` to skip that walk.
The in-process rich object behind a result (a
:class:`~repro.plan.TilePlan`, a traffic report, ...) rides along on
``detail``; it is excluded from serialization and equality.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .kinds import REQUEST_KINDS
from .wire import SCHEMA_VERSION, RequestError, json_safe, parse_fraction

__all__ = ["Result", "SCHEMA_VERSION"]

#: The envelope kinds schema v1 defines: one per request kind, plus
#: the health probe and the error envelope.
KINDS = tuple(row.kind for row in REQUEST_KINDS) + ("health", "error")


@dataclass(frozen=True)
class Result:
    """Versioned, JSON-round-trippable service response."""

    kind: str
    payload: dict
    meta: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    #: The rich in-process object (TilePlan, TrafficReport, ...); not
    #: serialized, not compared, absent after a JSON round trip.
    detail: Any = field(default=None, compare=False, repr=False)
    #: False when ``payload`` and ``meta`` are already plain JSON types
    #: (lists, ``"p/q"`` strings, scalars): skips the normalising walk.
    normalise: InitVar[bool] = True

    def __post_init__(self, normalise: bool) -> None:
        if self.kind not in KINDS:
            raise RequestError(f"unknown result kind {self.kind!r}; expected one of {KINDS}")
        if normalise:
            object.__setattr__(self, "payload", json_safe(self.payload, "payload"))
            object.__setattr__(self, "meta", json_safe(self.meta, "meta"))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """The wire envelope (already JSON-safe)."""
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "payload": self.payload,
            "meta": self.meta,
        }

    def to_json_str(self, **kwargs) -> str:
        return json.dumps(self.to_json(), **kwargs)

    @classmethod
    def from_json(cls, blob: dict | str) -> "Result":
        """Exact inverse of :meth:`to_json`; validates the version tag."""
        if isinstance(blob, (str, bytes)):
            try:
                blob = json.loads(blob)
            except json.JSONDecodeError as exc:
                raise RequestError(f"result envelope is not valid JSON: {exc}") from exc
        if not isinstance(blob, Mapping):
            raise RequestError("result envelope must be a JSON object")
        version = blob.get("schema_version")
        if version != SCHEMA_VERSION:
            raise RequestError(
                f"unsupported schema_version {version!r} (this build speaks {SCHEMA_VERSION})"
            )
        payload = blob.get("payload")
        meta = blob.get("meta", {})
        if not isinstance(payload, Mapping) or not isinstance(meta, Mapping):
            raise RequestError("'payload' and 'meta' must be objects")
        return cls(
            kind=str(blob.get("kind", "")),
            payload=dict(payload),
            meta=dict(meta),
            schema_version=SCHEMA_VERSION,
        )

    # -- typed accessors ----------------------------------------------------

    def fraction(self, key: str) -> Fraction:
        """Exact Fraction stored under ``payload[key]`` as ``"p/q"``."""
        return parse_fraction(self.payload[key], key)

    @property
    def cache_hit(self) -> bool | None:
        hit = self.meta.get("cache_hit")
        return None if hit is None else bool(hit)

    @property
    def elapsed_ms(self) -> float | None:
        ms = self.meta.get("elapsed_ms")
        return None if ms is None else float(ms)

    @property
    def trace_id(self) -> str | None:
        """The request's trace id (16 hex chars unless caller-supplied)."""
        tid = self.meta.get("trace_id")
        return None if tid is None else str(tid)

    @property
    def timings(self) -> dict | None:
        """``{"total_ms": float, "stages": {stage: ms}}`` when traced."""
        timings = self.meta.get("timings")
        return None if timings is None else dict(timings)

    @property
    def ok(self) -> bool:
        return self.kind != "error"

    @classmethod
    def error(cls, message: str, status: int = 400, detail: dict | None = None) -> "Result":
        """The structured error envelope (4xx payloads, CLI failures)."""
        payload: dict = {"error": message, "status": int(status)}
        if detail:
            payload["detail"] = detail
        return cls(kind="error", payload=payload)
