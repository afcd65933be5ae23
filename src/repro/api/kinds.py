"""The request-kind table: one row per POST kind of the service.

This is the one place that lists the kinds.  ``Session`` has one entry
point per row (named after the kind), :mod:`repro.serve` derives its
POST routes and its response-cacheable set from the rows, and
:data:`repro.api.result.KINDS` is the row kinds plus ``health`` and
``error``.  Adding a kind is one row here plus its ``Session`` runner.

Rows hold classes, not bound methods: the server looks up
``row.request.from_json`` and the ``Session`` entry point at request
time, so a wrapper installed on the class later is still the one called.
A row's request class validates itself on construction, so the request
``from_json`` returns goes to the entry point unchecked; the server, as
the layer that created the request's trace, is the one that stamps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .requests import (
    AnalyzeRequest,
    DistributedRequest,
    HierarchyRequest,
    ProgramRequest,
    SimulateRequest,
    SweepRequest,
    TuneRequest,
)

__all__ = ["RequestKind", "REQUEST_KINDS"]


@dataclass(frozen=True)
class RequestKind:
    """One POST kind: how it is named, parsed, routed and run."""

    #: The ``Session`` entry point, the HTTP route's last segment and
    #: the ``kind`` of its answer (a Result, or a list envelope).
    kind: str
    #: Whose ``from_json`` parses the HTTP body (for ``batch``: each
    #: entry of its ``requests`` list).
    request: type
    route: str
    #: The answer is one Result, so a 200 may enter the response cache;
    #: otherwise it is a ``{"count", "results"}`` list envelope.
    single: bool
    #: The server runs it with ``workers=0``: its tuning pools fan out
    #: far wider than one request should.
    serial: bool = False


REQUEST_KINDS = (
    RequestKind("analyze", AnalyzeRequest, "/v1/analyze", single=True),
    RequestKind("batch", AnalyzeRequest, "/v1/batch", single=False),
    RequestKind("sweep", SweepRequest, "/v1/sweep", single=False),
    RequestKind("simulate", SimulateRequest, "/v1/simulate", single=True),
    RequestKind("tune", TuneRequest, "/v1/tune", single=True, serial=True),
    RequestKind("hierarchy", HierarchyRequest, "/v1/hierarchy", single=True, serial=True),
    RequestKind("program", ProgramRequest, "/v1/program", single=True, serial=True),
    RequestKind("distributed", DistributedRequest, "/v1/distributed", single=True),
)
