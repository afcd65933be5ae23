"""``repro.api`` — the unified, versioned service façade.

One coherent entry layer over the whole reproduction: typed request
dataclasses, a :class:`Session` that owns the plan cache and machine
defaults, and a JSON-round-trippable :class:`Result` envelope tagged
with ``schema_version``.  Every consumer — the ``repro-tile`` CLI, the
HTTP service (:mod:`repro.serve`), benchmarks and examples — routes
through this package; the flat top-level helpers in :mod:`repro`
delegate to the process-wide :func:`default_session`.

Quickstart
----------
>>> from repro import api, parse_nest
>>> session = api.Session()
>>> result = session.analyze(
...     parse_nest("C[i,k] += A[i,j] * B[j,k]", bounds={"i": 64, "j": 64, "k": 8}),
...     cache_words=256,
... )
>>> result.kind, result.schema_version
('analyze', 1)
>>> result.fraction("k_hat")   # 1 + beta_k: the small-bound regime
Fraction(11, 8)
>>> api.Result.from_json(result.to_json()) == result
True
"""

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
from .session import Session, default_session, reset_default_session
from .wire import SCHEMA_VERSION, RequestError

__all__ = [
    "SCHEMA_VERSION",
    "AnalyzeRequest",
    "SimulateRequest",
    "SweepRequest",
    "TuneRequest",
    "HierarchyRequest",
    "ProgramRequest",
    "DistributedRequest",
    "RequestError",
    "Result",
    "Session",
    "default_session",
    "reset_default_session",
]
