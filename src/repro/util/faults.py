"""Deterministic fault injection for the resilience test suite.

Production code never *needs* this module: every injection point is a
cheap membership test that short-circuits to "no faults" in the common
case.  Tests (and the CI chaos-smoke job) arm faults either

* in-process, with the :func:`inject` context manager, or
* across process boundaries, via the ``REPRO_FAULTS`` environment
  variable (a comma-separated list of fault names) — the only channel
  that reaches process-pool workers, which inherit the parent
  environment at fork/spawn time.

The catalogue is closed: arming an unknown name raises immediately, so
a typo in a test arms nothing silently.

Injection points live next to the code they perturb:

``slow-lp``
    :func:`repro.util.deadline.checkpoint` sleeps a few milliseconds per
    LP pivot, so a tiny deadline reliably expires mid-simplex.
``worker-crash``
    Process-pool workers (:mod:`repro.plan.batch`,
    :mod:`repro.tune.evaluate`) hard-exit, producing a real
    ``BrokenProcessPool`` mid-run.
``corrupt-cache-read``
    :class:`repro.util.sharedstore.SharedPlanStore` sees every shard it
    reads torn in half.
``native-kernel``
    :func:`repro.machine.native.get_kernel` reports the native LRU
    kernel as failed, exercising the numpy degradation path.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "ENV_VAR",
    "FAULTS",
    "InjectedFault",
    "active",
    "any_active",
    "inject",
]

#: Environment variable naming faults armed for this process *and* any
#: worker processes it spawns.
ENV_VAR = "REPRO_FAULTS"

#: The closed catalogue of injectable faults.
FAULTS = ("slow-lp", "worker-crash", "corrupt-cache-read", "native-kernel")

_lock = threading.Lock()
#: Faults armed in-process via :func:`inject` (multiset: nested arming
#: of the same fault stays active until the outermost scope exits).
_local: dict[str, int] = {}

# Parsing the env var on every `active()` call would put a string split
# on the LP pivot hot path; cache by raw value instead (the var rarely
# changes, and never mid-request).
_env_cache: tuple[str, frozenset[str]] = ("", frozenset())


class InjectedFault(RuntimeError):
    """Raised (or caused) by an armed injection point.

    ``point`` names the fault so error envelopes can say *which*
    injection fired.
    """

    def __init__(self, point: str):
        super().__init__(f"injected fault: {point}")
        self.point = point


def _validate(names: tuple[str, ...]) -> None:
    unknown = [n for n in names if n not in FAULTS]
    if unknown:
        raise ValueError(f"unknown fault(s) {unknown!r}; expected from {FAULTS}")


def _env_faults() -> frozenset[str]:
    global _env_cache
    raw = os.environ.get(ENV_VAR, "")
    cached_raw, cached = _env_cache
    if raw == cached_raw:
        return cached
    names = frozenset(part.strip() for part in raw.split(",") if part.strip())
    _env_cache = (raw, names)
    return names


def any_active() -> bool:
    """Fast path for hot loops: is *any* fault armed at all?"""
    return bool(_local) or bool(os.environ.get(ENV_VAR))


def active(point: str) -> bool:
    """Is fault ``point`` armed (in-process or via the environment)?"""
    if _local and _local.get(point, 0) > 0:
        return True
    if os.environ.get(ENV_VAR):
        return point in _env_faults()
    return False


@contextmanager
def inject(*points: str, env: bool = False) -> Iterator[None]:
    """Arm one or more faults for the duration of the ``with`` block.

    ``env=True`` additionally publishes the faults through
    :data:`ENV_VAR` so process-pool workers spawned inside the block
    inherit them; the previous value is restored on exit.
    """
    _validate(points)
    prior_env = os.environ.get(ENV_VAR)
    with _lock:
        for point in points:
            _local[point] = _local.get(point, 0) + 1
    if env:
        armed = set(points)
        if prior_env:
            armed |= {p.strip() for p in prior_env.split(",") if p.strip()}
        os.environ[ENV_VAR] = ",".join(sorted(armed))
    try:
        yield
    finally:
        with _lock:
            for point in points:
                count = _local.get(point, 0) - 1
                if count > 0:
                    _local[point] = count
                else:
                    _local.pop(point, None)
        if env:
            if prior_env is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = prior_env
