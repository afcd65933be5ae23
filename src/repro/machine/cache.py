"""Cache replacement policies for the trace-driven validator.

Per-access policies:

* :class:`FullyAssociativeLRU` — the standard online policy; the
  Hong–Kung bounds hold for *any* policy, and LRU within a factor of 2
  (capacity) of optimal, so LP tilings should land within a small
  constant of the lower bound under LRU.
* :class:`DirectMappedCache` — a deliberately weak policy to show the
  *gap* a bad cache introduces (conflict misses the model ignores).
* :func:`simulate_belady` — the offline optimal (furthest-next-use)
  policy: the tightest realisable traffic for a fixed access order,
  bounding from below what any hardware could do with that schedule.

Batched engines (the fast path of the trace-driven validator):

* :class:`BatchLRU` — streaming LRU over numpy line chunks, bit-identical
  to :class:`FullyAssociativeLRU` + flush but one to two orders of
  magnitude faster (native kernel when available, tight Python loop
  otherwise or when ``REPRO_NO_NATIVE`` is set); reports a per-chunk
  miss mask so callers can attribute traffic per array without touching
  individual accesses.
* :func:`miss_curve` — the stack-distance simulator: one pass over the
  trace yields exact hit/miss/write-back counts for **every** cache
  capacity simultaneously (:class:`MissCurve`), because an access hits a
  capacity-``C`` LRU iff its stack distance is below ``C`` and a write
  triggers one write-back iff the max distance since the previous write
  reaches ``C`` (see :mod:`repro.machine.stackdist`).

All policies work on line addresses; write-backs of dirty lines are
counted separately so reports can separate read and write traffic.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stackdist import stack_distances, write_interval_maxima

__all__ = [
    "CacheStats",
    "FullyAssociativeLRU",
    "DirectMappedCache",
    "simulate_belady",
    "BatchLRU",
    "MissCurve",
    "miss_curve",
]


@dataclass
class CacheStats:
    """Aggregate counters for one simulation run."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class FullyAssociativeLRU:
    """Fully-associative LRU cache over line addresses.

    ``capacity_lines`` whole lines; ``access`` returns True on hit.
    Dirty lines write back on eviction (write-allocate, write-back).
    """

    def __init__(self, capacity_lines: int):
        if capacity_lines < 1:
            raise ValueError("capacity_lines must be >= 1")
        self.capacity = capacity_lines
        self._lines: OrderedDict[int, bool] = OrderedDict()  # line -> dirty
        self.stats = CacheStats()

    def access(self, line: int, is_write: bool = False) -> bool:
        self.stats.accesses += 1
        if line in self._lines:
            self.stats.hits += 1
            self._lines.move_to_end(line)
            if is_write:
                self._lines[line] = True
            return True
        self.stats.misses += 1
        if len(self._lines) >= self.capacity:
            _, dirty = self._lines.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
        self._lines[line] = is_write
        return False

    def flush(self) -> None:
        """Write back all dirty lines (end-of-run accounting)."""
        for _, dirty in self._lines.items():
            if dirty:
                self.stats.writebacks += 1
        self._lines.clear()

    @property
    def resident_lines(self) -> int:
        return len(self._lines)


class DirectMappedCache:
    """Direct-mapped cache: line maps to set ``line % num_sets``.

    Included as a *negative control*: the paper's model assumes an
    ideal fully-associative cache; direct mapping adds conflict misses
    that inflate traffic above the analytic prediction.
    """

    def __init__(self, num_sets: int):
        if num_sets < 1:
            raise ValueError("num_sets must be >= 1")
        self.num_sets = num_sets
        self._sets: dict[int, tuple[int, bool]] = {}  # set -> (line, dirty)
        self.stats = CacheStats()

    def access(self, line: int, is_write: bool = False) -> bool:
        self.stats.accesses += 1
        idx = line % self.num_sets
        occupant = self._sets.get(idx)
        if occupant is not None and occupant[0] == line:
            self.stats.hits += 1
            self._sets[idx] = (line, occupant[1] or is_write)
            return True
        self.stats.misses += 1
        if occupant is not None and occupant[1]:
            self.stats.writebacks += 1
        self._sets[idx] = (line, is_write)
        return False

    def flush(self) -> None:
        for _, (_, dirty) in self._sets.items():
            if dirty:
                self.stats.writebacks += 1
        self._sets.clear()


def simulate_belady(
    trace: Sequence[tuple[int, bool]], capacity_lines: int
) -> CacheStats:
    """Offline-optimal (Belady/MIN) simulation of a full line trace.

    ``trace`` is a sequence of ``(line, is_write)``.  Evicts the
    resident line whose next use is furthest in the future (never-used
    lines first), via a lazily-invalidated max-heap.  Returns the run's
    :class:`CacheStats` (with end-of-run dirty flushes included).
    """
    if capacity_lines < 1:
        raise ValueError("capacity_lines must be >= 1")
    n = len(trace)
    INF = n + 1
    # next_use[t] = next position after t accessing the same line.
    next_use = [INF] * n
    last_pos: dict[int, int] = {}
    for t in range(n - 1, -1, -1):
        line = trace[t][0]
        next_use[t] = last_pos.get(line, INF)
        last_pos[line] = t

    stats = CacheStats()
    resident: dict[int, bool] = {}  # line -> dirty
    heap: list[tuple[int, int]] = []  # (-next_use, line), lazily invalidated
    current_next: dict[int, int] = {}

    for t, (line, is_write) in enumerate(trace):
        stats.accesses += 1
        nxt = next_use[t]
        if line in resident:
            stats.hits += 1
            resident[line] = resident[line] or is_write
        else:
            stats.misses += 1
            if len(resident) >= capacity_lines:
                while True:
                    neg, victim = heapq.heappop(heap)
                    if victim in resident and current_next.get(victim) == -neg:
                        break
                dirty = resident.pop(victim)
                current_next.pop(victim, None)
                if dirty:
                    stats.writebacks += 1
            resident[line] = is_write
        current_next[line] = nxt
        heapq.heappush(heap, (-nxt, line))

    for dirty in resident.values():
        if dirty:
            stats.writebacks += 1
    return stats


# ---------------------------------------------------------------------------
# batched engines
# ---------------------------------------------------------------------------


class BatchLRU:
    """Streaming fully-associative LRU over numpy line chunks.

    Produces exactly the accounting of :class:`FullyAssociativeLRU`
    followed by :meth:`FullyAssociativeLRU.flush`, but consumes whole
    chunks of ``(lines, writes)`` arrays and returns the per-access miss
    mask of each chunk.  Lines must be dense nonnegative ids below
    ``num_lines`` (true for :class:`repro.simulate.trace.AddressMap`
    addresses), which lets the native kernel use a direct-indexed
    residency table.  Falls back to a tight ``OrderedDict`` loop when
    the native kernel is unavailable or ``REPRO_NO_NATIVE`` is set.
    """

    def __init__(self, capacity_lines: int, num_lines: int):
        if capacity_lines < 1:
            raise ValueError("capacity_lines must be >= 1")
        if num_lines < 1:
            raise ValueError("num_lines must be >= 1")
        self.capacity = capacity_lines
        self.num_lines = num_lines
        self.stats = CacheStats()
        from .native import get_kernel

        self._kernel = get_kernel()
        if self._kernel is not None:
            self._state = np.zeros(6, dtype=np.int64)
            self._state[1] = self._state[2] = -1
            self._slot = np.full(num_lines, -1, dtype=np.int64)
            # fill never exceeds the distinct-line count, so an oversized
            # cache (capacity >> address space) needs only num_lines nodes
            nodes = min(capacity_lines, num_lines)
            self._node_line = np.zeros(nodes, dtype=np.int64)
            self._node_prev = np.zeros(nodes, dtype=np.int64)
            self._node_next = np.zeros(nodes, dtype=np.int64)
            self._node_dirty = np.zeros(nodes, dtype=np.uint8)
        else:
            self._lines: OrderedDict[int, bool] = OrderedDict()

    def process(self, lines: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Feed one chunk; return its boolean miss mask."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.uint8)
        n = len(lines)
        if len(writes) != n:
            raise ValueError("lines and writes must have equal length")
        self.stats.accesses += n
        if self._kernel is not None:
            return self._process_native(lines, writes, n)
        return self._process_python(lines, writes, n)

    def _process_native(self, lines: np.ndarray, writes: np.ndarray, n: int) -> np.ndarray:
        import ctypes

        from ..util import faults
        from .native import NativeKernelError, mark_unavailable

        i64p = ctypes.POINTER(ctypes.c_int64)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        miss = np.empty(n, dtype=np.uint8)
        try:
            if faults.active("native-kernel"):
                raise faults.InjectedFault("native-kernel")
            self._kernel.lru_process(
                self._state.ctypes.data_as(i64p),
                # A cache past the address space never evicts, so capping
                # it there keeps capacities beyond int64 exact.
                ctypes.c_int64(min(self.capacity, self.num_lines)),
                self._slot.ctypes.data_as(i64p),
                self._node_line.ctypes.data_as(i64p),
                self._node_prev.ctypes.data_as(i64p),
                self._node_next.ctypes.data_as(i64p),
                self._node_dirty.ctypes.data_as(u8p),
                lines.ctypes.data_as(i64p),
                writes.ctypes.data_as(u8p),
                ctypes.c_int64(n),
                miss.ctypes.data_as(u8p),
            )
        except (OSError, AttributeError, ctypes.ArgumentError, faults.InjectedFault) as exc:
            # Mid-stream failure: this instance's LRU state is suspect, so
            # demote the process and let a computation-level entry point
            # (nest_miss_curve, run_trace_simulation) redo the whole run
            # on the numpy path — partial state is never mixed.
            mark_unavailable(f"runtime kernel failure: {exc}")
            raise NativeKernelError(str(exc)) from exc
        self._sync_native_stats()
        return miss.view(bool)

    def _sync_native_stats(self) -> None:
        self.stats.hits = int(self._state[3])
        self.stats.misses = int(self._state[4])
        self.stats.writebacks = int(self._state[5])

    def _process_python(self, lines: np.ndarray, writes: np.ndarray, n: int) -> np.ndarray:
        cache = self._lines
        capacity = self.capacity
        move = cache.move_to_end
        popitem = cache.popitem
        hits = misses = writebacks = 0
        out: list[bool] = []
        record = out.append
        for line, w in zip(lines.tolist(), writes.tolist()):
            if line in cache:
                hits += 1
                move(line)
                if w:
                    cache[line] = True
                record(False)
            else:
                misses += 1
                if len(cache) >= capacity:
                    _, dirty = popitem(last=False)
                    if dirty:
                        writebacks += 1
                cache[line] = bool(w)
                record(True)
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.writebacks += writebacks
        return np.array(out, dtype=bool)

    def flush(self) -> None:
        """Write back all dirty lines (end-of-run accounting)."""
        if self._kernel is not None:
            import ctypes

            i64p = ctypes.POINTER(ctypes.c_int64)
            u8p = ctypes.POINTER(ctypes.c_uint8)
            self._kernel.lru_flush(
                self._state.ctypes.data_as(i64p),
                self._slot.ctypes.data_as(i64p),
                self._node_line.ctypes.data_as(i64p),
                self._node_dirty.ctypes.data_as(u8p),
            )
            self._sync_native_stats()
            return
        for dirty in self._lines.values():
            if dirty:
                self.stats.writebacks += 1
        self._lines.clear()


@dataclass(frozen=True)
class MissCurve:
    """Exact LRU statistics for *every* cache capacity, from one pass.

    Built by :func:`miss_curve`.  Internally two sorted arrays: the
    finite stack distances (misses at capacity ``C`` are the cold misses
    plus the distances ``>= C``) and the per-write interval maxima
    (write-backs at ``C`` are the maxima ``>= C``).  Point queries are
    O(log n); :meth:`sweep` vectorises a whole capacity range.
    """

    accesses: int
    distinct_lines: int
    cold_misses: int
    finite_distances: np.ndarray  # sorted ascending
    write_maxima: np.ndarray  # sorted ascending, cold sentinel included

    def _clamp(self, capacity: int) -> int:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        # the cold sentinel accesses+1 exceeds every finite distance, so
        # clamping capacities there keeps oversized caches exact
        return min(int(capacity), self.accesses + 1)

    def misses_at(self, capacity: int) -> int:
        c = self._clamp(capacity)
        fd = self.finite_distances
        return self.cold_misses + len(fd) - int(np.searchsorted(fd, c, side="left"))

    def hits_at(self, capacity: int) -> int:
        return self.accesses - self.misses_at(capacity)

    def writebacks_at(self, capacity: int) -> int:
        c = self._clamp(capacity)
        wm = self.write_maxima
        return len(wm) - int(np.searchsorted(wm, c, side="left"))

    def stats_at(self, capacity: int) -> CacheStats:
        misses = self.misses_at(capacity)
        return CacheStats(
            accesses=self.accesses,
            hits=self.accesses - misses,
            misses=misses,
            writebacks=self.writebacks_at(capacity),
        )

    def sweep(
        self, capacities: Sequence[int] | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(capacities, misses, writebacks)`` over a capacity range.

        Default range ``1 .. distinct_lines + 1`` covers the whole curve:
        beyond it every warm access hits and only cold misses remain.
        """
        if capacities is None:
            caps = np.arange(1, self.distinct_lines + 2, dtype=np.int64)
        else:
            caps = np.asarray(capacities, dtype=np.int64)
            if len(caps) and caps.min() < 1:
                raise ValueError("capacities must be >= 1")
        clamped = np.minimum(caps, self.accesses + 1)
        fd = self.finite_distances
        wm = self.write_maxima
        misses = self.cold_misses + len(fd) - np.searchsorted(fd, clamped, side="left")
        writebacks = len(wm) - np.searchsorted(wm, clamped, side="left")
        return caps, misses.astype(np.int64), writebacks.astype(np.int64)


def miss_curve(
    trace: "Sequence[tuple[int, bool]] | np.ndarray",
    writes: "np.ndarray | Sequence[bool] | None" = None,
) -> MissCurve:
    """Stack-distance LRU simulation of a full trace, all capacities at once.

    ``trace`` is either a sequence of ``(line, is_write)`` pairs (the
    :func:`simulate_belady` convention) or a line array accompanied by a
    boolean ``writes`` array.  One O(n log n) pass replaces one LRU
    simulation *per capacity*; the result answers hit/miss/write-back
    queries for any capacity, bit-identical to
    :class:`FullyAssociativeLRU` + flush.
    """
    if writes is None:
        pairs = list(trace)
        lines = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        writes_arr = np.fromiter(
            (bool(p[1]) for p in pairs), dtype=bool, count=len(pairs)
        )
    else:
        lines = np.ascontiguousarray(trace, dtype=np.int64)
        writes_arr = np.asarray(writes, dtype=bool)
    if len(lines) != len(writes_arr):
        raise ValueError("trace lines and writes must have equal length")
    n = len(lines)
    if n == 0:
        return MissCurve(
            accesses=0,
            distinct_lines=0,
            cold_misses=0,
            finite_distances=np.empty(0, dtype=np.int64),
            write_maxima=np.empty(0, dtype=np.int64),
        )
    dist, order = stack_distances(lines)
    cold = dist == n + 1
    wmax = write_interval_maxima(dist, writes_arr, order)
    return MissCurve(
        accesses=n,
        distinct_lines=int(cold.sum()),
        cold_misses=int(cold.sum()),
        finite_distances=np.sort(dist[~cold]),
        write_maxima=np.sort(wmax),
    )
