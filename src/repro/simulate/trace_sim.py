"""Trace-driven cache simulation: the model's cost, realised.

Feeds the access stream of :mod:`repro.simulate.trace` through the
replacement policies of :mod:`repro.machine.cache` and reports per-array
traffic.  This closes the loop between the paper's abstract tile-counting
argument and an actual cache: on small instances, the LP tiling's LRU
traffic must land within a small constant of the analytic count and of
the communication lower bound (benchmark E15).

Two engines produce identical reports:

* ``engine="batched"`` (default) — streams :class:`TraceBatch` chunks
  from the vectorised generator into :class:`repro.machine.cache.BatchLRU`
  (native kernel unless it is unavailable or ``REPRO_NO_NATIVE`` is
  set); per-array attribution uses the chunk miss masks (chunks hold
  whole iteration points, so reshaping a mask to ``(points, n_arrays)``
  aligns misses with the owning array).  One to two orders of magnitude
  faster than the reference.
* ``engine="reference"`` — the original per-:class:`Access` path, kept
  as the cross-check oracle and as the "before" baseline of the
  ``bench_trace_sim`` throughput benchmark.

Belady and direct-mapped policies keep their per-access cores (Belady
needs future knowledge; direct-mapped is a negative control) but are fed
by the batched generator unless ``engine="reference"``.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..core.loopnest import LoopNest
from ..core.tiling import TileShape
from ..machine.cache import (
    BatchLRU,
    CacheStats,
    DirectMappedCache,
    FullyAssociativeLRU,
)
from ..machine.counters import ArrayTraffic, TrafficReport
from ..machine.model import MachineModel
from ..machine.native import NativeKernelError
from .trace import AddressMap, generate_trace, generate_trace_batched

__all__ = ["run_trace_simulation"]

Policy = Literal["lru", "belady", "direct"]
Engine = Literal["batched", "reference"]


def run_trace_simulation(
    nest: LoopNest,
    machine: MachineModel,
    tile: TileShape | None = None,
    order: Sequence[int] | None = None,
    policy: Policy = "lru",
    engine: Engine = "batched",
) -> TrafficReport:
    """Simulate the tiled execution's trace on a cache; count words moved.

    Traffic attribution: a miss is charged to the array owning the
    missed line (line size 1 keeps attribution exact; with longer lines
    a line never spans arrays because bases are not aligned — we simply
    attribute by the accessed array).  Write-backs are charged to the
    array that last dirtied the line, apportioned by largest remainder
    so per-array stores always conserve the aggregate.

    ``engine="batched"`` (default) uses the vectorised generator and the
    chunked LRU engine; ``engine="reference"`` replays the original
    per-access path (the two are bit-identical — the cross-check suite
    enforces it).
    """
    if policy not in ("lru", "belady", "direct"):
        raise ValueError(f"unknown policy {policy!r}")
    if engine not in ("batched", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    amap = AddressMap(nest)
    lw = machine.line_words
    n_arrays = nest.num_arrays
    loads = [0] * n_arrays
    stores = [0] * n_arrays

    if policy == "lru" and engine == "batched":
        try:
            stats, dirty_owner, miss_by_array = _lru_batched(nest, amap, machine, tile, order)
        except NativeKernelError:
            # A kernel that dies mid-stream leaves the BatchLRU state
            # suspect, so degrade by re-running the whole trace on the
            # numpy engine: bit-identical result, no mixed state.  The
            # process is already demoted, so this pays once.
            stats, dirty_owner, miss_by_array = _lru_batched(nest, amap, machine, tile, order)
        for j in range(n_arrays):
            loads[j] = int(miss_by_array[j]) * lw
        _attribute_writebacks(stats.writebacks, dirty_owner, stores, lw, nest)
    else:
        accesses = _collect_accesses(nest, amap, lw, tile, order, engine)
        if policy == "belady":
            # Belady core gives aggregate stats; attribute misses by replay:
            # the optimal schedule is deterministic, so we re-run the same
            # algorithm inline here with attribution.
            stats = _belady_attributed(accesses, machine.cache_lines, loads, stores, lw)
        else:
            cache = (
                FullyAssociativeLRU(machine.cache_lines)
                if policy == "lru"
                else DirectMappedCache(machine.cache_lines)
            )
            dirty_owner: dict[int, int] = {}
            for line, array, is_write in accesses:
                hit = cache.access(line, is_write=is_write)
                if not hit:
                    loads[array] += lw
                if is_write:
                    dirty_owner[line] = array
            cache.flush()
            # Attribute write-backs to the last writer of each line; the
            # per-line owner map makes this exact for line size 1 and a
            # sound approximation otherwise.
            _attribute_writebacks(cache.stats.writebacks, dirty_owner, stores, lw, nest)
            stats = cache.stats

    per_array = tuple(
        ArrayTraffic(name=arr.name, loads=loads[j], stores=stores[j])
        for j, arr in enumerate(nest.arrays)
    )
    return TrafficReport(
        nest_name=nest.name,
        per_array=per_array,
        source=policy,
        meta={
            "blocks": tile.blocks if tile is not None else None,
            "order": tuple(order) if order is not None else None,
            "line_words": lw,
            "cache_words": machine.cache_words,
            "engine": engine,
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "writebacks": stats.writebacks,
        },
    )


def _lru_batched(
    nest: LoopNest,
    amap: AddressMap,
    machine: MachineModel,
    tile: TileShape | None,
    order: Sequence[int] | None,
) -> tuple[CacheStats, dict[int, int], np.ndarray]:
    """Streamed batched LRU: stats, last-writer map, per-array miss counts."""
    lw = machine.line_words
    n = nest.num_arrays
    num_lines = -(-amap.total_words // lw)
    cache = BatchLRU(machine.cache_lines, num_lines)
    miss_by_array = np.zeros(n, dtype=np.int64)
    dirty_owner: dict[int, int] = {}
    out_cols = [j for j, arr in enumerate(nest.arrays) if arr.is_output]
    out_ids = np.asarray(out_cols, dtype=np.int64)
    for batch in generate_trace_batched(nest, tile=tile, order=order):
        lines = batch.addresses // lw if lw > 1 else batch.addresses
        miss = cache.process(lines, batch.is_write)
        points = len(lines) // n
        miss_by_array += miss.reshape(points, n).sum(axis=0)
        if out_cols:
            # Within a point, outputs are written in nest order, so the
            # row-major ravel below is time-ordered; the first occurrence
            # in the reversed stream is each line's last writer.
            written = lines.reshape(points, n)[:, out_cols]
            flat = written.reshape(-1)[::-1]
            writers = np.tile(out_ids, points)[::-1]
            uniq, first = np.unique(flat, return_index=True)
            dirty_owner.update(zip(uniq.tolist(), writers[first].tolist()))
    cache.flush()
    return cache.stats, dirty_owner, miss_by_array


def _collect_accesses(
    nest: LoopNest,
    amap: AddressMap,
    lw: int,
    tile: TileShape | None,
    order: Sequence[int] | None,
    engine: Engine,
) -> list[tuple[int, int, bool]]:
    """Materialise the ``(line, array, is_write)`` list for per-access cores."""
    if engine == "reference":
        return [
            (amap.address(acc) // lw, acc.array, acc.is_write)
            for acc in generate_trace(nest, tile=tile, order=order)
        ]
    accesses: list[tuple[int, int, bool]] = []
    for batch in generate_trace_batched(nest, tile=tile, order=order):
        lines = batch.addresses // lw if lw > 1 else batch.addresses
        accesses.extend(
            zip(lines.tolist(), batch.array_ids.tolist(), batch.is_write.tolist())
        )
    return accesses


def _attribute_writebacks(
    total_writebacks: int,
    dirty_owner: dict[int, int],
    stores: list[int],
    line_words: int,
    nest: LoopNest,
) -> None:
    """Spread write-back traffic across arrays by dirty-line ownership.

    Every write-back comes from a line some output array dirtied; with
    a single output (the common case) attribution is exact.  With
    several outputs we charge each owner proportionally to the dirty
    lines it owns, apportioning by largest remainder so the per-array
    integer shares always sum to the exact aggregate total.
    """
    if total_writebacks == 0 or not dirty_owner:
        return
    counts = [0] * nest.num_arrays
    for owner in dirty_owner.values():
        counts[owner] += 1
    total_count = len(dirty_owner)
    shares = [0] * nest.num_arrays
    remainders = []
    for j in range(nest.num_arrays):
        numerator = counts[j] * total_writebacks
        shares[j] = numerator // total_count
        remainders.append((-(numerator % total_count), j))
    leftover = total_writebacks - sum(shares)
    for _, j in sorted(remainders)[:leftover]:
        shares[j] += 1
    for j in range(nest.num_arrays):
        stores[j] += shares[j] * line_words


def _belady_attributed(
    accesses: list[tuple[int, int, bool]],
    capacity_lines: int,
    loads: list[int],
    stores: list[int],
    line_words: int,
) -> CacheStats:
    """Belady simulation with per-array miss/write-back attribution."""
    import heapq

    n = len(accesses)
    INF = n + 1
    next_use = [INF] * n
    last_pos: dict[int, int] = {}
    for t in range(n - 1, -1, -1):
        line = accesses[t][0]
        next_use[t] = last_pos.get(line, INF)
        last_pos[line] = t

    stats = CacheStats()
    resident: dict[int, bool] = {}
    owner: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    current_next: dict[int, int] = {}

    for t, (line, array, is_write) in enumerate(accesses):
        stats.accesses += 1
        if line in resident:
            stats.hits += 1
            resident[line] = resident[line] or is_write
        else:
            stats.misses += 1
            loads[array] += line_words
            if len(resident) >= capacity_lines:
                while True:
                    neg, victim = heapq.heappop(heap)
                    if victim in resident and current_next.get(victim) == -neg:
                        break
                if resident.pop(victim):
                    stats.writebacks += 1
                    stores[owner.get(victim, array)] += line_words
                current_next.pop(victim, None)
            resident[line] = is_write
        if is_write:
            owner[line] = array
        current_next[line] = next_use[t]
        heapq.heappush(heap, (-next_use[t], line))

    for line, dirty in resident.items():
        if dirty:
            stats.writebacks += 1
            stores[owner.get(line, 0)] += line_words
    return stats
