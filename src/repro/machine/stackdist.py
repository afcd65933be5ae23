"""Exact LRU stack distances for whole traces, computed in bulk.

The *stack distance* (reuse distance) of an access is the number of
distinct **other** lines touched since the previous access to the same
line — infinite for a first (cold) access.  The classic inclusion
property of LRU makes it the master quantity of cache simulation:

* the access **hits** a fully-associative LRU cache of capacity ``C``
  iff its stack distance is ``< C``, so a histogram of distances yields
  the exact miss count **for every capacity at once**;
* a dirty line writes back once per residency interval that contains a
  write, and residency intervals at capacity ``C`` are exactly the
  maximal runs of same-line accesses whose internal distances are all
  ``< C`` — so the per-write running maximum of distances since the
  previous write (:func:`write_interval_maxima`) yields the exact
  write-back count for every capacity as well.

Two implementations of the distance computation:

* a native Fenwick-tree kernel (Olken's algorithm, O(n log n) with tiny
  constants) via :mod:`repro.machine.native`;
* a pure-numpy fallback that reduces the distinct-count-in-window
  problem to offline 2D dominance counting and solves it with a
  merge-sort tree: the prefix ``[0, L)`` decomposes into one aligned
  power-of-two block per set bit of ``L``, and within a level all
  per-block binary searches collapse into a single global
  ``searchsorted`` by offsetting each sorted block by ``block_index *
  K``.  Also exact, O(n log^2 n) vectorised.

Cold accesses are reported with the sentinel distance ``n + 1`` (larger
than any finite distance, and than any capacity once clamped by the
caller), which keeps all downstream counting branch-free.
"""

from __future__ import annotations

import numpy as np

from ..util import faults
from .native import NativeKernelError, get_kernel, mark_unavailable

__all__ = ["previous_occurrences", "stack_distances", "write_interval_maxima"]


def previous_occurrences(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(prev, order)``: per-access previous same-line position (-1 if cold).

    ``order`` is the stable line-grouped permutation (by line, then time)
    that callers reuse for other segmented passes over the trace.
    """
    n = len(lines)
    order = np.argsort(lines, kind="stable")
    grouped = lines[order]
    same = np.zeros(n, dtype=bool)  # same[i]: order[i] continues order[i-1]'s line
    if n > 1:
        np.equal(grouped[1:], grouped[:-1], out=same[1:])
    prev = np.full(n, -1, dtype=np.int64)
    cont = same[1:]
    prev[order[1:][cont]] = order[:-1][cont]
    return prev, order


def _distances_native(prev: np.ndarray, kernel) -> np.ndarray:
    import ctypes

    n = len(prev)
    prev = np.ascontiguousarray(prev, dtype=np.int64)
    bit = np.zeros(n + 1, dtype=np.int32)
    dist = np.empty(n, dtype=np.int64)
    i64p = ctypes.POINTER(ctypes.c_int64)
    i32p = ctypes.POINTER(ctypes.c_int32)
    try:
        if faults.active("native-kernel"):
            raise faults.InjectedFault("native-kernel")
        kernel.reuse_distances(
            prev.ctypes.data_as(i64p),
            ctypes.c_int64(n),
            bit.ctypes.data_as(i32p),
            dist.ctypes.data_as(i64p),
        )
    except (OSError, AttributeError, ctypes.ArgumentError, faults.InjectedFault) as exc:
        mark_unavailable(f"runtime kernel failure: {exc}")
        raise NativeKernelError(str(exc)) from exc
    return dist


def _count_less_in_prefix(
    values: np.ndarray, prefix_lens: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """``res[q] = #{ i < prefix_lens[q] : values[i] < thresholds[q] }``.

    Vectorised merge-sort tree (see module docstring).  ``values`` and
    ``thresholds`` must be nonnegative.
    """
    n = len(values)
    res = np.zeros(len(prefix_lens), dtype=np.int64)
    if n == 0 or len(prefix_lens) == 0:
        return res
    vals = values.astype(np.int64, copy=False)
    key_gap = np.int64(max(int(vals.max()), int(thresholds.max())) + 2)
    for j in range(int(n).bit_length()):
        bsize = 1 << j
        use = (prefix_lens & bsize) != 0
        nfull = (n >> j) << j
        if nfull == 0 or not np.any(use):
            continue
        blocks = np.sort(vals[:nfull].reshape(-1, bsize), axis=1)
        offsets = np.arange(nfull >> j, dtype=np.int64)[:, None] * key_gap
        keys = (blocks + offsets).ravel()
        # the bit-j block of prefix [0, L) starts at L with bits <= j cleared
        start = (prefix_lens[use] >> (j + 1)) << (j + 1)
        bidx = (start >> j).astype(np.int64)
        pos = np.searchsorted(keys, bidx * key_gap + thresholds[use], side="left")
        res[use] += pos - bidx * bsize
    return res


def _distances_numpy(prev: np.ndarray, order: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Merge-sort-tree fallback, exact but ~an order slower than native.

    Identity used (``nxt`` = next same-line position, ``n+1`` if none)::

        dist(t) = #{t' in (prev_t, t) : nxt[t'] >= t}
                = [t - #{nxt < t}] - (prev_t + 1) + #{i <= prev_t : nxt[i] < t}

    The first bracket needs one sorted ``searchsorted`` (``nxt[t'] < t``
    already implies ``t' < t``); the last term is a prefix-threshold
    count handled by :func:`_count_less_in_prefix`.
    """
    n = len(prev)
    INF = np.int64(n + 1)
    nxt = np.full(n, INF, dtype=np.int64)
    grouped_same = prev[order[1:]] == order[:-1]
    nxt[order[:-1][grouped_same]] = order[1:][grouped_same]

    t = np.arange(n, dtype=np.int64)
    dist = np.full(n, INF, dtype=np.int64)
    warm = prev >= 0
    f = t - np.searchsorted(np.sort(nxt), t, side="left")
    g = _count_less_in_prefix(nxt, (prev[warm] + 1).astype(np.int64), t[warm])
    dist[warm] = f[warm] - (prev[warm] + 1) + g
    return dist


def stack_distances(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact LRU stack distance of every access of a line trace.

    Returns ``(dist, order)``: ``dist[t]`` is the number of distinct other
    lines since the previous access to ``lines[t]`` (``n + 1`` for cold
    accesses), ``order`` the stable line-grouped permutation for reuse in
    segmented passes.  The native kernel runs when available; set
    ``REPRO_NO_NATIVE`` to force the numpy path (tests pin both).
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = len(lines)
    prev, order = previous_occurrences(lines)
    if n == 0:
        return np.empty(0, dtype=np.int64), order
    kernel = get_kernel()
    if kernel is not None:
        try:
            dist = _distances_native(prev, kernel)
        except NativeKernelError:
            # The distance pass is stateless, so the degradation retry
            # happens right here: same inputs, numpy path, same answer.
            return _distances_numpy(prev, order, lines), order
        dist[dist < 0] = n + 1  # cold sentinel
        return dist, order
    return _distances_numpy(prev, order, lines), order


def write_interval_maxima(
    dist: np.ndarray, writes: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Per write access, the max stack distance since the previous write.

    Grouped by line; the running maximum resets after every write (the
    maximum covers the half-open access interval ``(previous write,
    this write]``, cold sentinel included).  A write causes a write-back
    at capacity ``C`` iff its maximum is ``>= C``: it is then the first
    write of its residency interval, which ends dirty — once — whether by
    eviction or by the end-of-run flush.
    """
    n = len(dist)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    dist_g = dist[order]
    writes_g = writes[order]
    # order is grouped by line with each group led by its cold access, so
    # group heads are exactly the cold-sentinel positions; a segment starts
    # at a group head or directly after a write within the group.
    head = dist_g == np.int64(n + 1)
    seg_start = head.copy()
    if n > 1:
        seg_start[1:] |= writes_g[:-1] & ~head[1:]
    seg_id = np.cumsum(seg_start) - 1
    big = np.int64(n + 3)
    running = np.maximum.accumulate(dist_g + seg_id * big) - seg_id * big
    return running[writes_g]
