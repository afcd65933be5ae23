"""Sharded plan store: the planner's one persistence format.

Section 7 of the paper makes a nest's tile exponent the lower envelope
of finitely many affine pieces, computed once per canonical structure.
That piece list is the only solver output worth keeping on disk, and
:class:`SharedPlanStore` keeps it in a directory of **shards**, each a
small JSON file owning a stable subset of canonical keys
(``sha256(key) mod shards``).  One directory serves a single CLI run
checkpointing its solves (``--plan-cache DIR``) and a fleet of server
processes warming each other alike:

* writers merge-and-replace only the one shard their key hashes to,
  under an ``fcntl`` file lock, landing it with ``mkstemp`` +
  ``os.replace`` — concurrent solvers never lose each other's entries
  and a crash mid-write never leaves a torn shard behind;
* each solve is written as it completes, so a killed run keeps every
  structure it already solved;
* readers stat-cache each shard by ``(mtime_ns, size)`` and re-parse
  only shards that actually changed, so probing a warm store costs a
  ``stat()`` and a dict lookup, not JSON decoding;
* every shard carries the schema ``version`` and a content
  ``checksum``: a version bump, torn or non-UTF-8 bytes, or a malformed
  entry **invalidates** the shard — it reads as empty (with one logged
  warning naming the shard and the reason), and the next writer
  rebuilds it, so a new piece format can never poison a running fleet.

The store is deliberately dumb about values: it maps a canonical
structure key to its mpLP piece list (the planner's own JSON piece
encoding) and keeps counters; interpretation stays in
:mod:`repro.plan.planner`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
import threading
from pathlib import Path

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from ..obs.trace import span as _span
from . import faults

__all__ = ["SharedPlanStore", "STORE_SCHEMA_VERSION"]

#: Schema of the persisted piece encoding: bump it when that changes.
STORE_SCHEMA_VERSION = 1

_log = logging.getLogger(__name__)


def _checksum(entries: dict) -> str:
    """Content hash of a shard's entry map (canonical JSON, sha256)."""
    canon = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class SharedPlanStore:
    """A directory of versioned, lock-guarded JSON shards.

    Parameters
    ----------
    root:
        Directory holding the shards (created if missing).
    shards:
        Number of shard files; keys spread by ``sha256(key) % shards``.
    version:
        Schema version stamped into (and required of) every shard.
        Entries written under any other version are discarded on read
        and overwritten on the next put — versioned invalidation.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        shards: int = 8,
        version: int = STORE_SCHEMA_VERSION,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = int(shards)
        self.version = int(version)
        self._lock = threading.Lock()
        #: shard index -> ((mtime_ns, size), parsed entries)
        self._read_cache: dict[int, tuple[tuple[int, int], dict]] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.put_failures = 0
        self.invalidated = 0

    # -- layout -------------------------------------------------------------

    def _shard_index(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return int(digest[:8], 16) % self.shards

    def _shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:03d}.json"

    def _lock_path(self, index: int) -> Path:
        return self.root / f"shard-{index:03d}.lock"

    @contextlib.contextmanager
    def _shard_lock(self, index: int):
        """Exclusive cross-process lock for one shard's writers."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self._lock_path(index), "a+") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- reading ------------------------------------------------------------

    def _parse_shard(self, data: bytes) -> tuple[dict | None, str]:
        """``(entries, "")``, or ``(None, reason)`` for an untrustworthy shard."""
        try:
            blob = json.loads(data)
        except ValueError as exc:  # torn JSON or non-UTF-8 bytes
            return None, f"unreadable: {exc}"
        if not isinstance(blob, dict) or not isinstance(blob.get("entries"), dict):
            return None, "not a shard object"
        if blob.get("version") != self.version:
            return None, f"schema version {blob.get('version')!r}, expected {self.version}"
        entries = blob["entries"]
        if not all(
            isinstance(entry, dict) and isinstance(entry.get("pieces"), list)
            for entry in entries.values()
        ):
            return None, "malformed entry"
        checksum = blob.get("checksum")
        if checksum is not None and checksum != _checksum(entries):
            return None, "checksum mismatch"
        return entries, ""

    def _read_shard(self, path: Path) -> dict | None:
        """Entries of one shard file, or None when it is invalidated.

        Raises :class:`OSError` when the file cannot be read at all.
        """
        data = path.read_bytes()
        if faults.active("corrupt-cache-read"):
            # Simulate a torn read: keep half the bytes.
            data = data[: len(data) // 2]
        entries, reason = self._parse_shard(data)
        if entries is None:
            with self._lock:
                self.invalidated += 1
            _log.warning(
                "plan store shard %s invalidated (%s); it reads as empty "
                "and the next write rebuilds it", path, reason,
            )
        return entries

    def _shard_entries(self, index: int) -> dict:
        """Current entries of one shard (stat-cached; invalid reads as empty)."""
        path = self._shard_path(index)
        try:
            stat = path.stat()
        except OSError:
            with self._lock:
                self._read_cache.pop(index, None)
            return {}
        stamp = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            cached = self._read_cache.get(index)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        try:
            entries = self._read_shard(path) or {}
        except OSError:
            return {}
        with self._lock:
            self._read_cache[index] = (stamp, entries)
        return entries

    def get(self, key: str) -> list[dict] | None:
        """The stored piece list for ``key``, or None (counts hit/miss)."""
        with _span("shared-store-read"):
            entry = self._shard_entries(self._shard_index(key)).get(key)
            with self._lock:
                if entry is None:
                    self.misses += 1
                else:
                    self.hits += 1
            return None if entry is None else entry["pieces"]

    def keys(self) -> list[str]:
        """All keys currently stored, across every shard."""
        out: list[str] = []
        for index in range(self.shards):
            out.extend(self._shard_entries(index))
        return out

    def __len__(self) -> int:
        return len(self.keys())

    # -- writing ------------------------------------------------------------

    def put(self, key: str, pieces: list[dict]) -> bool:
        """Merge one entry into its shard; best-effort (False on I/O error).

        Read-merge-write under the shard's file lock: concurrent putters
        serialize, each landing an internally-consistent shard via
        atomic replace, so no put ever erases another key.
        """
        index = self._shard_index(key)
        path = self._shard_path(index)
        try:
            with _span("shared-store-publish"), self._shard_lock(index):
                try:
                    # An invalidated shard is rebuilt from this entry.
                    entries = dict(self._read_shard(path) or {})
                except OSError:
                    entries = {}  # no shard yet
                entries[key] = {"pieces": pieces}
                payload = {
                    "version": self.version,
                    "checksum": _checksum(entries),
                    "entries": entries,
                }
                fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as handle:
                        json.dump(payload, handle, indent=1)
                        handle.write("\n")
                    os.replace(tmp, path)
                except OSError:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp)
                    raise
        except OSError:
            with self._lock:
                self.put_failures += 1
            return False
        with self._lock:
            self.puts += 1
            self._read_cache.pop(index, None)
        return True

    # -- introspection ------------------------------------------------------

    def stats_dict(self) -> dict:
        """Counters for ``/v1/health`` and the soak's assertions."""
        with self._lock:
            return {
                "version": self.version,
                "shards": self.shards,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "put_failures": self.put_failures,
                "invalidated": self.invalidated,
            }
