"""Tests for the sharded cross-process plan store.

Covers the storage layer directly (merge semantics, versioned
invalidation, corruption handling, counters) and its planner wiring
(publish on solve, adopt on probe, stale-version re-solve).
"""

import json
import shutil
import threading

import pytest

from repro.library.problems import matmul
from repro.plan import Planner
from repro.util.sharedstore import STORE_SCHEMA_VERSION, SharedPlanStore

PIECES_A = [{"marker": "a"}]
PIECES_B = [{"marker": "b"}]


class TestStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = SharedPlanStore(tmp_path)
        assert store.get("k1") is None
        assert store.put("k1", PIECES_A)
        assert store.get("k1") == PIECES_A
        assert store.keys() == ["k1"]
        assert len(store) == 1

    def test_merge_within_a_shard(self, tmp_path):
        # One shard forces every key into the same file: a put must
        # read-merge-write, never clobber the other keys.
        store = SharedPlanStore(tmp_path, shards=1)
        store.put("k1", PIECES_A)
        store.put("k2", PIECES_B)
        assert store.get("k1") == PIECES_A
        assert store.get("k2") == PIECES_B
        assert sorted(store.keys()) == ["k1", "k2"]

    def test_two_stores_share_one_root(self, tmp_path):
        # Two store objects over the same directory stand in for two
        # processes: a put through one is visible through the other.
        writer = SharedPlanStore(tmp_path)
        reader = SharedPlanStore(tmp_path)
        writer.put("k1", PIECES_A)
        assert reader.get("k1") == PIECES_A
        writer.put("k1", PIECES_B)  # overwrite propagates too
        assert reader.get("k1") == PIECES_B

    def test_shard_spread_is_stable(self, tmp_path):
        store = SharedPlanStore(tmp_path, shards=4)
        keys = [f"key-{i}" for i in range(32)]
        for key in keys:
            store.put(key, PIECES_A)
        assert sorted(store.keys()) == sorted(keys)
        # Placement is a pure function of the key, not of store state.
        other = SharedPlanStore(tmp_path, shards=4)
        assert all(
            store._shard_index(key) == other._shard_index(key) for key in keys
        )
        assert len(list(tmp_path.glob("shard-*.json"))) > 1

    def test_concurrent_puts_never_lose_entries(self, tmp_path):
        # Many writers on one shard (threads standing in for processes):
        # the file lock serializes read-merge-write, so every key lands,
        # and the mkstemp + os.replace writes leave no temp files behind.
        store = SharedPlanStore(tmp_path, shards=1)
        keys = [f"key-{i}" for i in range(32)]
        threads = [
            threading.Thread(target=store.put, args=(key, PIECES_A)) for key in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert sorted(SharedPlanStore(tmp_path, shards=1).keys()) == sorted(keys)
        assert store.stats_dict()["puts"] == len(keys)
        assert not list(tmp_path.glob("*.tmp"))

    def test_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValueError):
            SharedPlanStore(tmp_path, shards=0)

    def test_stats_shape_and_counts(self, tmp_path):
        store = SharedPlanStore(tmp_path)
        store.get("missing")
        store.put("k1", PIECES_A)
        store.get("k1")
        stats = store.stats_dict()
        assert stats == {
            "version": STORE_SCHEMA_VERSION,
            "shards": 8,
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "put_failures": 0,
            "invalidated": 0,
        }


class TestInvalidation:
    def test_version_bump_discards_stale_entries(self, tmp_path):
        old = SharedPlanStore(tmp_path, version=1)
        old.put("k1", PIECES_A)
        new = SharedPlanStore(tmp_path, version=2)
        assert new.get("k1") is None
        assert new.stats_dict()["invalidated"] >= 1
        # The next put rebuilds the shard under the new version...
        assert new.put("k1", PIECES_B)
        assert new.get("k1") == PIECES_B
        # ...which in turn invalidates it for the old-version reader.
        fresh_old = SharedPlanStore(tmp_path, version=1)
        assert fresh_old.get("k1") is None
        assert fresh_old.stats_dict()["invalidated"] >= 1

    def test_corrupt_shard_reads_as_empty(self, tmp_path):
        store = SharedPlanStore(tmp_path, shards=1)
        store.put("k1", PIECES_A)
        store._shard_path(0).write_text("{torn write garbage")
        reader = SharedPlanStore(tmp_path, shards=1)
        assert reader.get("k1") is None
        assert reader.stats_dict()["invalidated"] == 1
        # Writers rebuild corrupt shards instead of crashing on them.
        assert reader.put("k2", PIECES_B)
        assert reader.get("k2") == PIECES_B

    def test_checksum_mismatch_reads_as_empty(self, tmp_path):
        store = SharedPlanStore(tmp_path, shards=1)
        store.put("k1", PIECES_A)
        path = store._shard_path(0)
        blob = json.loads(path.read_text())
        blob["entries"]["k1"]["pieces"] = PIECES_B  # tampered, checksum stale
        path.write_text(json.dumps(blob))
        reader = SharedPlanStore(tmp_path, shards=1)
        assert reader.get("k1") is None
        assert reader.stats_dict()["invalidated"] == 1

    def test_wrong_shape_reads_as_empty(self, tmp_path):
        store = SharedPlanStore(tmp_path, shards=1)
        store._shard_path(0).write_text(json.dumps({"version": 1, "entries": []}))
        assert store.get("k1") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"version": 1, "entries": {"k1": "\x80\xff"}}',
            json.dumps({"version": 1, "entries": {"k1": 12}}).encode(),
            b"",
        ],
        ids=["non-utf8-bytes", "non-object-entry", "empty-file"],
    )
    def test_malformed_shard_reads_as_empty_and_is_rebuilt(self, tmp_path, raw, caplog):
        # Neither read nor write may raise on a malformed shard: it is
        # invalidated (one warning naming the shard), and a put rebuilds it.
        store = SharedPlanStore(tmp_path, shards=1)
        path = store._shard_path(0)
        path.write_bytes(raw)
        with caplog.at_level("WARNING", logger="repro.util.sharedstore"):
            assert store.get("k1") is None
        assert store.stats_dict()["invalidated"] == 1
        assert str(path) in caplog.text
        assert SharedPlanStore(tmp_path, shards=1).put("k2", PIECES_B)
        assert store.get("k2") == PIECES_B
        assert store.keys() == ["k2"]

    def test_put_failure_is_counted_not_raised(self, tmp_path):
        root = tmp_path / "store"
        store = SharedPlanStore(root)
        shutil.rmtree(root)
        assert store.put("k1", PIECES_A) is False
        assert store.stats_dict()["put_failures"] == 1


class TestPlannerWiring:
    def test_solve_publishes_and_sibling_adopts(self, tmp_path):
        solver = Planner(shared_store=SharedPlanStore(tmp_path))
        solver.plan(matmul(16, 16, 16), 256)
        assert solver.stats.structure_solves == 1

        sibling = Planner(shared_store=SharedPlanStore(tmp_path))
        plan = sibling.plan(matmul(64, 64, 64), 1024)  # same structure
        assert plan.exponent == solver.plan(matmul(64, 64, 64), 1024).exponent
        assert sibling.stats.structure_solves == 0
        assert sibling.stats.shared_hits == 1

    def test_stale_version_forces_resolve(self, tmp_path):
        old = Planner(shared_store=SharedPlanStore(tmp_path, version=1))
        old.plan(matmul(16, 16, 16), 256)

        bumped_store = SharedPlanStore(tmp_path, version=2)
        fresh = Planner(shared_store=bumped_store)
        fresh.plan(matmul(16, 16, 16), 256)
        assert fresh.stats.shared_hits == 0
        assert fresh.stats.structure_solves == 1  # stale entry discarded
        assert bumped_store.stats_dict()["invalidated"] >= 1

    def test_path_coerces_to_store(self, tmp_path):
        planner = Planner(shared_store=tmp_path / "cache")
        assert isinstance(planner.shared_store, SharedPlanStore)
        planner.plan(matmul(16, 16, 16), 256)
        assert len(planner.shared_store) == 1

    def test_malformed_shared_entry_is_discarded(self, tmp_path, caplog):
        store = SharedPlanStore(tmp_path)
        planner = Planner(shared_store=store)
        key = planner.canonicalization(matmul(16, 16, 16)).form.key()
        store.put(key, [{"not": "a piece"}])
        with caplog.at_level("WARNING", logger="repro.plan.planner"):
            planner.plan(matmul(16, 16, 16), 256)
        assert "malformed shared-store entry" in caplog.text
        # The bad entry did not poison the answer: a real solve happened.
        assert planner.stats.structure_solves == 1
        assert planner.stats.shared_hits == 0
