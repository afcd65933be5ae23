"""Cross-checks: batched trace engine vs the per-access reference oracles.

The batched generator, the chunked LRU, and the stack-distance miss
curve must be *bit-identical* to the seed per-access implementations —
randomized small instances sweep nest shapes, tiles, loop orders, chunk
sizes, line sizes, and every cache capacity (including dirty-line /
write-back accounting and the end-of-run flush).
"""

import numpy as np
import pytest

from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.tiling import TileShape, solve_tiling
from repro.library.problems import matmul, matvec, nbody
from repro.machine.cache import BatchLRU, FullyAssociativeLRU, miss_curve
from repro.machine.model import MachineModel
from repro.machine.native import get_kernel, native_available
from repro.simulate.multilevel import nest_miss_curve
from repro.simulate.trace import (
    MAX_TRACE_ACCESSES,
    AddressMap,
    generate_trace,
    generate_trace_batched,
    trace_length,
)
from repro.simulate.trace_sim import run_trace_simulation

KERNELS = ["python"] + (["native"] if native_available() else [])


@pytest.fixture
def kernel(request, monkeypatch):
    """Select one kernel through ``REPRO_NO_NATIVE``, the only switch."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        assert get_kernel() is not None
    return request.param


def random_nest(rng: np.random.Generator) -> LoopNest:
    """A small random projective nest whose supports cover every loop."""
    d = int(rng.integers(1, 4))
    bounds = tuple(int(rng.integers(1, 7)) for _ in range(d))
    n = int(rng.integers(1, 4))
    supports: list[tuple[int, ...]] = []
    for _ in range(n):
        size = int(rng.integers(0, d + 1))
        supports.append(tuple(sorted(rng.choice(d, size=size, replace=False).tolist())))
    # ensure every loop is covered (LoopNest invariant)
    covered = {i for s in supports for i in s}
    missing = tuple(sorted(set(range(d)) - covered))
    if missing:
        supports.append(missing)
    arrays = tuple(
        ArrayRef(name=f"A{j}", support=s, is_output=(j == 0 or rng.random() < 0.3))
        for j, s in enumerate(supports)
    )
    return LoopNest(
        name="rand", loops=tuple(f"x{i}" for i in range(d)), bounds=bounds, arrays=arrays
    )


def reference_stats(lines, writes, capacity):
    cache = FullyAssociativeLRU(capacity)
    for line, w in zip(lines, writes):
        cache.access(int(line), is_write=bool(w))
    cache.flush()
    s = cache.stats
    return (s.accesses, s.hits, s.misses, s.writebacks)


class TestBatchedTraceGeneration:
    def test_randomized_equivalence_with_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            nest = random_nest(rng)
            tile = (
                None
                if rng.random() < 0.25
                else TileShape(
                    nest=nest,
                    blocks=tuple(int(rng.integers(1, L + 1)) for L in nest.bounds),
                )
            )
            order = tuple(rng.permutation(nest.depth).tolist())
            chunk = int(rng.integers(1, 2 * trace_length(nest) + 2))
            amap = AddressMap(nest)
            ref = [
                (amap.address(a), a.array, a.is_write)
                for a in generate_trace(nest, tile=tile, order=order)
            ]
            batches = list(
                generate_trace_batched(nest, tile=tile, order=order, chunk=chunk)
            )
            addresses = np.concatenate([b.addresses for b in batches])
            array_ids = np.concatenate([b.array_ids for b in batches])
            is_write = np.concatenate([b.is_write for b in batches])
            assert addresses.tolist() == [r[0] for r in ref]
            assert array_ids.tolist() == [r[1] for r in ref]
            assert is_write.tolist() == [r[2] for r in ref]
            # chunks never split an iteration point
            assert all(len(b.addresses) % nest.num_arrays == 0 for b in batches)

    def test_uniform_and_ragged_grids_agree(self):
        nest = matmul(6, 6, 6)
        amap = AddressMap(nest)
        for blocks in [(2, 3, 6), (4, 5, 6)]:  # divides vs ragged
            tile = TileShape(nest=nest, blocks=blocks)
            ref = [amap.address(a) for a in generate_trace(nest, tile=tile)]
            got = np.concatenate(
                [b.addresses for b in generate_trace_batched(nest, tile=tile, chunk=50)]
            )
            assert got.tolist() == ref

    def test_guard_is_ten_times_the_old_limit(self):
        assert MAX_TRACE_ACCESSES == 80_000_000
        big = matmul(300, 300, 300)  # 81M accesses: just over the new guard
        with pytest.raises(ValueError):
            next(generate_trace(big))
        with pytest.raises(ValueError):
            next(generate_trace_batched(big))
        # 27M accesses was rejected by the old 8M guard; the batched path
        # accepts it (pull a single chunk, not the whole trace).
        mid = matmul(300, 300, 100)
        assert trace_length(mid) > 8_000_000
        batch = next(generate_trace_batched(mid, chunk=1024))
        assert len(batch.addresses) > 0

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            next(generate_trace_batched(matmul(2, 2, 2), chunk=0))


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestBatchLRUCrossCheck:
    def test_randomized_all_capacities(self, kernel):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(1, 300))
            universe = int(rng.integers(1, 20))
            lines = rng.integers(0, universe, n).astype(np.int64)
            writes = rng.random(n) < 0.4
            for capacity in range(1, universe + 3):
                want = reference_stats(lines, writes, capacity)
                batch = BatchLRU(capacity, universe)
                misses = 0
                cuts = np.sort(rng.integers(0, n + 1, 2))
                for part in np.split(np.arange(n), cuts):
                    if len(part):
                        misses += int(batch.process(lines[part], writes[part]).sum())
                batch.flush()
                s = batch.stats
                assert (s.accesses, s.hits, s.misses, s.writebacks) == want
                assert misses == s.misses  # miss mask consistent with totals

    def test_nest_traces_all_capacities(self, kernel):
        rng = np.random.default_rng(13)
        for nest in [matmul(4, 3, 5), matvec(6, 4), nbody(5, 4)]:
            chunks = list(generate_trace_batched(nest, chunk=64))
            lines = np.concatenate([c.addresses for c in chunks])
            writes = np.concatenate([c.is_write for c in chunks])
            universe = int(lines.max()) + 1
            for capacity in rng.integers(1, universe + 2, size=6).tolist():
                want = reference_stats(lines, writes, capacity)
                batch = BatchLRU(capacity, universe)
                batch.process(lines, writes)
                batch.flush()
                s = batch.stats
                assert (s.accesses, s.hits, s.misses, s.writebacks) == want

    def test_capacity_past_int64(self, kernel):
        # More lines than the address space holds: nothing is ever
        # evicted, and the native kernel must not see a wrapped int64.
        lines = np.array([0, 1, 0, 2, 1, 0, 2], dtype=np.int64)
        writes = np.array([1, 0, 0, 1, 0, 1, 0], dtype=bool)
        batch = BatchLRU(10**300, 3)
        batch.process(lines, writes)
        batch.flush()
        s = batch.stats
        assert (s.accesses, s.hits, s.misses, s.writebacks) == reference_stats(
            lines, writes, 10**300
        )


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestMissCurveCrossCheck:
    def test_randomized_all_capacities(self, kernel):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(1, 300))
            universe = int(rng.integers(1, 20))
            lines = rng.integers(0, universe, n).astype(np.int64)
            writes = rng.random(n) < 0.4
            curve = miss_curve(lines, writes)
            for capacity in range(1, universe + 3):
                want = reference_stats(lines, writes, capacity)
                s = curve.stats_at(capacity)
                assert (s.accesses, s.hits, s.misses, s.writebacks) == want

    def test_sweep_matches_point_queries(self, kernel):
        rng = np.random.default_rng(19)
        lines = rng.integers(0, 12, 200).astype(np.int64)
        writes = rng.random(200) < 0.3
        curve = miss_curve(lines, writes)
        caps, misses, writebacks = curve.sweep()
        assert caps[0] == 1 and caps[-1] == curve.distinct_lines + 1
        for c, m, w in zip(caps.tolist(), misses.tolist(), writebacks.tolist()):
            assert m == curve.misses_at(c)
            assert w == curve.writebacks_at(c)
        # LRU inclusion: the curve is monotone non-increasing
        assert (np.diff(misses) <= 0).all()
        assert misses[-1] == curve.cold_misses

    def test_nest_curve_matches_trace_simulation(self, kernel):
        nest = matmul(6, 6, 6)
        sol = solve_tiling(nest, 48, budget="aggregate")
        curve = nest_miss_curve(nest, tile=sol.tile)
        for capacity in (1, 7, 48, 200):
            rep = run_trace_simulation(
                nest, MachineModel(cache_words=capacity), tile=sol.tile
            )
            assert curve.misses_at(capacity) == rep.meta["misses"]
            assert curve.writebacks_at(capacity) == rep.meta["writebacks"]
            assert curve.misses_at(capacity) + curve.writebacks_at(capacity) == rep.total_words


def _comparable(report):
    meta = {k: v for k, v in report.meta.items() if k != "engine"}
    return report.nest_name, report.per_array, report.source, meta


class TestTraceSimulationEngines:
    def test_batched_equals_reference_reports(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            nest = random_nest(rng)
            machine = MachineModel(
                cache_words=int(rng.integers(2, 40)),
                line_words=int(rng.integers(1, 3)),
            )
            tile = TileShape(
                nest=nest, blocks=tuple(int(rng.integers(1, L + 1)) for L in nest.bounds)
            )
            for policy in ("lru", "belady", "direct"):
                fast = run_trace_simulation(nest, machine, tile=tile, policy=policy)
                oracle = run_trace_simulation(
                    nest, machine, tile=tile, policy=policy, engine="reference"
                )
                assert _comparable(fast) == _comparable(oracle), policy

    def test_writeback_apportionment_conserves_total(self):
        # Two output arrays: per-array stores must sum to the aggregate
        # write-back count exactly (largest-remainder apportionment).
        nest = LoopNest(
            name="twoout",
            loops=("i", "j"),
            bounds=(5, 7),
            arrays=(
                ArrayRef(name="U", support=(0,), is_output=True),
                ArrayRef(name="V", support=(1,), is_output=True),
                ArrayRef(name="W", support=(0, 1)),
            ),
        )
        machine = MachineModel(cache_words=6)
        for engine in ("batched", "reference"):
            rep = run_trace_simulation(nest, machine, engine=engine)
            assert rep.stores == rep.meta["writebacks"] * machine.line_words
        fast = run_trace_simulation(nest, machine)
        oracle = run_trace_simulation(nest, machine, engine="reference")
        assert _comparable(fast) == _comparable(oracle)

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            run_trace_simulation(
                matmul(2, 2, 2), MachineModel(cache_words=8), engine="warp"
            )

    @pytest.mark.skipif(not native_available(), reason="no native kernel")
    def test_native_and_python_lru_agree(self, monkeypatch):
        nest = nbody(8, 9)
        machine = MachineModel(cache_words=24)
        fast = run_trace_simulation(nest, machine)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        slow = run_trace_simulation(nest, machine)
        assert _comparable(fast) == _comparable(slow)
