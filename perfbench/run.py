"""The repository benchmark: closed-loop HTTP load against ``repro-tile serve``.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The server is the checkout's own
``src/`` tree started as a subprocess at its CLI defaults; the load comes
from this process over keep-alive connections, each sending its next
request only when the previous answer arrived (the callers this service
has — compilers and autotuners — wait for every plan).

Server and client share one CPU, which the client probes between
requests (and, on ``cold_storm``, during them with the server stopped);
every time reported is scaled to a reference host speed
(``server.SpeedLog``), because the host's own speed drifts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then against the traced
launcher (``traced_serve.py``) and reports the per-layer metrics.  The
last line of standard output is the result object; the lines before it
describe the environment and the phases.  See ``perfbench/README.md``
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per trace-0 run; setup_s is their median.
SETUP_REPEATS = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- workloads ------------------------------------------------------------------


class Workload:
    """Set-up traffic, timed streams and checks of one workload."""

    connections = 1
    warm = True  # a warm workload's timed phase must solve no structure
    round_steps = 1  # a multi-connection window ends on a multiple of this

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.seconds = seconds

    def setup_items(self) -> list:
        raise NotImplementedError

    def timed_items(self, connection: int):
        """``(kind, route, body)`` for the window, in sending order."""
        raise NotImplementedError

    def self_check(self) -> list[str]:
        """Generator checks, made before any server starts."""
        return []

    def after_setup(self, rows: list) -> None:
        """Sees the set-up answers before the window opens."""

    def inline_check(self):
        """A ``check(index, status, body)`` run on every timed answer, or None."""
        return None

    def phase_checks(self, phase: dict) -> tuple[int, list[str]]:
        """(wrong timed answers, problems) beyond the oracle's."""
        return 0, []

    def window_info(self, phase: dict) -> dict:
        """What the window covered, for the info line."""
        return {}

    def streams(self, traced: bool) -> tuple[list, list]:
        """Per connection: the request iterator and the list it records
        ``(kind, body)`` of every request into, in sending order."""
        iterators, sent = [], []
        for conn in range(self.connections):
            log: list = []
            iterators.append(_requests(self.timed_items(conn), log, traced, f"c{conn}r"))
            sent.append(log)
        return iterators, sent


def _requests(items, log: list, traced: bool, prefix: str):
    for index, (kind, route, body) in enumerate(items):
        log.append((kind, body))
        trace_id = f"{prefix}{index}" if traced else None
        yield kind, server.encode_post(route, body, trace_id), trace_id


class DistinctBodies(Workload):
    """``warm_novel`` and ``tune_sim``: a set-up list, then a stream in
    which no body repeats (nor repeats a set-up body)."""

    def __init__(self, name, seed, seconds, setup_fn, stream_fn, prefetch_per_s: int):
        super().__init__(name, seed, seconds)
        self.setup_fn, self.stream_fn = setup_fn, stream_fn
        self.setup_seen: set = set()
        self.setup = setup_fn(seed, self.setup_seen)
        #: Bodies generated before the window opens, several times what
        #: today's server answers; past them, bodies are made between
        #: requests and the client's time counts against the server.
        self.prefetch = int(seconds * prefetch_per_s)

    def setup_items(self):
        return self.setup

    def timed_items(self, connection):
        stream = self.stream_fn(self.seed, set(self.setup_seen))
        return itertools.chain(list(itertools.islice(stream, self.prefetch)), stream)

    def self_check(self):
        again_seen: set = set()
        again = self.setup_fn(self.seed, again_seen)
        first = list(itertools.islice(self.stream_fn(self.seed, set(self.setup_seen)), 200))
        second = list(itertools.islice(self.stream_fn(self.seed, again_seen), 200))
        if again != self.setup or first != second:
            return [f"{self.name}: the same seed gave different bodies"]
        return []

    def phase_checks(self, phase):
        bodies = [body for _, body, _, _ in phase["rows"]]
        if len(set(bodies)) != len(bodies) or not self.setup_seen.isdisjoint(bodies):
            return 0, [f"{self.name}: a body was sent twice"]
        return 0, []

    def window_info(self, phase):
        return {"prefetched_bodies": self.prefetch,
                "prefetch_ran_out": len(phase["samples"]) > self.prefetch}


class WarmRepeat(Workload):
    def __init__(self, name, seed, seconds):
        super().__init__(name, seed, seconds)
        self.pool = workloads.repeat_pool(seed)
        self.expected: list[bytes | None] = [None] * len(self.pool)
        self.drawn: list[int] = []
        self.wrong: list[str] = []

    def setup_items(self):
        return self.pool

    def after_setup(self, rows):
        """Keep each pool body's set-up payload bytes: every repeat must
        answer with exactly those bytes before its ``meta``."""
        marker = b', "meta": '
        for slot, (_, _, status, body) in enumerate(rows):
            cut = body.rfind(marker)
            self.expected[slot] = body[:cut + len(marker)] if status == 200 and cut > 0 else None

    def streams(self, traced):
        self.drawn = []
        encoded = [server.encode_post(route, body) for _, route, body in self.pool]

        def items():
            for index, slot in enumerate(workloads.zipf_indices(self.seed, len(self.pool))):
                self.drawn.append(slot)
                kind, route, body = self.pool[slot]
                if traced:
                    trace_id = f"c0r{index}"
                    yield kind, server.encode_post(route, body, trace_id), trace_id
                else:
                    yield kind, encoded[slot], None

        return [items()], [None]

    def inline_check(self):
        def check(index: int, status: int, body: bytes) -> None:
            want = self.expected[self.drawn[index]]
            if status != 200 or want is None or not body.startswith(want):
                self.wrong.append(f"warm_repeat: pool body {self.drawn[index]} answered "
                                  f"{status} with a payload unlike its set-up answer")

        return check

    def phase_checks(self, phase):
        wrong, self.wrong = self.wrong, []
        return len(wrong), wrong[:5]

    def self_check(self):
        problems = []
        if len(self.pool) > workloads.RESPONSE_CACHE_ENTRIES:
            problems.append("warm_repeat: the pool does not fit the response cache")
        if len({body for _, _, body in self.pool}) != len(self.pool):
            problems.append("warm_repeat: the pool repeats a body")
        if workloads.repeat_pool(self.seed) != self.pool:
            problems.append("warm_repeat: the same seed gave different bodies")
        first = list(itertools.islice(workloads.zipf_indices(self.seed, len(self.pool)), 500))
        second = list(itertools.islice(workloads.zipf_indices(self.seed, len(self.pool)), 500))
        if first != second:
            problems.append("warm_repeat: the same seed gave different draws")
        return problems


class ColdStorm(Workload):
    connections = 2
    warm = False

    def __init__(self, name, seed, seconds):
        super().__init__(name, seed, seconds)
        self.round_steps = len(workloads.COLD_ROUND)
        self.problems: list[str] = []
        try:
            self.structures, self.warmup = workloads.cold_structures(
                workloads.cold_steps_needed(seconds)
            )
        except workloads.ClassExhausted as exc:
            self.structures, self.warmup = [], []
            self.problems.append(f"cold_storm: {exc}")
        self.bodies = workloads.cold_streams(seed, self.structures, self.connections)

    def setup_items(self):
        return workloads.cold_streams(self.seed, self.warmup, 1, label="warmup-bodies")[0]

    def timed_items(self, connection):
        return iter(self.bodies[connection])

    def self_check(self):
        problems = list(self.problems)
        keys = [s.key for s in self.structures] + [s.key for s in self.warmup]
        if len(set(keys)) != len(keys):
            problems.append("cold_storm: a canonical structure repeats within the run")
        prefix, _ = workloads.cold_structures(40)
        if prefix != self.structures[:40] or [
            stream[:40] for stream in workloads.cold_streams(self.seed, prefix)
        ] != [stream[:40] for stream in self.bodies]:
            problems.append("cold_storm: the same seed gave different bodies")
        return problems

    def window_info(self, phase):
        """Structures solved in the window, and the classes of those the
        first connection finished (a shift in the mix shows here)."""
        timed = [self.structures[s.index] for s in phase["per_conn"][0]]
        classes = collections.Counter(f"{s.depth}x{len(s.supports)}" for s in timed)
        return {"structures_solved": phase["health"]["structure_solves"],
                "classes_timed": dict(sorted(classes.items()))}


def make_workload(name: str, seed: int, seconds: float) -> Workload:
    if name == "warm_novel":
        return DistinctBodies(name, seed, seconds, workloads.warm_novel_setup,
                              workloads.warm_novel_stream, prefetch_per_s=5000)
    if name == "tune_sim":
        return DistinctBodies(name, seed, seconds, workloads.tune_sim_setup,
                              workloads.tune_sim_stream, prefetch_per_s=300)
    return {"warm_repeat": WarmRepeat, "cold_storm": ColdStorm}[name](name, seed, seconds)


WORKLOADS = ("warm_novel", "warm_repeat", "cold_storm", "tune_sim")


# -- phases ----------------------------------------------------------------------


def set_up(workload: Workload, traced: bool, spans_path: Path | None = None):
    """Spawn a server and send the warm-up; returns (server, seconds at the
    reference host speed, rows).  The CPU is probed between warm-up
    requests, as in a timed window, and the probes are not counted."""
    speed = server.SpeedLog()
    speed.probe()
    first_probe = speed.paused_s
    started = time.perf_counter()
    srv = server.Server(traced, spans_path, log_name="server-traced" if traced else "server")
    try:
        conn = server.Connection(srv.port)
        try:
            rows = []
            next_probe = time.perf_counter() + server.PROBE_EVERY_S
            for kind, route, body in workload.setup_items():
                if time.perf_counter() >= next_probe:
                    speed.probe()
                    next_probe = time.perf_counter() + server.PROBE_EVERY_S
                status, response = conn.request(server.encode_post(route, body))
                rows.append((kind, body, status, response))
        finally:
            conn.close()
        seconds = time.perf_counter() - started - (speed.paused_s - first_probe)
        speed.probe(server.LOCAL_MIN_PROBES)
    except BaseException:
        srv.stop()
        raise
    return srv, seconds * speed.scale(), rows


def timed_phase(workload: Workload, srv: server.Server, traced: bool) -> dict:
    before = server.get_json(srv.port, "/v1/health")
    iterators, sent = workload.streams(traced)
    speed = server.SpeedLog()
    if len(iterators) == 1:
        samples, active_s = server.closed_loop(
            srv.port, iterators[0], workload.seconds, workload.inline_check(), speed
        )
        per_conn = [samples]
    else:
        per_conn, active_s = server.lockstep_closed_loops(
            srv.port, iterators, workload.seconds, srv.proc.pid, speed, workload.round_steps
        )
    after = server.get_json(srv.port, "/v1/health")
    rows = []
    for samples, log in zip(per_conn, sent):
        if log is not None:
            rows += [(s.kind, log[s.index][1], s.status, s.body) for s in samples]
    samples = [s for conn_samples in per_conn for s in conn_samples]
    return {
        "samples": samples,
        "per_conn": per_conn,
        "rows": rows,
        "rps": len(samples) / speed.scaled_seconds(samples, active_s),
        "unscaled_rps": len(samples) / active_s,
        "probe_ms": [p * 1e3 for p in speed.probes],
        "health": layers.health_delta(before, after),
        "rss_mb": srv.peak_rss_mb(),
    }


def kind_p50_ms(samples) -> dict[str, float]:
    by_kind: dict[str, list] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.scaled_latency_s * 1e3)
    return {kind: layers.percentile(values, 0.5) for kind, values in by_kind.items()}


def phase_problems(workload: Workload, phase: dict, setup_rows: list) -> tuple[int, list[str]]:
    """(wrong timed answers, every problem found) for one timed phase."""
    problems = oracle.verify(workload.seed, phase["rows"])
    wrong, found = workload.phase_checks(phase)
    wrong += len(problems)
    problems += found
    problems += [f"set-up: {p}" for p in oracle.verify(workload.seed, setup_rows)]
    if workload.warm and phase["health"]["structure_solves"]:
        problems.append(
            f"{len(phase['samples'])} timed requests solved "
            f"{phase['health']['structure_solves']} structures on a warm workload"
        )
    return wrong, problems


# -- main ------------------------------------------------------------------------


def prepare() -> dict:
    """Build what later runs would otherwise build: bytecode, the kernel."""
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    from repro.machine import native

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "lru_kernel": "native" if native.native_available() else "numpy-fallback",
    }


def run_workload(workload: Workload, trace: int, bench: dict) -> dict:
    problems = workload.self_check()
    if trace == 0:
        setups = []
        for attempt in range(SETUP_REPEATS):
            srv, seconds, setup_rows = set_up(workload, traced=False)
            setups.append(seconds)
            if attempt < SETUP_REPEATS - 1:
                srv.stop()
        try:
            workload.after_setup(setup_rows)
            phase = timed_phase(workload, srv, traced=False)
        finally:
            srv.stop()
        wrong, found = phase_problems(workload, phase, setup_rows)
        problems += found
        latencies = [s.scaled_latency_s * 1e3 for s in phase["samples"]]
        if not latencies:
            raise RuntimeError(f"no request completed in the window; problems: {problems}")
        kinds = kind_p50_ms(phase["samples"])
        values = {
            "throughput_rps": phase["rps"],
            "latency_p50_ms": layers.percentile(latencies, 0.5),
            "latency_p90_ms": layers.percentile(latencies, 0.9),
            "kind_p50_geomean_ms": math.exp(
                statistics.fmean(math.log(v) for v in kinds.values())),
            "setup_s": statistics.median(setups),
            "server_peak_rss_mb": phase["rss_mb"],
        }
        raw = [s.latency_s * 1e3 for s in phase["samples"]]
        probes = phase["probe_ms"]
        info = {"setup_s_runs": setups, "samples": len(latencies), "kind_p50_ms": kinds,
                "unscaled": {"rps": phase["unscaled_rps"],
                             "p50_ms": layers.percentile(raw, 0.5),
                             "p90_ms": layers.percentile(raw, 0.9)},
                "probe_ms": {"min": min(probes), "median": statistics.median(probes),
                             "max": max(probes), "count": len(probes)},
                **workload.window_info(phase)}
        attempted = len(latencies)
        names = bench["end_to_end"]
    else:
        srv, _, setup_rows = set_up(workload, traced=False)
        try:
            workload.after_setup(setup_rows)
            plain = timed_phase(workload, srv, traced=False)
        finally:
            srv.stop()
        spans_path = server.OUT / f"spans-{os.getpid()}.json"
        srv, _, traced_setup_rows = set_up(workload, traced=True, spans_path=spans_path)
        try:
            workload.after_setup(traced_setup_rows)
            traced = timed_phase(workload, srv, traced=True)
        finally:
            code = srv.stop()
        if code != 0:
            problems.append(f"traced server exited with code {code}")
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
        wrong_plain, found = phase_problems(workload, plain, setup_rows)
        problems += found
        wrong_traced, found = phase_problems(workload, traced, traced_setup_rows)
        problems += found
        wrong = wrong_plain + wrong_traced
        values = layers.per_layer(
            spans, traced["samples"], traced["health"], traced["rps"], plain["rps"]
        )
        kinds = kind_p50_ms(plain["samples"])
        latencies = [s.scaled_latency_s * 1e3 for s in plain["samples"]]
        for kind in ("analyze", "program", "distributed", "simulate", "tune", "hierarchy"):
            values[f"{kind}_p50_ms"] = kinds.get(kind, 0.0)
        values["latency_p99_ms"] = layers.percentile(latencies, 0.99)
        attempted = len(plain["samples"]) + len(traced["samples"])
        values["failed_share"] = wrong / attempted if attempted else 0.0
        info = {"samples": len(latencies), "traced_samples": len(traced["samples"]),
                "spans": len(spans), **workload.window_info(plain)}
        names = bench["per_layer"]
    metrics = {}
    for entry in names:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return {
        "info": info,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": max(1, attempted),
            "failed": wrong,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    environment = prepare()
    os.sched_setaffinity(0, server.bench_cpus())
    print(json.dumps({"environment": environment}), flush=True)
    workload = make_workload(args.workload, args.seed, args.seconds)
    outcome = run_workload(workload, args.trace, bench)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **outcome["info"], "problems": outcome["problems"][:20]}), flush=True)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(_fail(f"no repro package under {SRC}; run from the root of a checkout"))
    sys.path.insert(0, str(SRC))
    import layers  # noqa: E402
    import oracle  # noqa: E402
    import server  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
