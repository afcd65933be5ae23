"""The server under test as a subprocess, and a closed-loop HTTP client.

The server is always started from the checkout's own ``src/`` tree:

* untraced: ``python -m repro.cli serve --port 0 --quiet`` — the
  unmodified CLI at its defaults;
* traced: ``python perfbench/traced_serve.py SPANS`` — the same CLI call
  behind the benchmark's span-recording launcher.

The client speaks just enough HTTP/1.1 (keep-alive, ``Content-Length``
bodies) to keep its own cost per request far below the server's.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Logs and span files of one benchmark run (listed in .gitignore).
OUT = ROOT / ".perfbench"

_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)/")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


def bench_cpus() -> set[int]:
    """The one CPU both the server and the client run on (the first this
    process may use), so that every step of a request runs at the speed
    the probes measure (see ``SpeedLog``).  A closed loop on one
    connection never has both busy at once."""
    return {min(os.sched_getaffinity(0))}


def server_env() -> dict:
    """The environment of a server at its defaults: no ``REPRO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Server:
    """One server process; ``port`` is known once the constructor returns."""

    def __init__(self, traced: bool, spans_path: Path | None = None, log_name: str = "server"):
        OUT.mkdir(exist_ok=True)
        if traced:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--quiet"]
        self._log = open(OUT / f"{log_name}.log", "wb")
        cpus = bench_cpus()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=server_env(), stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT_S
        line = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                line += chunk
                match = _LISTENING.search(line)
                if match:
                    return int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"server did not start (exit {self.proc.poll()}); see {self._log.name}"
        )

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (the server's graceful path), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGCONT)  # in case a probe stopped it
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Connection:
    """One keep-alive connection; ``request`` sends pre-encoded bytes."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=600)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def request(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        head = bytes(buf[:end]).lower()
        status = int(head[9:12])
        at = head.index(b"content-length:") + 15
        line_end = head.find(b"\r\n", at)
        length = int(head[at:line_end if line_end >= 0 else len(head)])
        need = end + 4 + length
        while len(buf) < need:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buf += chunk
        body = bytes(buf[end + 4:need])
        del buf[:need]
        return status, body

    def close(self) -> None:
        self.sock.close()


def encode_post(route: str, body: bytes, trace_id: str | None = None) -> bytes:
    extra = f"X-Trace-Id: {trace_id}\r\n" if trace_id else ""
    return (
        f"POST {route} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


def encode_get(route: str) -> bytes:
    return f"GET {route} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()


# -- host speed -------------------------------------------------------------------

#: Seconds a probe takes at the reference speed: the fast end of what it
#: took on the 2-core x86 VM the benchmark was sized on.
REFERENCE_PROBE_S = 0.001
#: A window is probed about this often: between requests on one
#: connection, with the server stopped while requests of a lock-step
#: window are in flight.
PROBE_EVERY_S = 0.05
#: A request is scaled by the probes taken within this many seconds of it.
LOCAL_S = 0.25
#: ... and by at least this many probes, the nearest ones in time.
LOCAL_MIN_PROBES = 4

_PROBE_DOC = {f"k{i}": [i, i / 7, f"v{i}", {"n": i % 5}] for i in range(60)}


def _probe_round() -> None:
    """Fixed interpreter work like the server's own: rational arithmetic,
    JSON round trips and dict traffic.  Standard library only, so no change
    to the repository moves it."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 3) * Fraction(2, i + 1)
    for _ in range(4):
        json.loads(json.dumps(_PROBE_DOC, sort_keys=True))
    table: dict = {}
    for i in range(1500):
        table[(i * 7919) % 613] = table.get(i % 97, 0) + i
    sorted(table.items())


class SpeedLog:
    """Probes of the benchmark CPU's speed, taken while no request is in
    flight or while the server is stopped, so the server and the probe
    never share the CPU.

    The host's speed drifts, within a second and over minutes: one probe
    took from 1.0 to 3.5 ms on the VM the benchmark was sized on, with no
    steal time, so CPU time drifts with it.  Timings are therefore scaled
    to the reference speed: multiplied by ``REFERENCE_PROBE_S`` over the
    mean of the probes taken around them (``scale_between``).
    """

    def __init__(self):
        self.probes: list[float] = []
        self.times: list[float] = []  # when each probe ended, ascending
        self.paused_s = 0.0
        self._total = 0.0
        #: ``(start, end)`` of every stretch the server was stopped for a
        #: probe (``probe_stopped``), ascending; ``stopped_s`` is their sum.
        self.stops: list[tuple[float, float]] = []
        self.stopped_s = 0.0

    def probe(self, count: int = 1) -> None:
        started = time.perf_counter()
        for _ in range(count):
            t0 = time.perf_counter()
            _probe_round()
            t1 = time.perf_counter()
            self.probes.append(t1 - t0)
            self.times.append(t1)
            self._total += t1 - t0
        self.paused_s += time.perf_counter() - started

    def probe_stopped(self, pid: int) -> None:
        """Probe with requests in flight: stop the server (SIGSTOP), probe,
        let it go on (SIGCONT).  The server shares the client's one CPU, so
        it runs no code of its own between the two signals."""
        started = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        try:
            self.probe()
        finally:
            os.kill(pid, signal.SIGCONT)
            ended = time.perf_counter()
            self.stops.append((started, ended))
            self.stopped_s += ended - started

    def stopped_between(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` the server spent stopped for probes."""
        hi = bisect.bisect_left(self.stops, (t1,))
        total = 0.0
        for start, end in reversed(self.stops[:hi]):
            if end <= t0:
                break
            total += min(end, t1) - max(start, t0)
        return total

    def scale(self) -> float:
        """Reference over measured speed, over every probe so far."""
        return REFERENCE_PROBE_S * len(self.probes) / self._total

    def scale_between(self, t0: float, t1: float) -> float:
        """Reference over measured speed around ``[t0, t1]``: the probes
        within ``LOCAL_S`` of it, or the ``LOCAL_MIN_PROBES`` nearest."""
        lo = bisect.bisect_left(self.times, t0 - LOCAL_S)
        hi = bisect.bisect_right(self.times, t1 + LOCAL_S)
        while hi - lo < min(LOCAL_MIN_PROBES, len(self.times)):
            before = t0 - self.times[lo - 1] if lo > 0 else math.inf
            after = self.times[hi] - t1 if hi < len(self.times) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_PROBE_S / statistics.fmean(self.probes[lo:hi])

    def scale_samples(self, samples: list["Sample"]) -> None:
        for sample in samples:
            sample.stopped_s = self.stopped_between(sample.start, sample.end)
            sample.speed_scale = self.scale_between(sample.start, sample.end)

    def scaled_seconds(self, samples: list["Sample"], active_s: float) -> float:
        """``active_s`` seconds of requests at the reference speed: the time
        some request was in flight at the scale around it, the client's
        time between requests at the mean."""
        busy: list[list[float]] = []
        for sample in sorted(samples, key=lambda s: s.start):
            if busy and sample.start <= busy[-1][1]:
                busy[-1][1] = max(busy[-1][1], sample.end)
            else:
                busy.append([sample.start, sample.end])
        running = [(t1 - t0 - self.stopped_between(t0, t1), t0, t1) for t0, t1 in busy]
        inside = sum(run for run, _, _ in running)
        return (sum(run * self.scale_between(t0, t1) for run, t0, t1 in running)
                + max(0.0, active_s - inside) * self.scale())


@dataclass
class Sample:
    """One timed request as the client saw it."""

    index: int
    kind: str
    trace_id: str | None
    start: float
    end: float
    status: int
    body: bytes
    #: Reference over measured host speed around it (``SpeedLog.scale_between``).
    speed_scale: float = 1.0
    #: Seconds of it the server was stopped for probes.
    stopped_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def latency_s(self) -> float:
        return self.end - self.start - self.stopped_s

    @property
    def scaled_latency_s(self) -> float:
        return self.latency_s * self.speed_scale


def closed_loop(port: int, requests, seconds: float, check,
                speed: SpeedLog) -> tuple[list[Sample], float]:
    """Send ``requests`` back to back on one connection for ``seconds``.

    ``requests`` yields ``(kind, raw_bytes, trace_id)``.  The CPU is
    probed (``speed``) at the start, every ``PROBE_EVERY_S`` between two
    requests and at the end; probes do not count against the window.
    Sending stops when the window is used up; the request in flight then
    completes.  Each sample is scaled by the probes around it.  Unless
    ``check`` is None, ``check(index, status, body)`` vets each response
    inline and its body is not kept.  Returns the samples and the seconds
    the requests took, probes left out.
    """
    conn = Connection(port)
    samples: list[Sample] = []
    collecting = gc.isenabled()
    gc.disable()  # no collector pauses inside the client's timings
    try:
        speed.probe()
        paused = speed.paused_s
        start = time.perf_counter()
        next_probe = start + PROBE_EVERY_S
        for index, (kind, raw, trace_id) in enumerate(requests):
            t0 = time.perf_counter()
            if t0 >= next_probe:
                speed.probe()
                t0 = time.perf_counter()
                next_probe = t0 + PROBE_EVERY_S
            if t0 - start - (speed.paused_s - paused) >= seconds:
                break
            status, body = conn.request(raw)
            t1 = time.perf_counter()
            if check is not None:
                check(index, status, body)
                body = b""
            samples.append(Sample(index, kind, trace_id, t0, t1, status, body))
        active = time.perf_counter() - start - (speed.paused_s - paused)
        speed.probe(LOCAL_MIN_PROBES)
    finally:
        conn.close()
        if collecting:
            gc.enable()
    speed.scale_samples(samples)
    return samples, active


def lockstep_closed_loops(port: int, streams: list, seconds: float, pid: int,
                          speed: SpeedLog,
                          round_steps: int) -> tuple[list[list[Sample]], float]:
    """One closed loop per stream, each on its own connection and thread,
    in lock step: every connection sends its next request once all have
    their answers.  The CPU is probed ``LOCAL_MIN_PROBES`` times between
    steps, and every ``PROBE_EVERY_S`` while requests are in flight, with
    the server (process ``pid``) stopped; stopped time is left out of
    every latency.  Once ``seconds`` at the reference host speed are used
    up the window ends with the current round of ``round_steps`` steps, so
    it holds whole rounds.  Returns the samples per stream and the seconds
    the steps took, probes left out."""
    results: list[list[Sample]] = [[] for _ in streams]
    errors: list[BaseException] = []
    state = {"active": 0.0, "step_start": 0.0, "stopped_at_start": 0.0, "steps": 0,
             "done": False}
    probing = threading.Lock()  # one probe at a time, so probe times ascend
    finished = threading.Event()

    def between_steps() -> None:
        """Runs once per step, on the last thread to finish it."""
        with probing:
            step = (time.perf_counter() - state["step_start"]
                    - (speed.stopped_s - state["stopped_at_start"]))
            state["active"] += step
            state["steps"] += 1
            speed.probe(LOCAL_MIN_PROBES)
            state["done"] = (state["active"] * speed.scale() >= seconds
                             and state["steps"] % round_steps == 0)
            state["step_start"] = time.perf_counter()
            state["stopped_at_start"] = speed.stopped_s

    def in_flight_probes() -> None:
        while not finished.wait(PROBE_EVERY_S):
            with probing:
                speed.probe_stopped(pid)

    barrier = threading.Barrier(len(streams), action=between_steps)

    def run(slot: int) -> None:
        conn = Connection(port)
        try:
            for index, (kind, raw, trace_id) in enumerate(streams[slot]):
                t0 = time.perf_counter()
                status, body = conn.request(raw)
                t1 = time.perf_counter()
                results[slot].append(Sample(index, kind, trace_id, t0, t1, status, body))
                barrier.wait()
                if state["done"]:
                    break
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)
            barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(streams))]
    prober = threading.Thread(target=in_flight_probes)
    collecting = gc.isenabled()
    gc.disable()
    try:
        speed.probe(LOCAL_MIN_PROBES)
        state["step_start"] = time.perf_counter()
        prober.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        finished.set()
        if prober.ident is not None:
            prober.join()
        if collecting:
            gc.enable()
    if errors:
        raise errors[0]
    for samples in results:
        speed.scale_samples(samples)
    return results, state["active"]


def get_json(port: int, route: str) -> dict:
    conn = Connection(port)
    try:
        status, body = conn.request(encode_get(route))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {route} answered {status}")
    return json.loads(body)
