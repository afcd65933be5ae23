"""Concurrent HTTP soak for the failure-hardened service surface.

Spins up the stdlib server in-process with a deliberately small
in-flight limit, then hammers it from many client threads for a fixed
wall-clock window with a mix of traffic:

* valid analyze/batch/simulate requests (warm and cold structures),
* requests carrying tiny ``deadline_ms`` budgets (may map to 504),
* malformed bodies and unknown paths (must map to 400/404),

so the server is continuously shedding load (429), finishing real work
(200), and rejecting garbage — all at once.  The pass criterion is the
resilience contract, not throughput: **every** response must be a
well-formed schema-v1 envelope with a status from the documented
catalogue, and no request may hang, reset the connection, or return an
unstructured 500.  Any violation fails the process (exit 1).

After the soak, the observability contract is checked too: the
``/v1/metrics`` scrape must be well-formed Prometheus text, counters
and histogram components must be monotonic across scrapes, and the
per-route ``repro_requests_total`` sums must agree with the health
payload's ``requests_by_route`` view (see ``docs/observability.md``).

Run directly (CI's chaos-smoke job uses ``--seconds 30``)::

    python benchmarks/soak_service.py --seconds 30 --threads 8 --max-inflight 4
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import re
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.api import SCHEMA_VERSION, Session
from repro.serve import make_server

#: Statuses the resilience contract allows under fault-free soak load.
#: 500 is deliberately absent: a structured internal error would still
#: be an envelope, but the soak runs no injected faults, so any 500 is
#: a real regression.
ALLOWED_STATUSES = {200, 400, 404, 429, 503, 504}

RESULT_KINDS = {
    "analyze", "simulate", "sweep", "tune", "hierarchy", "distributed",
    "health", "error", "batch",
}


def _request_mix(rng: random.Random) -> tuple[str, bytes | None]:
    """One (path, body) draw from the soak traffic mix."""
    roll = rng.random()
    if roll < 0.40:  # plain analyze, rotating sizes: warm + cold structures
        size = rng.choice((16, 24, 32, 48, 64))
        body = {"problem": "matmul", "sizes": [size, size, size],
                "cache_words": rng.choice((64, 256, 1024))}
        return "/v1/analyze", json.dumps(body).encode()
    if roll < 0.55:  # tiny deadline: 200 when warm, structured 504 when not
        size = rng.choice((20, 28, 36))
        body = {"problem": "nbody", "sizes": [size, size],
                "cache_words": 64, "deadline_ms": rng.choice((1, 5, 10_000))}
        return "/v1/analyze", json.dumps(body).encode()
    if roll < 0.70:  # small ordered batch
        body = {"requests": [
            {"problem": "matmul", "sizes": [16, 16, 16], "cache_words": 64},
            {"problem": "nbody", "sizes": [24, 24], "cache_words": 64},
        ]}
        return "/v1/batch", json.dumps(body).encode()
    if roll < 0.80:  # trace simulation (the heavyweight request)
        body = {"problem": "nbody", "sizes": [48, 48], "cache_words": 64}
        return "/v1/simulate", json.dumps(body).encode()
    if roll < 0.87:  # health probe: must always land, even when shedding
        return "/v1/health", json.dumps({}).encode()
    if roll < 0.94:  # garbage body: structured 400
        return "/v1/analyze", b"{this is not json"
    return "/v2/nope", json.dumps({}).encode()  # unknown path: structured 404


def _check_envelope(status: int, body: dict) -> str | None:
    """Return a violation description, or None when the envelope is sound."""
    if status not in ALLOWED_STATUSES:
        return f"status {status} outside the documented catalogue"
    if body.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {body.get('schema_version')!r}"
    kind = body.get("kind")
    if kind not in RESULT_KINDS:
        return f"unknown kind {kind!r}"
    if kind in ("batch", "sweep"):
        if not isinstance(body.get("results"), list):
            return "batch envelope without a results list"
        return None
    payload = body.get("payload")
    if not isinstance(payload, dict):
        return "payload is not an object"
    if kind == "error" and payload.get("status") != status:
        return f"error payload status {payload.get('status')} != HTTP {status}"
    if status != 200 and kind != "error":
        return f"non-200 status {status} with kind {kind!r}"
    return None


def _soak_worker(base: str, stop_at: float, seed: int,
                 counts: collections.Counter, violations: list,
                 lock: threading.Lock) -> None:
    rng = random.Random(seed)
    while time.monotonic() < stop_at:
        path, data = _request_mix(rng)
        request = urllib.request.Request(
            base + path, data=data,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            try:
                with urllib.request.urlopen(request, timeout=60) as resp:
                    status, raw = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                status, raw = exc.code, exc.read()
        except Exception as exc:  # connection reset, timeout, ...: a hang/crash
            with lock:
                violations.append(f"{path}: transport failure {exc!r}")
                counts["transport-error"] += 1
            continue
        try:
            body = json.loads(raw)
            problem = _check_envelope(status, body)
        except (ValueError, AttributeError):
            problem = f"body is not JSON ({raw[:80]!r})"
        with lock:
            counts[status] += 1
            if problem is not None:
                counts["malformed"] += 1
                if len(violations) < 20:
                    violations.append(f"{path} -> {status}: {problem}")


#: One Prometheus text-format sample line: name{labels} value.
_PROM_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$'
)


def _parse_prom(text: str) -> tuple[dict[str, str], dict[str, float], list[str]]:
    """(family types, series -> value, violations) for one scrape."""
    types: dict[str, str] = {}
    series: dict[str, float] = {}
    problems: list[str] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"malformed TYPE line: {line!r}")
            else:
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP and comments
        match = _PROM_SAMPLE.match(line)
        if match is None:
            problems.append(f"unparseable sample line: {line!r}")
            continue
        key = match.group("name") + (match.group("labels") or "")
        if key in series:
            problems.append(f"duplicate series: {key}")
        series[key] = float(match.group("value"))
    return types, series, problems


def _series_family(name: str, types: dict[str, str]) -> str | None:
    """The declared type owning one series (histogram suffixes included)."""
    if name in types:
        return types[name]
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)]
        if name.endswith(suffix) and base in types:
            return types[base]
    return None


def _route_total(series: dict[str, float], route: str) -> float:
    """Sum of repro_requests_total across statuses for one route."""
    return sum(
        value
        for key, value in series.items()
        if key.startswith("repro_requests_total{") and f'route="{route}"' in key
    )


def _check_metrics(base: str, health_routes: dict | None) -> list[str]:
    """The /v1/metrics contract: parseable, monotonic, health-consistent."""
    problems: list[str] = []

    def scrape() -> str:
        request = urllib.request.Request(base + "/v1/metrics", method="GET")
        with urllib.request.urlopen(request, timeout=30) as resp:
            ctype = resp.headers.get("Content-Type", "")
            if not ctype.startswith("text/plain"):
                problems.append(f"scrape content-type {ctype!r}")
            return resp.read().decode("utf-8")

    try:
        first = scrape()
        # One more warm analyze between scrapes: counters must move.
        request = urllib.request.Request(
            base + "/v1/analyze",
            data=json.dumps(
                {"problem": "matmul", "sizes": [16, 16, 16], "cache_words": 64}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            resp.read()
        second = scrape()
    except Exception as exc:
        return [f"metrics scrape failed: {exc!r}"]

    types1, series1, parse1 = _parse_prom(first)
    types2, series2, parse2 = _parse_prom(second)
    problems += parse1 + parse2
    for family, expected in (
        ("repro_requests_total", "counter"),
        ("repro_request_seconds", "histogram"),
    ):
        if types1.get(family) != expected:
            problems.append(f"scrape lacks {expected} family {family}")
    # Counters and histogram components never vanish or go backwards.
    for key, value in series1.items():
        family = _series_family(key.partition("{")[0], types1)
        if family not in ("counter", "histogram"):
            continue
        after = series2.get(key)
        if after is None:
            problems.append(f"series vanished between scrapes: {key}")
        elif after < value:
            problems.append(f"{key} went backwards: {value} -> {after}")
    # The between-scrapes analyze shows up as exactly one more request.
    before = _route_total(series1, "/v1/analyze")
    after = _route_total(series2, "/v1/analyze")
    if after != before + 1:
        problems.append(
            f"/v1/analyze served total moved {before} -> {after}, expected +1"
        )
    # The registry's per-route view agrees with the health payload's.
    if health_routes is not None:
        for route in ("/v1/analyze", "/v1/batch", "/v1/simulate"):
            expected_count = float(health_routes.get(route, 0))
            got = _route_total(series1, route)
            if got != expected_count:
                problems.append(
                    f"repro_requests_total for {route} is {got}, "
                    f"health saw {expected_count}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="soak duration (default 30)")
    parser.add_argument("--threads", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="server in-flight limit; small values force "
                             "continuous load shedding (default 4)")
    parser.add_argument("--response-cache", type=int, default=256,
                        help="full-request response cache entries "
                             "(default 256; 0 = off)")
    args = parser.parse_args(argv)

    server = make_server(
        port=0, session=Session(), max_inflight=args.max_inflight,
        response_cache=args.response_cache,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    counts: collections.Counter = collections.Counter()
    violations: list[str] = []
    lock = threading.Lock()
    stop_at = time.monotonic() + args.seconds
    workers = [
        threading.Thread(
            target=_soak_worker,
            args=(base, stop_at, seed, counts, violations, lock),
            daemon=True,
        )
        for seed in range(args.threads)
    ]
    t0 = time.monotonic()
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=args.seconds + 90)
    elapsed = time.monotonic() - t0

    # The health payload is part of the soak contract: the cache
    # counters must reflect the configuration we ran with.
    health_problems: list[str] = []
    health_routes: dict | None = None
    try:
        with urllib.request.urlopen(
            f"{base}/v1/health", timeout=30
        ) as resp:
            health = json.load(resp)
        stats = health["payload"]["server"]
        if stats["response_cache"]["capacity"] != args.response_cache:
            health_problems.append(
                f"health reports response cache capacity "
                f"{stats['response_cache']['capacity']}, expected {args.response_cache}")
        if args.response_cache and not stats["response_cache"]["hits"]:
            health_problems.append("soak produced zero response-cache hits")
        health_routes = stats["requests_by_route"]
    except Exception as exc:
        health_problems.append(f"final health probe failed: {exc!r}")

    # The metrics endpoint is part of the contract too: no traffic runs
    # between the health probe above and these scrapes, so the
    # registry's counters must line up with health's route counts.
    metrics_problems = _check_metrics(base, health_routes)

    server.shutdown()
    server.server_close()
    thread.join(timeout=10)

    total = sum(v for k, v in counts.items() if isinstance(k, int))
    print(f"soak: {total} responses in {elapsed:.1f}s "
          f"({args.threads} threads, max_inflight={args.max_inflight}, "
          f"response_cache={args.response_cache})")
    for key in sorted(counts, key=str):
        print(f"  {key}: {counts[key]}")
    if any(w.is_alive() for w in workers):
        print("FAIL: a client thread never finished (hung request)")
        return 1
    if counts["malformed"] or counts["transport-error"]:
        print(f"FAIL: {counts['malformed']} malformed responses, "
              f"{counts['transport-error']} transport failures")
        for violation in violations:
            print(f"  {violation}")
        return 1
    if total == 0:
        print("FAIL: the soak produced no responses at all")
        return 1
    if health_problems:
        print("FAIL: health endpoint contract violated")
        for problem in health_problems:
            print(f"  {problem}")
        return 1
    if metrics_problems:
        print("FAIL: metrics endpoint contract violated")
        for problem in metrics_problems:
            print(f"  {problem}")
        return 1
    print("PASS: zero malformed responses, metrics contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
