#!/usr/bin/env python
"""CI perf-regression gate: fresh smoke benches vs committed baselines.

Runs ``bench_service.py``, ``bench_planner.py`` and
``bench_frontend.py`` in ``--smoke`` mode
(several times, keeping the best number per metric — CI boxes are
noisy), then compares the gated throughput metrics against the
committed baselines in ``benchmarks/results/smoke/baseline_metrics.json``.
Any metric more than ``--tolerance`` (default 20%) below its baseline
fails the gate with exit code 1 and a per-metric report.

Usage::

    python benchmarks/check_regression.py                   # the gate
    python benchmarks/check_regression.py --update-baselines
    python benchmarks/check_regression.py --seed-regression 0.5
        # synthetic 2x slowdown: MUST exit 1 (CI proves the gate trips)
    python benchmarks/check_regression.py --out report.json

The benches write their smoke numbers to ``$REPRO_BENCH_DIR`` (see
``_write_bench_json`` in the bench files); this script owns that
directory for the duration of a run.  ``--keep-fresh DIR`` copies the
fresh bench JSONs out for artifacts, and ``--reuse DIR`` gates against
an existing directory without re-running the benches (CI uses this to
prove the seeded regression trips without paying for a second bench
run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BASELINE_PATH = BENCH_DIR / "results" / "smoke" / "baseline_metrics.json"
BENCH_FILES = ("bench_service.py", "bench_planner.py", "bench_frontend.py")

#: (bench JSON file, metric name, path into the JSON[, tolerance]).
#: Every gated metric is higher-is-better; mixing in ratios (speedups)
#: alongside absolute req/s keeps the gate meaningful across machine
#: generations.  An optional fourth element pins a per-metric tolerance
#: that overrides ``--tolerance`` — used for ratios that must stay
#: near 1.0 regardless of how noisy the absolute numbers are.
GATED_METRICS = (
    ("BENCH_service.json", "service.http_analyze_rps",
     ("http_analyze", "requests_per_second")),
    ("BENCH_service.json", "service.http_analyze_nocache_rps",
     ("http_analyze_nocache", "requests_per_second")),
    ("BENCH_service.json", "service.session_batch_rps",
     ("session_batch", "requests_per_second")),
    # Tracing-on vs tracing-off throughput on the cached HTTP path:
    # observability must cost < 5%, whatever the machine.
    ("BENCH_service.json", "service.obs_relative_throughput",
     ("obs_relative_throughput",), 0.05),
    ("BENCH_planner.json", "planner.warm_queries_per_second",
     ("warm_queries_per_second",)),
    ("BENCH_planner.json", "planner.speedup_engine_vs_solve_tiling",
     ("speedup_engine_vs_solve_tiling",)),
    # Cold: a fresh planner's first query on every distinct catalog
    # structure (the multiparametric solve, primal recovery and bound).
    ("BENCH_planner.json", "planner.cold_structures_per_second",
     ("cold_structures", "structures_per_second")),
    # Warm and cold separately: a warm/cold ratio would fall, and trip
    # the gate, whenever the cold solve gets faster.
    ("BENCH_frontend.json", "frontend.warm_bands_per_second",
     ("warm", "bands_per_second")),
    ("BENCH_frontend.json", "frontend.cold_bands_per_second",
     ("cold", "bands_per_second")),
)

#: metric name -> pinned tolerance (from GATED_METRICS' optional entry).
METRIC_TOLERANCES = {
    entry[1]: entry[3] for entry in GATED_METRICS if len(entry) > 3
}


def _metric(blob: dict, path: tuple[str, ...]) -> float:
    value = blob
    for key in path:
        value = value[key]
    return float(value)


def collect_metrics(bench_dir: Path) -> dict[str, float]:
    """Gated metrics from one directory of fresh bench JSONs."""
    out: dict[str, float] = {}
    for filename, name, path, *_ in GATED_METRICS:
        file_path = bench_dir / filename
        if not file_path.exists():
            raise FileNotFoundError(
                f"{file_path} missing — did the bench run fail?"
            )
        out[name] = _metric(json.loads(file_path.read_text()), path)
    return out


def run_benches(bench_dir: Path) -> None:
    """One ``--smoke`` pass of every gated bench, writing into bench_dir."""
    env = dict(os.environ)
    env["REPRO_BENCH_DIR"] = str(bench_dir)
    src = REPO_ROOT / "src"
    if src.is_dir():  # repo checkout without an installed package
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(src)
        )
    cmd = [
        sys.executable, "-m", "pytest", "-q", "--smoke",
        "-p", "no:cacheprovider",
        *(str(BENCH_DIR / name) for name in BENCH_FILES),
    ]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"bench run failed with exit code {proc.returncode}")


def best_of(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric best across runs (all gated metrics are higher-is-better)."""
    return {name: max(run[name] for run in runs) for name in runs[0]}


def gate(
    fresh: dict[str, float], baseline: dict[str, float], tolerance: float
) -> tuple[list[str], dict]:
    """(failures, per-metric report) for fresh numbers vs the baseline.

    A metric missing from the baseline passes (new metrics enter the
    gate when baselines are next updated); a baseline metric missing
    from the fresh run fails (a silently dropped metric is itself a
    regression of the gate).  A metric with a pinned tolerance in
    ``METRIC_TOLERANCES`` gates at that tolerance instead of the
    run-wide ``tolerance``.
    """
    failures: list[str] = []
    report: dict[str, dict] = {}
    for name, base_value in baseline.items():
        if name not in fresh:
            failures.append(f"{name}: missing from the fresh run")
            report[name] = {"baseline": base_value, "fresh": None, "ok": False}
            continue
        fresh_value = fresh[name]
        metric_tolerance = METRIC_TOLERANCES.get(name, tolerance)
        floor = base_value * (1.0 - metric_tolerance)
        ok = fresh_value >= floor
        report[name] = {
            "baseline": base_value,
            "fresh": round(fresh_value, 2),
            "ratio": round(fresh_value / base_value, 3) if base_value else None,
            "floor": round(floor, 2),
            "tolerance": metric_tolerance,
            "ok": ok,
        }
        if not ok:
            failures.append(
                f"{name}: {fresh_value:.1f} < {floor:.1f} "
                f"(baseline {base_value:.1f}, tolerance {metric_tolerance:.0%})"
            )
    for name, fresh_value in fresh.items():
        if name not in baseline:
            report[name] = {"baseline": None, "fresh": round(fresh_value, 2), "ok": True}
    return failures, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop per metric (default 0.20)")
    parser.add_argument("--runs", type=int, default=3,
                        help="smoke passes; best number per metric wins (default 3)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="write the fresh best-of metrics as the new baseline")
    parser.add_argument("--seed-regression", type=float, default=None, metavar="FACTOR",
                        help="multiply fresh metrics by FACTOR before gating "
                             "(e.g. 0.5 = synthetic 2x slowdown; proves the gate trips)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON gate report here")
    parser.add_argument("--keep-fresh", metavar="DIR",
                        help="copy the fresh bench JSONs into DIR")
    parser.add_argument("--reuse", metavar="DIR",
                        help="gate against existing bench JSONs in DIR "
                             "instead of running the benches")
    args = parser.parse_args(argv)

    if not 0 <= args.tolerance < 1:
        print("error: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2

    try:
        if args.reuse:
            runs = [collect_metrics(Path(args.reuse))]
            fresh_dir = Path(args.reuse)
        else:
            runs = []
            with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
                fresh_dir = Path(tmp)
                for index in range(args.runs):
                    print(f"bench-gate: smoke run {index + 1}/{args.runs}", flush=True)
                    run_benches(fresh_dir)
                    runs.append(collect_metrics(fresh_dir))
                if args.keep_fresh:
                    keep = Path(args.keep_fresh)
                    keep.mkdir(parents=True, exist_ok=True)
                    for name in os.listdir(fresh_dir):
                        shutil.copy2(fresh_dir / name, keep / name)
    except (RuntimeError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fresh = best_of(runs)
    if args.seed_regression is not None:
        fresh = {name: value * args.seed_regression for name, value in fresh.items()}

    if args.update_baselines:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps({k: round(v, 2) for k, v in sorted(fresh.items())}, indent=2)
            + "\n"
        )
        print(f"bench-gate: baselines updated at {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"error: no baseline at {BASELINE_PATH}; run --update-baselines",
              file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    failures, report = gate(fresh, baseline, args.tolerance)

    document = {
        "tolerance": args.tolerance,
        "runs": len(runs),
        "seed_regression": args.seed_regression,
        "metrics": report,
        "failures": failures,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    for name in sorted(report):
        entry = report[name]
        flag = "ok  " if entry["ok"] else "FAIL"
        print(f"  {flag} {name}: fresh={entry['fresh']} baseline={entry['baseline']}")
    if failures:
        print(f"bench-gate: FAIL ({len(failures)} metric(s) regressed >"
              f" {args.tolerance:.0%})")
        return 1
    print("bench-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
