"""Tests for the CI perf-regression gate's compare logic.

``benchmarks/check_regression.py`` is a script, not a package module;
it is loaded here via importlib so the pure pieces (metric extraction,
best-of aggregation, the gate itself, and the CLI plumbing around them)
stay tested without running any benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _fake_bench_dir(tmp_path: Path, scale: float = 1.0) -> Path:
    """A directory shaped like a fresh smoke-bench run."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    service = {
        "http_analyze": {"requests_per_second": 10_000.0 * scale},
        "http_analyze_nocache": {"requests_per_second": 2_000.0 * scale},
        "session_batch": {"requests_per_second": 5_000.0 * scale},
        "obs_relative_throughput": 1.0 * scale,
    }
    planner = {
        "warm_queries_per_second": 4_000.0 * scale,
        "speedup_engine_vs_solve_tiling": 12.0 * scale,
        "cold_structures": {"structures_per_second": 100.0 * scale},
    }
    frontend = {
        "cold": {"bands_per_second": 400.0 * scale},
        "warm": {"bands_per_second": 2_500.0 * scale},
    }
    (tmp_path / "BENCH_service.json").write_text(json.dumps(service))
    (tmp_path / "BENCH_planner.json").write_text(json.dumps(planner))
    (tmp_path / "BENCH_frontend.json").write_text(json.dumps(frontend))
    return tmp_path


class TestGate:
    def test_equal_numbers_pass(self):
        fresh = {"m": 100.0}
        failures, report = check_regression.gate(fresh, {"m": 100.0}, 0.2)
        assert failures == []
        assert report["m"]["ok"] is True

    def test_drop_within_tolerance_passes(self):
        failures, _ = check_regression.gate({"m": 81.0}, {"m": 100.0}, 0.2)
        assert failures == []

    def test_drop_beyond_tolerance_fails(self):
        failures, report = check_regression.gate({"m": 79.0}, {"m": 100.0}, 0.2)
        assert len(failures) == 1 and "m:" in failures[0]
        assert report["m"]["ok"] is False

    def test_missing_fresh_metric_fails(self):
        # A metric silently vanishing from the bench output must not
        # read as "no regression".
        failures, _ = check_regression.gate({}, {"m": 100.0}, 0.2)
        assert failures == ["m: missing from the fresh run"]

    def test_new_metric_without_baseline_passes(self):
        failures, report = check_regression.gate(
            {"new": 5.0}, {}, 0.2
        )
        assert failures == []
        assert report["new"] == {"baseline": None, "fresh": 5.0, "ok": True}

    def test_improvements_always_pass(self):
        failures, report = check_regression.gate({"m": 300.0}, {"m": 100.0}, 0.2)
        assert failures == [] and report["m"]["ratio"] == 3.0

    def test_per_metric_tolerance_overrides_the_default(self):
        # obs_relative_throughput carries its own 5% tolerance: a drop
        # the default 20% would wave through must still trip the gate.
        name = "service.obs_relative_throughput"
        assert check_regression.METRIC_TOLERANCES[name] == 0.05
        failures, report = check_regression.gate(
            {name: 0.92}, {name: 1.0}, 0.2
        )
        assert len(failures) == 1 and name in failures[0]
        assert report[name]["tolerance"] == 0.05
        failures, _ = check_regression.gate({name: 0.96}, {name: 1.0}, 0.2)
        assert failures == []


class TestAggregation:
    def test_best_of_takes_per_metric_max(self):
        best = check_regression.best_of(
            [{"a": 1.0, "b": 9.0}, {"a": 5.0, "b": 2.0}]
        )
        assert best == {"a": 5.0, "b": 9.0}

    def test_collect_metrics_reads_gated_paths(self, tmp_path):
        metrics = check_regression.collect_metrics(_fake_bench_dir(tmp_path))
        assert metrics["service.http_analyze_rps"] == 10_000.0
        assert metrics["planner.speedup_engine_vs_solve_tiling"] == 12.0
        assert len(metrics) == len(check_regression.GATED_METRICS)

    def test_collect_metrics_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check_regression.collect_metrics(tmp_path)


class TestCli:
    @pytest.fixture(autouse=True)
    def _isolated_baseline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            check_regression, "BASELINE_PATH", tmp_path / "baseline.json"
        )

    def test_update_then_pass_then_seeded_trip(self, tmp_path, capsys):
        fresh = _fake_bench_dir(tmp_path / "fresh")
        assert check_regression.main(
            ["--reuse", str(fresh), "--update-baselines"]
        ) == 0
        assert check_regression.main(["--reuse", str(fresh)]) == 0
        assert "PASS" in capsys.readouterr().out
        # The acceptance demand: a synthetic 2x slowdown MUST trip it.
        assert check_regression.main(
            ["--reuse", str(fresh), "--seed-regression", "0.5"]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_real_regression_trips(self, tmp_path):
        assert check_regression.main(
            ["--reuse", str(_fake_bench_dir(tmp_path / "good")),
             "--update-baselines"]
        ) == 0
        slow = _fake_bench_dir(tmp_path / "slow", scale=0.5)
        assert check_regression.main(["--reuse", str(slow)]) == 1

    def test_report_file_written(self, tmp_path):
        fresh = _fake_bench_dir(tmp_path / "fresh")
        check_regression.main(["--reuse", str(fresh), "--update-baselines"])
        out = tmp_path / "report.json"
        assert check_regression.main(
            ["--reuse", str(fresh), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["failures"] == []
        assert set(report["metrics"]) == {
            entry[1] for entry in check_regression.GATED_METRICS
        }

    def test_missing_baseline_is_an_infra_error(self, tmp_path):
        fresh = _fake_bench_dir(tmp_path / "fresh")
        assert check_regression.main(["--reuse", str(fresh)]) == 2

    def test_bad_flags_are_infra_errors(self, tmp_path):
        fresh = _fake_bench_dir(tmp_path / "fresh")
        assert check_regression.main(
            ["--reuse", str(fresh), "--tolerance", "1.5"]
        ) == 2
        assert check_regression.main(
            ["--reuse", str(fresh), "--runs", "0"]
        ) == 2
