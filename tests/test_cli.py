"""Tests for the command-line front end and the analyze() bundle."""

import json
from pathlib import Path

import pytest

import repro
from repro.api import SCHEMA_VERSION, Session, SweepRequest
from repro.cli import build_serve_parser, main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "analyze_payloads.json").read_text()
)


class TestAnalyze:
    def test_bundle_fields(self):
        nest = repro.parse_nest(
            "C[i,k] += A[i,j] * B[j,k]", bounds={"i": 1024, "j": 1024, "k": 16}
        )
        analysis = repro.analyze(nest, cache_words=2**16)
        assert analysis.certificate.tight
        assert analysis.lower_bound.k_hat == analysis.tiling.exponent
        assert analysis.tiling.tile.is_feasible(2**16, "per-array")
        text = analysis.summary()
        assert "k_hat" in text and "TIGHT" in text


class TestCLI:
    def test_statement_mode(self, capsys):
        rc = main(
            [
                "C[i,k] += A[i,j] * B[j,k]",
                "--bounds",
                "i=1024,j=1024,k=16",
                "-M",
                "65536",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "k_hat=5/4" in out
        assert "TIGHT" in out

    def test_problem_mode_with_sizes(self, capsys):
        rc = main(["--problem", "nbody", "--sizes", "4096,4096", "-M", "4096"])
        assert rc == 0
        assert "nbody" in capsys.readouterr().out

    def test_problem_mode_default_sizes(self, capsys):
        rc = main(["--problem", "matvec", "-M", "1024"])
        assert rc == 0

    def test_piecewise_flag(self, capsys):
        rc = main(
            ["--problem", "matmul", "--sizes", "64,64,64", "-M", "256", "--piecewise"]
        )
        assert rc == 0
        assert "min(" in capsys.readouterr().out

    def test_simulate_flag(self, capsys):
        rc = main(
            ["--problem", "matmul", "--sizes", "64,64,64", "-M", "1024",
             "--simulate", "--budget", "aggregate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated tiled traffic" in out
        assert "simulated naive traffic" in out

    def test_bad_statement(self, capsys):
        rc = main(["C[i] += A[i+1]", "--bounds", "i=4", "-M", "64"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_bounds_blob(self, capsys):
        rc = main(["C[i] += A[i]", "--bounds", "i:4", "-M", "64"])
        assert rc == 2

    def test_bad_sizes_arity(self, capsys):
        rc = main(["--problem", "matmul", "--sizes", "4,4", "-M", "64"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "matmul", "--sizes", "a,b,c", "-M", "64"],
            ["--problem", "matmul", "--sizes", "8,8,8", "-M", "0"],
            ["--problem", "matmul", "--sizes", "8,8,8", "-M", "-5"],
            ["--problem", "matmul", "--sizes", "8,8,8", "-M", "1"],
            ["--problem", "matmul", "--sizes", "0,8,8", "-M", "64"],
        ],
        ids=["non-int-sizes", "M=0", "M=-5", "M=1", "zero-size"],
    )
    def test_bad_values_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_iteration_count_past_the_float_range_is_a_usage_error(self, capsys):
        assert main(["--problem", "matmul", "--sizes", f"{10**305},40,1", "-M", "64"]) == 0
        capsys.readouterr()
        assert main(["--problem", "matmul", "--sizes", f"{10**307},40,1", "-M", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than a float can hold" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "matmul", "--sizes", "8,8,8", "-M", "HUGE"],
            ["--problem", "matmul", "--sweep", "--sizes", "8,8,8", "-M", "64:HUGE"],
            ["tune", "--problem", "matmul", "--sizes", "8,8,8", "-M", "HUGE", "--workers", "0"],
            ["hierarchy", "--problem", "matmul", "--sizes", "8,8,8",
             "--capacities", "48:HUGE", "--workers", "0"],
            ["program", "--einsum", "ik,kj->ij", "--sizes", "i=8,k=8,j=8", "-M", "HUGE"],
        ],
        ids=["analyze", "sweep", "tune", "hierarchy", "program"],
    )
    def test_cache_size_past_the_float_range_is_a_usage_error(self, capsys, argv):
        argv = [arg.replace("HUGE", str(10**400)) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than a float can hold" in err

    def test_missing_inputs(self):
        with pytest.raises(SystemExit):
            main(["-M", "64"])

    def test_statement_requires_bounds(self):
        with pytest.raises(SystemExit):
            main(["C[i] += A[i]", "-M", "64"])


class TestBatchCLI:
    """The JSON-lines surface: every line is a schema-v1 Result envelope."""

    def _lines(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_batch_golden(self, capsys, tmp_path):
        requests = [
            {"problem": "matmul", "sizes": [64, 64, 64], "cache_words": 1024},
            {"problem": "nbody", "sizes": [4096, 4096], "cache_words": 4096,
             "budget": "aggregate"},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests))
        assert main(["--batch", str(path)]) == 0
        lines = self._lines(capsys)
        assert len(lines) == 2
        for line in lines:
            assert line["schema_version"] == SCHEMA_VERSION
            assert line["kind"] == "analyze"
            assert isinstance(line["meta"]["cache_hit"], bool)
        assert lines[0]["payload"] == GOLDEN["analyze_matmul"]
        assert lines[1]["payload"] == GOLDEN["analyze_nbody_aggregate"]

    def test_batch_unnamed_statements_get_indexed_names(self, capsys, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([
            {"statement": "F[i] += P[i] * Q[j]", "bounds": {"i": 8, "j": 8},
             "cache_words": 16},
            {"statement": "F[i] += P[i] * Q[j]", "bounds": {"i": 8, "j": 8},
             "cache_words": 32},
        ]))
        assert main(["--batch", str(path)]) == 0
        lines = self._lines(capsys)
        assert [ln["payload"]["name"] for ln in lines] == ["request0", "request1"]

    def test_plan_cache_file_is_a_usage_error(self, capsys, tmp_path):
        # The plan store is gone: an old invocation naming one stops with
        # a usage error (never a silently ignored option) and leaves the
        # file alone.
        legacy = tmp_path / "plans.json"
        legacy.write_text('{"version": 1, "entries": {}}')
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "matvec", "--sweep", "--sizes", "8,8", "-M", "16",
                  "--plan-cache", str(legacy)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --plan-cache" in capsys.readouterr().err
        assert legacy.read_text() == '{"version": 1, "entries": {}}'

    def test_serve_port_conflict_is_a_clean_error(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            rc = main(["serve", "--port", str(port), "--quiet"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_batch_accepts_wrapped_object(self, capsys, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(
            {"requests": [{"problem": "matvec", "cache_words": 256}]}
        ))
        assert main(["--batch", str(path)]) == 0
        (line,) = self._lines(capsys)
        assert line["payload"]["name"] == "matvec"

    def test_batch_bad_request_file(self, capsys, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"problem": "matmul"}]))  # no cache_words
        assert main(["--batch", str(path)]) == 2
        assert "cache_words" in capsys.readouterr().err

    def test_sweep_grid_lines(self, capsys):
        rc = main(["--problem", "matmul", "--sizes", "64:128,64,8",
                   "-M", "256:1024", "--sweep"])
        assert rc == 0
        lines = self._lines(capsys)
        assert len(lines) == 4  # 2 sizes x 2 cache sizes, cache innermost
        assert [(ln["payload"]["bounds"][0], ln["payload"]["cache_words"])
                for ln in lines] == [(64, 256), (64, 1024), (128, 256), (128, 1024)]
        assert all(ln["schema_version"] == SCHEMA_VERSION for ln in lines)

    def test_sweep_statement_bounds_axes(self, capsys):
        rc = main(["F[i] += P[i] * Q[j]", "--bounds", "i=16:64,j=32",
                   "-M", "64", "--sweep"])
        assert rc == 0
        lines = self._lines(capsys)
        assert [ln["payload"]["bounds"] for ln in lines] == [[16, 32], [64, 32]]

    @pytest.mark.parametrize(
        "argv, sweep",
        [
            (
                ["--problem", "matmul", "--sizes", "64:128,64,8:16", "-M", "256:1024"],
                SweepRequest(cache_sizes=(256, 1024), problem="matmul",
                             size_axes=((64, 128), (64,), (8, 16))),
            ),
            (
                ["F[i] += P[i] * Q[j]", "--bounds", "i=16:64,j=32", "-M", "64",
                 "--budget", "aggregate"],
                SweepRequest(cache_sizes=(64,), statement="F[i] += P[i] * Q[j]",
                             bound_axes=(("i", (16, 64)), ("j", (32,))),
                             budget="aggregate"),
            ),
        ],
        ids=["problem", "statement"],
    )
    def test_sweep_payloads_match_session_sweep(self, capsys, argv, sweep):
        assert main([*argv, "--sweep"]) == 0
        cli = [line["payload"] for line in self._lines(capsys)]
        assert cli == [result.payload for result in Session().sweep(sweep)]

    def test_serve_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert (args.host, args.port, args.quiet) == ("127.0.0.1", 8787, False)
        args = build_serve_parser().parse_args(["--port", "0", "--quiet"])
        assert args.port == 0 and args.quiet

    def test_serve_workers_flag_is_a_usage_error(self, capsys):
        # The server solves cold structures on its handler threads; it
        # has no process pool to size.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_batch_workers_flag_is_a_usage_error(self, capsys, tmp_path):
        # Batch and sweep plan serially; only the tuners take --workers.
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"problem": "matvec", "cache_words": 256}]))
        with pytest.raises(SystemExit) as exc:
            main(["--batch", str(path), "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
