"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(["generate", "tiny", "--seed", "7"])
        assert args.command == "generate"
        assert args.profile == "tiny"
        assert args.seed == 7

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "not-a-profile"])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "music", "concert"])
        assert args.keywords == ["music", "concert"]
        assert args.algorithm == "mttd"
        assert args.k == 10


class TestCommands:
    def test_generate_writes_stream_and_model(self, tmp_path, capsys):
        exit_code = main(
            ["generate", "tiny", "--seed", "3", "--output-dir", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "tiny" / "stream.jsonl").exists()
        assert (tmp_path / "tiny" / "topic_model.npz").exists()
        output = capsys.readouterr().out
        assert "wrote" in output

    def test_stats_from_profile(self, capsys):
        exit_code = main(["stats", "--profile", "tiny", "--seed", "3"])
        assert exit_code == 0
        assert "tiny" in capsys.readouterr().out

    def test_stats_from_stream_file(self, tmp_path, capsys):
        main(["generate", "tiny", "--seed", "3", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        exit_code = main(["stats", "--stream", str(tmp_path / "tiny" / "stream.jsonl")])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "elements:" in output

    def test_stats_requires_exactly_one_source(self, capsys):
        assert main(["stats"]) == 2
        assert main(["stats", "--profile", "tiny", "--stream", "x.jsonl"]) == 2

    def test_query_on_generated_profile(self, capsys):
        exit_code = main(
            [
                "query", "soccer", "goal",
                "--profile", "tiny", "--k", "4",
                "--algorithm", "mttd", "--window-hours", "3",
                "--eta", "1.0", "--seed", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mttd" in output
        assert "replayed" in output

    def test_query_from_saved_stream_and_model(self, tmp_path, capsys):
        main(["generate", "tiny", "--seed", "3", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        exit_code = main(
            [
                "query", "soccer",
                "--stream", str(tmp_path / "tiny" / "stream.jsonl"),
                "--model", str(tmp_path / "tiny" / "topic_model.npz"),
                "--k", "3", "--window-hours", "3", "--eta", "1.0",
            ]
        )
        assert exit_code == 0
        assert "score" in capsys.readouterr().out

    def test_query_with_stream_requires_model(self, tmp_path, capsys):
        main(["generate", "tiny", "--seed", "3", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        stream = str(tmp_path / "tiny" / "stream.jsonl")
        # One failure mode for query and server: usage error, exit status 2.
        for command in (["query", "soccer"], ["server"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--stream", stream])
            assert exit_info.value.code == 2
            assert "--model is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["query", "foo"], ["serve"], ["server"]])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--session-gap", "5"], "unrecognized arguments: --session-gap"),
            (["--window-policy", "session"], "unrecognized arguments: --window-policy"),
            (["--backend", "cluster", "--shards", "0"], "num_shards must be > 0"),
            (["--window-hours", "0"], "window_length must be > 0"),
        ],
    )
    def test_flags_that_fail_validation_are_usage_errors(
        self, command, flags, message, capsys
    ):
        """Exit status 2 and the message on stderr, not a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--profile", "tiny", *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_ha_offers_only_the_drill(self, tmp_path, capsys):
        """The checkpoint-chain commands went with the chain format."""
        for command in ("chain", "compact"):
            with pytest.raises(SystemExit) as exit_info:
                main(["ha", command, str(tmp_path)])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        assert build_parser().parse_args(["ha", "drill"]).ha_command == "drill"


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.profile == "tiny"
        assert args.queries == 100
        assert args.algorithm == "mttd"
        assert not hasattr(args, "naive")
        assert args.ttl_buckets is None

    def test_serve_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--algorithm", "nope"])

    def test_serve_end_to_end_prints_metrics_report(self, capsys):
        exit_code = main(
            [
                "serve", "--profile", "tiny", "--queries", "10", "--k", "3",
                "--window-hours", "3", "--bucket-minutes", "30", "--eta", "1.0",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "standing queries" in output
        assert "p50" in output and "p99" in output
        assert "re-eval ratio" in output
        assert "snapshot cache" not in output
        assert "q00000" in output  # sample standing results are printed

    def test_naive_flag_is_refused(self, capsys):
        """The naive maintenance mode is gone: argparse refuses its flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--profile", "tiny", "--queries", "5", "--naive"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --naive" in capsys.readouterr().err


class TestServerCommand:
    def test_runs_the_bundled_server_and_closes_the_app(self, monkeypatch, capsys):
        """``repro-ksir server`` hands its app to :func:`repro.server.asgi.run`
        with ``--host`` / ``--port``, then closes the app."""
        import repro.server.asgi

        served = []
        monkeypatch.setattr(
            repro.server.asgi, "run",
            lambda app, host, port: served.append((app, host, port)),
        )
        exit_code = main(
            ["server", "--profile", "tiny", "--host", "0.0.0.0", "--port", "8123"]
        )
        assert exit_code == 0
        [(app, host, port)] = served
        assert (host, port) == ("0.0.0.0", 8123)
        assert app._closed

    def test_store_path_flag_is_refused(self, capsys):
        """Telemetry is counted in the process: argparse refuses the flag
        that named a file to keep it in."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["server", "--profile", "tiny", "--store-path", "runtime.db"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --store-path" in capsys.readouterr().err


class TestBenchCommands:
    def test_bench_parser(self):
        args = build_parser().parse_args(
            ["bench", "run", "fig7_epsilon_time", "--tier", "full"]
        )
        assert args.command == "bench"
        assert args.bench_command == "run"
        assert args.names == ["fig7_epsilon_time"]
        assert args.tier == "full"
        assert build_parser().parse_args(["bench", "run"]).tier == "tiny"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "run", "--tier", "huge"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        # The retired halves: the timing gate, the profiler, tag selection and
        # the duplicate ``experiment`` path.
        for retired in (["bench", "compare", "a", "b"], ["bench", "profile", "fig9_k_time"],
                        ["bench", "run", "--tag", "micro"], ["experiment", "table3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(retired)

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        output = capsys.readouterr().out
        assert "fig7_epsilon_time" in output
        assert "13 benchmark(s) registered" in output

    def test_bench_run_writes_schema_valid_reports(self, tmp_path, capsys):
        import json

        exit_code = main(
            ["bench", "run", "table3_datasets", "fig7_epsilon_time", "--tier", "tiny",
             "--output-dir", str(tmp_path), "--seed", "7"]
        )
        assert exit_code == 0
        for name in ("table3_datasets", "fig7_epsilon_time"):
            data = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
            assert data["benchmark"] == name
            assert data["tier"] == "tiny"
            assert data["seed"] == 7
            assert data["checks_passed"] is True
            assert data["params"]["datasets"] == ["twitter-small"]
        # the rendered artefacts are printed and written next to the reports.
        output = capsys.readouterr().out
        assert "Table 3" in output
        assert "Figure 7" in output and "mttd" in output
        assert "Figure 7" in (tmp_path / "fig7_epsilon_time.txt").read_text()

    def test_bench_run_unknown_name(self, capsys):
        with pytest.raises(KeyError):
            main(["bench", "run", "nope"])

    def test_shim_is_the_cli_command(self, tmp_path, capsys):
        import runpy

        shim = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_table3_datasets.py"
        namespace = runpy.run_path(str(shim))
        assert namespace["main"](["--seed", "7", "--output-dir", str(tmp_path)]) == 0
        assert "table3_datasets [tiny] seed=7" in capsys.readouterr().out
        assert (tmp_path / "table3_datasets.txt").exists()
