"""Tests for the package CLI (python -m repro)."""

import pytest

from repro.__main__ import _configs_from_args, _parser, main


class TestInfo:
    def test_lists_systems_and_experiments(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("dema", "scotty", "desis", "tdigest"):
            assert name in out
        assert "fig5a" in out
        assert "Figure 8b" in out


class TestQuantile:
    def test_defaults(self, capsys):
        assert main(["quantile"]) == 0
        out = capsys.readouterr().out
        assert "value" in out
        assert "rank" in out

    def test_parameters_respected(self, capsys):
        assert main([
            "quantile", "--q", "0.25", "--nodes", "2",
            "--events-per-node", "100", "--gamma", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "q=0.25 over 2 nodes" in out
        assert "/ 200" in out

    def test_deterministic_per_seed(self, capsys):
        main(["quantile", "--seed", "5"])
        first = capsys.readouterr().out
        main(["quantile", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestDemo:
    def test_runs_end_to_end(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "adaptive" in out
        assert "network" in out


class TestExperiments:
    def test_forwards_to_runner(self, capsys):
        assert main(["experiments", "fig7b"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7b" in out


class TestTrace:
    def test_list_scenarios(self, capsys):
        assert main(["trace", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("quickstart", "adaptive", "lossy", "sensors"):
            assert name in out

    def test_trace_writes_all_formats(self, capsys, tmp_path):
        jsonl = tmp_path / "run.trace.jsonl"
        chrome = tmp_path / "run.trace.json"
        prom = tmp_path / "run.prom"
        assert main([
            "trace", "quickstart", "-o", str(jsonl),
            "--chrome", str(chrome), "--metrics", str(prom), "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert jsonl.exists() and chrome.exists() and prom.exists()
        assert "Per-window latency breakdown" in out
        assert "NO" not in out  # every window's phases sum to its latency

    def test_unknown_scenario_rejected(self, capsys, tmp_path):
        assert main(
            ["trace", "frobnicate", "-o", str(tmp_path / "x.jsonl")]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReport:
    def test_report_round_trip(self, capsys, tmp_path):
        jsonl = tmp_path / "run.trace.jsonl"
        main(["trace", "quickstart", "-o", str(jsonl)])
        capsys.readouterr()
        assert main(["report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "Span phases" in out
        assert "Network traffic" in out
        assert "synopsis_wait" in out


class TestReportErrors:
    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "trace file not found" in err

    def test_corrupt_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not a valid JSONL trace" in err

    def test_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["report", str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_report_output_is_deterministic(self, capsys, tmp_path):
        jsonl = tmp_path / "run.trace.jsonl"
        main(["trace", "lossy", "-o", str(jsonl)])
        capsys.readouterr()
        assert main(["report", str(jsonl)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(jsonl)]) == 0
        assert capsys.readouterr().out == first


class TestQuery:
    def test_small_run_is_graded(self, capsys):
        assert main([
            "query", "--queries", "2", "--keys", "1", "--locals", "2",
            "--streams", "1", "--rate", "200", "--duration", "2",
            "--transport", "memory",
        ]) == 0
        captured = capsys.readouterr().out
        assert "2 queries registered" in captured
        assert "0 duplicated" in captured
        assert "bit-identical" in captured


class TestMesh:
    def test_sharded_relay_run_with_membership(self, capsys):
        assert main([
            "mesh", "--locals", "4", "--shards", "2", "--relay-fanin", "2",
            "--rate", "120", "--duration", "4",
            "--join", "5@2000", "--leave", "2@3000",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 root shards" in out
        assert "relay fan-in 2" in out
        assert "members now (1, 3, 4, 5)" in out
        assert "0 mismatched" in out
        assert "relay-combined frames" in out

    def test_malformed_membership_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["mesh", "--join", "five@soon"])


class TestLive:
    def test_flat_run_prints_windows_and_the_oracle_grade(self, capsys):
        assert main([
            "live", "--rate", "2000", "--duration", "2",
            "--transport", "memory", "--time-scale", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 root shard," in out
        # --rate is the aggregate on `live`: 2 locals x 1000 ev/s x 2 s.
        assert "replayed 4000 events" in out
        assert "window [1s,2s)" in out
        assert "2 recovered, 0 degraded, 0 lost, 0 mismatched" in out


class TestLiveTelemetryFlags:
    def test_live_run_reports_telemetry(self, capsys):
        assert main([
            "live", "--rate", "500", "--duration", "1",
            "--transport", "memory", "--telemetry-port", "0",
        ]) == 0
        captured = capsys.readouterr()
        assert "telemetry:" in captured.out
        assert "live spans traced" in captured.out
        assert "telemetry endpoint: http://127.0.0.1:" in captured.err


class TestTop:
    def test_unreachable_endpoint_fails_cleanly(self, capsys):
        # A port nothing listens on: urllib fails fast with ECONNREFUSED.
        assert main(["top", "--port", "1", "--once"]) == 1
        assert "cannot fetch" in capsys.readouterr().err


class TestChaos:
    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("crash-reconnect", "dead-local", "flaky-link",
                     "partition"):
            assert name in out

    def test_a_kill_that_never_fired_fails_the_run(self, capsys):
        """At three seconds the run ends before the victim shard answers
        another window: 0 failovers, so the scenario tested nothing."""
        assert main(["chaos", "--scenario", "kill-shard", "--shards", "3",
                     "--duration", "3"]) == 3
        out = capsys.readouterr().out
        assert "0 shard failovers" in out
        assert "fault events applied:\n  (none)\n" in out
        assert "UNFIRED FAULT: kill_shard shard" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["chaos", "--scenario", "asteroid"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown chaos scenario")

    def test_mode_flag_is_gone(self, capsys):
        """Faults run on the live cluster only: there is no substrate to
        choose, and the parser refuses the old flag."""
        with pytest.raises(SystemExit) as exited:
            main(["chaos", "--mode", "sim"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --mode sim" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, topology", [
        (["--scenario", "kill-shard"], (2, 0)),
        (["--scenario", "kill-shard-with-relay"], (2, 3)),
        (["--scenario", "kill-shard-with-relay", "--relay-fanin", "0"], (2, 0)),
        (["--scenario", "kill-shard", "--shards", "3"], (3, 0)),
        (["--scenario", "crash-reconnect", "--shards", "2"], (2, 0)),
    ])
    def test_scenario_topology_fills_only_unset_flags(self, argv, topology):
        config, _ = _configs_from_args(_parser().parse_args(["chaos", *argv]))
        assert (config.n_shards, config.relay_fanin) == topology


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["perf"],
        ["live", "--bench"],
        ["mesh", "--bench"],
        ["mesh", "--smoke"],
        ["query", "--bench"],
        ["query", "--smoke"],
        ["fleet", "--bench-output", "x.json"],
        ["live", "--fast"],
        ["live", "--n-locals", "2"],
        ["mesh", "--streams-per-local", "2"],
    ])
    def test_legacy_bench_surface_is_gone(self, argv):
        """perfbench is the one ruler: no subcommand writes a results file."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["live", "--locals", "0"],
        ["mesh", "--shards", "0"],
        ["query", "--churn"],  # churn needs --time-scale > 0
        ["chaos", "--scenario", "asteroid"],
        ["fleet", "--shards", "0"],
    ])
    def test_config_errors_exit_2_with_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


#: Each live command's defaults, as ``(n_locals, streams_per_local,
#: n_shards, relay_fanin, transport, time_scale)`` and ``(per-local
#: event_rate, duration_s, gamma, q, seed)``.  `live` and `chaos` take an
#: aggregate --rate (20,000 and 300 ev/s over two locals).
DEFAULTS = {
    "live": ((2, 2, 1, 0, "tcp", 1.0), (10_000.0, 3.0, 100, 0.5, 42)),
    "mesh": ((8, 1, 2, 0, "memory", 0.0), (200.0, 4.0, 10_000, 0.5, 42)),
    "fleet": ((16, 1, 2, 4, "memory", 0.4), (300.0, 6.0, 10_000, 0.5, 42)),
    "chaos": ((2, 2, 1, 0, "memory", 0.3), (150.0, 3.0, 64, 0.5, 7)),
    "query": ((3, 2, 1, 0, "memory", 0.0), (400.0, 4.0, 32, 0.5, 7)),
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_live_commands_keep_their_defaults(command):
    config, generator = _configs_from_args(_parser().parse_args([command]))
    topology, workload = DEFAULTS[command]
    assert (
        config.n_locals, config.streams_per_local, config.n_shards,
        config.relay_fanin, config.transport, config.time_scale,
    ) == topology
    assert (
        generator.event_rate, generator.duration_s, config.query.gamma,
        config.query.q, generator.seed,
    ) == workload
