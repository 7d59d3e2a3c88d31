"""Tests for the package CLI (python -m repro)."""

import pytest

from repro.__main__ import main


class TestInfo:
    def test_lists_systems_and_experiments(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("dema", "scotty", "desis", "tdigest", "qdigest"):
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

    def test_unknown_scenario_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["trace", "frobnicate", "-o", str(tmp_path / "x.jsonl")])


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
    def test_small_run_grades_and_writes_artifact(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_queries.json"
        assert main([
            "query", "--queries", "2", "--keys", "1", "--locals", "2",
            "--streams", "1", "--rate", "200", "--duration", "2",
            "--transport", "memory", "--bench", "--bench-output", str(out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "2 queries registered" in captured
        assert "bit-identical" in captured
        artifact = json.loads(out.read_text())
        assert artifact["benchmark"] == "multi_query_plane"
        assert artifact["shared_run"]["mismatches"] == 0
        assert artifact["independent_runs"]["runs"] == 2
        # Serving both queries together must not cost more bytes than
        # two separate deployments.
        assert artifact["amortization"]["total_bytes_ratio"] < 1.0


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

    def test_bench_writes_scale_artifact(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_scale.json"
        assert main([
            "mesh", "--locals", "2", "--shards", "2", "--rate", "60",
            "--duration", "2", "--bench", "--bench-output", str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        assert artifact["benchmark"] == "mesh_scale"
        assert [p["n_locals"] for p in artifact["curve"]] == [2, 10, 50, 100]
        for point in artifact["curve"]:
            assert point["relay"]["root_link_frames"] \
                < point["flat"]["root_link_frames"]
            assert point["relay"]["root_ingress_bytes"] \
                < point["flat"]["root_ingress_bytes"]

    def test_malformed_membership_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["mesh", "--join", "five@soon"])


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

    def test_sim_run_reports_window_grades(self, capsys):
        assert main(["chaos", "--scenario", "dead-local", "--mode", "sim",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "crash local" in out
        assert "recovered" in out and "degraded" in out
        assert "locals declared dead" in out

    def test_unknown_scenario_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown"):
            main(["chaos", "--scenario", "asteroid", "--mode", "sim"])


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestPerf:
    @pytest.fixture
    def tiny_configs(self, monkeypatch):
        from repro.bench import hotpath

        tiny = hotpath.HotpathConfig(
            ingest_events=300, slice_events=300, gamma=10,
            merge_digests=2, merge_values_per_digest=40,
            codec_batch=8, codec_rounds=2, repeats=1,
        )
        monkeypatch.setattr(hotpath, "FULL", tiny)
        monkeypatch.setattr(hotpath, "SMOKE", tiny)
        return tiny

    def test_writes_artifact_without_baseline(
        self, capsys, tmp_path, tiny_configs
    ):
        from repro.bench.hotpath import load_artifact

        out = str(tmp_path / "bench.json")
        assert main([
            "perf", "--no-live", "-o", out,
            "--baseline", str(tmp_path / "absent.json"),
        ]) == 0
        artifact = load_artifact(out)
        assert artifact["mode"] == "full"
        assert all(rate > 0 for rate in artifact["current"].values())
        assert "no baseline artifact" in capsys.readouterr().out

    def test_smoke_gates_against_baseline(
        self, capsys, tmp_path, tiny_configs
    ):
        from repro.bench.hotpath import load_artifact, write_hotpath

        baseline_path = str(tmp_path / "committed.json")
        out = str(tmp_path / "bench.json")
        # An unreachable smoke baseline must fail the smoke gate ...
        impossible = {"ingest_columnar_events_per_s": 1e15}
        write_hotpath(
            baseline_path, tiny_configs, impossible,
            {"baseline_smoke": impossible},
        )
        assert main([
            "perf", "--smoke", "--no-live", "-o", out,
            "--baseline", baseline_path,
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # ... and a trivially low one must pass.
        easy = {"ingest_columnar_events_per_s": 1e-6}
        write_hotpath(
            baseline_path, tiny_configs, easy,
            {"baseline_smoke": easy},
        )
        assert main([
            "perf", "--smoke", "--no-live", "-o", out,
            "--baseline", baseline_path,
        ]) == 0
        assert "no hot-path regressions" in capsys.readouterr().out
        assert load_artifact(out)["baseline_smoke"] == easy

    def test_smoke_gates_against_smoke_baseline_only(
        self, capsys, tmp_path, tiny_configs
    ):
        """A smoke run is judged by (and preserves) the per-mode baselines.

        The full baseline can be unreachable without tripping the smoke
        gate, and a smoke run's artifact rewrite must carry the full
        baseline through untouched instead of clobbering it with smoke
        numbers.
        """
        from repro.bench.hotpath import load_artifact, write_hotpath

        baseline_path = str(tmp_path / "committed.json")
        out = str(tmp_path / "bench.json")
        impossible_full = {"ingest_columnar_events_per_s": 1e15}
        easy_smoke = {"ingest_columnar_events_per_s": 1e-6}
        write_hotpath(
            baseline_path, tiny_configs, easy_smoke,
            {"baseline": impossible_full, "baseline_smoke": easy_smoke},
            mode="smoke",
        )
        assert main([
            "perf", "--smoke", "--no-live", "-o", out,
            "--baseline", baseline_path,
        ]) == 0
        assert "no hot-path regressions" in capsys.readouterr().out
        artifact = load_artifact(out)
        assert artifact["baseline"] == impossible_full
        assert artifact["baseline_smoke"] == easy_smoke

    def test_full_run_ignores_smoke_baseline(self, tmp_path, tiny_configs):
        from repro.bench.hotpath import load_artifact, write_hotpath

        baseline_path = str(tmp_path / "committed.json")
        out = str(tmp_path / "bench.json")
        full = {"ingest_columnar_events_per_s": 1e-6}
        smoke = {"ingest_columnar_events_per_s": 123.0}
        write_hotpath(
            baseline_path, tiny_configs, full,
            {"baseline": full, "baseline_smoke": smoke},
        )
        assert main([
            "perf", "--no-live", "-o", out, "--baseline", baseline_path,
        ]) == 0
        artifact = load_artifact(out)
        # Speedup is computed against the full baseline, and both
        # baselines survive the rewrite.
        assert "ingest_columnar_events_per_s" in artifact["speedup"]
        assert artifact["speedup"]["ingest_columnar_events_per_s"] > 1.0
        assert artifact["baseline_smoke"] == smoke

    def test_curve_writes_scaling_artifact(
        self, monkeypatch, tmp_path, tiny_configs
    ):
        import json

        from repro.bench import scaling

        calls = []

        def fake_curve(**kwargs):
            calls.append(kwargs)
            return [
                {"n_locals": n, "events_per_second": 1000.0 * n}
                for n in kwargs["locals_counts"]
            ]

        monkeypatch.setattr(scaling, "scaling_curve", fake_curve)
        out = str(tmp_path / "bench.json")
        curve_out = str(tmp_path / "scaling.json")
        assert main([
            "perf", "--smoke", "--no-live", "-o", out,
            "--baseline", str(tmp_path / "absent.json"),
            "--curve", "--curve-output", curve_out,
        ]) == 0
        assert calls and calls[0]["locals_counts"] == scaling.SMOKE_LOCALS
        with open(curve_out) as handle:
            artifact = json.load(handle)
        assert artifact["benchmark"] == "scaling_curve"
        assert [p["n_locals"] for p in artifact["points"]] == list(
            scaling.SMOKE_LOCALS
        )
