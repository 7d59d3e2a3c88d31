"""Tests for the generic sweep tool."""

import pytest

from repro.errors import ConfigurationError
from repro.bench.sweep import SweepSpec, run_sweep


class TestSpecValidation:
    def test_valid_spec(self):
        spec = SweepSpec(parameter="gamma", values=(2, 20))
        assert spec.metric == "throughput"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(parameter="window_color", values=(1,))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(parameter="gamma", values=(2,), metric="vibes")

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(parameter="gamma", values=())

    def test_empty_systems_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(parameter="gamma", values=(2,), systems=())


class TestRunSweep:
    def test_gamma_throughput_sweep_shape(self):
        spec = SweepSpec(
            parameter="gamma", values=(2, 50), systems=("dema",)
        )
        result = run_sweep(spec)
        series = result.series["dema"]
        assert len(series) == 2
        assert series[1] > series[0]  # γ=2 is the pathological extreme

    def test_network_sweep_over_nodes(self):
        spec = SweepSpec(
            parameter="n_local_nodes",
            values=(2, 4),
            metric="network_bytes",
            systems=("scotty",),
            event_rate=500.0,
            duration_s=2.0,
        )
        result = run_sweep(spec)
        series = result.series["scotty"]
        assert series[1] == pytest.approx(2 * series[0], rel=0.05)

    def test_latency_sweep(self):
        spec = SweepSpec(
            parameter="event_rate",
            values=(200.0, 700.0),
            metric="latency_p50",
            systems=("scotty",),
            duration_s=4.0,
        )
        result = run_sweep(spec)
        series = result.series["scotty"]
        assert series[1] > series[0]

    def test_multiple_systems(self):
        spec = SweepSpec(
            parameter="gamma", values=(100,), systems=("dema", "desis")
        )
        result = run_sweep(spec)
        assert set(result.series) == {"dema", "desis"}
        # Two locals: both local-bound since Desis ships 8-byte values,
        # Desis about 3 % ahead (no slicing pass).
        dema, desis = result.series["dema"][0], result.series["desis"][0]
        assert dema < desis < 1.05 * dema


class TestRendering:
    @pytest.fixture(scope="class")
    def result(self):
        spec = SweepSpec(parameter="gamma", values=(2, 50), systems=("dema",))
        return run_sweep(spec)

    def test_csv_round_structure(self, result):
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "gamma,dema"
        assert len(lines) == 3
        value = float(lines[1].split(",")[1])
        assert value == result.series["dema"][0]

    def test_table_contains_values(self, result):
        table = result.to_table()
        assert "gamma" in table
        assert "dema" in table


class TestCli:
    def test_sweep_subcommand(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--parameter", "gamma", "--values", "2,50",
            "--systems", "dema", "--csv", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "throughput vs gamma" in out
        assert path.read_text().startswith("gamma,dema")
