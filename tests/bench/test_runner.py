"""Tests for the experiment runner (scaled-down invocations)."""

import pytest

from repro.bench import runner


class TestExperimentShapes:
    """Each experiment must reproduce the paper's qualitative claim."""

    def test_fig6a_network_ordering(self):
        results = runner.exp_fig6a(per_node_rate=3_000.0, n_windows=2)
        assert results["dema"]["reduction_vs_scotty"] > 0.85
        # Desis ships every event as its 8-byte value, Scotty as 20 bytes.
        assert results["desis"]["reduction_vs_scotty"] == pytest.approx(
            0.6, abs=0.02
        )
        assert results["tdigest"]["bytes"] < results["dema"]["bytes"]

    def test_fig6b_linear_growth_dema_lowest(self):
        results = runner.exp_fig6b(
            node_counts=(2, 4), per_node_rate=1_000.0, n_windows=2
        )
        for system, series in results.items():
            assert series[4] > 1.5 * series[2]
        assert results["dema"][4] < 0.2 * results["scotty"][4]

    def test_fig7b_accuracy(self):
        results = runner.exp_fig7b(per_node_rate=1_000.0, n_windows=3)
        assert results["dema"] == 1.0
        assert 0.97 <= results["tdigest"] < 1.0

    def test_fig7a_dema_scales_desis_bottlenecks(self):
        results = runner.exp_fig7a(node_counts=(2, 4))
        assert results["dema"][4] > 1.6 * results["dema"][2]
        assert results["desis"][4] < 1.3 * results["desis"][2]

    def test_fig8b_inverted_u(self):
        results = runner.exp_fig8b(gammas=(2, 50, 2000))
        for series in results.values():
            assert series[50] > series[2]
            assert series[50] > series[2000]

    def test_ablation_window_cut_prunes(self):
        results = runner.exp_ablation_window_cut(
            per_node_rate=2_000.0, n_windows=2
        )
        assert (
            results["candidate_events_with_cut"]
            < 0.5 * results["candidate_events_without_cut"]
        )

    def test_ablation_adaptive_gamma_beats_extremes(self):
        results = runner.exp_ablation_adaptive_gamma(n_windows=6)
        assert results["adaptive"] < results["fixed γ=2"]
        assert results["adaptive"] < results["fixed γ=2000"]


class TestCli:
    def test_quick_selection_runs(self, capsys):
        assert runner.main(["fig7b"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7b" in out
        assert "accuracy" in out

    def test_ablation_via_cli(self, capsys):
        assert runner.main(["ablation_window_cut"]) == 0
        assert "window-cut" in capsys.readouterr().out

    def test_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "results.json"
        assert runner.main(["fig7b", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["fig7b"]["dema"] == 1.0
        assert 0.9 < data["fig7b"]["tdigest"] < 1.0


class TestAblationBandwidth:
    def test_constrained_uplink_ordering(self):
        results = runner.exp_ablation_bandwidth()
        datacenter = results["datacenter"]
        constrained = results["constrained"]
        assert set(datacenter) == set(constrained)
        dema_slowdown = constrained["dema"] / datacenter["dema"]
        desis_slowdown = constrained["desis"] / datacenter["desis"]
        assert desis_slowdown > dema_slowdown

    def test_via_cli(self, capsys):
        assert runner.main(["ablation_bandwidth"]) == 0
        assert "constrained uplinks" in capsys.readouterr().out
