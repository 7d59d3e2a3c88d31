"""Tests for the lossy-network reliability extension."""

import pytest

from repro.errors import ConfigurationError
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.network.topology import TopologyConfig
from repro.bench.generator import GeneratorConfig, workload, workload_columns
from repro.testing import verify_outcomes

QUERY = QuantileQuery(q=0.5, gamma=50)


def run_lossy(loss_rate, *, reliability, n_nodes=3, seed=77, loss_seed=7):
    topo = TopologyConfig(
        n_local_nodes=n_nodes, loss_rate=loss_rate, loss_seed=loss_seed
    )
    engine = DemaEngine(QUERY, topo, reliability=reliability)
    streams = workload(
        range(1, n_nodes + 1),
        GeneratorConfig(event_rate=800.0, duration_s=4.0, seed=seed),
    )
    report = engine.run(streams)
    return engine, report, streams


class TestConfig:
    def test_defaults_valid(self):
        config = ReliabilityConfig()
        assert config.timeout_s > 0
        assert config.max_retries >= 1

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(max_retries=0)

    def test_channel_loss_rate_validation(self):
        from repro.network.channels import Channel

        with pytest.raises(ConfigurationError):
            Channel(1, 0, loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            Channel(1, 0, loss_rate=-0.1)


class TestLossyChannels:
    def test_lossless_by_default(self):
        engine, report, streams = run_lossy(0.0, reliability=None)
        dropped = sum(
            c.stats.dropped for c in engine.simulator.channels.values()
        )
        assert dropped == 0

    def test_loss_actually_drops(self):
        engine, _, _ = run_lossy(
            0.15, reliability=ReliabilityConfig(max_retries=30)
        )
        dropped = sum(
            c.stats.dropped for c in engine.simulator.channels.values()
        )
        assert dropped > 0

    def test_dropped_bytes_still_counted(self):
        # Per-channel sent bytes include lost messages: the packet left.
        engine, report, _ = run_lossy(
            0.15, reliability=ReliabilityConfig(max_retries=30)
        )
        assert report.network.total_bytes > 0

    def test_loss_deterministic_per_seed(self):
        def dropped_count(loss_seed):
            engine, _, _ = run_lossy(
                0.15,
                reliability=ReliabilityConfig(max_retries=30),
                loss_seed=loss_seed,
            )
            return sum(
                c.stats.dropped for c in engine.simulator.channels.values()
            )

        assert dropped_count(1) == dropped_count(1)


class TestExactnessUnderLoss:
    @pytest.mark.parametrize("loss_rate", [0.05, 0.15])
    def test_all_windows_exact(self, loss_rate):
        engine, report, streams = run_lossy(
            loss_rate, reliability=ReliabilityConfig(max_retries=30)
        )
        verification = verify_outcomes(report.outcomes, streams, QUERY)
        assert verification.is_exact, verification.summary()
        assert verification.checked == len(report.outcomes)
        assert engine.root.aborted_windows == 0

    def test_retransmissions_cost_extra_bytes(self):
        _, lossless, _ = run_lossy(
            0.0, reliability=ReliabilityConfig(max_retries=30)
        )
        _, lossy, _ = run_lossy(
            0.20, reliability=ReliabilityConfig(max_retries=30)
        )
        assert lossy.network.total_bytes > lossless.network.total_bytes

    def test_reliability_off_is_protocol_identical(self):
        _, plain, streams = run_lossy(0.0, reliability=None)
        verification = verify_outcomes(plain.outcomes, streams, QUERY)
        assert verification.is_exact, verification.summary()

    def test_lost_release_answered_with_fresh_release(self):
        # Regression: when a WindowReleaseMessage is lost, the local keeps
        # resending its synopsis.  The root must answer the resend with a
        # fresh release — not open phantom state for the already-answered
        # window, wait for the *other* locals' synopses (which never come),
        # and abort.  Found by the end-to-end hypothesis property test.
        from repro.streaming.events import Event

        streams = {1: [Event(value=0.0, timestamp=0, node_id=1, seq=0)], 2: []}
        query = QuantileQuery(q=1.0, window_length_ms=1000, gamma=2)
        engine = DemaEngine(
            query,
            TopologyConfig(n_local_nodes=2, loss_rate=0.1, loss_seed=33),
            reliability=ReliabilityConfig(timeout_s=0.05, max_retries=30),
        )
        report = engine.run(streams)
        assert engine.root.aborted_windows == 0
        assert engine.root.open_windows == 0
        assert [o.value for o in report.outcomes] == [0.0]

    def test_a_later_release_never_frees_a_window_still_fetching(self):
        # At 30 % loss windows finish out of end order; a cumulative release
        # sent for a later window used to free an earlier one at the locals
        # while its candidate re-requests were still out, losing 6 windows.
        # A freed window can never be served, whatever the retry budget;
        # 30 retries keep a window from merely running out of them (at 30 %
        # loss 10 retries lose about one window in 130 by chance alone).
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=50, window_length_ms=250),
            TopologyConfig(n_local_nodes=4, loss_rate=0.3, loss_seed=1),
            reliability=ReliabilityConfig(max_retries=30),
        )
        report = engine.run(workload_columns(
            range(1, 5),
            GeneratorConfig(event_rate=2000.0, duration_s=20.0, seed=42),
        ))
        assert engine.root.aborted_windows == 0
        assert len(report.outcomes) == 80
        assert all(outcome.value is not None for outcome in report.outcomes)

    def test_local_state_released(self):
        engine, _, _ = run_lossy(
            0.10, reliability=ReliabilityConfig(max_retries=30)
        )
        pending = [
            engine.simulator.nodes[i].pending_windows
            for i in engine.topology.local_ids
        ]
        # Cumulative releases free everything except possibly the very last
        # window on nodes whose final release was itself lost.
        assert all(count <= 1 for count in pending)

    def test_released_windows_leave_no_acknowledgement_or_retry_state(self):
        engine, _, _ = run_lossy(
            0.10, reliability=ReliabilityConfig(max_retries=30)
        )
        for local_id in engine.topology.local_ids:
            local = engine.simulator.nodes[local_id]
            assert local.last_release_end > 0
            # A sealed window's slices, acknowledgement and retry count are
            # one record; a release frees it, so only windows past the
            # release cursor may still hold any of them.
            retained = [window for _, window in local._sealed]
            assert all(w.end > local.last_release_end for w in retained)


class TestAbort:
    def test_hopeless_loss_aborts_not_hangs(self):
        engine, report, _ = run_lossy(
            0.6,
            reliability=ReliabilityConfig(timeout_s=0.02, max_retries=2),
        )
        # The run terminates; any window that could not be completed is
        # counted as aborted rather than producing a wrong answer.
        truth_count = 4
        assert len(report.outcomes) + engine.root.aborted_windows <= truth_count + 1
        for outcome in report.outcomes:
            assert outcome.value is not None or outcome.is_empty

    def test_aborted_results_never_wrong(self):
        engine, report, streams = run_lossy(
            0.5,
            reliability=ReliabilityConfig(timeout_s=0.02, max_retries=2),
        )
        verification = verify_outcomes(
            report.outcomes, streams, QUERY, require_all_windows=False
        )
        assert not verification.mismatches, verification.summary()
