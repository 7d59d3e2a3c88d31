"""Chaos runner: every scenario reaches the one cluster driver.

There is one live path — the scenario's plan goes into
``ClusterConfig.faults`` on whatever topology the caller's config
names — so a flat scenario composes with sharded roots without glue.  What
is still refused is refused up front, with the reason: the simulator has
one root and no shard, relay or query plane, and the cluster config's one
validator rejects the shapes a plan cannot run on.
"""

from dataclasses import replace

import pytest

from repro.bench.generator import GeneratorConfig
from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError
from repro.faults.runner import UnfiredFaultError, run_chaos
from repro.faults.scenarios import SCENARIOS
from repro.mesh.config import ClusterConfig

#: The chaos command's defaults: 2 locals x 2 streams, 300 ev/s in all.
GENERATOR = GeneratorConfig(event_rate=150.0, duration_s=3.0, seed=7)


def cluster(*, n_locals: int = 2, **topology) -> ClusterConfig:
    return ClusterConfig(
        n_locals=n_locals,
        streams_per_local=2,
        query=QuantileQuery(gamma=64),
        time_scale=0.3,
        timeout_s=120.0,
        **topology,
    )


class TestSubstrateDispatch:
    @pytest.mark.parametrize(
        "scenario", ["kill-shard", "kill-shard-with-relay"]
    )
    def test_mesh_scenario_rejects_sim_mode(self, scenario):
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos(scenario, cluster(n_shards=2), GENERATOR, mode="sim")

    def test_query_scenario_rejects_sim_mode(self):
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos("driver-drop", cluster(), GENERATOR, mode="sim")

    def test_sim_mode_rejects_shards_and_relays(self):
        """The simulator deploys one root; it cannot honour the flags."""
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos("crash-reconnect", cluster(n_shards=2), GENERATOR)
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos("crash-reconnect", cluster(relay_fanin=3), GENERATOR)

    @pytest.mark.parametrize("scenario", ["crash-reconnect", "flaky-link"])
    def test_flat_scenario_accepts_shards(self, scenario):
        """Composition nobody wrote glue for: a local's crash or link
        drop on two root shards resumes every session and recovers every
        window against the single-root oracle."""
        report = run_chaos(
            scenario, cluster(n_shards=2), GENERATOR, mode="live"
        )
        assert report.shards == 2
        assert report.recovered == report.windows >= 3
        assert report.lost == report.mismatched == report.degraded == 0
        assert report.reconnects >= 1
        assert report.shard_failovers == 0

    def test_flat_scenario_behind_a_relay_rejected(self):
        """Session resume is a local↔root handshake; a relay forwards
        neither the resume hello nor the redial, and the one validator
        says so instead of booting a cluster that would hang."""
        with pytest.raises(ConfigurationError, match="relay_fanin == 0"):
            run_chaos(
                "crash-reconnect", cluster(relay_fanin=2), GENERATOR,
                mode="live",
            )

    def test_single_shard_mesh_rejected(self):
        """A lone root has no successor — refuse before booting."""
        with pytest.raises(ConfigurationError, match="at least 2 shards"):
            run_chaos("kill-shard", cluster(), GENERATOR, mode="live")

    def test_explicit_zero_relay_fanin_is_honoured(self):
        """The runner runs the topology it is given: a relay scenario
        asked for no relay tier kills a shard of a direct-wired mesh (ten
        seconds, so the kill has a window to follow)."""
        report = run_chaos(
            "kill-shard-with-relay",
            cluster(n_locals=6, n_shards=2, relay_fanin=0),
            replace(GENERATOR, duration_s=10.0),
            mode="live",
        )
        assert (report.shards, report.relay_fanin) == (2, 0)
        assert report.shard_failovers == 1 and report.unfired == []
        assert report.relay_frames_replayed == 0
        assert report.recovered == report.windows >= 3
        assert report.lost == report.mismatched == 0

    def test_a_kill_that_never_fired_is_named_and_raised(self):
        """At three seconds the victim answers no further window: the
        report names the kill as unfired and the run fails with it."""
        with pytest.raises(UnfiredFaultError, match="never fired") as caught:
            run_chaos("kill-shard", cluster(n_shards=2), GENERATOR, mode="live")
        report = caught.value.report
        assert report.shard_failovers == 0
        assert report.unfired == [
            line for line in report.applied if line.startswith("kill_shard")
        ]
        assert report.unfired

    def test_substrates_are_known(self):
        assert {s.substrate for s in SCENARIOS.values()} <= {
            "flat",
            "mesh",
            "query",
        }
