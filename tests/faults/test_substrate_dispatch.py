"""Chaos runner: every scenario reaches the one cluster driver.

There is one live path — the scenario's plan goes into
``ClusterConfig.faults`` on whatever topology ``shards``/``relay_fanin``
name — so a flat scenario composes with sharded roots without glue.  What
is still refused is refused up front, with the reason: the simulator has
one root and no shard, relay or query plane, and the cluster config's one
validator rejects the shapes a plan cannot run on.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.runner import run_chaos
from repro.faults.scenarios import SCENARIOS


class TestSubstrateDispatch:
    @pytest.mark.parametrize(
        "scenario", ["kill-shard", "kill-shard-with-relay"]
    )
    def test_mesh_scenario_rejects_sim_mode(self, scenario):
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos(scenario, mode="sim")

    def test_query_scenario_rejects_sim_mode(self):
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos("driver-drop", mode="sim")

    def test_sim_mode_rejects_shards_and_relays(self):
        """The simulator deploys one root; it cannot honour the flags."""
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos("crash-reconnect", mode="sim", shards=2)
        with pytest.raises(ConfigurationError, match="live substrate"):
            run_chaos("crash-reconnect", mode="sim", relay_fanin=3)

    @pytest.mark.parametrize("scenario", ["crash-reconnect", "flaky-link"])
    def test_flat_scenario_accepts_shards(self, scenario):
        """Composition nobody wrote glue for: a local's crash or link
        drop on two root shards resumes every session and recovers every
        window against the single-root oracle."""
        report = run_chaos(
            scenario, mode="live", shards=2, seed=7, transport="memory"
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
            run_chaos("crash-reconnect", mode="live", relay_fanin=2)

    def test_single_shard_mesh_rejected(self):
        """A lone root has no successor — refuse before booting."""
        with pytest.raises(ConfigurationError, match="at least 2 shards"):
            run_chaos("kill-shard", mode="live", shards=1)

    def test_substrates_are_known(self):
        assert {s.substrate for s in SCENARIOS.values()} <= {
            "flat",
            "mesh",
            "query",
        }
