"""Validation tests for the one cluster config and its one validator."""

import pytest

from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.mesh import MembershipEvent, MeshConfig
from repro.runtime.cluster import LiveClusterConfig


class TestMembershipEvent:
    def test_kind_validated(self):
        with pytest.raises(ConfigurationError):
            MembershipEvent(at_ms=1_000, local_id=5, kind="restart")

    def test_local_id_validated(self):
        with pytest.raises(ConfigurationError):
            MembershipEvent(at_ms=1_000, local_id=0, kind="join")


class TestMeshConfig:
    def test_defaults_are_valid(self):
        config = MeshConfig()
        assert config.n_shards == 1
        assert config.relay_fanin == 0

    def test_one_class_two_names(self):
        assert MeshConfig is LiveClusterConfig

    def test_adaptive_gamma_rejected(self):
        """Adaptive gamma is per-root state: sharded roots would diverge.
        One shard — the flat cluster — takes it."""
        adaptive = QuantileQuery(gamma=8, adaptive=True)
        with pytest.raises(ConfigurationError, match="fixed gamma"):
            MeshConfig(n_shards=2, query=adaptive)
        assert MeshConfig(n_shards=1, query=adaptive).query.adaptive

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshConfig(n_shards=0)

    def test_negative_fanin_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshConfig(relay_fanin=-1)

    def test_nonpositive_flush_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshConfig(relay_flush_s=0.0)

    def test_duplicate_membership_event_rejected(self):
        events = (
            MembershipEvent(at_ms=1_000, local_id=5, kind="join"),
            MembershipEvent(at_ms=2_000, local_id=5, kind="join"),
        )
        with pytest.raises(ConfigurationError, match="duplicate"):
            MeshConfig(membership=events)

    def test_initial_member_cannot_join(self):
        with pytest.raises(ConfigurationError, match="initial member"):
            MeshConfig(
                n_locals=4,
                membership=(
                    MembershipEvent(at_ms=1_000, local_id=3, kind="join"),
                ),
            )

    def test_join_then_leave_of_one_local_is_allowed(self):
        config = MeshConfig(
            n_locals=2,
            membership=(
                MembershipEvent(at_ms=1_000, local_id=3, kind="join"),
                MembershipEvent(at_ms=2_000, local_id=3, kind="leave"),
            ),
        )
        assert len(config.membership) == 2


def plan(*kinds, node=1):
    return FaultPlan(
        seed=1,
        horizon_s=3.0,
        events=tuple(
            FaultEvent(
                at_s=1.0 + index,
                kind=kind,
                node=None if kind.startswith(("partition", "driver")) else node,
            )
            for index, kind in enumerate(kinds)
        ),
    )


class TestUnsupportedPairs:
    """Each combination that cannot work is rejected by the one
    validator, :meth:`ClusterConfig.check`, with its reason."""

    def test_query_driver_with_shards(self):
        with pytest.raises(ConfigurationError, match="per-root state"):
            MeshConfig(n_shards=2).check(driver=True)

    def test_query_driver_with_relays(self):
        with pytest.raises(ConfigurationError, match="group_id"):
            MeshConfig(relay_fanin=2).check(driver=True)

    def test_query_driver_with_membership(self):
        config = MeshConfig(
            membership=(MembershipEvent(at_ms=1_000, local_id=2, kind="leave"),)
        )
        with pytest.raises(ConfigurationError, match="member table"):
            config.check(driver=True)

    def test_query_driver_on_the_flat_shape_is_fine(self):
        MeshConfig().check(driver=True)

    def test_wall_clock_faults_need_pacing(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            MeshConfig(faults=plan("crash", "restart"))

    def test_kill_shard_is_exempt_from_pacing_but_needs_a_successor(self):
        MeshConfig(n_shards=2, faults=plan("kill_shard", node=0))
        with pytest.raises(ConfigurationError, match="at least 2 shards"):
            MeshConfig(n_shards=1, faults=plan("kill_shard", node=0))

    @pytest.mark.parametrize(
        "kinds",
        [("crash", "restart"), ("drop_link",),
         ("partition_start", "partition_heal")],
    )
    def test_local_link_faults_behind_a_relay(self, kinds):
        with pytest.raises(ConfigurationError, match="relay_fanin == 0"):
            MeshConfig(relay_fanin=2, time_scale=0.3, faults=plan(*kinds))
        # The same plan composes with sharded roots.
        MeshConfig(n_shards=2, time_scale=0.3, faults=plan(*kinds))

    def test_driver_drop_needs_a_durable_driver(self):
        config = MeshConfig(time_scale=0.3, faults=plan("driver_drop"))
        with pytest.raises(ConfigurationError, match="durable_queries"):
            config.check(driver=False)
        with pytest.raises(ConfigurationError, match="durable_queries"):
            config.check(driver=True)
        MeshConfig(
            time_scale=0.3, faults=plan("driver_drop"), durable_queries=True
        ).check(driver=True)
