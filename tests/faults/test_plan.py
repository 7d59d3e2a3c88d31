"""Fault plan tests: validation, determinism and schedule semantics."""

import pytest

from repro.core.reliability import ReliabilityConfig
from repro.errors import ConfigurationError
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    ToleranceConfig,
    describe_event,
)
from repro.faults.scenarios import SCENARIOS, build_plan


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent(at_s=1.0, kind="meteor-strike", node=1)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="fault time"):
            FaultEvent(at_s=-0.1, kind="crash", node=1)

    @pytest.mark.parametrize("kind", ["crash", "restart", "drop_link"])
    def test_node_scoped_kinds_need_a_node(self, kind):
        with pytest.raises(ConfigurationError, match="needs a target node"):
            FaultEvent(at_s=1.0, kind=kind)

    @pytest.mark.parametrize("kind", ["partition_start", "partition_heal"])
    def test_partitions_take_no_node(self, kind):
        with pytest.raises(ConfigurationError, match="takes no target node"):
            FaultEvent(at_s=1.0, kind=kind, node=1)


class TestDescribeEvent:
    def test_node_scoped_format(self):
        event = FaultEvent(at_s=1.25, kind="crash", node=2)
        assert describe_event(event) == "crash local 2 @1.250s"

    def test_drop_link_has_no_duration_suffix(self):
        # The outage lasts as long as the local's redial takes.
        event = FaultEvent(at_s=0.5, kind="drop_link", node=1)
        assert describe_event(event) == "drop_link local 1 @0.500s"

    def test_partition_has_no_target(self):
        event = FaultEvent(at_s=2.0, kind="partition_start")
        assert describe_event(event) == "partition_start @2.000s"

    def test_kill_shard_names_a_shard_not_a_local(self):
        event = FaultEvent(at_s=1.5, kind="kill_shard", node=0)
        assert describe_event(event) == "kill_shard shard 0 @1.500s"

    def test_driver_drop_has_no_target(self):
        event = FaultEvent(at_s=1.0, kind="driver_drop")
        assert describe_event(event) == "driver_drop @1.000s"


class TestFaultPlanValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            FaultPlan(seed=1, horizon_s=0.0)

    def test_double_crash_without_restart_rejected(self):
        with pytest.raises(ConfigurationError, match="crashes twice"):
            FaultPlan(seed=1, horizon_s=3.0, events=(
                FaultEvent(at_s=1.0, kind="crash", node=1),
                FaultEvent(at_s=2.0, kind="crash", node=1),
            ))

    def test_restart_without_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="without a prior crash"):
            FaultPlan(seed=1, horizon_s=3.0, events=(
                FaultEvent(at_s=1.0, kind="restart", node=1),
            ))

    def test_heal_without_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="without a prior start"):
            FaultPlan(seed=1, horizon_s=3.0, events=(
                FaultEvent(at_s=1.0, kind="partition_heal"),
            ))

    def test_double_partition_start_rejected(self):
        with pytest.raises(ConfigurationError, match="starts twice"):
            FaultPlan(seed=1, horizon_s=3.0, events=(
                FaultEvent(at_s=1.0, kind="partition_start"),
                FaultEvent(at_s=2.0, kind="partition_start"),
            ))

    def test_crash_restart_crash_is_valid(self):
        plan = FaultPlan(seed=1, horizon_s=5.0, events=(
            FaultEvent(at_s=1.0, kind="crash", node=1),
            FaultEvent(at_s=2.0, kind="restart", node=1),
            FaultEvent(at_s=3.0, kind="crash", node=1),
        ))
        assert plan.crash_intervals() == {1: [(1.0, 2.0), (3.0, None)]}


class TestSchedule:
    def test_sorted_by_time_then_kind_precedence(self):
        plan = FaultPlan(seed=1, horizon_s=5.0, events=(
            FaultEvent(at_s=2.0, kind="restart", node=1),
            FaultEvent(at_s=1.0, kind="crash", node=1),
            FaultEvent(at_s=2.0, kind="crash", node=2),
        ))
        assert [e.kind for e in plan.schedule()] == [
            "crash", "crash", "restart",
        ]

    def test_described_matches_schedule_order(self):
        plan = FaultPlan(seed=1, horizon_s=5.0, events=(
            FaultEvent(at_s=2.0, kind="restart", node=1),
            FaultEvent(at_s=1.0, kind="crash", node=1),
        ))
        assert plan.described() == (
            "crash local 1 @1.000s", "restart local 1 @2.000s",
        )


class TestScenarios:
    def test_every_scenario_builds_a_valid_plan(self):
        for name, scenario in SCENARIOS.items():
            plan = build_plan(name, seed=3, horizon_s=3.0, n_locals=2)
            assert plan.events, name
            assert all(e.at_s <= plan.horizon_s for e in plan.events), name
            targets = {e.node for e in plan.events if e.node is not None}
            if scenario.substrate == "mesh":
                # Mesh scenarios target 0-based shard indices.
                assert targets <= {0, 1}, name
            else:
                assert targets <= {1, 2}, name

    def test_same_seed_same_schedule(self):
        for name in SCENARIOS:
            first = build_plan(name, seed=9, horizon_s=3.0, n_locals=2)
            second = build_plan(name, seed=9, horizon_s=3.0, n_locals=2)
            assert first.described() == second.described(), name

    def test_different_seed_different_timings(self):
        name = "crash-reconnect"
        assert (
            build_plan(name, seed=1, horizon_s=3.0, n_locals=2).described()
            != build_plan(name, seed=2, horizon_s=3.0, n_locals=2).described()
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            build_plan("asteroid", seed=1, horizon_s=3.0, n_locals=2)


class TestToleranceConfigValidation:
    def test_defaults_are_valid(self):
        config = ToleranceConfig()
        assert config.reliability == ReliabilityConfig(
            timeout_s=0.15, max_retries=80
        )

    def test_heartbeat_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="heartbeat interval"):
            ToleranceConfig(heartbeat_interval_s=0.0)

    def test_dead_threshold_must_exceed_heartbeat(self):
        with pytest.raises(ConfigurationError, match="declare_dead_after_s"):
            ToleranceConfig(
                heartbeat_interval_s=0.5, declare_dead_after_s=0.5
            )

    def test_base_delay_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="base delay"):
            ToleranceConfig(reconnect_base_delay_s=0.0)

    def test_max_delay_must_cover_base(self):
        with pytest.raises(ConfigurationError, match="max delay"):
            ToleranceConfig(
                reconnect_base_delay_s=0.5, reconnect_max_delay_s=0.1
            )

    def test_jitter_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            ToleranceConfig(reconnect_jitter=-0.1)

    def test_attempts_must_be_at_least_one(self):
        with pytest.raises(ConfigurationError, match="attempts"):
            ToleranceConfig(reconnect_max_attempts=0)


def test_fault_kinds_are_the_tie_break_order():
    assert FAULT_KINDS == (
        "crash", "restart", "drop_link", "partition_start", "partition_heal",
        "kill_shard", "driver_drop",
    )
