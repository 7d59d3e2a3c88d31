"""Tests for the Dema engine facade (in-memory and simulated)."""

import random
import struct

import pytest

from repro.bench.generator import GeneratorConfig, workload
from repro.errors import ConfigurationError
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import Event, make_events
from repro.streaming.windows import TumblingWindows
from repro.baselines.base import SYSTEM_NAMES, build_system
from repro.baselines.partial import build_partial_system
from repro.core.engine import DemaEngine, dema_quantile
from repro.core.query import QuantileQuery


class TestDemaQuantile:
    def test_median_exact(self, two_node_windows):
        values = [
            e.value for events in two_node_windows.values() for e in events
        ]
        result = dema_quantile(two_node_windows, q=0.5, gamma=50)
        assert result.value == exact_quantile(values, 0.5)

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("gamma", [2, 17, 500])
    def test_all_quantiles_all_gammas(self, two_node_windows, q, gamma):
        values = [
            e.value for events in two_node_windows.values() for e in events
        ]
        result = dema_quantile(two_node_windows, q=q, gamma=gamma)
        assert result.value == exact_quantile(values, q)

    def test_transfer_cost_accounting(self, two_node_windows):
        result = dema_quantile(two_node_windows, q=0.5, gamma=50)
        assert result.transfer_events == 2 * result.synopses + result.candidate_events
        assert result.transfer_events < result.global_window_size

    def test_single_node(self):
        events = {1: make_events(range(100), node_id=1)}
        result = dema_quantile(events, q=0.5, gamma=10)
        assert result.value == 49.0

    def test_single_event(self):
        events = {1: make_events([7.0], node_id=1)}
        result = dema_quantile(events, q=0.5, gamma=2)
        assert result.value == 7.0

    def test_no_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            dema_quantile({}, q=0.5, gamma=2)

    def test_unsorted_input_accepted(self):
        rng = random.Random(1)
        values = [rng.random() for _ in range(500)]
        events = {1: make_events(values, node_id=1)}
        result = dema_quantile(events, q=0.5, gamma=7)
        assert result.value == exact_quantile(values, 0.5)

    def test_rank_matches_definition(self):
        events = {1: make_events(range(10), node_id=1)}
        result = dema_quantile(events, q=0.3, gamma=3)
        assert result.rank == 3


class TestBitIdenticalResults:
    """Shuffled three-node input, extreme q: still the exact element."""

    def _workload(self, seed):
        rng = random.Random(seed)
        streams = {}
        for node_id in (1, 2, 3):
            events = [
                Event(
                    value=rng.random() * 1000.0,
                    timestamp=rng.randrange(0, 1000),
                    node_id=node_id,
                    seq=seq,
                )
                for seq in range(400)
            ]
            rng.shuffle(events)
            streams[node_id] = events
        return streams

    def test_dema_matches_exact_oracle_bit_for_bit(self):
        streams = self._workload(seed=7)
        values = [e.value for events in streams.values() for e in events]
        for q in (0.01, 0.5, 0.99, 1.0):
            result = dema_quantile(streams, q, gamma=20)
            # Dema is exact: the answer IS an element of the multiset, so
            # equality is exact, not approximate.
            assert result.value == exact_quantile(values, q)

    def test_repeated_runs_identical(self):
        streams = self._workload(seed=11)
        first = dema_quantile(streams, 0.5, gamma=20)
        second = dema_quantile(streams, 0.5, gamma=20)
        assert first.value == second.value
        assert first.rank == second.rank
        assert first.candidate_events == second.candidate_events


class TestDemaEngine:
    def make_engine(self, n_nodes=2, gamma=50, adaptive=False):
        query = QuantileQuery(
            q=0.5, window_length_ms=1000, gamma=gamma, adaptive=adaptive
        )
        return DemaEngine(query, TopologyConfig(n_local_nodes=n_nodes))

    def make_streams(self, n_nodes=2, per_node=1500, seed=0):
        rng = random.Random(seed)
        return {
            node_id: make_events(
                [rng.gauss(100 * node_id, 10) for _ in range(per_node)],
                node_id=node_id,
                timestamp_step=2,
            )
            for node_id in range(1, n_nodes + 1)
        }

    def test_every_window_exact(self):
        engine = self.make_engine()
        streams = self.make_streams()
        report = engine.run(streams)
        assigner = TumblingWindows(1000)
        per_window = {}
        for events in streams.values():
            for event in events:
                per_window.setdefault(
                    assigner.window_for(event.timestamp), []
                ).append(event.value)
        assert len(report.outcomes) == len(per_window)
        for outcome in report.outcomes:
            assert outcome.value == exact_quantile(
                per_window[outcome.window], 0.5
            )

    def test_report_metrics_populated(self):
        engine = self.make_engine()
        report = engine.run(self.make_streams())
        assert report.network.total_bytes > 0
        assert report.latency.count == len(report.outcomes)
        assert report.events_ingested == 3000
        assert report.final_time > 0

    def test_unknown_stream_node_rejected(self):
        engine = self.make_engine(n_nodes=2)
        with pytest.raises(ConfigurationError):
            engine.run({5: make_events([1.0], node_id=5)})

    def test_missing_node_streams_allowed(self):
        engine = self.make_engine(n_nodes=2)
        streams = {1: make_events(range(100), node_id=1, timestamp_step=5)}
        report = engine.run(streams)
        assert report.outcomes[0].value == 49.0

    def test_adaptive_run_changes_gamma(self):
        engine = self.make_engine(gamma=2, adaptive=True)
        engine.run(self.make_streams(per_node=2000))
        assert engine.root.gamma > 2

    def test_determinism(self):
        report_a = self.make_engine().run(self.make_streams(seed=7))
        report_b = self.make_engine().run(self.make_streams(seed=7))
        assert report_a.values == report_b.values
        assert report_a.network.total_bytes == report_b.network.total_bytes
        assert report_a.final_time == report_b.final_time


DOOR_CONFIG = GeneratorConfig(event_rate=1500.0, duration_s=2.5, seed=5)
DOOR_QUERY = QuantileQuery(q=0.5, window_length_ms=1000, gamma=40)
DOOR_NODES = [1, 2, 3]


def _summary(engine, report):
    nodes = engine.simulator.nodes

    def row(o):
        exact = (
            o.window.start,
            o.value,
            o.result_time,
            getattr(o, "candidate_events", o.global_window_size),
        )
        if hasattr(o, "query_index"):  # several window shapes in one run
            exact += (o.query_index, o.window.end)
        return exact

    return {
        "outcomes": [row(o) for o in report.outcomes],
        "final_time": report.final_time,
        "total_bytes": report.network.total_bytes,
        "cpu_ops": {n: nodes[n].cpu.total_ops for n in sorted(nodes)},
        "late_events": {
            n: nodes[n].late_events
            for n in sorted(nodes)
            if hasattr(nodes[n], "late_events")
        },
    }


#: Four queries in three sharing groups, one of them sliding.
DOOR_CONCURRENT = [
    DOOR_QUERY,
    QuantileQuery(q=0.9, window_length_ms=1000, gamma=40),
    QuantileQuery(q=0.25, window_length_ms=500, gamma=30),
    QuantileQuery(q=0.5, window_length_ms=1000, window_step_ms=500, gamma=40),
]
DOOR_BASELINES = ("scotty", "desis", "tdigest")


def door_runs(columnar):
    """One seeded workload through every simulated engine's doors, fed as
    ``Event`` objects or as ``EventColumns``."""
    streams = workload(DOOR_NODES, DOOR_CONFIG)
    if not columnar:
        streams = {n: list(share) for n, share in streams.items()}
    topology = TopologyConfig(n_local_nodes=3)
    runs = {}
    engine = DemaEngine(DOOR_QUERY, topology)
    runs["run"] = _summary(engine, engine.run(streams))
    engine = DemaEngine(
        DOOR_QUERY, TopologyConfig(n_local_nodes=3, streams_per_local=2)
    )
    runs["run_via_sensors"] = _summary(engine, engine.run_via_sensors(streams))

    # Sliding windows; 10/4 (step does not divide length) on the streams'
    # first 150 events, ~100 ms, to keep its window count readable.
    for length, step, cut in ((1000, 300, None), (10, 4, 150)):
        query = QuantileQuery(
            q=0.5, window_length_ms=length, window_step_ms=step, gamma=40
        )
        engine = DemaEngine(query, topology)
        runs[f"slide_{length}_{step}/run"] = _summary(
            engine, engine.run({n: streams[n][:cut] for n in DOOR_NODES})
        )

    engine = DemaEngine(DOOR_CONCURRENT, topology)
    runs["concurrent"] = _summary(engine, engine.run(streams))

    def baseline(name):
        if name == "partial":
            return build_partial_system("sum", topology)
        return build_system(name, DOOR_QUERY, topology)

    for name in (*DOOR_BASELINES, "partial"):
        engine = baseline(name)
        runs[f"{name}/run"] = _summary(engine, engine.run(streams))
    return runs


#: The simulated world — values, clocks, bytes, charges, late drops — that
#: no change of representation may move.  ``door_runs(columnar=False)``
#: recorded while the operators still had an ``Event``-object arm: Dema's
#: three tumbling doors at commit a9b1b41 (before the conversion moved to the
#: engine's door), every other run at 9b87a79 (before that arm was deleted).
#: Wire version 2 (candidate runs and Desis' sorted runs ship 8-byte
#: values) re-recorded the clocks, byte totals and the roots' ``cpu_ops``
#: (fewer bytes received); every value and every local's charge is as
#: recorded then.  Wire version 3 (a synopsis is one 20-byte record)
#: re-recorded Dema's clocks, byte totals and root ``cpu_ops`` the same
#: way; every value, every local's charge and every baseline run is as
#: recorded then.  Wire version 4 (a local's synopses are its slice
#: boundaries) re-recorded Dema's clocks, byte totals and root ``cpu_ops``
#: again; every value and every baseline run is as recorded then.  The
#: bounding last key admits one more candidate slice in some windows (the
#: tumbling runs' candidate events 160 → 200), and each extra slice costs
#: the local serving it 23 ops.
DOOR_GOLDEN = {
    "run": {
        "outcomes": [
            (0, 44.62493290929341, 1.0003371441173272, 200),
            (1000, 36.413325813564825, 2.0003371441173274, 200),
            (2000, 40.08423830462307, 3.000322705982712, 200),
        ],
        "final_time": 3.0003142653346178,
        "total_bytes": 8568,
        "cpu_ops": {
            0: 14708.651473080221,
            1: 53427.38867460606,
            2: 53381.38867460606,
            3: 53404.38867460606,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "run_via_sensors": {
        "outcomes": [
            (0, 44.62493290929341, 1.0223371441173272, 200),
            (1000, 36.413325813564825, 2.0223371441173272, 200),
            (2000, 40.08423830462307, 3.022322705982712, 200),
        ],
        "final_time": 3.0223142653346176,
        "total_bytes": 260568,
        "cpu_ops": {
            0: 14708.651473080221,
            1: 109648.98952375728,
            2: 109602.68039138155,
            3: 109625.68066778089,
            **dict.fromkeys(range(4, 10), 7500.0),
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "slide_1000_300/run": {
        "outcomes": [
            (-900, 25.845423605916878, 0.10031252847909504, 200),
            (-600, 45.08885505492683, 0.40031987891588144, 200),
            (-300, 48.534929864752726, 0.7003285675250995, 200),
            (0, 44.62493290929341, 1.0003371441173272, 200),
            (300, 43.656734147362535, 1.3003371441173273, 200),
            (600, 38.312208905283605, 1.6003371441173273, 200),
            (900, 36.365442715899405, 1.9003371441173271, 200),
            (1200, 37.30600701701204, 2.2003371441173276, 200),
            (1500, 37.99019124098767, 2.5003371441173274, 200),
            (1800, 39.35094666771359, 2.8003285675251, 200),
            (2100, 38.46532404166111, 3.100319878915882, 200),
            (2400, 18.885989451970087, 3.4003125284790947, 200),
        ],
        "final_time": 3.4003040878310005,
        "total_bytes": 32832,
        "cpu_ops": {
            0: 52632.86082310157,
            1: 139067.33919860626,
            2: 138952.33919860626,
            3: 138975.33919860626,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "slide_10_4/run": {
        "outcomes": [
            (-8, 35.136141867348535, 0.0023019738577500426, 3),
            (-4, 35.136141867348535, 0.006302259217750043, 9),
            (0, 32.40953720136979, 0.010303139577750043, 30),
            (4, 32.95464031145466, 0.014303139577750043, 30),
            (8, 41.94130660400724, 0.018302544577750036, 15),
            (12, 45.26510651246423, 0.022302544577750036, 15),
            (16, 51.68161085857804, 0.026302544577750036, 15),
            (20, 55.821498290894255, 0.030302544577750036, 15),
            (24, 54.42917538939788, 0.03430254457775005, 15),
            (28, 27.230407751960087, 0.03830313957775004, 30),
            (32, 17.006875082219473, 0.042303139577750046, 30),
            (36, 16.668438524800617, 0.04630313957775004, 30),
            (40, 17.401682143300974, 0.050303139577750046, 30),
            (44, 20.28341326979892, 0.05430313957775004, 30),
            (48, 20.638540215740317, 0.058303139577750046, 30),
            (52, 18.160021734586824, 0.06230313957775004, 30),
            (56, 16.110960410549605, 0.06630386619431275, 45),
            (60, 16.110960410549605, 0.07030386619431275, 45),
            (64, 18.13076745123325, 0.07430386619431274, 45),
            (68, 20.547326004331314, 0.07830313957775008, 30),
            (72, 21.34771966960445, 0.08230313957775008, 30),
            (76, 26.284501125877995, 0.08630313957775007, 30),
            (80, 35.335245697491715, 0.09030313957775007, 30),
            (84, 35.00232882703085, 0.09430386619431275, 45),
            (88, 32.780624465719654, 0.09830313957775008, 30),
            (92, 32.780624465719654, 0.10230289189775005, 24),
            (96, 40.6475171927896, 0.10630239653775003, 12),
        ],
        "final_time": 0.10630183653775005,
        "total_bytes": 16128,
        "cpu_ops": {
            0: 8985.821100363462,
            1: 2278.946163871747,
            2: 2448.4461638717476,
            3: 2326.9461638717476,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "concurrent": {
        "outcomes": [
            (-500, 48.34736233285829, 0.5003227059827111, 2250, 3, 500),
            (0, 28.89746403570742, 0.5003325331287226, 2250, 2, 500),
            (0, 44.62493290929341, 1.0003371441173272, 4500, 3, 1000),
            (0, 44.62493290929341, 1.0003828153038874, 4500, 0, 1000),
            (0, 87.59944700116623, 1.0003828153038874, 4500, 1, 1000),
            (500, 22.252865948112163, 1.000389406749959, 2250, 2, 1000),
            (500, 38.37467317629719, 1.5003371441173272, 4500, 3, 1500),
            (1000, 20.0303678343035, 1.5003469712633395, 2250, 2, 1500),
            (1000, 36.413325813564825, 2.0003371441173274, 4500, 3, 2000),
            (1000, 36.413325813564825, 2.0003828465838853, 4500, 0, 2000),
            (1000, 66.6118506885392, 2.0003828465838853, 4500, 1, 2000),
            (1500, 20.4258889208535, 2.000389438029956, 2250, 2, 2000),
            (1500, 37.99019124098767, 2.5003371441173274, 4500, 3, 2500),
            (2000, 20.5063844435135, 2.5003469712633395, 2250, 2, 2500),
            (2000, 40.08423830462307, 3.000322705982712, 2250, 3, 3000),
            (2000, 40.08423830462307, 3.000346141692601, 2250, 0, 3000),
            (2000, 82.2506680543423, 3.000346141692601, 2250, 1, 3000),
        ],
        "final_time": 3.000330126883851,
        "total_bytes": 42200,
        "cpu_ops": {
            0: 76131.9825117801,
            1: 154009.193631112,
            2: 153948.193631112,
            3: 153976.193631112,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "scotty/run": {
        "outcomes": [
            (0, 44.62493290929341, 1.0011932266357493, 4500),
            (1000, 36.413325813564825, 2.00119322663575, 4500),
            (2000, 40.08423830462307, 3.0006021197178754, 2250),
        ],
        "final_time": 3.0001010128000005,
        "total_bytes": 226224,
        "cpu_ops": {0: 751120.917874698, 1: 15000.0, 2: 15000.0, 3: 15000.0},
        "late_events": {0: 0},
    },
    "desis/run": {
        "outcomes": [
            (0, 44.62493290929341, 1.000275678176266, 4500),
            (1000, 36.413325813564825, 2.000275678176267, 4500),
            (2000, 40.08423830462307, 3.000188427348134, 2250),
        ],
        "final_time": 3.0001029315200003,
        "total_bytes": 90324,
        "cpu_ops": {
            0: 85429.82813311301,
            1: 51381.38867460606,
            2: 51381.38867460606,
            3: 51381.38867460606,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "tdigest/run": {
        "outcomes": [
            (0, 44.58317129359473, 1.0001360237199999, 4500),
            (1000, 36.24838466536791, 2.00013639348, 4500),
            (2000, 40.14584720323711, 3.000135248360001, 2250),
        ],
        "final_time": 3.0001110889600007,
        "total_bytes": 9060,
        "cpu_ops": {0: 15243.0, 1: 47800.0, 2: 47928.0, 3: 47864.0},
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "partial/run": {
        "outcomes": [
            (0, 213694.17498369794, 1.00010101664, 4500),
            (1000, 168221.0205410946, 2.0001010166400004, 4500),
            (2000, 98060.7147132629, 3.0001010166400004, 2250),
        ],
        "final_time": 3.0001010166400004,
        "total_bytes": 468,
        "cpu_ops": {0: 207.0, 1: 22500.0, 2: 22500.0, 3: 22500.0},
        "late_events": {1: 0, 2: 0, 3: 0},
    },
}


class TestColumnsAtTheDoor:
    def test_objects_and_columns_run_the_same_simulation(self):
        assert door_runs(columnar=False) == door_runs(columnar=True)

    def test_simulated_world_equals_the_parent_commit(self):
        assert door_runs(columnar=True) == DOOR_GOLDEN


class TestOwnIdsAtTheDoor:
    """A local's stream must carry its own id: synopsis keys are ``(value,
    owner, position)``, which order events as ``(value, node_id, seq)``
    only then, so a ``-0.0``/``0.0`` tie across a foreign id could come out
    with the wrong sign bit.  Nor may it carry a NaN, which has no rank.
    Every door of every system refuses such a stream up front, naming the
    local and the foreign id or the first NaN row."""

    REFUSAL = "local 1's stream carries events of node 2"
    NAN_REFUSAL = "local 1's stream has a NaN value at row 1"
    SYSTEMS = ["dema", "scotty", "tdigest"]
    DOORS = ["run", "run_via_sensors"]

    def streams(self):
        # Local 1 holds -0.0 stamped with node 2's id; local 2 holds 0.0.
        return {
            1: [Event(value=-0.0, timestamp=5, node_id=2, seq=0),
                Event(value=1.0, timestamp=6, node_id=1, seq=1)],
            2: [Event(value=0.0, timestamp=5, node_id=2, seq=0)],
        }

    def nan_streams(self):
        # Own ids throughout; local 1's second row is NaN.
        return {
            1: [Event(value=1.0, timestamp=5, node_id=1, seq=0),
                Event(value=float("nan"), timestamp=6, node_id=1, seq=1),
                Event(value=2.0, timestamp=7, node_id=1, seq=2)],
            2: [Event(value=0.0, timestamp=5, node_id=2, seq=0)],
        }

    def enter(self, system, door, streams):
        """Hand ``streams`` to one door of a two-local ``system``."""
        sensors = 1 if door == "run_via_sensors" else 0
        engine = build_system(
            system, QuantileQuery(q=0.5, gamma=2),
            TopologyConfig(n_local_nodes=2, streams_per_local=sensors),
        )
        return getattr(engine, door)(streams)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_run_refuses_a_foreign_id(self, system):
        with pytest.raises(ConfigurationError, match=self.REFUSAL):
            self.enter(system, "run", self.streams())

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_run_via_sensors_refuses_a_foreign_id(self, system):
        with pytest.raises(ConfigurationError, match=self.REFUSAL):
            self.enter(system, "run_via_sensors", self.streams())

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_door_refuses_nan(self, system, door):
        with pytest.raises(ConfigurationError, match=self.NAN_REFUSAL):
            self.enter(system, door, self.nan_streams())

    def test_run_live_refuses_nan_before_any_server_starts(self, monkeypatch):
        from repro.runtime import cluster

        def no_server(*args, **kwargs):
            raise AssertionError("a server started")

        for host in ("RootServer", "LocalServer", "RelayServer", "StreamServer"):
            monkeypatch.setattr(cluster, host, no_server)
        config = cluster.LiveClusterConfig(
            n_locals=2, query=QuantileQuery(q=0.5, gamma=2),
            transport="memory", timeout_s=10.0,
        )
        with pytest.raises(ConfigurationError, match=self.NAN_REFUSAL):
            cluster.run_live(config, self.nan_streams())

    def test_own_ids_pass(self):
        streams = self.streams()
        streams[1][0] = Event(value=-0.0, timestamp=5, node_id=1, seq=0)
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=2), TopologyConfig(n_local_nodes=2)
        )
        (outcome,) = engine.run(streams).outcomes
        assert outcome.value == 0.0


def _value_bits(report):
    """``{window: value bits}`` of a run (``None`` for an empty window)."""
    return {
        o.window: None if o.value is None else struct.pack("<d", o.value)
        for o in report.outcomes
    }


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_every_system_runs_through_the_sensor_tier(system):
    """One deployment, so every system has the three-tier door; the exact
    ones answer every window with ``run``'s value bits."""
    streams = workload([1, 2], DOOR_CONFIG)
    query = QuantileQuery(q=0.5, window_length_ms=1000, gamma=40)
    via_sensors = build_system(
        system, query, TopologyConfig(n_local_nodes=2, streams_per_local=1)
    ).run_via_sensors(streams)
    direct = build_system(
        system, query, TopologyConfig(n_local_nodes=2)
    ).run(streams)
    assert via_sensors.events_ingested == direct.events_ingested
    assert [o.window for o in via_sensors.outcomes_for(0)] == [
        o.window for o in direct.outcomes_for(0)
    ]
    if system in ("dema", "scotty", "desis"):
        assert _value_bits(via_sensors) == _value_bits(direct)
