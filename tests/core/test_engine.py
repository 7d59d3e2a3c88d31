"""Tests for the Dema engine facade (in-memory and simulated)."""

import random

import pytest

from repro.bench.generator import (
    GeneratorConfig,
    SensorStreamGenerator,
    workload,
    workload_columns,
)
from repro.errors import ConfigurationError
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import Event, make_events
from repro.streaming.windows import TumblingWindows
from repro.baselines.base import build_system
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


DOOR_CONFIG = GeneratorConfig(
    event_rate=1500.0, duration_s=2.5, seed=5, max_arrival_delay_ms=120
)
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
DOOR_BASELINES = ("scotty", "desis", "tdigest", "kll", "qdigest")


def door_runs(columnar):
    """One seeded workload through every simulated engine's doors, fed as
    ``Event`` objects or as ``EventColumns``."""
    generate = workload_columns if columnar else workload
    streams = generate(DOOR_NODES, DOOR_CONFIG)
    delays = {
        n: SensorStreamGenerator(DOOR_CONFIG).arrival_times(n).tolist()
        for n in DOOR_NODES
    }
    arrivals = {n: list(zip(streams[n], delays[n])) for n in DOOR_NODES}
    topology = TopologyConfig(n_local_nodes=3)
    runs = {}
    engine = DemaEngine(DOOR_QUERY, topology)
    runs["run"] = _summary(engine, engine.run(streams))
    engine = DemaEngine(DOOR_QUERY, topology)
    runs["run_unordered"] = _summary(
        engine, engine.run_unordered(arrivals, allowed_lateness_ms=40)
    )
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
        engine = DemaEngine(query, topology)
        runs[f"slide_{length}_{step}/run_unordered"] = _summary(
            engine,
            engine.run_unordered(
                {n: arrivals[n][:cut] for n in DOOR_NODES},
                allowed_lateness_ms=40,
            ),
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
        engine = baseline(name)
        runs[f"{name}/run_unordered"] = _summary(
            engine, engine.run_unordered(arrivals, allowed_lateness_ms=40)
        )
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
    "run_unordered": {
        "outcomes": [
            (0, 44.85442718075182, 1.0403363561713184, 200),
            (1000, 36.16412990883978, 2.0403363411713187, 200),
            (2000, 40.08423830462307, 3.040322705982712, 200),
        ],
        "final_time": 3.040314265334618,
        "total_bytes": 8520,
        "cpu_ops": {
            0: 14474.497069480873,
            1: 49626.080648718205,
            2: 49614.196420134664,
            3: 49536.10588265672,
        },
        "late_events": {1: 78, 2: 77, 3: 82},
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
    "slide_1000_300/run_unordered": {
        "outcomes": [
            (-900, 24.100715876696334, 0.1403110523121452, 179),
            (-600, 43.74532852978323, 0.44031951298791916, 200),
            (-300, 48.317772857276225, 0.7403278146355566, 200),
            (0, 44.85442718075182, 1.0403363561713184, 200),
            (300, 44.162838363867486, 1.3403363811713183, 200),
            (600, 38.311499094278915, 1.6403363461713183, 200),
            (900, 35.95597444857209, 1.9403363254653418, 200),
            (1200, 37.002844744072675, 2.2403363761713186, 200),
            (1500, 38.63123852860902, 2.5403363011713185, 200),
            (1800, 39.35094666771359, 2.8403285675251, 200),
            (2100, 38.46532404166111, 3.140319878915882, 200),
            (2400, 18.885989451970087, 3.4403125284790947, 200),
        ],
        "final_time": 3.4403040878310005,
        "total_bytes": 32464,
        "cpu_ops": {
            0: 51534.93672121942,
            1: 129528.13114924722,
            2: 129372.097397526,
            3: 129562.62762027835,
        },
        "late_events": {1: 344, 2: 358, 3: 342},
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
    "slide_10_4/run_unordered": {
        "outcomes": [
            (-8, 1.9951765517321434, 0.04230167352000002, 1),
            (-4, 16.599435963892756, 0.046301963857750046, 3),
            (0, 30.862308816708506, 0.05030234397775006, 11),
            (4, 32.95464031145466, 0.05430237141775006, 12),
            (8, 38.11488059282907, 0.058302234217750055, 9),
            (12, 31.825828331548756, 0.06230210653775005, 6),
            (16, 35.71829707832267, 0.06630223421775007, 9),
            (20, 55.821498290894255, 0.07030210653775006, 6),
            (24, 61.09640072848312, 0.07430206397775005, 5),
            (28, 19.29654856799806, 0.07830230141775006, 10),
            (32, 17.27429053514393, 0.08230238397775005, 12),
            (36, 17.006875082219473, 0.08630234897775003, 11),
            (40, 16.668438524800617, 0.09030228885775007, 10),
            (44, 17.8292766215027, 0.09430249653775005, 15),
            (48, 20.638540215740317, 0.09830219165775009, 8),
            (52, 17.553053772974984, 0.10230231885775005, 11),
            (56, 14.341056290022088, 0.10630237141775006, 12),
            (60, 15.007692653408405, 0.11030280503400011, 20),
            (64, 16.110960410549605, 0.11430262821475012, 16),
            (68, 20.547326004331314, 0.11830226641775006, 9),
            (72, 16.89745342098975, 0.12230229897775004, 10),
            (76, 7.7533853436790565, 0.12630236397775, 12),
            (80, 19.85688601196631, 0.13030209653775005, 6),
            (84, 37.96918574180901, 0.13430228885775, 10),
            (88, 61.1507839026077, 0.13830218165775005, 8),
            (92, 40.6475171927896, 0.14230221885775, 8),
            (96, 34.60445892622459, 0.14630196385775, 3),
        ],
        "final_time": 0.214,
        "total_bytes": 12072,
        "cpu_ops": {
            0: 5488.566950250961,
            1: 1208.3783974426797,
            2: 1339.2224344411707,
            3: 1286.042734435402,
        },
        "late_events": {1: 250, 2: 237, 3: 240},
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
    "scotty/run_unordered": {
        "outcomes": [
            (0, 44.85442718075182, 1.0411612266371142, 4382),
            (1000, 36.16412990883978, 2.041160955839031, 4381),
            (2000, 40.08423830462307, 3.0406021197178754, 2250),
        ],
        "final_time": 3.0401010128000006,
        "total_bytes": 439020,
        "cpu_ops": {0: 803287.7588039356, 1: 15000.0, 2: 15000.0, 3: 15000.0},
        "late_events": {0: 237},
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
    "desis/run_unordered": {
        "outcomes": [
            (0, 44.85442718075182, 1.0402711006483907, 4382),
            (1000, 36.16412990883978, 2.0402710550435788, 4381),
            (2000, 40.08423830462307, 3.040188427348134, 2250),
        ],
        "final_time": 3.0401029315200003,
        "total_bytes": 88428,
        "cpu_ops": {
            0: 83632.19202044209,
            1: 47619.080648718176,
            2: 47629.69642013466,
            3: 47577.10588265671,
        },
        "late_events": {1: 78, 2: 77, 3: 82},
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
    "tdigest/run_unordered": {
        "outcomes": [
            (0, 45.00868723845611, 1.0401363037199998, 4382),
            (1000, 36.23527359289198, 2.0401370037200004, 4381),
            (2000, 40.041957232741545, 3.0401352734800007, 2250),
        ],
        "final_time": 3.0401109238400004,
        "total_bytes": 9108,
        "cpu_ops": {0: 15327.0, 1: 47864.0, 2: 47896.0, 3: 47880.0},
        "late_events": {1: 78, 2: 77, 3: 82},
    },
    "kll/run": {
        "outcomes": [
            (0, 44.32334752436114, 1.0002410761999998, 4500),
            (1000, 36.07932459362675, 2.0002410762, 4500),
            (2000, 40.14286751566015, 3.00019693028, 2250),
        ],
        "final_time": 3.0001256652800006,
        "total_bytes": 37572,
        "cpu_ops": {0: 55863.0, 1: 46776.0, 2: 46776.0, 3: 46776.0},
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "kll/run_unordered": {
        "outcomes": [
            (0, 44.475387602968254, 1.0402364649999998, 4382),
            (1000, 36.07932459362675, 2.0402359696400003, 4381),
            (2000, 40.123814183661636, 3.04019693028, 2250),
        ],
        "final_time": 3.0401256652800006,
        "total_bytes": 36660,
        "cpu_ops": {0: 54495.0, 1: 46560.0, 2: 46572.0, 3: 46512.0},
        "late_events": {1: 78, 2: 77, 3: 82},
    },
    "qdigest/run": {
        "outcomes": [
            (0, 45.35188915339071, 1.0002611682800002, 4500),
            (1000, 36.80644570591467, 2.0002604534, 4500),
            (2000, 40.712934139046574, 3.000267219480001, 2250),
        ],
        "final_time": 3.0001388073600004,
        "total_bytes": 61100,
        "cpu_ops": {0: 76033.0, 1: 47628.0, 2: 47620.0, 3: 47604.0},
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "qdigest/run_unordered": {
        "outcomes": [
            (0, 45.59604468046145, 1.0402563914799998, 4382),
            (1000, 36.562290178843924, 2.0402564022, 4381),
            (2000, 40.712934139046574, 3.040267219480001, 2250),
        ],
        "final_time": 3.0401388073600004,
        "total_bytes": 60028,
        "cpu_ops": {0: 74693.0, 1: 47420.0, 2: 47460.0, 3: 47436.0},
        "late_events": {1: 78, 2: 77, 3: 82},
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
    "partial/run_unordered": {
        "outcomes": [
            (0, 209529.7953499243, 1.04010101664, 4382),
            (1000, 163079.08328088486, 2.0401010166400004, 4381),
            (2000, 98060.71471326289, 3.0401010166400004, 2250),
        ],
        "final_time": 3.0401010166400004,
        "total_bytes": 468,
        "cpu_ops": {0: 207.0, 1: 22500.0, 2: 22500.0, 3: 22500.0},
        "late_events": {1: 78, 2: 77, 3: 82},
    },
}


class TestColumnsAtTheDoor:
    def test_objects_and_columns_run_the_same_simulation(self):
        assert door_runs(columnar=False) == door_runs(columnar=True)

    def test_simulated_world_equals_the_parent_commit(self):
        runs = door_runs(columnar=True)
        assert any(runs["run_unordered"]["late_events"].values())
        assert runs == DOOR_GOLDEN


class TestOwnIdsAtTheDoor:
    """A local's stream must carry its own id: synopsis keys are ``(value,
    owner, position)``, which order events as ``(value, node_id, seq)``
    only then, so a ``-0.0``/``0.0`` tie across a foreign id could come out
    with the wrong sign bit.  Every simulated door refuses such a stream up
    front, naming the local and the foreign id."""

    REFUSAL = "local 1's stream carries events of node 2"

    def streams(self):
        # Local 1 holds -0.0 stamped with node 2's id; local 2 holds 0.0.
        return {
            1: [Event(value=-0.0, timestamp=5, node_id=2, seq=0),
                Event(value=1.0, timestamp=6, node_id=1, seq=1)],
            2: [Event(value=0.0, timestamp=5, node_id=2, seq=0)],
        }

    @pytest.mark.parametrize("system", ["dema", "scotty", "tdigest"])
    def test_run_refuses_a_foreign_id(self, system):
        engine = build_system(system, QuantileQuery(q=0.5, gamma=2),
                              TopologyConfig(n_local_nodes=2))
        with pytest.raises(ConfigurationError, match=self.REFUSAL):
            engine.run(self.streams())

    @pytest.mark.parametrize("system", ["dema", "scotty", "tdigest"])
    def test_run_unordered_refuses_a_foreign_id(self, system):
        engine = build_system(system, QuantileQuery(q=0.5, gamma=2),
                              TopologyConfig(n_local_nodes=2))
        arrivals = {
            node: [(event, event.timestamp) for event in events]
            for node, events in self.streams().items()
        }
        with pytest.raises(ConfigurationError, match=self.REFUSAL):
            engine.run_unordered(arrivals)

    def test_run_via_sensors_refuses_a_foreign_id(self):
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=2),
            TopologyConfig(n_local_nodes=2, streams_per_local=1),
        )
        with pytest.raises(ConfigurationError, match=self.REFUSAL):
            engine.run_via_sensors(self.streams())

    def test_own_ids_pass(self):
        streams = self.streams()
        streams[1][0] = Event(value=-0.0, timestamp=5, node_id=1, seq=0)
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=2), TopologyConfig(n_local_nodes=2)
        )
        (outcome,) = engine.run(streams).outcomes
        assert outcome.value == 0.0
