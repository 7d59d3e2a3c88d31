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
DOOR_GOLDEN = {
    "run": {
        "outcomes": [
            (0, 44.62493290929341, 1.000363745277327, 200),
            (1000, 36.413325813564825, 2.000359953349234, 160),
            (2000, 40.08423830462307, 3.0003367220146173, 160),
        ],
        "final_time": 3.000323142094617,
        "total_bytes": 25372,
        "cpu_ops": {
            0: 27060.880235125278,
            1: 53404.38867460606,
            2: 53381.38867460606,
            3: 53381.38867460606,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "run_unordered": {
        "outcomes": [
            (0, 44.85442718075182, 1.0403624945313183, 200),
            (1000, 36.16412990883978, 2.0403624795313187, 200),
            (2000, 40.08423830462307, 3.0403367220146174, 160),
        ],
        "final_time": 3.040323142094617,
        "total_bytes": 25928,
        "cpu_ops": {
            0: 27405.111450503402,
            1: 49603.080648718205,
            2: 49614.196420134664,
            3: 49536.10588265672,
        },
        "late_events": {1: 78, 2: 77, 3: 82},
    },
    "run_via_sensors": {
        "outcomes": [
            (0, 44.62493290929341, 1.022363745277327, 200),
            (1000, 36.413325813564825, 2.022359953349234, 160),
            (2000, 40.08423830462307, 3.022336722014617, 160),
        ],
        "final_time": 3.0223231420946166,
        "total_bytes": 277372,
        "cpu_ops": {
            0: 27060.880235125278,
            1: 109625.98952375728,
            2: 109602.68039138155,
            3: 109602.68066778089,
            **dict.fromkeys(range(4, 10), 7500.0),
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "slide_1000_300/run": {
        "outcomes": [
            (-900, 25.845423605916878, 0.10032339443909506, 200),
            (-600, 45.08885505492683, 0.40033583567588155, 200),
            (-300, 48.534929864752726, 0.7003500778850995, 200),
            (0, 44.62493290929341, 1.000363745277327, 200),
            (300, 43.656734147362535, 1.3003637452773271, 200),
            (600, 38.312208905283605, 1.6003637452773272, 200),
            (900, 36.365442715899405, 1.900363745277327, 200),
            (1200, 37.30600701701204, 2.200363745277329, 200),
            (1500, 37.99019124098767, 2.500363745277329, 200),
            (1800, 39.35094666771359, 2.800350077885101, 200),
            (2100, 38.46532404166111, 3.100335835675882, 200),
            (2400, 18.885989451970087, 3.400323394439096, 200),
        ],
        "final_time": 3.4003060225910007,
        "total_bytes": 99600,
        "cpu_ops": {
            0: 102708.86082310155,
            1: 139067.33919860626,
            2: 138952.33919860626,
            3: 138975.33919860626,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "slide_1000_300/run_unordered": {
        "outcomes": [
            (-900, 24.100715876696334, 0.1403205104721452, 179),
            (-600, 43.74532852978323, 0.44033530694791917, 200),
            (-300, 48.317772857276225, 0.7403488621955564, 200),
            (0, 44.85442718075182, 1.0403624945313183, 200),
            (300, 44.162838363867486, 1.3403625195313182, 200),
            (600, 38.311499094278915, 1.6403624845313183, 200),
            (900, 35.95597444857209, 1.9403624638253418, 200),
            (1200, 37.002844744072675, 2.2403625145313186, 200),
            (1500, 38.63123852860902, 2.5403624395313185, 200),
            (1800, 39.35094666771359, 2.840350077885101, 200),
            (2100, 38.46532404166111, 3.140335835675882, 200),
            (2400, 18.885989451970087, 3.440323394439096, 200),
        ],
        "final_time": 3.4403060225910007,
        "total_bytes": 97980,
        "cpu_ops": {
            0: 100671.93672121939,
            1: 129528.13114924722,
            2: 129372.097397526,
            3: 129562.62762027835,
        },
        "late_events": {1: 344, 2: 358, 3: 342},
    },
    "slide_10_4/run": {
        "outcomes": [
            (-8, 35.136141867348535, 0.002302444337750043, 3),
            (-4, 35.136141867348535, 0.006303022737750044, 9),
            (0, 32.40953720136979, 0.01030487113775004, 30),
            (4, 32.95464031145466, 0.01430487113775004, 30),
            (8, 41.94130660400724, 0.018303601137750033, 15),
            (12, 45.26510651246423, 0.022303601137750033, 15),
            (16, 51.68161085857804, 0.026303601137750033, 15),
            (20, 55.821498290894255, 0.030303601137750033, 15),
            (24, 54.42917538939788, 0.034303601137750064, 15),
            (28, 27.230407751960087, 0.03830487113775006, 30),
            (32, 17.006875082219473, 0.04230487113775006, 30),
            (36, 16.668438524800617, 0.04630487113775006, 30),
            (40, 17.401682143300974, 0.05030487113775006, 30),
            (44, 20.28341326979892, 0.05430487113775006, 30),
            (48, 20.638540215740317, 0.05830487113775006, 30),
            (52, 18.160021734586824, 0.06230487113775006, 30),
            (56, 16.110960410549605, 0.06630627275431271, 45),
            (60, 16.110960410549605, 0.07030627275431271, 45),
            (64, 18.13076745123325, 0.0743062727543127, 45),
            (68, 20.547326004331314, 0.07830487113775005, 30),
            (72, 21.34771966960445, 0.08230487113775005, 30),
            (76, 26.284501125877995, 0.08630487113775004, 30),
            (80, 35.335245697491715, 0.09030487113775004, 30),
            (84, 35.00232882703085, 0.0943062727543127, 45),
            (88, 32.780624465719654, 0.09830487113775005, 30),
            (92, 32.780624465719654, 0.10230434193775005, 24),
            (96, 40.6475171927896, 0.10630328353775005, 12),
        ],
        "final_time": 0.10630218353775005,
        "total_bytes": 27072,
        "cpu_ops": {
            0: 17193.82110036346,
            1: 2278.946163871747,
            2: 2448.4461638717476,
            3: 2326.9461638717476,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "slide_10_4/run_unordered": {
        "outcomes": [
            (-8, 1.9951765517321434, 0.04230179608, 1),
            (-4, 16.599435963892756, 0.04630243433775004, 3),
            (0, 30.862308816708506, 0.050303182137750056, 11),
            (4, 32.95464031145466, 0.05430325073775006, 12),
            (8, 38.11488059282907, 0.05830299773775006, 9),
            (12, 31.825828331548756, 0.06230272353775004, 6),
            (16, 35.71829707832267, 0.06630299773775006, 9),
            (20, 55.821498290894255, 0.07030272353775006, 6),
            (24, 61.09640072848312, 0.07430263213775005, 5),
            (28, 19.29654856799806, 0.07830309073775006, 10),
            (32, 17.27429053514393, 0.08230326713775006, 12),
            (36, 17.006875082219473, 0.08630318713775005, 11),
            (40, 16.668438524800617, 0.09030307433775006, 10),
            (44, 17.8292766215027, 0.09430351853775006, 15),
            (48, 20.638540215740317, 0.09830290633775006, 8),
            (52, 17.553053772974984, 0.10230314933775003, 11),
            (56, 14.341056290022088, 0.10630325073775004, 12),
            (60, 15.007692653408405, 0.11030405203400012, 20),
            (64, 16.110960410549605, 0.11430368753475012, 16),
            (68, 20.547326004331314, 0.11830301073775006, 9),
            (72, 16.89745342098975, 0.12230309213775005, 10),
            (76, 7.7533853436790565, 0.12630324713774996, 12),
            (80, 19.85688601196631, 0.13030271353775003, 6),
            (84, 37.96918574180901, 0.13430307433775002, 10),
            (88, 61.1507839026077, 0.13830289633775003, 8),
            (92, 40.6475171927896, 0.14230291433775, 8),
            (96, 34.60445892622459, 0.14630243433775, 3),
        ],
        "final_time": 0.214,
        "total_bytes": 17312,
        "cpu_ops": {
            0: 9418.56695025096,
            1: 1208.3783974426797,
            2: 1339.2224344411707,
            3: 1286.042734435402,
        },
        "late_events": {1: 250, 2: 237, 3: 240},
    },
    "concurrent": {
        "outcomes": [
            (-500, 48.34736233285829, 0.5003367220146162, 2250, 3, 500),
            (0, 28.89746403570742, 0.5003591676887229, 2250, 2, 500),
            (0, 44.62493290929341, 1.000363745277327, 4500, 3, 1000),
            (0, 44.62493290929341, 1.000435381463887, 4500, 0, 1000),
            (0, 87.59944700116623, 1.000435381463887, 4500, 1, 1000),
            (500, 22.252865948112163, 1.0004487229099577, 2250, 2, 1000),
            (500, 38.37467317629719, 1.500363745277327, 4500, 3, 1500),
            (1000, 20.0303678343035, 1.5003823990233383, 2250, 2, 1500),
            (1000, 36.413325813564825, 2.000359953349234, 4500, 3, 2000),
            (1000, 36.413325813564825, 2.000431373472701, 4500, 0, 2000),
            (1000, 66.6118506885392, 2.000431373472701, 4500, 1, 2000),
            (1500, 20.4258889208535, 2.000444714918773, 2250, 2, 2000),
            (1500, 37.99019124098767, 2.500363745277329, 4500, 3, 2500),
            (2000, 20.5063844435135, 2.500382399023342, 2250, 2, 2500),
            (2000, 40.08423830462307, 3.0003367220146173, 2250, 3, 3000),
            (2000, 40.08423830462307, 3.000375147283849, 2250, 0, 3000),
            (2000, 82.2506680543423, 3.000375147283849, 2250, 1, 3000),
        ],
        "final_time": 3.0003475562438493,
        "total_bytes": 123876,
        "cpu_ops": {
            0: 136683.7536669072,
            1: 153963.193631112,
            2: 153948.193631112,
            3: 153907.193631112,
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
            (0, 44.62493290929341, 1.0004839381762662, 4500),
            (1000, 36.413325813564825, 2.000483938176266, 4500),
            (2000, 40.08423830462307, 3.0002925573481343, 2250),
        ],
        "final_time": 3.0001058115200006,
        "total_bytes": 225324,
        "cpu_ops": {
            0: 186679.82813311298,
            1: 51381.38867460606,
            2: 51381.38867460606,
            3: 51381.38867460606,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "desis/run_unordered": {
        "outcomes": [
            (0, 44.85442718075182, 1.040473897048391, 4382),
            (1000, 36.16412990883978, 2.0404737949235785, 4381),
            (2000, 40.08423830462307, 3.0402925573481343, 2250),
        ],
        "final_time": 3.0401058115200006,
        "total_bytes": 220584,
        "cpu_ops": {
            0: 182749.19202044207,
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
