"""Tests validating the analytical model against the simulator."""

import numpy as np
import pytest

from repro.core.slicing import slice_sorted_events
from repro.errors import ConfigurationError
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.bench.harness import capacity_estimate, run_workload
from repro.bench.model import SystemModel
from repro.bench.workloads import bench_topology, median_query
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    DigestMessage,
    EventBatchMessage,
    SortedRunMessage,
    SynopsisMessage,
    WatermarkMessage,
)
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

MODEL = SystemModel(n_local_nodes=2, node_ops_per_second=1e5, gamma=100)


class TestThroughputPredictions:
    @pytest.mark.parametrize(
        "system", ["dema", "scotty", "desis", "tdigest"]
    )
    def test_matches_simulation_within_tolerance(self, system):
        predicted = MODEL.throughput(system).per_node_rate
        simulated = capacity_estimate(
            system, median_query(100), bench_topology(2)
        ).per_node_rate
        assert predicted == pytest.approx(simulated, rel=0.15)

    def test_bottleneck_identification(self):
        assert MODEL.throughput("scotty").bottleneck == "root"
        # Desis ships 8-byte values: two locals' worth no longer saturates
        # its root, three do (the paper's Desis ships whole tuples and is
        # root-bound at two).
        assert MODEL.throughput("desis").bottleneck == "local"
        three = SystemModel(n_local_nodes=3, node_ops_per_second=1e5, gamma=100)
        assert three.throughput("desis").bottleneck == "root"
        assert MODEL.throughput("dema").bottleneck == "local"
        assert MODEL.throughput("tdigest").bottleneck == "local"

    def test_ordering_matches_paper(self):
        # The paper's ordering wherever Desis' root binds: three locals on.
        for n in (3, 4, 8):
            model = SystemModel(n_local_nodes=n, node_ops_per_second=1e5, gamma=100)
            rates = {
                system: model.aggregate_throughput(system)
                for system in ("dema", "scotty", "desis", "tdigest")
            }
            assert (
                rates["tdigest"]
                > rates["dema"]
                > rates["desis"]
                > rates["scotty"]
            ), n
        # At two locals Dema and a value-shipping Desis are both bound by
        # the local sort, Desis about 3 % ahead (no slicing pass).
        rates = {
            system: MODEL.aggregate_throughput(system)
            for system in ("dema", "scotty", "desis", "tdigest")
        }
        assert rates["tdigest"] > rates["desis"] > rates["dema"]
        assert rates["desis"] < 1.05 * rates["dema"]
        assert rates["dema"] > 5 * rates["scotty"]

    def test_dema_scales_with_nodes_desis_does_not(self):
        small = SystemModel(n_local_nodes=2, node_ops_per_second=1e5)
        large = SystemModel(n_local_nodes=8, node_ops_per_second=1e5)
        assert large.aggregate_throughput("dema") > 3.5 * (
            small.aggregate_throughput("dema")
        )
        assert large.aggregate_throughput("desis") < 1.2 * (
            small.aggregate_throughput("desis")
        )

    def test_throughput_names_its_system(self):
        prediction = SystemModel(node_ops_per_second=1e5).throughput("dema")
        assert prediction.system == "dema"
        assert prediction.per_node_rate > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            MODEL.throughput("flink")


class TestNetworkPredictions:
    @pytest.mark.parametrize("system", ["scotty", "desis", "dema", "tdigest"])
    def test_bytes_match_simulation(self, system):
        rate, n_windows = 2_000, 3
        streams = event_objects(workload(
            [1, 2],
            GeneratorConfig(event_rate=rate, duration_s=float(n_windows),
                            seed=23),
        ))
        report = run_workload(
            system, median_query(100), bench_topology(2), streams
        )
        # Calibrate the data-dependent knobs from the run itself.
        candidate_slices = 3
        if system == "dema":
            candidate_slices = round(
                sum(o.candidate_slices for o in report.outcomes)
                / len(report.outcomes)
            )
        model = SystemModel(
            n_local_nodes=2, gamma=100, candidate_slices=candidate_slices
        )
        predicted = model.network_bytes(system, rate, n_windows)
        tolerance = 0.30 if system in ("tdigest",) else 0.10
        assert predicted == pytest.approx(
            report.network.total_bytes, rel=tolerance
        )

    def test_dema_bytes_scale_with_synopses_not_events(self):
        small = MODEL.network_bytes("dema", 1_000, 1)
        large = MODEL.network_bytes("dema", 4_000, 1)
        assert large < 3 * small

    def test_centralized_bytes_linear_in_events(self):
        small = MODEL.network_bytes("scotty", 1_000, 1)
        large = MODEL.network_bytes("scotty", 4_000, 1)
        assert large == pytest.approx(4 * small, rel=0.02)

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            MODEL.network_bytes("flink", 100, 1)

    def test_sketch_frames_are_priced_as_their_messages(self):
        # One node-window's frame is exactly a message of the model's
        # typical size: 70 centroids plus the exact min and max for a
        # t-digest (1,172 B).
        frame = DigestMessage(
            1, Window(0, 1000), centroids=((1.0, 1.0),) * 70, maximum=1.0
        )
        single = SystemModel(n_local_nodes=1)
        assert single.network_bytes("tdigest", 5_000, 1) == frame.wire_bytes
        assert MODEL.network_bytes("tdigest", 5_000, 3) == 6 * frame.wire_bytes
        assert frame.wire_bytes == 1_172

    def test_exact_frames_are_priced_as_their_messages(self):
        # One node-window of 1,000 events: Scotty's two 512-event batch
        # frames and a watermark, Desis' one sorted run, and Dema's
        # synopsis frame of the slicer's cut at γ = 100, one request for
        # its 3 candidates and their 3 runs of γ values.
        window = Window(0, 1000)
        values = np.arange(1_000, dtype="<f8")
        events = EventColumns.from_arrays(
            values, np.zeros(1_000, dtype="<u4"), 1
        )
        sliced = slice_sorted_events(values, 100, 1)
        frames = {
            "scotty": [
                EventBatchMessage(1, window, events=events[:512]),
                EventBatchMessage(1, window, events=events[512:]),
                WatermarkMessage(1, window, watermark_time=1000),
            ],
            "desis": [SortedRunMessage(1, window, events=values)],
            "dema": [
                SynopsisMessage(
                    1, window, synopses=sliced.synopses,
                    local_window_size=1_000,
                ),
                CandidateRequestMessage(0, window, slice_indices=(0, 4, 9)),
                *(
                    CandidateEventsMessage(
                        1, window, slice_index=index,
                        events=sliced.run_for(index),
                    )
                    for index in (0, 4, 9)
                ),
            ],
        }
        single = SystemModel(n_local_nodes=1, gamma=100, candidate_slices=3)
        for system, sent in frames.items():
            assert single.network_bytes(system, 1_000, 1) == sum(
                frame.wire_bytes for frame in sent
            )


class TestModelValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemModel(n_local_nodes=0)
        with pytest.raises(ConfigurationError):
            SystemModel(gamma=1)

    def test_gamma_tradeoff_visible_in_model(self):
        tiny = SystemModel(node_ops_per_second=1e5, gamma=2)
        mid = SystemModel(node_ops_per_second=1e5, gamma=100)
        huge = SystemModel(node_ops_per_second=1e5, gamma=50_000)
        assert mid.root_capacity("dema") > tiny.root_capacity("dema")
        assert mid.root_capacity("dema") > huge.root_capacity("dema")
