"""Live multi-query scenarios and the root plane's control paths.

The scenario tests boot a real cluster (memory transport, wire codec,
asyncio servers) and rely on :func:`run_query_scenario`'s built-in
grading: every served result compared bit-identically against the
centralized oracle, plus the shared-cut invariant — one
``query_identification`` span per (selector, γ, window) — read back from the
trace.  The registration/nack unit tests drive :class:`RootQueryPlane`
directly, without a cluster.
"""

import hashlib
from collections import Counter

import pytest

from repro.bench.generator import GeneratorConfig
from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError
from repro.mesh.config import ClusterConfig
from repro.network.messages import (
    CandidateBatchMessage,
    CandidateRequestBatchMessage,
    QueryAckMessage,
    QueryRegisterMessage,
    SynopsisBatchMessage,
)
from repro.obs.tracer import RecordingTracer
from repro.queries.local import LocalQueryPlane
from repro.queries.registry import QueryRegistry
from repro.queries.root import RootQueryPlane
from repro.queries.runner import build_specs, run_query_scenario
from repro.queries.spec import CONTROL_WINDOW, QuerySpec
from repro.runtime.codec import decode_frame, encode_frame


def configs(
    *, n_locals=3, streams_per_local=2, time_scale=0.0, rate=400.0,
    duration_s=4.0,
):
    """The ``repro query`` defaults, with the knobs these tests turn."""
    return (
        ClusterConfig(
            n_locals=n_locals,
            streams_per_local=streams_per_local,
            query=QuantileQuery(gamma=32),
            time_scale=time_scale,
            timeout_s=120.0,
        ),
        GeneratorConfig(event_rate=rate, duration_s=duration_s, seed=7),
    )


class TestScenarios:
    def test_eight_queries_graded_bit_identical(self):
        report = run_query_scenario(
            *configs(duration_s=3.0, rate=300.0), n_queries=8, n_keys=3
        )
        assert report.ok, report.mismatches
        assert report.n_registered == 8
        assert report.results_served > 0
        assert report.results_graded == report.results_served
        assert report.duplicate_cuts == 0
        # Queries sharing a shape share a group — fewer groups than
        # queries is the whole point.
        assert report.groups < report.n_registered
        assert report.identification_cuts > 0

    def test_one_synopsis_frame_per_local_per_watermark(self, monkeypatch):
        """Every window one watermark seals ships in one synopsis frame,
        one section each; each request frame is answered by at most one
        candidate frame.  The served results are those of the per-window
        carriers: the SHA-256 of their sorted reprs was recorded with one
        synopsis frame per window."""
        sealed = []     # (local, windows one call sealed, its frames)
        answered = []   # (local, frames one request batch was answered by)
        on_watermark = LocalQueryPlane.on_watermark
        on_root_message = LocalQueryPlane.on_root_message

        def watermark(plane, value):
            before = plane.windows_sealed
            out = on_watermark(plane, value)
            sealed.append((plane.node_id, plane.windows_sealed - before, out))
            return out

        def root_message(plane, message):
            out = on_root_message(plane, message)
            if isinstance(message, CandidateRequestBatchMessage):
                answered.append((plane.node_id, out))
            return out

        monkeypatch.setattr(LocalQueryPlane, "on_watermark", watermark)
        monkeypatch.setattr(LocalQueryPlane, "on_root_message", root_message)
        report = run_query_scenario(
            *configs(duration_s=3.0, rate=300.0), n_queries=8, n_keys=3
        )
        assert report.ok, report.mismatches
        frames = Counter()
        for local, windows, out in sealed:
            batches = [m for m in out if isinstance(m, SynopsisBatchMessage)]
            assert len(batches) == (1 if windows else 0)
            assert sum(len(m.sections) for m in batches) == windows
            frames[local] += len(batches)
        assert sum(frames.values()) > 0
        runs = Counter()
        for local, out in answered:
            assert all(isinstance(m, CandidateBatchMessage) for m in out)
            assert len(out) <= 1
            runs[local] += len(out)
        assert all(runs[local] <= frames[local] for local in runs)
        results = sorted(
            repr(message)
            for served in report.live.queries["results"].values()
            for message in served
        )
        assert len(results) == 32
        assert hashlib.sha256("\n".join(results).encode()).hexdigest() == (
            "0ceb654fd97ecf8c7a8423513e37640662d8637efc73edfcf4c7a40e3c8edd59"
        )

    def test_churn_registers_and_deregisters_mid_run(self):
        report = run_query_scenario(
            *configs(duration_s=3.0, rate=300.0, time_scale=0.25),
            n_queries=6,
            n_keys=2,
            churn=True,
        )
        assert report.ok, report.mismatches
        assert report.n_registered == 8  # 6 initial + 2 joiners
        assert report.n_deregistered == 3
        assert not report.nacks
        # The joiner into an active group starts at a later horizon than
        # the queries registered before the replay.
        assert max(report.horizons.values()) > min(report.horizons.values())

    def test_churn_without_pacing_rejected(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            run_query_scenario(*configs(), churn=True)

    def test_driver_drop_replays_exactly_once(self):
        """A driver severed mid-run redials with its resume cursor and
        still receives every result exactly once: grading checks both
        completeness (at least once) and the duplicate guard (at most
        once) against the per-query oracle."""
        report = run_query_scenario(
            *configs(time_scale=0.05), n_queries=4, driver_drop=True
        )
        assert report.ok, report.mismatches
        assert report.driver_reconnects >= 1
        assert report.results_served > 0
        assert report.results_graded == report.results_served

    def test_driver_drop_without_pacing_rejected(self):
        """An unpaced replay bursts every result out before the drop can
        land, so the scenario refuses to pretend it tested anything."""
        with pytest.raises(ConfigurationError, match="time_scale"):
            run_query_scenario(*configs(), driver_drop=True)

    def test_single_spec_override(self):
        spec = build_specs(1, 1, window_ms=1000, gamma=32)[0]
        report = run_query_scenario(
            *configs(duration_s=2.0, rate=200.0), specs=[spec]
        )
        assert report.ok, report.mismatches
        assert report.n_registered == 1
        assert report.groups == 1

    def test_serving_together_costs_fewer_bytes_than_apart(self):
        """Two queries on one cluster share the replay, the panes and the
        cut; two single-query deployments pay for each twice."""
        common = configs(
            n_locals=2, streams_per_local=1, duration_s=2.0, rate=200.0
        )
        specs = build_specs(2, 1, window_ms=1000, gamma=32)
        shared = run_query_scenario(*common, specs=specs)
        apart = [run_query_scenario(*common, specs=[spec]) for spec in specs]
        for report in (shared, *apart):
            assert report.ok, report.mismatches
        assert shared.live.total_bytes < sum(
            report.live.total_bytes for report in apart
        )


def register_message(query_id, spec, *, sender=9001):
    return QueryRegisterMessage(
        sender=sender,
        window=CONTROL_WINDOW,
        query_id=query_id,
        q=spec.q,
        kind=spec.kind,
        length_ms=spec.length_ms,
        step_ms=spec.step,
        gamma=spec.gamma,
        freshness_ms=spec.freshness_ms,
        selector=spec.selector,
    )


class TestRootPlaneControl:
    def plane(self):
        plane = RootQueryPlane((1, 2), tracer=RecordingTracer())
        plane.on_client_connect(9001)
        return plane

    def acks_to(self, outgoing, client_id):
        return [
            m for dst, m in outgoing
            if dst == client_id and isinstance(m, QueryAckMessage)
        ]

    def test_session_windows_nacked(self):
        plane = self.plane()
        message = QueryRegisterMessage(
            sender=9001, window=CONTROL_WINDOW, query_id=1,
            q=0.5, kind="session", length_ms=1000, step_ms=1000, gamma=64,
        )
        # The wire still carries the kind: the frame decodes, then nacks.
        assert decode_frame(encode_frame(message)) == message
        out = plane.on_client_message(9001, message)
        (ack,) = self.acks_to(out, 9001)
        assert not ack.accepted
        assert "session" in ack.reason
        assert len(plane.registry) == 0

    def test_bad_selector_nacked_with_reason(self):
        plane = self.plane()
        message = QueryRegisterMessage(
            sender=9001, window=CONTROL_WINDOW, query_id=1,
            q=0.5, kind="tumbling", length_ms=1000, step_ms=1000,
            gamma=32, selector="mod:0:0",
        )
        (ack,) = self.acks_to(plane.on_client_message(9001, message), 9001)
        assert not ack.accepted
        assert "modulus" in ack.reason

    def test_duplicate_query_id_same_spec_is_idempotent(self):
        plane = self.plane()
        spec = QuerySpec()
        first = plane.on_client_message(9001, register_message(1, spec))
        # A fresh shape defers the client ack until activation; an exact
        # re-registration (a reconnecting driver replaying its request)
        # stays silent rather than nacking — the eventual activation ack
        # answers both.
        assert not self.acks_to(first, 9001)
        retry = plane.on_client_message(9001, register_message(1, spec))
        assert not self.acks_to(retry, 9001)
        assert len(plane.registry) == 1

    def test_duplicate_query_id_conflicting_spec_nacked(self):
        plane = self.plane()
        plane.on_client_message(9001, register_message(1, QuerySpec()))
        (ack,) = self.acks_to(
            plane.on_client_message(
                9001, register_message(1, QuerySpec(q=0.9))
            ),
            9001,
        )
        assert not ack.accepted
        assert "already registered" in ack.reason

    def test_registration_broadcasts_one_group_per_shape(self):
        plane = self.plane()
        shape = QuerySpec(q=0.5)
        same_shape = QuerySpec(q=0.9)
        first = plane.on_client_message(9001, register_message(1, shape))
        # New shape: one propagated registration per local node.
        propagated = [
            m for _, m in first if isinstance(m, QueryRegisterMessage)
        ]
        assert len(propagated) == 2
        assert len({m.group_id for m in propagated}) == 1
        # Same shape again: joins the negotiating group, no new broadcast.
        second = plane.on_client_message(9001, register_message(2, same_shape))
        assert not [
            m for _, m in second if isinstance(m, QueryRegisterMessage)
        ]
        assert len(plane.registry.groups()) == 1

    def test_another_window_shape_negotiates_inside_the_same_group(self):
        plane = self.plane()
        first = plane.on_client_message(
            9001, register_message(1, QuerySpec(length_ms=500))
        )
        other = plane.on_client_message(
            9001,
            register_message(
                2, QuerySpec(kind="sliding", length_ms=500, step_ms=250)
            ),
        )
        opened = [
            [m for _, m in out if isinstance(m, QueryRegisterMessage)]
            for out in (first, other)
        ]
        assert [len(messages) for messages in opened] == [2, 2]
        # One group; each shape is named by its own id on the control
        # messages, not by the id of the query that opened it.
        (group,) = plane.registry.groups()
        assert {m.group_id for m in opened[0] + opened[1]} == {group.group_id}
        shape_ids = {m.query_id for m in opened[0]} | {
            m.query_id for m in opened[1]
        }
        assert shape_ids == {s.shape_id for s in group.shapes.values()}
        assert len(shape_ids) == 2

    def test_client_gone_drops_all_its_queries(self):
        plane = self.plane()
        plane.on_client_message(9001, register_message(1, QuerySpec()))
        plane.on_client_message(9001, register_message(2, QuerySpec(q=0.9)))
        assert len(plane.registry) == 2
        plane.on_client_gone(9001)
        assert len(plane.registry) == 0
        assert not plane.registry.groups()


class TestRegistry:
    def test_register_and_deregister_lifecycle(self):
        registry = QueryRegistry()
        record, group, created = registry.register(1, QuerySpec(), 9001)
        assert created and len(registry) == 1
        _, same_group, created_again = registry.register(
            2, QuerySpec(q=0.75), 9001
        )
        assert not created_again and same_group is group
        assert group.query_ids == [1, 2]
        _, _, emptied = registry.deregister(1)
        assert not emptied
        _, _, emptied = registry.deregister(2)
        assert emptied
        assert len(registry) == 0

    def test_window_shapes_share_a_group_and_leave_it_one_by_one(self):
        registry = QueryRegistry()
        _, group, created = registry.register(1, QuerySpec(length_ms=500), 1)
        sliding = QuerySpec(kind="sliding", length_ms=500, step_ms=250)
        _, same, created_shape = registry.register(2, sliding, 1)
        assert created and created_shape and same is group
        assert list(group.shapes) == [(500, 500), (500, 250)]
        _, _, emptied = registry.deregister(1)
        assert not emptied and list(group.shapes) == [(500, 250)]
        _, _, emptied = registry.deregister(2)
        assert emptied and not registry.groups()
