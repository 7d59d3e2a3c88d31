"""The stage replay computes what the live system computes."""

import pytest

from perfbench import stages
from perfbench.spans import SpanLog
from perfbench.workloads import make_workload


def _small(name, scale):
    workload = make_workload(name)
    workload.configure(seed=5, seconds=1.0, scale=scale)
    workload.generate()
    return workload


def _live_answers(rep):
    return {(o.window.start, o.window.end): o.value for o in rep.answers}


@pytest.mark.parametrize("name", ["flat-firehose", "flat-coarse-gamma",
                                  "flat-fine-gamma"])
def test_flat_replay_equals_run_live(name):
    workload = _small(name, 0.02)
    rep = workload.run()
    log = SpanLog(name)
    answers, counts = stages.replay_windows(
        log, workload.streams, n_streams=workload.streams_per_local,
        window_ms=workload.window_ms, gamma=workload.gamma, q=workload.q,
    )
    assert answers == _live_answers(rep)
    assert counts.events == rep.events == workload.events
    assert counts.windows == len(rep.answers)
    # The replay fetches exactly the candidates the live root fetched.
    assert counts.candidate_events == sum(
        o.candidate_events for o in rep.answers
    )
    busy = log.busy_ns()
    for stage in (stages.BATCH, stages.SORT, stages.SLICE, stages.IDENTIFY,
                  stages.CALCULATE):
        assert busy[stage] > 0


def test_mesh_replay_equals_run_mesh():
    workload = _small("mesh-relay", 0.05)
    rep = workload.run()
    log = SpanLog("mesh-relay")
    answers, counts = stages.replay_windows(
        log, workload.streams, n_streams=1, window_ms=workload.window_ms,
        gamma=workload.gamma, q=workload.q,
        relay_fanin=workload.relay_fanin,
    )
    assert answers == _live_answers(rep)
    assert log.counts()[stages.RELAY_COMBINE] >= counts.windows * 4
    assert log.counts()[stages.RELAY_EXPLODE] >= counts.windows * 4


def test_query_replay_equals_the_live_query_plane():
    workload = _small("multi-query", 0.1)
    rep = workload.run()
    log = SpanLog("multi-query")
    _, results, horizons, counts = stages.replay_queries(
        log, workload.streams, workload.specs,
        n_streams=workload.streams_per_local, window_ms=workload.window_ms,
        gamma=workload.gamma, q=workload.q,
    )
    live = rep.answers
    assert horizons == live["horizons"]

    def triples(by_query):
        return {
            query_id: sorted(
                (m.window.start, m.window.end, m.value, m.rank,
                 m.global_window_size)
                for m in messages
            )
            for query_id, messages in by_query.items()
        }

    assert triples(results) == triples(live["results"])
    assert counts.results_served == sum(
        len(messages) for messages in live["results"].values()
    )
    assert counts.groups == 6


def test_self_time_excludes_children():
    log = SpanLog("t")
    parent = log.open("parent")
    log.call("child", parent, sum, [1, 2, 3])
    log.close(parent)
    own = log.self_ns()
    (_, _, _, p_start, p_end), (_, _, _, c_start, c_end) = log.rows
    assert own[0] == (p_end - p_start) - (c_end - c_start)
    assert own[1] == c_end - c_start
