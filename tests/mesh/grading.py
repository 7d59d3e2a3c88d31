"""Grade a cluster run as ``repro mesh`` does: the one oracle over the
events the cluster serves, the one grader over the run's outcomes."""

from collections import Counter

from repro.mesh.cluster import served_windows
from repro.testing import grade, oracle


def cluster_truth(streams, config):
    """``(value, size, rank)`` of every window the run must answer."""
    events, starts = served_windows(streams, config)
    (truth,) = oracle(
        events, starts, config.query.window_length_ms, [config.query.q]
    )
    return truth


def grade_counts(streams, config, outcomes):
    """How many outcomes the grader put in each class."""
    graded = grade(cluster_truth(streams, config), outcomes)
    return Counter(verdict for _, verdict, _ in graded)
