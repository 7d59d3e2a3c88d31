"""``compare`` verdicts: ok, regressed, unresolved."""

from perfbench.compare import compare
from perfbench.stats import summary

DECLARATION = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "throughput_eps", "unit": "1/s", "better": "higher",
         "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def _doc(throughput, setup):
    def metric(samples):
        record = summary(samples)
        record["value"] = record["median"]
        return record

    return {"workloads": {"w": {"end_to_end": {
        "throughput_eps": metric(throughput), "setup_s": metric(setup),
    }}}}


def _verdicts(base, new):
    return {row["metric"]: row["verdict"]
            for row in compare(base, new, DECLARATION)}


def test_same_numbers_are_ok():
    doc = _doc([100, 101, 99, 100], [2.0])
    assert set(_verdicts(doc, doc).values()) == {"ok"}


def test_tight_runs_beyond_the_bound_regress_in_the_right_direction():
    base = _doc([100, 101, 99, 100], [2.0])
    slower = _doc([80, 81, 79, 80], [2.6])
    assert _verdicts(base, slower) == {
        "throughput_eps": "regressed", "setup_s": "regressed",
    }
    assert set(_verdicts(slower, base).values()) == {"ok"}


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    base = _doc([100, 140, 80, 120], [2.0])
    new = _doc([95, 135, 75, 115], [2.0])
    assert _verdicts(base, new)["throughput_eps"] == "unresolved"


def test_wide_runs_resolve_when_every_new_sample_is_better():
    base = _doc([100, 140, 80, 120], [2.0])
    new = _doc([200, 280, 160, 240], [2.0])
    assert _verdicts(base, new)["throughput_eps"] == "ok"
