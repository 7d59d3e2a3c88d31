"""The command against its declaration, end to end (smoke-sized)."""

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench.cli import ROOT, load_declaration
from perfbench.workloads import WORKLOAD_NAMES, make_workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, timeout=170):
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    return completed, completed.stdout.strip().splitlines()


def test_declared_workloads_are_the_implemented_ones():
    declared = [w["name"] for w in load_declaration()["workloads"]]
    assert declared == list(WORKLOAD_NAMES)


def test_declared_names_are_well_formed_and_unique():
    declaration = load_declaration()
    names = [m["name"] for m in declaration["end_to_end"]
             + declaration["per_layer"] + declaration["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(trace, section):
    completed, lines = _run("--workload", "flat-coarse-gamma", "--smoke",
                            "--trace", trace)
    assert completed.returncode == 0, completed.stderr
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in load_declaration()[section]}
    assert set(final["metrics"]) == set(declared)
    for name, metric in final["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    # Every metric that applies is also printed by name, with its unit.
    printed = {line.split()[0] for line in lines[1:-1]}
    assert printed <= set(declared)
    assert {n for n, m in final["metrics"].items() if m["value"]} <= printed


def test_seed_changes_the_streams_and_still_passes_the_oracle():
    streams = {}
    for seed in (42, 7):
        workload = make_workload("flat-firehose")
        workload.configure(seed=seed, seconds=1.0, scale=0.01)
        workload.generate()
        streams[seed] = workload.streams[1].values
    assert not np.array_equal(streams[42], streams[7])
    completed, lines = _run("--workload", "flat-firehose", "--smoke",
                            "--seed", "7")
    assert completed.returncode == 0, completed.stderr
    assert json.loads(lines[-1])["failed"] == 0


def test_unknown_workload_is_refused():
    completed, _ = _run("--workload", "no-such-workload")
    assert completed.returncode == 2


def test_smoke_suite_finishes_in_thirty_seconds(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    completed, _ = _run("--smoke", "--trace", "0", "--out", str(out))
    wall = time.monotonic() - start
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert wall < 30.0
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == list(WORKLOAD_NAMES)
    for record in document["workloads"].values():
        assert record["failed_ops"] == 0
        assert record["end_to_end"]["throughput_eps"]["n"] == 2 or (
            record["workload"] == "flat-paced"
        )
