"""The whole suite: one worker process per workload, reps round-robin.

Each workload runs in its own worker (so ``peak_rss_mb`` and ``setup_s``
are per workload) and the parent drives the timed reps **round-robin
across the workers**: every workload's samples span the whole run, so
when the machine drifts it drifts under all of them alike.  Workers set
up one at a time and idle between reps; only one process ever computes.

With ``--trace`` the traced run of every workload follows, after and
apart from the timed reps, each again in a process of its own.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from perfbench import calibrate
from perfbench.cli import ROOT, headline, print_metrics

__all__ = ["run_suite", "DEFAULT_RESULTS"]

DEFAULT_RESULTS = "perfbench-results.json"

#: Longest a worker may take to answer one command.
_REPLY_TIMEOUT_S = 600


def _worker_command(args, name: str, *extra: str) -> "list[str]":
    command = [
        sys.executable, "-m", "perfbench", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    return command


class _Worker:
    """One ``--serve`` worker: a command down, one JSON line back."""

    def __init__(self, args, name: str) -> None:
        self.name = name
        self.more = False
        self.process = subprocess.Popen(
            _worker_command(args, name, "--serve"), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def wait_ready(self) -> None:
        """Block until the worker has set up and warmed up."""
        self.more = self._read()["more"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker {self.name} exited with code {self.process.wait()}"
            )
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=_REPLY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _timed_records(args, names) -> "dict[str, dict]":
    workers: list[_Worker] = []
    try:
        for name in names:
            print(f"setting up {name} ...", flush=True)
            workers.append(_Worker(args, name))
            if not args.smoke:
                workers[-1].wait_ready()
        if args.smoke:
            # A smoke run checks that everything works, not how fast it
            # is: let the set-ups overlap and share the two cores.
            for worker in workers:
                worker.wait_ready()
        active = [worker for worker in workers if worker.more]
        round_number = 0
        while active:
            round_number += 1
            print(f"round {round_number}: "
                  f"{', '.join(w.name for w in active)}", flush=True)
            for worker in list(active):
                worker.more = worker.ask("rep")["more"]
                if not worker.more:
                    active.remove(worker)
        return {w.name: w.ask("finish")["result"] for w in workers}
    finally:
        for worker in workers:
            worker.close()


def _traced_records(args, names, results_path: Path) -> "dict[str, dict]":
    records = {}
    spans_path = results_path.with_suffix(".spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as all_spans:
        for name in names:
            print(f"tracing {name} ...", flush=True)
            part = results_path.with_suffix(f".{name}.json")
            completed = subprocess.run(
                _worker_command(args, name, "--trace", "1",
                                "--out", str(part)),
                cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=_REPLY_TIMEOUT_S,
            )
            if completed.returncode not in (0, 1) or not part.exists():
                raise RuntimeError(
                    f"traced run of {name} exited with code "
                    f"{completed.returncode}"
                )
            records[name] = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
            part_spans = part.with_suffix(".spans.jsonl")
            all_spans.write(part_spans.read_text(encoding="utf-8"))
            part_spans.unlink()
    return records


def run_suite(args, declaration: dict) -> int:
    """Run every workload, print every metric, write the results file."""
    started = time.time()
    names = [entry["name"] for entry in declaration["workloads"]]
    results_path = Path(args.out or DEFAULT_RESULTS).resolve()
    timed = _timed_records(args, names)
    traced = _traced_records(args, names, results_path) if args.trace else {}

    failed = 0
    for name in names:
        record = timed[name]
        if name in traced:
            extra = traced[name]
            record["per_layer"] = extra["per_layer"]
            record["spans"] = extra["spans"]
            record["total_ops"] += extra["total_ops"]
            record["failed_ops"] += extra["failed_ops"]
            record["failures"] += extra["failures"]
        failed += record["failed_ops"]
        throughput = record["end_to_end"]["throughput_eps"]
        print(f"\n{name} (seed {record['seed']}): "
              f"{record['failed_ops']} of {record['total_ops']} operations "
              f"failed the oracle; {throughput['n']} timed reps")
        for note in record["failures"]:
            print(f"  FAILED {note}")
        print_metrics(headline(record), declaration["end_to_end"])
        print_metrics(record.get("per_layer", {}), declaration["per_layer"])

    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "calibration_ref_ms": calibrate.CALIBRATION_REF_MS,
        "suite_wall_s": time.time() - started,
        "workloads": timed,
    }
    results_path.write_text(
        json.dumps(document, indent=1) + "\n", encoding="utf-8"
    )
    print(f"\nresults: {results_path}")
    if traced:
        print(f"spans:   {results_path.with_suffix('.spans.jsonl')}")
    print(f"suite wall time {document['suite_wall_s']:.1f} s, "
          f"{failed} failed operations")
    return 1 if failed else 0
