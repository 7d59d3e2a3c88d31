"""Command line of the benchmark.

Three shapes of one command:

* ``python -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
  measures one workload in this process and prints, as the last line of
  standard output, the JSON object the benchmark contract asks for
  (``--trace 0``: the end-to-end metrics; ``--trace 1``: the per-layer
  metrics of the separate traced run).
* ``python -m perfbench`` (no ``--workload``) runs the whole suite — one
  worker process per workload, timed reps driven round-robin — prints
  every metric by name with its unit and writes the results file.
* ``--serve`` is the suite's worker protocol (see ``runner.serve``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

__all__ = ["main", "load_declaration", "headline", "print_metrics", "ROOT"]

ROOT = Path(__file__).resolve().parent.parent

#: Every workload at a tenth of its events, 1 + 2 reps, ``flat-paced``
#: 3 s: the whole suite in under 30 s, for CI.
SMOKE_SCALE = 0.1
SMOKE_REPS = 2
SMOKE_SECONDS = 3.0


def process_start_age_s() -> float:
    """Seconds since this process was created, interpreter boot included.

    Read from ``/proc`` so the time before the first line of Python ran
    is counted; where that is unavailable :func:`main` falls back to the
    stamp ``__main__`` took on entry.
    """
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    with open("/proc/uptime", encoding="ascii") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def load_declaration() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="measure only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=42,
                        help="the only input to workload generation")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 events, 1+2 reps, flat-paced 3 s")
    parser.add_argument("--out", default=None,
                        help="results file (suite: default "
                        "perfbench-results.json; single: none)")
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def headline(record: dict) -> dict:
    """The end-to-end metrics of a result record, as plain numbers."""
    return {
        name: metric["value"]
        for name, metric in record["end_to_end"].items()
    }


def print_metrics(metrics: dict, declared: list) -> None:
    """One line per metric: name, value, unit."""
    for entry in declared:
        name = entry["name"]
        if name in metrics:
            print(f"  {name:52s} {metrics[name]:>16.6g} {entry['unit']}")


def contract_line(record: dict, metrics: dict, declared: list) -> str:
    """The last line of standard output the benchmark contract defines.

    A declared metric that does not apply to the workload (a layer the
    workload never enters) reads 0 here; the results file leaves it out.
    """
    return json.dumps({
        "correct": record["failed_ops"] == 0,
        "attempted": record["total_ops"],
        "failed": record["failed_ops"],
        "metrics": {
            entry["name"]: {
                "value": metrics.get(entry["name"], 0.0),
                "unit": entry["unit"],
            }
            for entry in declared
        },
    })


def _single(args, declaration: dict, process_started: float) -> int:
    from perfbench import runner

    options = dict(seed=args.seed, seconds=args.seconds,
                   process_started=process_started)
    if args.smoke:
        options.update(scale=SMOKE_SCALE, reps=SMOKE_REPS,
                       seconds=SMOKE_SECONDS)
    if args.serve:
        runner.serve(args.workload, **options)
        return 0
    if args.trace:
        from perfbench import trace

        record = trace.run_traced(
            args.workload, spans_out=_spans_path(args), **options
        )
        metrics, declared = record["per_layer"], declaration["per_layer"]
    else:
        record = runner.run_single(args.workload, **options)
        metrics, declared = headline(record), declaration["end_to_end"]
    print(f"{record['workload']} seed {record['seed']}: "
          f"{record['failed_ops']} of {record['total_ops']} operations "
          f"failed the oracle")
    for note in record["failures"]:
        print(f"  FAILED {note}")
    print_metrics(metrics, declared)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print(contract_line(record, metrics, declared))
    return 1 if record["failed_ops"] else 0


def _spans_path(args) -> "str | None":
    """Span JSONL sits next to the results file, when there is one."""
    if not args.out:
        return None
    return str(Path(args.out).with_suffix(".spans.jsonl"))


def main(argv=None, *, entered: "float | None" = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro beside perfbench/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    declaration = load_declaration()
    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    names = [entry["name"] for entry in declaration["workloads"]]
    if args.workload is None:
        from perfbench import suite

        return suite.run_suite(args, declaration)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2
    try:
        process_started = time.perf_counter() - process_start_age_s()
    except OSError:
        process_started = entered
    return _single(args, declaration, process_started)
