"""Which functions of ``src/repro`` does no documented entry point call?

    python tools/reachability.py [--dumps DIR] [--analyse-only] [ENTRY ...]

Runs every entry point the system exists for (``ENTRY_POINTS``: the
README's and docs' ``python -m repro`` commands, the perfbench smoke suite
at both trace settings, EXPERIMENTS.md's runner, the paper benchmarks and
every example), each in a child process of its own, from a scratch working
directory.  A ``sitecustomize`` put first on ``PYTHONPATH`` installs
``sys.setprofile`` and ``threading.setprofile`` in that process and in
every Python process it starts, and at exit writes the
``(co_filename, co_firstlineno)`` of each code object under ``src/repro``
that was called.  Then every ``def`` in ``src/repro`` is listed, found by
``ast`` and matched on its first line (the first decorator's, as in
``co_firstlineno``), and the ones no entry point called are printed as a
markdown table on standard output.  A ``def`` nested in an unreached one
is not listed again.  The entry points share one scratch working
directory and run in order, so ``repro report`` reads the traces that
``examples/trace_inspection.py`` and ``repro trace lossy`` wrote there.

The result is then held against ``docs/reachability.md``: every unreached
function must have a "stays" row there, and every "stays" row must name a
function that exists and is still unreached.  Each disagreement is named
on standard error, and the exit status is 1 if there is one or if an
entry point failed.  A run of only some entry points therefore fails on
the functions only the others reach.

``ENTRY ...`` runs only the entry points whose name starts with one of
them; ``--dumps DIR`` keeps the per-process records in ``DIR`` (one
sub-directory per entry point), and ``--analyse-only`` reads them from
there instead of running anything, so entry points can be run in parts.
Progress and each entry point's exit status go to standard error.  The
whole set takes 7-8 minutes on two cores; the profile hook costs
a Python call per Python and C call, so each entry point runs 2-3 times
slower than without it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REPORT = ROOT / "docs" / "reachability.md"

_HOOK = '''\
import atexit, json, os, sys, threading

_codes = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    package = os.environ["REACHABILITY_PACKAGE"]
    reached = sorted({
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in dict(_codes).values()
        if os.path.realpath(code.co_filename).startswith(package)
    })
    path = os.path.join(os.environ["REACHABILITY_DUMPS"], f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(reached, out)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def _repro(*args: str) -> "list[str]":
    return ["-m", "repro", *args]


#: ``(name, argv after the interpreter)``, run in this order from one
#: scratch directory (relative paths land there); each must exit 0.
ENTRY_POINTS: "tuple[tuple[str, list[str]], ...]" = (
    ("perfbench --smoke --trace 0",
     ["-m", "perfbench", "--smoke", "--trace", "0", "--out", "pb0.json"]),
    ("perfbench --smoke --trace 1",
     ["-m", "perfbench", "--smoke", "--trace", "1", "--out", "pb1.json"]),
    ("repro.bench.runner --all --json",
     ["-m", "repro.bench.runner", "--all", "--json", "results.json"]),
    ("repro.bench.runner --trace",
     ["-m", "repro.bench.runner", "--trace", "out.json"]),
    ("benchmarks",
     ["-m", "pytest", str(ROOT / "benchmarks"), "-q", "--benchmark-disable",
      "-p", "no:cacheprovider", "--rootdir", str(ROOT)]),
    *((f"examples/{path.name}", [str(path)])
      for path in sorted((ROOT / "examples").glob("*.py"))),
    ("repro info", _repro("info")),
    ("repro demo", _repro("demo")),
    ("repro quantile", _repro("quantile")),
    ("repro sweep", _repro("sweep", "--parameter", "gamma", "--values",
                           "2,20,200", "--systems", "dema,desis")),
    ("repro trace --list", _repro("trace", "--list")),
    ("repro trace quickstart --report",
     _repro("trace", "quickstart", "--report")),
    ("repro trace lossy --chrome --metrics",
     _repro("trace", "lossy", "--chrome", "lossy.json", "--metrics",
            "lossy.prom", "-o", "lossy.trace.jsonl")),
    ("repro report quickstart", _repro("report", "quickstart.trace.jsonl")),
    ("repro report lossy", _repro("report", "lossy.trace.jsonl")),
    ("repro live", _repro("live", "--locals", "2", "--streams", "2",
                          "--rate", "20000", "--duration", "3")),
    ("repro live --time-scale 0 --uvloop", _repro(
        "live", "--time-scale", "0", "--transport", "memory", "--uvloop")),
    ("repro live --telemetry-port", _repro(
        "live", "--telemetry-port", "0", "--flight-recorder", "fr.jsonl",
        "--trace-sample", "0.25")),
    ("repro top --once", _repro("top", "--once")),
    ("repro top --mesh --once", _repro("top", "--mesh", "--once")),
    ("repro query", _repro("query")),
    ("repro query --churn", _repro("query", "--churn", "--time-scale", "0.3")),
    ("repro chaos --list", _repro("chaos", "--list")),
    *((f"repro chaos --scenario {name}", _repro("chaos", "--scenario", name),
       ) for name in ("crash-reconnect", "flaky-link", "driver-drop")),
    ("repro chaos --scenario dead-local --mode sim",
     _repro("chaos", "--scenario", "dead-local", "--mode", "sim")),
    ("repro chaos --scenario dead-local", _repro(
        "chaos", "--scenario", "dead-local")),
    ("repro chaos --scenario partition --transport tcp", _repro(
        "chaos", "--scenario", "partition", "--transport", "tcp")),
    ("repro chaos --scenario partition --telemetry-port", _repro(
        "chaos", "--scenario", "partition", "--mode", "live",
        "--telemetry-port", "0", "--flight-recorder", "chaos-fr.jsonl")),
    ("repro chaos --scenario kill-shard", _repro(
        "chaos", "--scenario", "kill-shard", "--shards", "3",
        "--duration", "10")),
    ("repro chaos --scenario kill-shard-with-relay", _repro(
        "chaos", "--scenario", "kill-shard-with-relay", "--relay-fanin", "3",
        "--duration", "10")),
    ("repro chaos --scenario crash-reconnect --shards 2", _repro(
        "chaos", "--scenario", "crash-reconnect", "--shards", "2")),
    ("repro mesh", _repro("mesh", "--locals", "100", "--shards", "4",
                          "--relay-fanin", "8")),
    ("repro mesh --join --leave", _repro(
        "mesh", "--locals", "4", "--streams", "2", "--shards", "2",
        "--relay-fanin", "2", "--rate", "120", "--duration", "4",
        "--join", "5@2000", "--leave", "2@3000")),
    ("repro mesh --transport tcp", _repro(
        "mesh", "--locals", "4", "--shards", "2", "--transport", "tcp")),
    ("repro mesh --telemetry-port", _repro(
        "mesh", "--locals", "16", "--shards", "2", "--relay-fanin", "4",
        "--telemetry-port", "0", "--time-scale", "0.3")),
    ("repro fleet", _repro("fleet")),
)


def run_entry_points(
    names: "list[str]", dumps: Path, scratch: Path
) -> "list[str]":
    """Run the selected entry points under the hook, from ``scratch``;
    return the names of those that did not exit 0."""
    hook_dir = scratch / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
    cwd = scratch / "cwd"
    cwd.mkdir()
    failures = []
    for name, argv in ENTRY_POINTS:
        if names and not any(name.startswith(prefix) for prefix in names):
            continue
        out = dumps / re.sub(r"[^A-Za-z0-9_.-]+", "_", name)
        out.mkdir(parents=True, exist_ok=True)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC), str(ROOT)]),
            REACHABILITY_PACKAGE=str(PACKAGE.resolve()),
            REACHABILITY_DUMPS=str(out),
        )
        started = time.monotonic()
        code = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        if code:
            failures.append(name)
        print(f"{time.monotonic() - started:7.1f}s  {status:18s}  {name}",
              file=sys.stderr, flush=True)
    return failures


def reached_lines(dumps: Path) -> "set[tuple[str, int]]":
    """Every ``(file, first line)`` any process under ``dumps`` called."""
    reached = set()
    for record in dumps.glob("*/*.json"):
        reached.update(
            (path, line)
            for path, line in json.loads(record.read_text(encoding="utf-8"))
        )
    return reached


def unreached_defs(reached: "set[tuple[str, int]]"):
    """``(module, qualname, first line, lines)`` of each unreached ``def``."""
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        real = str(path.resolve())
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    if (real, first) in reached:
                        visit(child, f"{name}.<locals>.")
                    else:
                        rows.append((module, name, first,
                                     child.end_lineno - first + 1))
                else:
                    visit(child, prefix)

        visit(tree, "")
    return rows


def stays_rows(report: Path) -> "set[tuple[str, str]]":
    """``(module, function)`` of every "stays" row of the report's tables."""
    rows = set()
    for line in report.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        module, name, _, verdict, _ = line.strip("| ").split(" | ", 4)
        if verdict.startswith("stays"):
            rows.add((module.strip("`"), name.strip("`")))
    return rows


def disagreements(rows, stays: "set[tuple[str, str]]") -> "list[str]":
    """What the measured ``rows`` and the report's "stays" rows disagree on."""
    unreached = {(module, name) for module, name, _, _ in rows}
    return [
        *(f"unreached, no stays row: {m}.{n}" for m, n in sorted(unreached - stays)),
        *(f"stays row, but reached or gone: {m}.{n}"
          for m, n in sorted(stays - unreached)),
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("entries", nargs="*",
                        help="run only the entry points whose name starts with one "
                             "of these")
    parser.add_argument("--dumps", type=Path, default=None,
                        help="keep the per-process records here")
    parser.add_argument("--analyse-only", action="store_true",
                        help="read the records in --dumps, run nothing")
    args = parser.parse_args(argv)
    if args.analyse_only and args.dumps is None:
        parser.error("--analyse-only needs --dumps")
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        dumps = args.dumps or Path(scratch) / "dumps"
        failures = ([] if args.analyse_only else
                    run_entry_points(args.entries, dumps, Path(scratch)))
        rows = unreached_defs(reached_lines(dumps))
    print(f"{len(rows)} unreached functions, "
          f"{sum(row[3] for row in rows)} lines\n")
    print("| module | function | line | lines |")
    print("|---|---|---|---|")
    for module, name, first, lines in rows:
        print(f"| `{module}` | `{name}` | {first} | {lines} |")
    if failures:
        print(f"\nfailed entry points: {', '.join(failures)}", file=sys.stderr)
    stale = disagreements(rows, stays_rows(REPORT))
    for line in stale:
        print(line, file=sys.stderr)
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
