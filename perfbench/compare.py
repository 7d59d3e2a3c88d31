"""Compare two results files: ``python -m perfbench.compare BASE NEW``.

One row per (workload, end-to-end metric): both values with their
quartiles, the ratio with its base, the benchmark's bound and a verdict:

* ``ok`` — NEW is no worse than BASE by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound and the two sides' samples overlap, so the files cannot say
  (a spread that wide with every NEW sample better than every BASE
  sample still resolves, as ``ok``).

Exit status is non-zero on any ``regressed``.  Used for A/A checks (two
runs of one commit must come out all ``ok``) and for parent-vs-change.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.cli import load_declaration
from perfbench.stats import spread

__all__ = ["compare", "main"]


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse NEW is than BASE, as a share of BASE (< 0: better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def _verdict(base: dict, new: dict, better: str, bound: float) -> str:
    spreads = [
        spread(side["samples"]) for side in (base, new) if side["n"] >= 2
    ]
    if spreads and max(spreads) > bound:
        # Signed so that a larger number is always the worse one.
        sign = 1.0 if better == "lower" else -1.0
        old = [sign * sample for sample in base["samples"]]
        now = [sign * sample for sample in new["samples"]]
        if max(now) < min(old):
            return "ok"
        if min(now) <= max(old):
            return "unresolved"
    worse = _worse_by(base["value"], new["value"], better)
    return "regressed" if worse > bound else "ok"


def compare(base_doc: dict, new_doc: dict, declaration: dict) -> "list[dict]":
    """The comparison rows, in declared workload and metric order."""
    rows = []
    for workload in declaration["workloads"]:
        name = workload["name"]
        base = base_doc["workloads"].get(name)
        new = new_doc["workloads"].get(name)
        if base is None or new is None:
            continue
        for metric in declaration["end_to_end"]:
            key = metric["name"]
            a, b = base["end_to_end"][key], new["end_to_end"][key]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "base": a, "new": b,
                "ratio": b["value"] / a["value"] if a["value"] else 0.0,
                "bound": metric["bound"],
                "verdict": _verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def _cell(side: dict) -> str:
    if side["n"] >= 2:
        return (f"{side['value']:.6g} [{side['q1']:.4g}..{side['q3']:.4g}]"
                f" n={side['n']}")
    return f"{side['value']:.6g} n=1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents, load_declaration())
    print(f"{'workload':18s} {'metric':24s} {'base':>34s} {'new':>34s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:24s} "
              f"{_cell(row['base']):>34s} {_cell(row['new']):>34s} "
              f"{row['ratio']:9.4f} {row['bound']:6.0%}  {row['verdict']}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
