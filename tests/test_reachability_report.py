"""docs/reachability.md against the source, without running anything.

The full check — every documented entry point run under the profile hook,
the unreached functions held against the report's "stays" rows — is
``python tools/reachability.py`` (CI's ``reachability`` job, 7-8
minutes).  Its "gone" half needs no run: a "stays" row must name a
function that exists, so deleting one without its row fails here.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "reachability", ROOT / "tools" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reachability)


def defined_functions():
    """``(module, qualified name)`` of every ``def`` under ``src/repro``,
    named as the tool names them (``<locals>`` for a nested one)."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, f"{prefix}{child.name}"))
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, prefix)

    for path in reachability.PACKAGE.rglob("*.py"):
        module = ".".join(path.relative_to(reachability.SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "")
    return found


def test_every_stays_row_names_a_function_that_exists():
    stays = reachability.stays_rows(reachability.REPORT)
    assert len(stays) > 100
    assert sorted(stays - defined_functions()) == []


def test_disagreements_are_named_both_ways():
    measured = [("repro.a", "unlisted", 1, 3), ("repro.a", "kept", 5, 2)]
    stays = {("repro.a", "kept"), ("repro.b", "gone")}
    assert reachability.disagreements(measured, stays) == [
        "unreached, no stays row: repro.a.unlisted",
        "stays row, but reached or gone: repro.b.gone",
    ]
    assert reachability.disagreements(measured[1:], {("repro.a", "kept")}) == []
