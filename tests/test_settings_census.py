"""Every setting has a user: each field of the config dataclasses is set
somewhere a user's run starts from.

The census walks ``src/``, ``benchmarks/``, ``perfbench/``, ``tools/`` and
``examples/`` with :mod:`ast` (tests do not count: a field only a test
sets is a constant with a test).  A field counts as set by

- a keyword in a call to its class, or to one of the class's aliases;
- a keyword of a ``replace(...)`` call (any config class with a field of
  that name);
- a dest of ``repro.__main__._CLUSTER_FLAGS`` (the same).

A field nothing sets is a constant: make it one, or give it a user.
"""

import ast
import dataclasses
from pathlib import Path

from repro.bench.generator import GeneratorConfig
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.faults.plan import ToleranceConfig
from repro.mesh.config import ClusterConfig
from repro.network.topology import TopologyConfig
from repro.obs.live.config import TelemetryConfig
from repro.queries.spec import QuerySpec

REPO = Path(__file__).resolve().parents[1]
WALKED = ("src", "benchmarks", "perfbench", "tools", "examples")

#: The config dataclasses, each with the names a call may use for it.
CONFIGS = {
    ClusterConfig: ("ClusterConfig", "LiveClusterConfig", "MeshConfig"),
    ToleranceConfig: ("ToleranceConfig",),
    ReliabilityConfig: ("ReliabilityConfig",),
    TelemetryConfig: ("TelemetryConfig",),
    TopologyConfig: ("TopologyConfig",),
    GeneratorConfig: ("GeneratorConfig",),
    QuantileQuery: ("QuantileQuery",),
    QuerySpec: ("QuerySpec",),
}

#: Fields only tests set that stay fields, each with its reason.
ALLOWED_UNSET = {
    ("ClusterConfig", "batch_size"):
        "ROADMAP item 21's random clusters draw it; the replay tests vary it",
    ("ToleranceConfig", "heartbeat_interval_s"):
        "the fault tests shorten it to detect a dead local within a test",
    ("ToleranceConfig", "reliability"):
        "the fault tests shorten the retransmit timers to fit a test",
}


def _call_name(call: ast.Call) -> "str | None":
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_cluster_flags(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "_CLUSTER_FLAGS"
        for target in node.targets
    )


def set_fields(files, configs=CONFIGS) -> set[tuple[str, str]]:
    """``(class name, field)`` pairs the sources in ``files`` set."""
    by_alias = {
        alias: cls for cls, aliases in configs.items() for alias in aliases
    }
    fields = {
        cls: {field.name for field in dataclasses.fields(cls)}
        for cls in configs
    }
    found: set[tuple[str, str]] = set()

    def set_anywhere(name: str) -> None:
        for cls, names in fields.items():
            if name in names:
                found.add((cls.__name__, name))

    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _is_cluster_flags(node):
                for dest in node.value.values:
                    set_anywhere(dest.elts[0].value)
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            if name in by_alias:
                cls = by_alias[name]
                found.update(
                    (cls.__name__, k) for k in keywords if k in fields[cls]
                )
            elif name == "replace":
                for keyword in keywords:
                    set_anywhere(keyword)
    return found


def unset_fields(files, configs=CONFIGS) -> list[str]:
    """``Class.field`` for each field nothing in ``files`` sets and the
    allow-list does not name."""
    found = set_fields(files, configs)
    return [
        f"{cls.__name__}.{field.name}"
        for cls in configs
        for field in dataclasses.fields(cls)
        if (cls.__name__, field.name) not in found
        and (cls.__name__, field.name) not in ALLOWED_UNSET
    ]


def _walked_files():
    return sorted(
        path for top in WALKED for path in (REPO / top).rglob("*.py")
    )


def test_every_config_field_is_set_by_a_user():
    unset = unset_fields(_walked_files())
    assert not unset, (
        f"config fields nothing outside tests sets: {unset}; make each a "
        "module constant, or give it a user"
    )


def test_every_allowed_field_exists_and_is_still_unset():
    found = set_fields(_walked_files())
    names = {
        cls.__name__: {field.name for field in dataclasses.fields(cls)}
        for cls in CONFIGS
    }
    for cls_name, field in ALLOWED_UNSET:
        assert field in names[cls_name], (cls_name, field)
        assert (cls_name, field) not in found, (
            f"{cls_name}.{field} has a user now: drop it from ALLOWED_UNSET"
        )


def test_census_sees_each_way_of_setting_a_field(tmp_path):
    @dataclasses.dataclass(frozen=True)
    class Probe:
        by_call: int = 0
        by_alias: int = 0
        by_replace: int = 0
        by_flag: int = 0
        unused: int = 0

    source = tmp_path / "probe.py"
    source.write_text(
        "from dataclasses import replace\n"
        "Probe(by_call=1)\n"
        "ProbeAlias(by_alias=1)\n"
        "replace(probe, by_replace=2)\n"
        "_CLUSTER_FLAGS = {'--flag': ('by_flag', int, 'help')}\n"
    )
    configs = {Probe: ("Probe", "ProbeAlias")}
    assert unset_fields([source], configs) == ["Probe.unused"]
