"""Release hygiene: the public API surface is importable and documented."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.streaming",
    "repro.network",
    "repro.sketches",
    "repro.baselines",
    "repro.bench",
    "repro.obs",
    "repro.faults",
    "repro.queries",
]

MODULES = [
    "repro.errors",
    "repro.testing",
    "repro.core.synopsis",
    "repro.core.sorted_window",
    "repro.core.slicing",
    "repro.core.units",
    "repro.core.window_cut",
    "repro.core.identification",
    "repro.core.calculation",
    "repro.core.adaptive",
    "repro.core.query",
    "repro.core.local_node",
    "repro.core.root_node",
    "repro.core.engine",
    "repro.core.reliability",
    "repro.streaming.events",
    "repro.streaming.windows",
    "repro.streaming.aggregates",
    "repro.network.messages",
    "repro.network.channels",
    "repro.network.simulator",
    "repro.network.topology",
    "repro.network.metrics",
    "repro.network.driver",
    "repro.network.sources",
    "repro.sketches.scale_functions",
    "repro.sketches.tdigest",
    "repro.baselines.base",
    "repro.baselines.scotty",
    "repro.baselines.desis",
    "repro.baselines.tdigest_system",
    "repro.baselines.partial",
    "repro.bench.generator",
    "repro.bench.workloads",
    "repro.bench.harness",
    "repro.bench.accuracy",
    "repro.bench.reporting",
    "repro.bench.charts",
    "repro.bench.model",
    "repro.bench.sweep",
    "repro.bench.runner",
    "repro.queries.spec",
    "repro.queries.slide",
    "repro.queries.registry",
    "repro.queries.local",
    "repro.queries.root",
    "repro.queries.client",
    "repro.queries.oracle",
    "repro.queries.runner",
    "repro.obs.events",
    "repro.obs.tracer",
    "repro.obs.metrics",
    "repro.obs.export",
    "repro.obs.report",
    "repro.obs.scenarios",
    "repro.faults.plan",
    "repro.faults.scenarios",
    "repro.faults.chaos",
    "repro.faults.simulate",
    "repro.faults.runner",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
class TestModules:
    def test_importable_with_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for exported in getattr(module, "__all__", []):
            assert hasattr(module, exported), f"{name}.__all__: {exported}"


class TestTopLevel:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_every_top_level_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_catching_base_covers_library_failures(self):
        from repro import ReproError, dema_quantile

        with pytest.raises(ReproError):
            dema_quantile({}, q=0.5, gamma=2)


class TestOneRuler:
    """``python -m perfbench`` is the only thing that writes a performance
    number: ``repro.bench`` is the simulated-clock paper harness and
    nothing under ``src/repro`` names a ``BENCH_*.json`` results file."""

    SRC = Path(repro.__file__).parent

    def test_bench_package_is_the_paper_harness(self):
        modules = {path.stem for path in (self.SRC / "bench").glob("*.py")}
        assert modules == {
            "__init__", "generator", "workloads", "harness", "accuracy",
            "charts", "model", "reporting", "runner", "sweep",
        }

    def test_no_source_file_names_a_bench_artifact(self):
        pattern = re.compile(r"BENCH_\w+\.json")
        offenders = [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []

    def test_no_committed_bench_artifact(self):
        root = self.SRC.parent.parent
        assert sorted(path.name for path in root.glob("BENCH_*.json")) == []
