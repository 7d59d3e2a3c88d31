"""Lint: marked hot-path modules must never construct ``Event`` objects,
nor ``SliceSynopsis`` rows outside the batch's one row materialiser.

The columnar refactor's whole payoff is that event batches cross the
stream → local → root pipeline as parallel arrays; a single stray
``Event(...)`` constructor in one of these modules silently reintroduces
the per-event allocation the refactor removed, and nothing else would
catch it (the bit-identity suite compares *results*, not allocation
counts).  The workload generator and the experiment runner are marked
too: a stream is born columnar, so no run starts by rebuilding columns
from objects, and so are the two roots' halves of the shared cut
(``core/root_node.py`` and the query plane's ``queries/root.py``), which
hand a local's batches to the sweep as they were decoded.  Every module
that opts into the discipline carries a ``Hot-path module:`` marker
comment naming this test; the lint walks the
whole package so a marked module can never silently drop out of the
checked set by being moved.

Synopses get the same treatment: a local's slice batch is one
``SynopsisColumns`` from the slicer through the wire, the relay and
window-cut, and ``SliceSynopsis`` rows exist only for the few candidates a
cut hands out — built by ``core/synopsis.py``'s ``_row`` and nowhere else
in a marked module.

A further lint keeps both substrates on one representation: behind the
public doors every batch is an ``EventColumns``, so
``isinstance(…, EventColumns)`` is a fork on what the caller handed in.
None is left in ``runtime/``, ``mesh/`` or ``queries/``; ``core/``,
``network/`` and ``streaming/`` hold exactly two — the one converter every
door calls and ``EventColumns.__eq__`` — and the simulator's door and
local operators are held to "no loop assigns windows".

And one keeps the ordering of rows in one place: numpy sorts on the live
path occur only inside a short list of named functions, so a second
(stable, whole-window) sort cannot arrive unnoticed.

The last keeps the shared cut in one place: quantiles become ranks and
one window-cut sweep cuts a frame of windows only in ``identification._sweep``,
which the in-memory entry points, the simulator's Dema root and the live
query root (through ``identify_frame``) all run instead of re-deriving it.

And two keep the protocol's node classes few: Dema is one local and one
root under ``core/`` (a simulated deployment's one query is group 0), and the
baselines are Scotty's pair and the summary pair that Desis, t-digest and
partial aggregation share, so a per-path or per-system copy of the
local/root protocol cannot grow back.  A third keeps one grouping rule for
concurrent queries: the live plane's registry defines the package's only
``QueryGroup``.

One keeps the one cluster driver legible: no function or method of
``runtime/cluster.py`` runs past 150 lines, so the driver stays a cluster
object with build, wire, drive and report steps rather than one coroutine
of closures sharing state by capture.

One keeps a background task's failure policy in one place:
``FailureLatch.guard`` is the only ``except BaseException`` handler and the
only code that records on a latch, so every live task is spawned through
the latch instead of carrying a hand-copied handler.

One keeps whole events off the uplink: each system ships only the
columns its root reads, so the raw event batch is the only message whose
``payload_bytes`` counts the 20-byte event — candidate runs and Desis'
sorted runs are 8-byte value runs, and a whole-tuple run cannot return
quietly.

One keeps one synopsis layout on the wire: ``runtime/wire.py``
defines one synopsis section struct — local size and γ, which the slice
boundaries follow on every link — and no per-slice record struct,
``SynopsisColumns`` has one wire encoder and one decoder, and only
``slice_sorted_events`` writes a slice's bounding last value from the next
slice's first, so a per-link or per-slice layout cannot grow back beside
it.

One keeps each wire payload declared once: the twelve fixed-size
message types each state their payload as one ``LAYOUT`` struct in
``network/messages.py``, from which ``payload_bytes``, the encoder and the
decoder follow, and none of them has a hand ``payload_bytes`` or codec
beside it; the codec's one table names every message type exactly once.
Every other type states its payload once too, as ``PAYLOAD`` parts, but
for the eight hand-coded ones, held with ``==``.

One keeps the simulated side to one deployment: ``Simulator`` and
``BatchSourceDriver`` are each constructed in one function, the
``SimulatedDeployment`` every system's operator pair runs on.

One keeps exactness checked one way: ``repro.testing`` defines the one
window oracle and the one grader, and the query plane's two names for them
in ``queries/oracle.py`` only call into it, so a per-path oracle or grader
(each with its own idea of a tie or a grade) cannot grow back.

One keeps one strict order below the door: ``repro.core``,
``repro.streaming`` and ``repro.testing`` call ``isnan`` and branch on or
name a function for NaN only where a NaN is refused — the stream door
``check_streams``, an event batch's sort and the root's rank select (where
a wire-fed NaN is first ordered) and the oracle — so a NaN fallback path
cannot grow back below the door.

The last holds the per-frame cost of the stream → local hop: the Python
calls into ``src/repro`` that one strided event batch costs from encode
through decode to ingest are counted and held with ``==``, so a change
that adds a call per frame has to say so.
"""

import ast
import pathlib
import re

import pytest

import repro
from repro.core.sorted_window import SortedLocalWindow
from repro.core.synopsis import SynopsisColumns
from repro.mesh.config import ClusterConfig
from repro.streaming.columns import (
    EVENT_DTYPE,
    EventColumns,
    concat_records,
    select_frame,
)

MARKER = "Hot-path module:"

#: ``Event(`` as a constructor call: not attribute-qualified (so
#: ``asyncio.Event()`` stays legal) and not a prefix of a longer name
#: (``EventColumns(``, ``EventBatchMessage(``).
EVENT_CALL = re.compile(r"(?<![A-Za-z0-9_.])Event\(")

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: The modules expected to carry the marker today; the lint fails if one
#: loses it, so the discipline cannot be turned off by deleting a comment.
EXPECTED_MARKED = {
    "baselines/base.py",
    "bench/generator.py",
    "bench/runner.py",
    "baselines/desis.py",
    "core/calculation.py",
    "core/engine.py",
    "core/identification.py",
    "core/local_node.py",
    "core/root_node.py",
    "core/slicing.py",
    "core/sorted_window.py",
    "core/synopsis.py",
    "core/window_cut.py",
    "mesh/relay.py",
    "network/deployment.py",
    "network/driver.py",
    "network/sources.py",
    "queries/local.py",
    "queries/root.py",
    "queries/slide.py",
    "runtime/codec.py",
    "runtime/servers.py",
    "runtime/transport.py",
}


def _marked_modules():
    return {
        path.relative_to(PACKAGE_ROOT).as_posix(): path
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if MARKER in path.read_text()
    }


def test_expected_modules_are_marked():
    assert set(_marked_modules()) == EXPECTED_MARKED


def test_no_event_construction_in_hot_path_modules():
    violations = []
    for name, path in _marked_modules().items():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if EVENT_CALL.search(line):
                violations.append(f"{name}:{lineno}: {line.strip()}")
    assert not violations, (
        "Event objects constructed in hot-path modules:\n"
        + "\n".join(violations)
    )


def test_lint_regex_matches_constructor_calls_only():
    assert EVENT_CALL.search("event = Event(value=1.0)")
    assert EVENT_CALL.search("return [Event(*t) for t in rows]")
    assert not EVENT_CALL.search("self.done = asyncio.Event()")
    assert not EVENT_CALL.search("cols = EventColumns.from_wire(raw)")
    assert not EVENT_CALL.search("msg = EventBatchMessage(1, w)")


#: The only function of a marked module that may call ``SliceSynopsis(...)``:
#: the row materialiser behind a batch's indexing, iteration and ``rows``.
ALLOWED_SYNOPSIS_CONSTRUCTORS = {("core/synopsis.py", "_row")}


def _scopes(tree):
    """``(scope name, node)`` for every node: once per enclosing function,
    or under ``<module>`` for statements outside any function."""
    for statement in ast.walk(tree):
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(statement):
                yield statement.name, node
    for statement in tree.body:
        if not isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for node in ast.walk(statement):
                yield "<module>", node


def _synopsis_constructors(source):
    return {
        scope
        for scope, node in _scopes(ast.parse(source))
        if isinstance(node, ast.Call)
        and "SliceSynopsis" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    }


def test_synopsis_rows_are_built_only_by_the_row_materialiser():
    sites = {
        (name, scope)
        for name, path in _marked_modules().items()
        for scope in _synopsis_constructors(path.read_text())
    }
    assert sites == ALLOWED_SYNOPSIS_CONSTRUCTORS


def test_synopsis_lint_sees_calls_in_functions_and_at_module_level():
    assert _synopsis_constructors(
        "def decode(raw):\n    return [SliceSynopsis(*r) for r in raw]\n"
    ) == {"decode"}
    assert _synopsis_constructors(
        "EMPTY = SliceSynopsis(k, k, 1, 0, 0, 1)\n"
    ) == {"<module>"}
    assert _synopsis_constructors(
        "def f(raw):\n    return synopsis.SliceSynopsis(*raw)\n"
    ) == {"f"}
    assert not _synopsis_constructors(
        "def f(batch: SliceSynopsis):\n"
        "    # no SliceSynopsis(...) here\n"
        "    return batch.rows(idx), SliceSynopsis\n"
    )


#: No function under ``runtime/``, ``mesh/`` or ``queries/`` may ask whether
#: a batch is columnar: the codec encodes ``EventColumns`` and nothing else,
#: and the clusters' entry normaliser is ``streaming.columns.as_event_columns``.
ALLOWED_REPRESENTATION_FORKS = set()

#: Every function of ``core/``, ``network/`` and ``streaming/`` that asks:
#: the one door every public entry point converts at, and batch equality
#: (a batch compares equal to any event sequence).  Held with ``==``: an
#: operator that forks on its input's type again fails here.
SIM_REPRESENTATION_FORKS = {
    ("streaming/columns.py", "as_event_columns"),
    ("streaming/columns.py", "__eq__"),
}


def _representation_forks(*packages):
    forks = set()
    for package in packages:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            name = path.relative_to(PACKAGE_ROOT).as_posix()
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(
                    function, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and "EventColumns" in ast.unparse(node.args[1])
                    ):
                        forks.add((name, function.name))
    return forks


def test_live_path_forks_on_representation_only_at_its_edges():
    assert (
        _representation_forks("runtime", "mesh", "queries")
        == ALLOWED_REPRESENTATION_FORKS
    )


def test_simulated_path_forks_on_representation_only_where_listed():
    assert (
        _representation_forks("core", "network", "streaming")
        == SIM_REPRESENTATION_FORKS
    )


#: The modules whose loops must never assign windows: the simulator's door
#: cuts a stream by arithmetic on its timestamp column
#: (``network.driver.window_segments``), the local operators group a batch
#: the same way (``EventColumns.by_window``), and window allocations per
#: event must not grow back.
SEGMENTED_MODULES = (
    "network/driver.py",
    "network/deployment.py",
    "core/engine.py",
    "core/local_node.py",
)

_LOOPS = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _assigning_loops(source):
    """Line numbers of loops (statements or comprehensions) whose body
    calls ``.assign(`` or ``.assign_event(``."""
    return sorted({
        loop.lineno
        for loop in ast.walk(ast.parse(source))
        if isinstance(loop, _LOOPS)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("assign", "assign_event")
    })


def test_no_loop_of_the_simulator_door_assigns_windows():
    for name in SEGMENTED_MODULES:
        source = (PACKAGE_ROOT / name).read_text()
        assert not _assigning_loops(source), name


def test_assignment_lint_sees_loops_and_comprehensions():
    assert _assigning_loops(
        "for event in events:\n"
        "    if event:\n"
        "        windows.update(assigner.assign(event.timestamp))\n"
    ) == [1]
    assert _assigning_loops(
        "seen = {w for e in events for w in self._assigner.assign_event(e)}\n"
    ) == [1]
    assert not _assigning_loops(
        "assigned = dict(zip(distinct, map(assigner.assign, distinct)))\n"
        "first = assigner.assign(stamps[0])\n"
        "for window in windows:\n"
        "    schedule(window)\n"
    )


#: One live cluster: each host class is constructed in exactly one
#: function of the package — the one driver.  A second construction site
#: is a second driver (or a subclass standing in for one) growing back.
HOST_CONSTRUCTORS = {
    "RootServer": ("runtime/cluster.py", "_wire_shards"),
    "LocalServer": ("runtime/cluster.py", "wire_local"),
    "RelayServer": ("runtime/cluster.py", "_wire_relays"),
    "StreamServer": ("runtime/cluster.py", "start_replays"),
    "FailoverController": ("runtime/cluster.py", "_wire_shards"),
}


def _innermost_scopes(tree):
    """``(innermost enclosing function name, node)`` for every node."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            yield scope, child
            yield from visit(child, scope)

    yield from visit(tree, "<module>")


def _constructions(source, names):
    return {
        (getattr(node.func, "id", None) or node.func.attr, scope)
        for scope, node in _innermost_scopes(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in names
    }


def _construction_sites(names):
    """``{name: {(module, innermost function)}}`` over the package."""
    sites = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = path.relative_to(PACKAGE_ROOT).as_posix()
        for name, scope in _constructions(path.read_text(), names):
            sites.setdefault(name, set()).add((module, scope))
    return sites


def test_each_host_is_constructed_in_exactly_one_function():
    assert _construction_sites(HOST_CONSTRUCTORS) == {
        host: {site} for host, site in HOST_CONSTRUCTORS.items()
    }


#: One simulated deployment: the simulator and its batch driver are each
#: constructed in exactly one function of the package — the deployment
#: Dema and every baseline run on.  A second site is a second engine (with
#: its own build, feed, announce and collect loop) growing back.
SIMULATOR_CONSTRUCTORS = {
    "Simulator": ("network/deployment.py", "__init__"),
    "BatchSourceDriver": ("network/deployment.py", "__init__"),
}


def test_the_simulator_is_constructed_in_exactly_one_function():
    assert _construction_sites(SIMULATOR_CONSTRUCTORS) == {
        name: {site} for name, site in SIMULATOR_CONSTRUCTORS.items()
    }


def test_constructor_lint_sees_nested_functions_and_attribute_calls():
    source = (
        "async def run_cluster():\n"
        "    root = RootServer(node)\n"
        "    async def wire_local():\n"
        "        return servers.LocalServer(node)\n"
        "def other():\n"
        "    return [RootServer(n) for n in nodes], RootServer\n"
    )
    assert _constructions(source, {"RootServer", "LocalServer"}) == {
        ("RootServer", "run_cluster"),
        ("LocalServer", "wire_local"),
        ("RootServer", "other"),
    }


#: The one driver stays legible: ``runtime/cluster.py`` is a cluster
#: object built, wired, driven and reported on by methods, and no function
#: or method in it is longer than this many lines.
MAX_DRIVER_FUNCTION_LINES = 150


def _long_functions(source, limit):
    """``(name, lines)`` of every function longer than ``limit`` lines."""
    return sorted(
        (node.name, node.end_lineno - node.lineno + 1)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > limit
    )


def test_cluster_driver_functions_fit_on_a_screen():
    source = (PACKAGE_ROOT / "runtime" / "cluster.py").read_text()
    assert _long_functions(source, MAX_DRIVER_FUNCTION_LINES) == []


def test_length_lint_sees_methods_and_nested_functions():
    source = (
        "def short():\n"
        "    return 1\n"
        "class Cluster:\n"
        "    async def drive(self):\n"
        "        a = 1\n"
        "        def nested():\n"
        "            b = 2\n"
        "            c = 3\n"
        "            return b + c\n"
        "        return a + nested()\n"
    )
    assert _long_functions(source, 3) == [("drive", 7), ("nested", 4)]


#: One way to say "run this cluster": the CLI turns its topology flags
#: into a cluster config in one function, and the chaos and query runners
#: take the caller's config (``dataclasses.replace`` onto it, never a
#: fresh one).  Every name of the one config class counts.
CLUSTER_CONFIG_NAMES = {"ClusterConfig", "LiveClusterConfig", "MeshConfig"}


def test_cluster_configs_are_built_in_one_cli_function():
    paths = [
        PACKAGE_ROOT / "__main__.py",
        *sorted((PACKAGE_ROOT / "faults").rglob("*.py")),
        *sorted((PACKAGE_ROOT / "queries").rglob("*.py")),
    ]
    sites = {
        (path.relative_to(PACKAGE_ROOT).as_posix(), scope)
        for path in paths
        for _, scope in _constructions(path.read_text(), CLUSTER_CONFIG_NAMES)
    }
    assert sites == {("__main__.py", "_configs_from_args")}


#: The functions of the live-path modules that may call a numpy or in-place
#: sort (``lexsort``, ``argsort``, ``np.sort``, ``.sort(``): the one value
#: sort every window's events go through, window-cut's merge of the
#: synopsis keys near each pick's thresholds (of a small frame's keys
#: whole; it ranks no key) and the frame identification's ``(node_id,
#: slice_index)`` order of each window's candidates.  The root's rank select sorts nothing: it
#: partitions the value runs.  The builtin ``sorted`` is not policed — it
#: orders dict keys all over ``runtime/``; no row of the live path is
#: ordered with it.
ALLOWED_SORT_SITES = {
    ("streaming/columns.py", "sort_values"),
    ("core/window_cut.py", "cut_frame"),
    ("core/identification.py", "identify_frame"),
}

#: The ordering paths ``sort_values`` replaced (a permutation of whole
#: records, its tie repair and the merge around it) and the ranking of
#: every synopsis key the search cut replaced.  None comes back.
DELETED_ORDERING_PATHS = {"merge_runs", "_key_order", "key_ranks", "_dense_ranks"}

SORT_CALLS = {"lexsort", "argsort", "sort"}

LIVE_PATH_MODULES = (
    "streaming/columns.py",
    "core/sorted_window.py",
    "core/slicing.py",
    "core/synopsis.py",
    "core/window_cut.py",
    "core/identification.py",
    "queries/slide.py",
    "runtime/*.py",
    "mesh/*.py",
)


def _sort_sites(source):
    return {
        scope
        for scope, node in _innermost_scopes(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SORT_CALLS
    }


def test_rows_are_ordered_in_one_place():
    sites = set()
    for pattern in LIVE_PATH_MODULES:
        paths = sorted(PACKAGE_ROOT.glob(pattern))
        assert paths, pattern
        for path in paths:
            name = path.relative_to(PACKAGE_ROOT).as_posix()
            sites |= {(name, scope) for scope in _sort_sites(path.read_text())}
    assert sites == ALLOWED_SORT_SITES
    names = set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    assert not names & (DELETED_ORDERING_PATHS | {"_TIE_REPAIR_LIMIT"})
    assert not hasattr(SortedLocalWindow, "sorted_events")
    assert not hasattr(SortedLocalWindow, "__iter__")


def test_sort_lint_sees_numpy_and_method_sorts_only():
    source = (
        "def seal(arr):\n"
        "    order = _np.lexsort((arr['seq'], arr['value']))\n"
        "    def inner():\n"
        "        return np.argsort(arr, kind='stable')\n"
        "def compact(buf):\n"
        "    buf.sort(key=event_key)\n"
        "def copy(arr):\n"
        "    return numpy.sort(arr)\n"
        "def fine(d):\n"
        "    return sorted(d), np.searchsorted(a, b), d.timestamps_sorted()\n"
    )
    assert _sort_sites(source) == {"seal", "inner", "compact", "copy"}


#: Every function that calls the frame sweep ``cut_frame`` (anywhere in
#: the package) or ``quantile_rank`` (in ``core/``): the one shared cut.
#: A multi-quantile or multi-window path that ranks or cuts on its own is
#: a second copy of the cut growing back.
CUT_FRAME_CALLERS = {("core/identification.py", "_sweep")}
QUANTILE_RANK_CALLERS = {("core/identification.py", "_sweep")}


def _call_sites(package, callee):
    return {
        (path.relative_to(PACKAGE_ROOT).as_posix(), scope)
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py"))
        for _, scope in _constructions(path.read_text(), {callee})
    }


def test_quantiles_are_ranked_and_cut_in_one_place():
    assert _call_sites(".", "cut_frame") == CUT_FRAME_CALLERS
    assert _call_sites("core", "quantile_rank") == QUANTILE_RANK_CALLERS


#: Every function that calls one of Dema's protocol steps — identification,
#: calculation, slicing — anywhere in the package: the core operators and
#: the engine's offline shared answer, plus the window-cut ablation, which
#: slices to measure the cut.  Held with ``==``: nothing under ``queries/``
#: (the live query plane runs its cuts on the core nodes it hosts), and a
#: second copy of the protocol growing back anywhere fails here.  The root,
#: the in-memory answer (a one-window frame) and the window-cut ablation
#: identify with ``identify_frame``; the root and the in-memory answer
#: select with ``select_frame``.  The one-quantile ``identify`` (the same
#: ``_sweep``) and ``calculate_quantile`` have no caller in the package
#: (perfbench's stage replay times them).
PROTOCOL_STEP_CALLERS = {
    "identify_frame": {
        ("core/root_node.py", "_identify"),
        ("core/engine.py", "_answer"),
        ("bench/runner.py", "exp_ablation_window_cut"),
    },
    "identify": set(),
    "calculate_quantile": set(),
    "select_frame": {
        ("streaming/columns.py", "select_rank"),
        ("core/engine.py", "_answer"),
        ("core/root_node.py", "_calculate"),
    },
    "slice_sorted_events": {
        ("core/engine.py", "_answer"),
        ("core/local_node.py", "seal_sorted"),
        ("bench/runner.py", "exp_ablation_window_cut"),
    },
}


def test_protocol_steps_run_only_on_the_core_operators():
    assert {
        callee: _call_sites(".", callee) for callee in PROTOCOL_STEP_CALLERS
    } == PROTOCOL_STEP_CALLERS


#: The baselines' node classes: Scotty's forwarding pair and the one summary
#: pair every other baseline runs with its ``Summary``.  Held with ``==``: a
#: per-system local or root growing back fails here.
BASELINE_NODE_CLASSES = {
    "ScottyLocalNode",
    "ScottyRootNode",
    "SummaryLocalNode",
    "SummaryRootNode",
}


def _node_classes(sources):
    """Classes deriving from ``SimulatedNode``, directly or through another
    class defined in ``sources``."""
    bases = {
        node.name: {
            getattr(base, "id", None) or getattr(base, "attr", None)
            for base in node.bases
        }
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    nodes = {"SimulatedNode"}
    while True:
        grown = nodes | {name for name, of in bases.items() if of & nodes}
        if grown == nodes:
            return nodes - {"SimulatedNode"}
        nodes = grown


def test_baselines_have_four_node_classes():
    sources = [
        path.read_text()
        for path in sorted((PACKAGE_ROOT / "baselines").rglob("*.py"))
    ]
    assert _node_classes(sources) == BASELINE_NODE_CLASSES


#: Dema's node classes: one local and one root serve a simulated
#: deployment's one query and the live plane's runtime groups alike.
#: Held with ``==``: a second (per-query-count) copy of either fails here.
DEMA_NODE_CLASSES = {"DemaLocalNode", "DemaRootNode"}


def test_dema_has_one_local_and_one_root():
    sources = [
        path.read_text()
        for path in sorted((PACKAGE_ROOT / "core").rglob("*.py"))
    ]
    assert _node_classes(sources) == DEMA_NODE_CLASSES


#: Where concurrent queries are grouped: the live query plane's registry,
#: keyed by (selector, γ).  Held with ``==``: a second grouping rule fails
#: here.
QUERY_GROUP_CLASSES = {("queries/registry.py", "QueryGroup")}


def test_queries_are_grouped_in_one_place():
    found = {
        (path.relative_to(PACKAGE_ROOT).as_posix(), node.name)
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "QueryGroup"
    }
    assert found == QUERY_GROUP_CLASSES


def test_node_class_lint_sees_direct_and_indirect_subclasses():
    source = (
        "class A(SimulatedNode, Mixin):\n    pass\n"
        "class B(A):\n    pass\n"
        "class C(simulator.SimulatedNode):\n    pass\n"
        "class D(Mixin):\n    pass\n"
    )
    assert _node_classes([source]) == {"A", "B", "C"}


#: Where a background task's unexpected exception is caught and latched:
#: ``FailureLatch.guard``, which ``spawn`` wraps every live task in.  Both
#: sets are held with ``==`` — a hand-copied ``except BaseException``
#: handler, or a latch recorded on from anywhere else, fails here.
BASE_EXCEPTION_HANDLERS = {("runtime/transport.py", "guard")}
LATCH_RECORDS = {("runtime/transport.py", "guard")}


def _handled_names(handler):
    """Exception class names an ``except`` clause names (bare: all)."""
    if handler.type is None:
        return {"BaseException"}
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}


def _failure_sites(source):
    """``(base_exception_handlers, latch_records)``: the innermost function
    of every handler that catches ``BaseException`` and of every
    ``.record(`` call on a latch — a receiver named like one (``latch``,
    ``failures``, ``self._failures``) or ``self`` inside ``FailureLatch``."""
    handlers, records = set(), set()

    def visit(node, cls, scope):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.ExceptHandler):
            if "BaseException" in _handled_names(node):
                handlers.add(scope)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ):
            receiver = node.func.value
            name = getattr(receiver, "id", None) or getattr(
                receiver, "attr", ""
            )
            if re.search("latch|failure", name, re.IGNORECASE) or (
                name == "self" and cls == "FailureLatch"
            ):
                records.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, scope)

    visit(ast.parse(source), None, "<module>")
    return handlers, records


def test_background_task_failures_are_latched_in_one_place():
    handlers, records = set(), set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = path.relative_to(PACKAGE_ROOT).as_posix()
        in_file = _failure_sites(path.read_text())
        handlers |= {(name, scope) for scope in in_file[0]}
        records |= {(name, scope) for scope in in_file[1]}
    assert handlers == BASE_EXCEPTION_HANDLERS
    assert records == LATCH_RECORDS


def test_failure_lint_sees_every_handler_and_latch_shape():
    source = (
        "class FailureLatch:\n"
        "    def record(self, exc): ...\n"
        "    async def guard(self, aw):\n"
        "        try:\n"
        "            await aw\n"
        "        except BaseException as exc:\n"
        "            self.record(exc)\n"
        "class Host:\n"
        "    async def loop(self):\n"
        "        try:\n"
        "            pass\n"
        "        except (ValueError, builtins.BaseException) as exc:\n"
        "            self._failures.record(exc)\n"
        "        except:\n"
        "            latch.record(None)\n"
        "    def fine(self):\n"
        "        try:\n"
        "            pass\n"
        "        except Exception:\n"
        "            self.record(1)\n"
        "            self.tracer.record('span')\n"
        "def driver():\n"
        "    def nested():\n"
        "        failures.record(RuntimeError())\n"
    )
    assert _failure_sites(source) == (
        {"guard", "loop"},
        {"guard", "loop", "nested"},
    )


#: The message classes whose ``payload_bytes`` counts whole 20-byte events
#: (``EVENT_WIRE_BYTES``): the raw batch a stream or Scotty forwards, and
#: nothing else — a root that reads only values is shipped only values.
#: Held with ``==``: a whole-tuple candidate or sorted run fails here.
WHOLE_EVENT_MESSAGES = {"EventBatchMessage"}


def _whole_event_messages(source):
    """Classes whose ``payload_bytes`` names ``EVENT_WIRE_BYTES``."""
    return {
        cls.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and method.name == "payload_bytes"
        for node in ast.walk(method)
        if (getattr(node, "id", None) or getattr(node, "attr", None))
        == "EVENT_WIRE_BYTES"
    }


def test_only_the_raw_batch_ships_whole_events():
    classes = set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        classes |= _whole_event_messages(path.read_text())
    assert classes == WHOLE_EVENT_MESSAGES


def test_whole_event_lint_sees_names_and_attributes():
    source = (
        "class A(Message):\n"
        "    @property\n"
        "    def payload_bytes(self):\n"
        "        return len(self.events) * EVENT_WIRE_BYTES\n"
        "class B(Message):\n"
        "    @property\n"
        "    def payload_bytes(self):\n"
        "        return 4 + sum(len(r) * wire.EVENT_WIRE_BYTES for r in x)\n"
        "class C(Message):\n"
        "    @property\n"
        "    def payload_bytes(self):\n"
        "        return len(self.events) * wire.F64_BYTES\n"
        "class D:\n"
        "    size = EVENT_WIRE_BYTES\n"
    )
    assert _whole_event_messages(source) == {"A", "B"}


#: The message types whose payload is one declared ``LAYOUT``, a struct
#: over the fields the class declares: three empty payloads and nine of
#: fixed fields.  Held with ``==``: ``payload_bytes`` (the base's, derived
#: from the layout), the encoder and the decoder all follow from it, and a
#: type that also writes them by hand fails here.
FIXED_LAYOUT_MESSAGES = {
    "Message", "SynopsisRequestMessage", "WindowReleaseMessage",
    "GammaUpdateMessage", "WatermarkMessage", "ResultMessage",
    "HeartbeatMessage", "QueryResultMessage", "QueryDeregisterMessage",
    "JoinMessage", "LeaveMessage", "ResultAckMessage",
}


def _class_members(source):
    """``{class: the names its body assigns or defines}``."""
    members = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = members.setdefault(cls.name, set())
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
    return members


def _codec_rows(source):
    """``(type name, row length)`` of each row of the ``_CODECS`` table."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "_CODECS" for t in node.targets
        ):
            return [(row.elts[1].id, len(row.elts)) for row in node.value.elts]
    return []


def _functions_naming(source, names):
    """Functions that name one of ``names``, signature included: a hand
    codec for that type."""
    return {
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id in names
    }


def test_each_fixed_size_message_states_its_payload_once():
    from repro.runtime.codec import TAG_BY_TYPE

    members = _class_members(
        (PACKAGE_ROOT / "network" / "messages.py").read_text()
    )
    declared = {cls for cls, names in members.items() if "LAYOUT" in names}
    assert declared == FIXED_LAYOUT_MESSAGES
    assert {
        cls for cls in declared if "payload_bytes" in members[cls]
    } == {"Message"}
    codec = (PACKAGE_ROOT / "runtime" / "codec.py").read_text()
    rows = _codec_rows(codec)
    assert sorted(name for name, _ in rows) == sorted(
        cls.__name__ for cls in TAG_BY_TYPE
    )
    assert {name for name, length in rows if length == 2} == (
        FIXED_LAYOUT_MESSAGES
    )
    # ``Message`` annotates codec functions of every type; its row above
    # already says it has no hand pair.
    assert _functions_naming(codec, FIXED_LAYOUT_MESSAGES - {"Message"}) == set()


#: The message types whose payload is written by hand, held with ``==``:
#: the event batch (its per-frame call budget below), the three synopsis
#: carriers (their section is ``SynopsisColumns``' own wire format), the
#: three candidate-run carriers and the query plane's batched candidate
#: request (declared, a codec stage pays one Python call a part; its
#: sections' windows are no declared part).  Every other type declares its
#: payload once, as a ``LAYOUT`` or as ``PAYLOAD`` parts.
HAND_CODED_MESSAGES = {
    "EventBatchMessage", "SynopsisMessage", "RelaySynopsisMessage",
    "SynopsisBatchMessage", "CandidateEventsMessage", "RelayRunsMessage",
    "CandidateBatchMessage", "CandidateRequestBatchMessage",
}


def test_each_message_states_its_payload_once():
    from repro.runtime.codec import TAG_BY_TYPE

    members = _class_members(
        (PACKAGE_ROOT / "network" / "messages.py").read_text()
    )
    codec = (PACKAGE_ROOT / "runtime" / "codec.py").read_text()
    # ``Message`` is the base: it derives ``payload_bytes`` from either
    # declaration, and it annotates codec functions of every type.
    types = {cls.__name__ for cls in TAG_BY_TYPE} - {"Message"}
    hand = {
        cls for cls in types
        if "payload_bytes" in members[cls] or _functions_naming(codec, {cls})
    }
    assert hand == HAND_CODED_MESSAGES
    layouts = {cls for cls in types if "LAYOUT" in members[cls]}
    declared = {cls for cls in types if "PAYLOAD" in members[cls]}
    assert len(layouts) + len(declared) + len(hand) == len(types)
    assert layouts | declared | hand == types
    # A layout's row names no codec, a declaration's names ``_declared``,
    # and a hand-coded type's names its encoder and decoder.
    assert dict(_codec_rows(codec)) == {
        **{cls: 2 for cls in layouts | {"Message"}},
        **{cls: 3 for cls in declared},
        **{cls: 4 for cls in hand},
    }


def test_layout_lint_sees_layouts_rows_and_hand_codecs():
    messages = (
        "class A(Message):\n"
        "    x: int = 0\n"
        "    LAYOUT = struct.Struct('<I')\n"
        "class B(Message):\n"
        "    @property\n"
        "    def payload_bytes(self):\n"
        "        return 4\n"
    )
    assert _class_members(messages) == {"A": {"LAYOUT"}, "B": {"payload_bytes"}}
    codec = (
        "def _encode_a(m: A):\n"
        "    return b''\n"
        "def _decode_b(r, sender, window, group_id):\n"
        "    return B(sender, window, group_id)\n"
        "def _encode_c(m):\n"
        "    return b''\n"
        "_CODECS = (\n"
        "    (1, A),\n"
        "    (2, B, _encode_b, _decode_b),\n"
        "    (3, A),\n"
        ")\n"
    )
    assert _codec_rows(codec) == [("A", 2), ("B", 4), ("A", 2)]
    assert _functions_naming(codec, {"A", "B"}) == {"_encode_a", "_decode_b"}


def test_live_path_never_iterates_a_columnar_batch(monkeypatch):
    """The regex cannot see ``list(run)``: iterating an ``EventColumns`` is
    the other way to pay one ``Event`` per row, and root calculation and
    the mesh's replay and relay explode used to.  With iteration
    booby-trapped, the calculation step, a whole live run at the
    library-default gamma, a sharded mesh run with and without a relay
    tier and a graded multi-query run (the plane used to walk every batch
    once per pane store) must still complete.

    Iterating a ``SynopsisColumns`` is the same cost one level up — one
    ``SliceSynopsis`` per slice, 20,000 a window at gamma=10 — so it is
    trapped too: window-cut over the concatenated batches, live runs at
    both ends of gamma, the relayed mesh run and the multi-query run
    must complete on columns, materialising candidates only."""
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.identification import identify_frame
    from repro.core.query import QuantileQuery
    from repro.core.slicing import slice_sorted_events
    from repro.mesh import MeshConfig, run_mesh
    from repro.queries.runner import run_query_scenario
    from repro.runtime.cluster import LiveClusterConfig, run_live

    config = GeneratorConfig(event_rate=20_000.0, duration_s=2.0, seed=11)
    streams = workload([1, 2], config)

    def trap(self):
        raise AssertionError("EventColumns iterated on the live path")

    def synopsis_trap(self):
        raise AssertionError("SynopsisColumns iterated on the live path")

    monkeypatch.setattr(EventColumns, "__iter__", trap)
    monkeypatch.setattr(SynopsisColumns, "__iter__", synopsis_trap)

    sliced = {}
    for node_id, events in streams.items():
        window = SortedLocalWindow()
        window.add_all(events)
        sliced[node_id] = slice_sorted_events(window.seal(), 1_000, node_id)
    (plan,) = identify_frame([(
        {n: s.synopses for n, s in sliced.items()},
        {n: s.window_size for n, s in sliced.items()},
        (0.5,),
    )])
    runs = [sliced[n].run_for(i) for n, i in plan.candidates]
    assert len(runs) > 1
    assert next(select_frame([(runs, plan.picks)]))[0] > 0.0

    for gamma in (10_000, 10):
        report = run_live(
            LiveClusterConfig(
                n_locals=2,
                streams_per_local=1,
                query=QuantileQuery(q=0.5, gamma=gamma),
                transport="memory",
                timeout_s=60.0,
            ),
            streams,
        )
        answered = [o for o in report.outcomes if o.value is not None]
        assert len(answered) >= 2
        assert sum(o.candidate_events for o in answered) > 0

    mesh_streams = workload(
        list(range(1, 7)),
        GeneratorConfig(event_rate=5_000.0, duration_s=2.0, seed=11),
    )
    for relay_fanin in (0, 3):
        report = run_mesh(
            MeshConfig(
                n_locals=6,
                streams_per_local=2,
                n_shards=2,
                relay_fanin=relay_fanin,
                query=QuantileQuery(q=0.5, gamma=1_000),
                transport="memory",
            ),
            mesh_streams,
        )
        answered = [o for o in report.outcomes if o.value is not None]
        assert len(answered) >= 2
        assert sum(o.candidate_events for o in answered) > 0

    # Tumbling ∥ sliding queries over three selectors, every served result
    # graded against the oracle, which is handed the generated columns
    # concatenated, never a batch walked event by event.
    queries = run_query_scenario(
        LiveClusterConfig(
            n_locals=3,
            streams_per_local=2,
            query=QuantileQuery(gamma=32),
            timeout_s=120.0,
        ),
        GeneratorConfig(event_rate=400.0, duration_s=4.0, seed=7),
        n_queries=6,
        n_keys=3,
    )
    assert queries.ok, queries.mismatches
    assert queries.results_graded > 0
    # One group per selector, each cutting a tumbling and a sliding shape.
    assert queries.groups == 3


#: The structs ``runtime/wire.py`` names after synopses: one section
#: header — local size and γ, the boundaries follow — on every link, and
#: no per-slice record.  Held with ``==``.
SYNOPSIS_STRUCTS = {"SYNOPSIS_SECTION"}

#: ``SynopsisColumns``' wire codec: one encoder and one decoder, held
#: with ``==``.
SYNOPSIS_WIRE_CODEC = {"from_wire", "to_wire"}

#: Where a slice's bounding last value — the next slice's first — is
#: written, held with ``==``: the slicer, nowhere else (the decoder reads
#: it off the wire's boundaries).
BOUNDARY_WRITERS = {("core/slicing.py", "slice_sorted_events")}


def _synopsis_structs(source):
    """Module-level ``struct.Struct`` names mentioning SYNOPSIS."""
    return {
        target.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and (getattr(node.value.func, "attr", None)
             or getattr(node.value.func, "id", None)) == "Struct"
        for target in node.targets
        if isinstance(target, ast.Name) and "SYNOPSIS" in target.id
    }


def _mentions(node, name):
    return any(
        isinstance(sub, ast.Constant) and sub.value == name
        for sub in ast.walk(node)
    )


def _boundary_writers(sources):
    """``(module, function)`` of every assignment that writes a
    ``"last_value"`` column from a ``"first_value"`` one."""
    writers = set()
    for name, source in sources:
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Assign)
                    and any(_mentions(t, "last_value") for t in node.targets)
                    and _mentions(node.value, "first_value")
                ):
                    writers.add((name, function.name))
    return writers


def test_one_synopsis_record_on_the_wire():
    source = (PACKAGE_ROOT / "runtime" / "wire.py").read_text()
    assert _synopsis_structs(source) == SYNOPSIS_STRUCTS
    from repro.runtime import wire

    assert wire.SYNOPSIS_SECTION.format == "<QI"
    assert wire.SYNOPSIS_SECTION.size == 12
    assert {
        name for name in vars(SynopsisColumns) if "wire" in name
    } == SYNOPSIS_WIRE_CODEC
    sources = [
        (path.relative_to(PACKAGE_ROOT).as_posix(), path.read_text())
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
    ]
    assert _boundary_writers(sources) == BOUNDARY_WRITERS


def test_synopsis_record_lint_sees_struct_shapes():
    source = (
        "SYNOPSIS = struct.Struct('<ddI')\n"
        "RELAY_SYNOPSIS = Struct('<dIIdIII')\n"
        "SYNOPSIS_SECTION = struct.Struct('<QI')\n"
        "SYNOPSIS_SECTION_BYTES = SYNOPSIS_SECTION.size\n"
        "EVENT = struct.Struct('<dIII')\n"
    )
    assert _synopsis_structs(source) == {
        "SYNOPSIS", "RELAY_SYNOPSIS", "SYNOPSIS_SECTION"
    }
    writer = (
        "def cut(records, rows):\n"
        "    records['last_value'][:-1] = records['first_value'][1:]\n"
        "    rows['last_value'] = rows['last_value'] * 2\n"
        "def rebuild(records, boundaries):\n"
        "    records['last_value'] = boundaries[1:]\n"
    )
    assert _boundary_writers([("m.py", writer)]) == {("m.py", "cut")}


#: A function whose name has the word oracle, truth or grade computes a
#: window's exact answer or grades answers against it.  Held with ``==``:
#: ``repro.testing`` defines the one oracle and the one grader, and
#: ``queries/oracle.py`` keeps the two names ``perfbench`` imports as thin
#: calls into them, so a per-path oracle or grader cannot grow back.
TRUTH_OR_GRADE_WORD = re.compile(r"(?:^|_)(?:oracle|truth|grade)(?:_|$)")
ONE_ORACLE_AND_GRADER = {
    ("testing.py", "oracle"),
    ("testing.py", "grade"),
    ("queries/oracle.py", "oracle_results"),
    ("queries/oracle.py", "grade_results"),
}
#: The word without the role: the paper's accuracy metric over truths its
#: caller hands it.
NOT_WINDOW_TRUTH = {("bench/accuracy.py", "accuracy_vs_ground_truth")}


def _truth_and_grade_functions(source):
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and TRUTH_OR_GRADE_WORD.search(node.name)
    }


def test_one_oracle_and_one_grader():
    found = {
        (path.relative_to(PACKAGE_ROOT).as_posix(), name)
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for name in _truth_and_grade_functions(path.read_text())
    }
    assert found == ONE_ORACLE_AND_GRADER | NOT_WINDOW_TRUTH
    adapters = (PACKAGE_ROOT / "queries" / "oracle.py").read_text()
    assert {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(adapters))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("oracle", "grade")
    } == {("repro.testing", "oracle"), ("repro.testing", "grade")}
    assert _constructions(adapters, {"oracle", "grade"}) == {
        ("oracle", "oracle_results"), ("grade", "grade_results")
    }


def test_oracle_lint_sees_functions_methods_and_nested_defs():
    source = (
        "def mesh_oracle(streams): pass\n"
        "async def window_truth(streams): pass\n"
        "class Report:\n"
        "    def grade(self): pass\n"
        "def run():\n"
        "    def ground_truth(events): pass\n"
        "def grade_outcomes(truth, outcomes): pass\n"
        "def degraded(self): pass\n"
        "def _print_graded(rows): pass\n"
        "def classify_slice(unit): pass\n"
        "def upgrade(x): pass\n"
        "def truthy(x): pass\n"
        "oracle = grade = None\n"
    )
    assert _truth_and_grade_functions(source) == {
        "mesh_oracle", "window_truth", "grade", "ground_truth",
        "grade_outcomes",
    }


#: Every function of ``repro.core``, ``repro.streaming`` and
#: ``repro.testing`` that calls ``isnan`` (or ``has_nan``), branches on a
#: name for NaN, or is named for NaN: the door and the refusals where a
#: wire-fed NaN is first ordered — an event batch's sort and the root's rank
#: select (``select_frame``, one check for every rank a frame selects) —
#: and the oracle's.  A synopsis boundary's refusal is a ``<=`` in
#: ``SynopsisColumns.validated`` and its decoder ``from_wire``, no call.
#: Held with ``==``: below the door
#: one strict order rules, and a NaN fallback growing back fails here.
NAN_SITES = {
    ("streaming/columns.py", "check_streams"),
    ("streaming/columns.py", "select_frame"),
    ("streaming/columns.py", "sort_values"),
    ("testing.py", "oracle"),
}

NAN_CALLS = {"isnan", "has_nan"}

#: The comparison-order fallbacks below the door; none comes back.
DELETED_NAN_FALLBACKS = {
    "_merge_comparison_mirror", "_sweep_rows", "has_nan",
    "merge_candidate_runs",
}


def _named_for_nan(name):
    return "nan" in name.lower().split("_")


def _nan_sites(source):
    sites = set()
    for scope, node in _innermost_scopes(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _named_for_nan(node.name):
                sites.add(node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) in (
                NAN_CALLS
            ):
                sites.add(scope)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            if any(
                _named_for_nan(getattr(name, "id", "") or getattr(name, "attr", ""))
                for name in ast.walk(node.test)
            ):
                sites.add(scope)
    return sites


def test_nan_is_refused_only_at_the_door_and_where_first_ordered():
    paths = [
        *sorted((PACKAGE_ROOT / "core").rglob("*.py")),
        *sorted((PACKAGE_ROOT / "streaming").rglob("*.py")),
        PACKAGE_ROOT / "testing.py",
    ]
    sites = {
        (path.relative_to(PACKAGE_ROOT).as_posix(), scope)
        for path in paths
        for scope in _nan_sites(path.read_text())
    }
    assert sites == NAN_SITES
    defined = {
        node.name
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not defined & DELETED_NAN_FALLBACKS
    assert not hasattr(EventColumns, "_keys")
    assert not hasattr(EventColumns, "_take")


def test_nan_lint_sees_calls_branches_and_names():
    source = (
        "def door(v):\n"
        "    if np.isnan(v).any():\n"
        "        raise ValueError\n"
        "def fallback(batch):\n"
        "    if batch.has_nan():\n"
        "        return rows(batch)\n"
        "def pick(nan, v):\n"
        "    return 0 if nan else v\n"
        "def drain(state):\n"
        "    while state.nan_left:\n"
        "        state.step()\n"
        "def _sweep_nan_rows(rows):\n"
        "    return rows\n"
        "def fine(values, nanos):\n"
        "    if nanos > 0:\n"
        "        return float('nan'), values.max()\n"
    )
    assert _nan_sites(source) == {
        "door", "fallback", "pick", "drain", "_sweep_nan_rows",
    }


#: Python calls into ``src/repro`` for one strided event batch from encode
#: through decode to ingest at a ``DemaLocalNode`` — the fixed per-frame
#: cost of the stream → local hop — at 512 events and at the cluster's
#: ``batch_size``, the frame the system sends.  Held with ``==`` at both: a
#: change that adds a call per frame says so here, and one that adds a
#: call per event cannot hide behind a small frame.
EVENT_BATCH_FRAME_CALLS = 27

#: Comprehensions run inline on Python 3.12 and as a call on 3.11.
_INLINE_ON_312 = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _repro_calls(action):
    """``Counter`` of the qualified names of every Python function under
    ``src/repro`` that ``action()`` calls, comprehensions aside."""
    import collections
    import sys

    root = str(PACKAGE_ROOT)
    calls = collections.Counter()

    def profile(frame, event, _):
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(root)
            and code.co_name not in _INLINE_ON_312
        ):
            calls[code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def _event_batch_frame_hop(batch_size):
    """``action()`` running one ``batch_size``-event frame's hop, and the
    node it ingests at."""
    import numpy as np

    from repro.core.local_node import DemaLocalNode
    from repro.core.query import QuantileQuery
    from repro.network.messages import EventBatchMessage
    from repro.runtime import wire
    from repro.runtime.codec import decode_body_traced, encode_frame
    from repro.streaming.windows import Window

    rng = np.random.default_rng(7)
    share = EventColumns.from_arrays(
        rng.normal(size=2 * batch_size),
        np.sort(rng.integers(0, 1000, 2 * batch_size)),
        1,
    )
    batch = share[::2]  # stream 0 of two: a strided view
    message = EventBatchMessage(
        sender=1001,
        window=Window(batch.timestamp_at(0), batch.timestamp_at(-1) + 1),
        events=batch,
    )
    node = DemaLocalNode(1, root_id=0, query=QuantileQuery(gamma=100))

    def action():
        frame = encode_frame(message)
        received, _ = decode_body_traced(
            memoryview(frame)[wire.LENGTH_PREFIX.size:]
        )
        node.on_message(received, 0.0)

    return action, node


@pytest.mark.parametrize("batch_size", [512, ClusterConfig().batch_size])
def test_event_batch_frame_call_budget(batch_size):
    action, node = _event_batch_frame_hop(batch_size)
    action()  # first-use work (imports, caches) is not per frame
    calls = _repro_calls(action)
    assert node.events_ingested == 2 * batch_size
    assert sum(calls.values()) == EVENT_BATCH_FRAME_CALLS, sorted(
        calls.items()
    )


def test_call_budget_counts_repro_functions_only():
    import json

    from repro.streaming.windows import Window

    assert _repro_calls(lambda: json.dumps({"a": [1]})) == {}
    assert _repro_calls(lambda: Window(0, 1)) == {"Window.__post_init__": 1}
    # ``concat_records`` builds its list in a comprehension: one call on
    # 3.11 and on 3.12 alike.
    batch = EventColumns.from_arrays([1.0, 2.0], [0, 1], 1)
    assert _repro_calls(
        lambda: concat_records([batch._arr, batch._arr], EVENT_DTYPE)
    ) == {"concat_records": 1}
