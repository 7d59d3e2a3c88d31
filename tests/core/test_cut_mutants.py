"""Mutants of the cut: each defect a window-cut, identification or
calculation check exists to catch, written as a monkeypatch, with the
tier-1 check that fails on it.

A mutant is a function of the package rebuilt from its own source with
one fragment replaced, and bound wherever the package or a test module
imported the original by name.  Each case runs its check with the mutant
in place and expects the check to fail, after running it unpatched,
where it passes.  Every check is also a tier-1 test of its own.
"""

import __future__
import inspect
import sys
import textwrap

import pytest

from repro.core import calculation, identification, window_cut
from repro.streaming import columns
from tests.core import test_calculation, test_window_cut
from tests.property import test_window_cut_properties as properties


def mutate(monkeypatch, owner, name, old, new):
    """Bind ``owner.name``, rebuilt with the one occurrence of ``old`` in
    its source replaced by ``new``, in ``owner`` and in every module that
    holds the original."""
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{name} holds {old!r} once"
    code = compile(
        source.replace(old, new),
        inspect.getsourcefile(original),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    scope = {}
    exec(code, vars(sys.modules[original.__module__]), scope)
    mutant = scope[name]
    monkeypatch.setattr(owner, name, mutant)
    for module in list(sys.modules.values()):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)


def many_windows():
    properties.test_a_frame_of_many_windows_cuts_each_as_the_reference()


def untied_windows():
    properties.test_a_frame_of_untied_windows_cuts_each_as_the_reference()


def large_locals():
    test_window_cut.TestSearch().test_large_tied_locals_cut_as_the_reference(0)


def signed_zeros():
    test_calculation.TestCalculateQuantiles().test_every_rank_matches_the_oracle(2)


def a_neighbouring_run():
    test_calculation.TestCheckRun().test_another_run_is_a_calculation_error(
        [3.0, 4.0, 5.0, 6.0]
    )


#: Each defect: where it goes (module or class, function), the fragment it
#: replaces and with what, and the tier-1 check that catches it.
MUTANTS = {
    # The select takes the partition's zero, not the one at the rank's
    # place in stacking order.
    "zero tie search": (
        columns, "select_frame", "if pivot == 0.0:", "if False:",
        signed_zeros,
    ),
    # A value tie goes to the local with the higher tie rank, not the
    # lower owner.
    "owner tie side": (
        window_cut, "cut_frame",
        "ties[locals_] < ties[holder]", "ties[locals_] > ties[holder]",
        many_windows,
    ),
    # The local holding a threshold row counts one row too few.
    "own-local prefix": (
        window_cut, "cut_frame", "rows + _LAST,", "rows + _LAST - 1,",
        untied_windows,
    ),
    # The rows merged between two samples stop one row short.
    "sample bracket": (
        window_cut, "cut_frame",
        "edges[pairs + 1][:, None]).min(2)",
        "edges[pairs + 1][:, None]).min(2) - 1",
        large_locals,
    ),
    # A window's rank is not lifted above the windows before it.
    "window event offset": (
        window_cut, "cut_frame",
        "sought = offsets[pick_windows] + _np.asarray(pick_ranks)",
        "sought = _np.asarray(pick_ranks)",
        many_windows,
    ),
    # A window's candidates stack in arrival order, not by node id.
    "union node order": (
        identification, "identify_frame",
        'records["slice_index"][union], records["node_id"][union], window_of,',
        'records["slice_index"][union], window_of,',
        many_windows,
    ),
    # A run of the requested length passes, whatever slice it is.
    "neighbouring run": (
        calculation, "check_run",
        "    if len(run) == count:\n",
        "    if len(run) == count:\n        return\n    if False:\n",
        a_neighbouring_run,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_mutant_fails_its_check(monkeypatch, mutant):
    *where, check = MUTANTS[mutant]
    check()
    mutate(monkeypatch, *where)
    # A wrong answer fails an assert; a frame cut out of order may fail
    # sooner, on an index.
    with pytest.raises((Exception, pytest.fail.Exception)):
        check()
