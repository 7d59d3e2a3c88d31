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

from repro.core import calculation, identification, synopsis, window_cut
from repro.streaming import columns
from tests.core import test_calculation
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
    # A frame's keys rank by value alone, windows interleaved.
    "segment sort": (
        synopsis, "_dense_ranks",
        'order = order[_np.argsort(segments[order], kind="stable")]',
        "pass",
        untied_windows,
    ),
    # Tied values rank in input order, not by owner and position.
    "key tie sort": (
        synopsis, "_dense_ranks", "if tied.any():", "if False:",
        many_windows,
    ),
    # A window's rank is not lifted above the windows before it.
    "n_below window offset": (
        window_cut, "cut_frame",
        "before = [offsets[segment] for segment in pick_segments]",
        "before = [0] * len(pick_segments)",
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
