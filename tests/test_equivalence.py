"""Every fast path is invisible: the corpus over the factor grid.

Each corpus entry runs at its own config, at its full size, with each fast
path off alone and with all of them off. Then, with tracing on, at 1, 2
and 4 cores and under one fault plan, it runs with all paths off and with
its own target paths off. Every cell must observe exactly what the
reference run (every path on) observes, fetch the same ops, and take at
least as many pieces; a path that is off commits nothing. A Hypothesis
property does the same for generated scenarios and off-sets.
"""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults as F
from repro.core.limit import LimitSession
from repro.hw.events import Event
from repro.sim import base, engine

from tests.equivalence import CORPUS, FASTPATHS, SLEEP_PATHS, TRACED, Entry, Program
from tests.equivalence import build, config, run, scenario

#: One E17-style plan. ``force_bailout`` is left out: it fires at the fast
#: paths themselves, so turning a path off changes what it injects.
FAULTS = F.FaultPlan((
    F.preempt_in_read(every=4), F.delay_swap(600, every=3),
    F.dup_swap(every=4), F.shrink_counter(14, nth=2),
))


def _axes(entry: Entry):
    """``(axis, config, off-sets)`` for each axis the entry runs on."""
    own = entry.config
    yield "own", own, [(path,) for path in FASTPATHS] + [tuple(FASTPATHS)]
    offsets = [tuple(FASTPATHS)]
    if set(entry.targets) != set(FASTPATHS):
        offsets.append(entry.targets)
    yield "traced", dataclasses.replace(own, trace=True), offsets
    for n_cores in (1, 2, 4):
        if n_cores != own.machine.n_cores:
            machine = dataclasses.replace(own.machine, n_cores=n_cores)
            yield f"{n_cores}-core", dataclasses.replace(own, machine=machine), offsets
    yield "faults", dataclasses.replace(own, fault_plan=FAULTS), offsets


GRID = [
    pytest.param(entry, *axis, id=f"{entry.name}-{axis[0]}")
    for entry in CORPUS
    for axis in _axes(entry)
]


def _check_reference(entry: Entry, axis: str, observed, metrics) -> None:
    """The reference run reaches what the entry was built to reach; under
    tracing, only the traced paths commit."""
    commits = {path: metrics.get(fast.counter, 0) for path, fast in FASTPATHS.items()}
    if axis == "own":
        assert all(commits[path] for path in entry.targets), commits
        for name, least in entry.seen.items():
            assert metrics.get(name, 0) >= least, (name, metrics.get(name))
        assert not any(metrics.get(name) for name in entry.unseen), entry.unseen
        assert all(observed["reads"]), "a session logged no reads"
        if entry.records is not None:
            assert sum(map(len, observed["reads"])) == entry.records
    elif axis == "traced":
        assert metrics["trace_events"] > 0
        traced = {path for path in commits if commits[path]}
        assert traced <= set(TRACED) and traced >= set(entry.targets) & set(TRACED)


def _assert_invisible(entry, cfg, off, reference, ref_metrics, full=False) -> None:
    """Run with the ``off`` paths off: nothing observable moves, the same
    ops are fetched, and the pieces grow exactly when a path that commits
    in pieces of its own (all but ``phase``, which commits in its op's
    piece) committed in the reference run."""
    observed, metrics = run(entry, cfg, off, full)
    assert not any(metrics.get(FASTPATHS[path].counter) for path in off), off
    assert observed == reference, off
    assert metrics["ops_fetched"] == ref_metrics["ops_fetched"], off
    added = metrics["sim_events"] - ref_metrics["sim_events"]
    saved = any(
        path != "phase" and ref_metrics.get(FASTPATHS[path].counter)
        for path in off
    )
    assert added >= 0 and (added > 0) is saved, (off, added)


@pytest.mark.parametrize("entry, axis, cfg, offsets", GRID)
def test_fast_paths_are_invisible(entry, axis, cfg, offsets):
    """A cell runs when it turns off a path that commits in the reference
    run; the all-off cell always runs, and it also shows that refusing the
    paths that never commit changes nothing."""
    full = axis == "own"
    reference, ref_metrics = run(entry, cfg, (), full)
    _check_reference(entry, axis, reference, ref_metrics)
    committed = {p for p, fast in FASTPATHS.items() if ref_metrics.get(fast.counter)}
    for off in offsets:
        if len(off) == len(FASTPATHS) or set(off) & committed:
            _assert_invisible(entry, cfg, off, reference, ref_metrics, full)


def test_every_fast_path_is_some_entrys_target():
    """With each entry's targets committing in its reference run, every
    path commits in at least one reference run."""
    targets = {path for entry in CORPUS for path in entry.targets}
    assert targets == set(FASTPATHS)
    assert len({entry.name for entry in CORPUS}) == len(CORPUS)


#: Each path alone, the two sleep folds together, or any set of paths.
OFFSETS = st.one_of(
    st.sampled_from([(path,) for path in FASTPATHS] + [SLEEP_PATHS]),
    st.sets(st.sampled_from(sorted(FASTPATHS)), min_size=1).map(tuple),
)


@given(params=scenario, off=OFFSETS)
@settings(max_examples=60, deadline=None)
def test_generated_scenarios_are_invisible(params, off):
    """A scenario sleeps whenever a sleep fold is off."""
    if set(off) & set(SLEEP_PATHS):
        params = dict(params, with_sleep=True)

    def generated():
        session = LimitSession([Event.CYCLES], count_kernel=True)
        return Program(build(params, session), (session,))

    entry = Entry("generated", config(params), generated, ())
    reference, ref_metrics = run(entry, entry.config)
    _assert_invisible(entry, entry.config, off, reference, ref_metrics)


def _literal_paths(module) -> set[str]:
    """The ``path`` literals ``module`` passes to ``_bail`` and
    ``_charge_frame``."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        index = {"_bail": 0, "_charge_frame": 4}.get(node.func.attr)
        if index is None:
            continue
        args = dict(enumerate(node.args))
        args.update((kw.arg, kw.value) for kw in node.keywords)
        arg = args.get(index, args.get("path"))
        if isinstance(arg, ast.Constant):
            found.add(arg.value)
    return found


def test_every_bail_path_can_be_switched_off():
    """A fold whose bail path the harness cannot switch off is a fold the
    harness does not check."""
    assert _literal_paths(base) | _literal_paths(engine) == set(FASTPATHS)
