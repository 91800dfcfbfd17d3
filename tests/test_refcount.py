"""The run -> oracle -> report path leaves no reference cycle.

A campaign makes a run, judges it and drops it, thousands of times.  When
nothing built on the way refers back to where it came from, reference
counting frees each run and its zigzag index the moment they are dropped,
and the cyclic collector finds nothing to do.  Each test runs one group of
entry points over built-in and seeded scenarios, with the collector off
and ``gc.DEBUG_SAVEALL`` on, and asserts that one collection afterwards
finds no unreachable object.  ``cli.main`` is left out: argparse builds
cycles of its own.  Scenario generation is checked too: a random stream
that referred back to its owner would leave one cycle per scenario, and
as such a cycle runs through a suspended generator, whose finalizer frees
it before the collector can save it, that group also checks that a
stream dies with its last reference.
"""

import gc
import weakref
from collections import Counter

import pytest

from cicsim.computation import Trace, is_consistent_global_checkpoint
from cicsim.oracle import (
    check_z_consistency,
    find_z_cycles,
    oracle_report,
    quick_findings,
    useless_checkpoints,
)
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.report import run_report, to_json
from cicsim.rng import SplitMix64
from cicsim.scenarios import (
    FIXTURE_NAMES,
    FuzzParams,
    builtin,
    random_scenario,
    serialize_scenario,
    verify_fixture,
)
from cicsim.simulator import amplify_violation, compare_runs, run_scenario
from references import consistent_membership

SCENARIOS = [builtin(name)[0] for name in FIXTURE_NAMES] + [
    random_scenario(FuzzParams(n=3 + seed % 3, events=40, seed=seed)) for seed in range(4)
]
UNSAFE = ("none", "fine", "lazy-fine")


FREED = "freed unsaved"


def cyclic_garbage(op) -> Counter:
    """The objects, by type name, that ``op()`` leaves in reference cycles:
    what one collection finds after it runs with the collector off.  The
    op runs once before, so caches it fills on first use do not count.

    A cycle through an object with a finalizer, such as a suspended
    generator, can be freed by its finalizer before ``DEBUG_SAVEALL``
    saves it, so the tracked objects that the collection frees without
    saving are counted too, under ``FREED``: the drop in
    ``len(gc.get_objects())`` across it.  Saved objects stay alive and
    tracked, so they do not count twice.  A collection also untracks the
    live tuples that hold only untracked items, one level of nesting per
    pass, so the collector first runs until the count stops dropping."""
    op()
    enabled, flags = gc.isenabled(), gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        tracked = None
        while tracked != len(gc.get_objects()):
            tracked = len(gc.get_objects())
            gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        op()
        tracked = len(gc.get_objects())
        gc.collect()
        freed = tracked - len(gc.get_objects())
        found = Counter(type(obj).__name__ for obj in gc.garbage[saved:])
        if freed:
            found[FREED] = freed
        return found
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()


def runs_and_quick_findings():
    for scen in SCENARIOS:
        for protocol in PROTOCOL_NAMES:
            run = run_scenario(scen, protocol)
            quick_findings(run.trace)
            useless_checkpoints(run.trace)


def reports():
    for scen in SCENARIOS:
        text = serialize_scenario(scen)
        for protocol in UNSAFE:
            run = run_scenario(scen, protocol)
            check_z_consistency(run.trace)
            find_z_cycles(run.trace)
            to_json(run_report(run, oracle_report(run.trace), text))


def comparisons():
    for scen in SCENARIOS:
        compare_runs(scen, PROTOCOL_NAMES)


def amplifications():
    amplified = 0
    for scen in SCENARIOS:
        for protocol in UNSAFE:
            result = amplify_violation(scen, protocol)
            if result is not None:
                amplified += 1
                result.report  # built on first read
    assert amplified >= 5


def fixtures():
    for name in FIXTURE_NAMES:
        assert verify_fixture(name) == []


def memberships():
    for scen in SCENARIOS:
        trace = run_scenario(scen, "none").trace
        consistent_membership(trace)
        for x in (1, 2):
            line = [trace.checkpoints[p, min(x, cnt)] for p, cnt in trace.ckpt_counts.items()]
            is_consistent_global_checkpoint(line, trace)


def event_views():
    for scen in SCENARIOS:
        for protocol in UNSAFE:
            trace = run_scenario(scen, protocol).trace
            hand = Trace(trace.n, trace.events)
            quick_findings(hand)
            oracle_report(hand)


def generation():
    for seed in range(4):
        random_scenario(FuzzParams(n=3 + seed % 3, events=40, seed=seed))
        rng = SplitMix64(seed)
        for _ in range(20):  # past the end of the first batches
            rng.next_u64()
            rng.random()
            rng.below(7)
        owner = weakref.ref(rng)
        del rng
        assert owner() is None


@pytest.mark.parametrize("op", [
    runs_and_quick_findings, reports, comparisons, amplifications, fixtures,
    memberships, event_views, generation,
], ids=lambda op: op.__name__)
def test_run_paths_leave_no_cyclic_garbage(op):
    assert cyclic_garbage(op) == Counter()


def test_cyclic_garbage_sees_a_cycle():
    def make_cycle():
        node = {}
        node["self"] = node

    assert cyclic_garbage(make_cycle) == Counter(dict=1)


def test_cyclic_garbage_sees_a_cycle_through_a_generator():
    def stream(box):
        yield box

    def make_cycle():
        box = []
        gen = stream(box)
        next(gen)
        box.append(gen)  # box -> gen -> its frame -> box

    found = cyclic_garbage(make_cycle)
    assert set(found) == {FREED} and found[FREED] >= 2
