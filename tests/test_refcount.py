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

from cicsim.computation import Trace
from cicsim.oracle import (
    check_z_consistency,
    consistent_membership_bruteforce,
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

SCENARIOS = [builtin(name)[0] for name in FIXTURE_NAMES] + [
    random_scenario(FuzzParams(n=3 + seed % 3, events=40, seed=seed)) for seed in range(4)
]
UNSAFE = ("none", "fine", "lazy-fine")


def cyclic_garbage(op) -> Counter:
    """The objects, by type name, that ``op()`` leaves in reference cycles:
    what one collection finds after it runs with the collector off.  The
    op runs once before, so caches it fills on first use do not count."""
    op()
    enabled, flags = gc.isenabled(), gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        op()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage[saved:])
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
        consistent_membership_bruteforce(run_scenario(scen, "none").trace)


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
