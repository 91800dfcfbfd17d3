"""Metamorphic relations between runs of the lab.

Each relation compares two runs that must agree, so it needs no stored
answer and no second implementation:

- process relabeling: permuting the process ids moves the forced sites
  and the findings with the ids and changes nothing else;
- re-linearization: swapping adjacent independent steps (on different
  processes, and not a send with its own receive) changes neither the
  forced sites nor the findings;
- forced as basic: a ``ckpt`` step before each forced receive, run under
  ``none``, gives the protocol's useless set;
- prefix monotonicity: the useless set of a prefix's run only grows with
  the prefix, and only at a receive.

They run on a seeded slice of the acceptance campaign's scenarios under
every protocol.  A forced site is (process, message), and the findings
are the useless checkpoints by (process, ordinal) and the violation
count.
"""

import pytest

from cicsim.oracle import quick_findings, useless_checkpoints
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.rng import SplitMix64
from cicsim.scenarios import FuzzParams, random_scenario
from cicsim.simulator import Scenario, Step, ckpt, run_scenario

SEEDS = range(250)
PREFIX_SEEDS = range(0, 250, 25)
SWAPS = 30


def campaign_scenario(seed):
    """The scenario of ``seed`` under the acceptance campaign's knobs, but
    with n from 3 to 6 rather than 5: half the slice then has the five or
    more processes that some faults need before they show."""
    prng = SplitMix64(seed * 0x9E3779B9 + 17)
    n = 3 + seed % 4
    rates = tuple(0.03 + 0.27 * prng.random() for _ in range(n))
    return random_scenario(FuzzParams(n=n, events=40, p_ckpt=rates,
                                      p_send=0.30 + 0.20 * prng.random(),
                                      max_in_flight=6, seed=seed))


def forced_sites(run, label=None):
    """The run's forced sites, sorted, with each process id mapped by
    ``label`` (a list indexed by process id) when one is given."""
    return sorted((label[f.process] if label else f.process, f.message) for f in run.forced)


def findings(run, label=None):
    """The sorted useless (process, ordinal) keys, mapped like
    :func:`forced_sites`, and the violation count."""
    useless = sorted((label[r.process] if label else r.process, r.ordinal)
                     for r in useless_checkpoints(run.trace))
    return useless, quick_findings(run.trace)[1]


def relabeled(scen, label):
    return Scenario(scen.n, tuple(
        Step(kind, label[p], None if dest is None else label[dest], message)
        for kind, p, dest, message in scen.steps))


def swapped(scen, draw):
    """``scen`` after SWAPS random picks of an adjacent pair of steps, each
    swapped if the two are independent: on different processes, and not a
    send followed by its own receive."""
    steps = list(scen.steps)
    for _ in range(SWAPS):
        i = draw.below(len(steps) - 1)
        a, b = steps[i], steps[i + 1]
        if a.process != b.process and not (a.kind == "send" and b.message == a.message):
            steps[i], steps[i + 1] = b, a
    return Scenario(scen.n, tuple(steps))


def forced_as_basic(run):
    """The run's scenario with a ``ckpt`` step before each forced receive."""
    forced = set(run.forced_step_indexes())
    steps = []
    for idx, st in enumerate(run.scenario.steps):
        if idx in forced:
            steps.append(ckpt(st.process))
        steps.append(st)
    return Scenario(run.scenario.n, tuple(steps))


def relation_failures(seed, scen, protocol):
    """Yield (relation, expected, got) for each of the first three
    relations that the runs of ``scen`` under ``protocol`` break; the
    expected and got values are (forced sites, findings) pairs."""
    run = run_scenario(scen, protocol)
    draw = SplitMix64(seed ^ 0x5EED)
    ids = list(range(1, scen.n + 1))
    for i in range(len(ids) - 1, 0, -1):  # Fisher-Yates
        j = draw.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    label = [0] + ids
    other = run_scenario(relabeled(scen, label), protocol)
    want = (forced_sites(run, label), findings(run, label))
    got = (forced_sites(other), findings(other))
    if want != got:
        yield f"relabeling 1..{scen.n} as {ids}", want, got
    want = (forced_sites(run), findings(run))
    other = run_scenario(swapped(scen, draw), protocol)
    got = (forced_sites(other), findings(other))
    if want != got:
        yield "re-linearization", want, got
    basic = run_scenario(forced_as_basic(run), "none")
    want = ([], findings(run)[0])
    got = (forced_sites(basic), findings(basic)[0])
    if want != got:
        yield "forced as basic, under none", want, got


def prefix_failures(scen, protocol):
    """Yield (relation, expected, got) where the useless set of a prefix's
    run loses a checkpoint, or gains one at a step that is no receive."""
    before = []
    for k in range(1, len(scen.steps) + 1):
        useless = findings(run_scenario(Scenario(scen.n, scen.steps[:k]), protocol))[0]
        step = scen.steps[k - 1]
        if not set(before) <= set(useless) or (useless != before and step.kind != "recv"):
            yield f"prefix monotonicity at step {k - 1} ({step.text()})", before, useless
        before = useless


def report(protocol, failures):
    return "\n".join(f"seed {seed} {protocol} {relation}: expected {want}, got {got}"
                     for seed, relation, want, got in failures[:10])


@pytest.fixture(scope="module")
def scenarios():
    return {seed: campaign_scenario(seed) for seed in SEEDS}


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_relabeling_relinearization_and_forced_as_basic(protocol, scenarios):
    failures = [(seed, *f) for seed, scen in scenarios.items()
                for f in relation_failures(seed, scen, protocol)]
    assert not failures, report(protocol, failures)


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_prefix_monotonicity(protocol, scenarios):
    failures = [(seed, *f) for seed in PREFIX_SEEDS
                for f in prefix_failures(scenarios[seed], protocol)]
    assert not failures, report(protocol, failures)
