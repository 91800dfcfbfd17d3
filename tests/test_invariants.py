"""State invariants of the protocols' control structures, at every step.

Several structures a protocol keeps have an exact meaning over the causal
past of its process P_i, so a monitor that carries its own ground truth
with each message can check them after every step, with no second
implementation of any protocol:

* ``sent_to[k]``: P_i has sent to P_k in its current interval;
* ``min_to[k]`` (``pi``, ``fi-clockv``): P_i's clock at its first send to
  P_k in its current interval, ``inf`` if it sent none;
* ``ckptv[k]``, k != i: the ordinal of the last checkpoint of P_k in P_i's
  causal past, 0 if none;
* ``clockv[k]`` (``fi-clockv``), k != i: the largest clock of P_k in P_i's
  causal past, 0 if none, and ``clockv[i]`` is ``lc``;
* ``greater[k]``, k != i (``fi-greater``, ``fine``, ``fine-ri``): ``lc`` is
  above the largest clock of P_k in P_i's causal past.

The ground truth is two vectors per process, checkpoint counts and clocks,
sent with each message and merged by max at its receive, and the clock of
P_i's first send to each process in its current interval.  ``taken``,
``equal_incr`` and ``increment`` are not checked: the lab gives them no
exact meaning over the causal past.  test_reference_model.py checks what
they decide against the protocols' rules instead.
"""

from collections import Counter
from math import inf

from cicsim.protocols import make_protocol
from cicsim.scenarios import FIXTURE_NAMES, FuzzParams, builtin, random_scenario

# Every protocol with a structure above, each class once (``fi`` is
# ``fi-greater``).
MONITORED = ("pi", "fi-clockv", "fi-greater", "lazy-fi", "fine", "fine-ri",
             "lazy-fine", "lazy-fine-ri")
MASKS = frozenset(("sent_to", "greater"))


def monitor(scenario, protocol):
    """Drive one machine per process through the scenario's steps.
    Returns the number of entries checked per field, and one
    ``(step, process, field, k, got, want)`` per entry that differs from
    the ground truth after a step (step None: after the initial
    checkpoints)."""
    n = scenario.n
    procs = range(1, n + 1)
    machines = [None] + [make_protocol(protocol, n, i) for i in procs]
    ckpts = [None] + [[0] * (n + 1) for _ in procs]  # P_i's causal past
    clocks = [None] + [[0] * (n + 1) for _ in procs]
    first = [None] + [{} for _ in procs]  # P_i: dest -> clock at first send
    in_flight = {}
    checked, wrong = Counter(), []

    def check(step, i):
        m = machines[i]
        clocks[i][i] = m.lc
        for k in procs:
            want = {"sent_to": k in first[i], "min_to": first[i].get(k, inf),
                    "clockv": clocks[i][k]}
            if k != i:
                want.update(ckptv=ckpts[i][k], greater=m.lc > clocks[i][k])
            for field, value in want.items():
                if not hasattr(m, field):
                    continue
                got = getattr(m, field)
                got = got >> k & 1 == 1 if field in MASKS else got[k]
                checked[field] += 1
                if got != value:
                    wrong.append((step, i, field, k, got, value))

    def new_interval(i):
        ckpts[i][i] += 1
        first[i].clear()

    for i in procs:
        new_interval(i)
        check(None, i)
    for idx, st in enumerate(scenario.steps):
        i = st.process
        m = machines[i]
        if st.kind == "ckpt":
            m.take_checkpoint()
            new_interval(i)
        elif st.kind == "send":
            first[i].setdefault(st.dest, m.lc)
            in_flight[st.message] = (m.on_send(st.dest), ckpts[i][:], clocks[i][:])
        else:
            pb, their_ckpts, their_clocks = in_flight.pop(st.message)
            if m.on_receive(pb)[1] is not None:  # a forced checkpoint
                new_interval(i)
            ckpts[i] = list(map(max, ckpts[i], their_ckpts))
            clocks[i] = list(map(max, clocks[i], their_clocks))
        check(idx, i)
    return checked, wrong


def run_monitor(cases):
    """Monitor every (label, scenario) under every MONITORED protocol;
    returns the total checks per field and each mismatch as text."""
    total, bad = Counter(), []
    for label, scen in cases:
        for protocol in MONITORED:
            checked, wrong = monitor(scen, protocol)
            total += checked
            bad += [f"{label} {protocol} step {step} P{i} {field}[{k}]: got {got!r}, want {want!r}"
                    for step, i, field, k, got, want in wrong]
    return total, bad


def test_invariants_hold_on_every_builtin():
    total, bad = run_monitor((name, builtin(name)[0]) for name in FIXTURE_NAMES)
    assert bad == [], bad[:5]
    assert set(total) == {"sent_to", "min_to", "ckptv", "clockv", "greater"}


def test_invariants_hold_on_seeded_scenarios():
    # n 3-5, so a rule that errs only for n >= 5 still shows; 150 seeds
    # take about 1 s.
    total, bad = run_monitor(
        (f"seed {seed}", random_scenario(FuzzParams(n=3 + seed % 3, events=40, seed=seed)))
        for seed in range(150))
    assert bad == [], bad[:5]
    assert min(total.values()) > 10_000
