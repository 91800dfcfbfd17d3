"""Deterministic engine replaying scenarios through one protocol.

A scenario is an ordered list of steps (basic checkpoint, send, receive);
the step order is the global order of the resulting trace.  A Scenario is
valid by construction (its constructor runs the one checker,
step_problems), so nothing that takes a Scenario checks it again.  Running
a scenario yields an annotated trace: the trace itself (its columns: the
checkpoint records, with protocol timestamps, and the send and receive
intervals of each delivered message; its events are replayed from the
steps and the forced list only when read), the forced-checkpoint events
with their fired conditions, and the piggyback of each send; the state
before any step is replayed only when asked (``AnnotatedTrace.prestate``).

amplify_violation implements the adversarial construction that turns a
zigzag-timestamping violation into a scenario extension closing a Z-cycle:
given a run where C_i^x reaches C_j^y over a zigzag path with
C_i^x.t >= C_j^y.t, a fresh message is inserted, sent by P_j in interval y
right after the step that made C_j^y and received by P_i right after the
witness chain's first send.  The re-run is judged by the oracle;
uselessness is the expected outcome for protocols that lack
zigzag-consistent timestamps, not a guarantee.
"""

from __future__ import annotations

from collections import namedtuple

from . import oracle
from .computation import CKPT_BASIC, CKPT_FORCED, CKPT_INITIAL, CheckpointRecord, Trace
from .protocols import Piggyback, make_protocol


# A run builds one protocol object per process.  Its boolean vectors are
# N+1-bit masks, but its integer vectors (ckptv, and clockv or min_to for
# some protocols) are lists of N+1 entries, so a run's set-up memory still
# grows as N squared.
MAX_PROCS = 256


class ScenarioError(ValueError):
    """``problems``: the scenario_violations texts; ``located``: the same
    problems as the (step index, problem) pairs of step_problems."""

    def __init__(self, problems, located):
        self.problems = problems
        self.located = located
        super().__init__("; ".join(problems))


class Step(namedtuple("Step", "kind process dest message", defaults=(None, None))):
    """One scenario step: ``kind`` is "ckpt", "send" or "recv", ``dest``
    is set for sends only and ``message`` for sends and receives.  A named
    tuple with no instance dict, because parsing and generating scenarios
    build one per step."""

    __slots__ = ()

    def text(self) -> str:
        if self.kind == "ckpt":
            return f"ckpt {self.process}"
        if self.kind == "send":
            return f"send {self.process} {self.dest} {self.message}"
        return f"{self.kind} {self.process} {self.message}"


def ckpt(p: int) -> Step:
    return Step("ckpt", p)


def send(p: int, q: int, name: str) -> Step:
    return Step("send", p, q, name)


def recv(p: int, name: str) -> Step:
    return Step("recv", p, message=name)


class Scenario(namedtuple("Scenario", "n steps name", defaults=(None,))):
    """A process count and ordered steps; building one that breaks a rule
    of :func:`step_problems` raises :class:`ScenarioError`, and so does
    ``_make`` or ``_replace``.  ``name`` is a label, not part of the
    value: equality and hashing read ``n`` and ``steps`` only, and a
    scenario equals no plain tuple."""

    __slots__ = ()

    def __new__(cls, n, steps, name=None):
        located = list(step_problems(n, steps))
        if located:
            raise ScenarioError(_problem_texts(steps, located), located)
        return super().__new__(cls, n, steps, name)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __eq__(self, other):
        return isinstance(other, Scenario) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    def message_names(self) -> set[str]:
        return {s.message for s in self.steps if s.message}


def step_problems(n: int, steps):
    """Yield (step index, problem) in step order, index None for a process
    count outside 2..MAX_PROCS.  Rules: ids (process and destination) are
    exact ints in 1..n, a sent message's name is one token of the text
    format (a str equal to its own ``split()`` and holding no ``#``), one
    send and at most one receive per name, each receive after its send and
    at its destination, no self-sends, known step kinds, no destination on
    a receive, and neither destination nor message on a ``ckpt`` step.  A
    send whose name is rejected still counts as that name's send, so its
    receive adds no problem of its own, unless the name is unhashable: then
    the send is not recorded and its receive is rejected for its name.  A
    process count that is not an exact int is the only problem found, a
    ``steps`` that is not a tuple (a list would leave the scenario
    unhashable) the last, and an item that is not exactly a ``Step`` is
    one problem, its fields unread."""
    if type(n) is not int:
        yield None, f"process count {n!r} is not an int"
        return
    if n < 2:
        yield None, f"process count {n} < 2"
    elif n > MAX_PROCS:
        yield None, f"process count {n} > {MAX_PROCS}"
    if type(steps) is not tuple:
        yield None, f"steps {type(steps).__name__} is not a tuple"
        return
    sends: dict[str, Step] = {}
    received: set[str] = set()
    for idx, st in enumerate(steps):
        if type(st) is not Step:
            yield idx, f"{type(st).__name__} is not a Step"
            continue
        kind, p, q, name = st
        if type(p) is not int:
            yield idx, f"process id {p!r} is not an int"
            continue
        if not 1 <= p <= n:
            yield idx, "process out of range"
            continue
        if kind == "send":
            if type(q) is not int:
                yield idx, f"destination {q!r} is not an int"
            elif not 1 <= q <= n:
                yield idx, "destination out of range"
            elif q == p:
                yield idx, "self-send"
            # isalnum() is a fast path: no letter or digit splits a token.
            if type(name) is not str or not (
                name.isalnum() or (name.split() == [name] and "#" not in name)
            ):
                yield idx, f"message name {name!r} is not one token without '#'"
                try:
                    hash(name)
                except TypeError:  # the send cannot be recorded
                    continue
            if name in sends:
                yield idx, f"message {name} sent twice"
            else:
                sends[name] = st
        elif kind == "recv":
            if q is not None:
                yield idx, f"receive names destination {q!r}"
            try:
                origin = sends.get(name)
            except TypeError:  # unhashable, so no send recorded it
                yield idx, f"message name {name!r} is not one token without '#'"
                continue
            if origin is None:
                yield idx, f"receive before send of {name}"
            elif origin.dest != p:
                yield idx, f"{name} was addressed to P{origin.dest}"
            if name in received:
                yield idx, f"message {name} received twice"
            received.add(name)
        elif kind == "ckpt":
            if q is not None:
                yield idx, f"checkpoint names destination {q!r}"
            if name is not None:
                yield idx, f"checkpoint names message {name!r}"
        else:
            yield idx, f"unknown step kind {kind!r}"


def _problem_texts(steps, located) -> list[str]:
    """(step index, problem) pairs as text, each tagged with its step."""
    return [
        problem if idx is None else f"step {idx} ({_step_text(steps[idx])}): {problem}"
        for idx, problem in located
    ]


def _step_text(st) -> str:
    return st.text() if type(st) is Step else repr(st)


def scenario_violations(s: Scenario) -> list[str]:
    """The problems of :func:`step_problems` as text, each tagged with its
    step; empty for every Scenario, which cannot be built invalid."""
    return _problem_texts(s.steps, step_problems(s.n, s.steps))


class ForcedEvent(namedtuple("ForcedEvent",
                             "step_index process message decision record payload")):
    """One forced checkpoint, by its receive step; the receiver's state
    before it is ``run.prestate(step_index)``."""

    __slots__ = ()


class AnnotatedTrace(namedtuple("AnnotatedTrace", "scenario protocol trace forced piggybacks")):
    """A run: its scenario, protocol and trace, its ``ForcedEvent`` list
    and one ``(step index, message, Piggyback)`` entry per send."""

    __slots__ = ()

    @property
    def forced_count(self) -> int:
        return len(self.forced)

    @property
    def checkpoint_total(self) -> int:
        return len(self.trace.checkpoints)

    def forced_step_indexes(self) -> list[int]:
        return [f.step_index for f in self.forced]

    def prestate(self, step_index: int) -> dict:
        """``snapshot()`` of the process of step ``step_index`` just before
        it, replayed on fresh machines (a run is deterministic); ValueError
        unless ``step_index`` is an exact int in ``range(len(steps))``."""
        n, steps = self.scenario.n, self.scenario.steps
        if type(step_index) is not int or not 0 <= step_index < len(steps):
            raise ValueError(f"step index {step_index!r} is not in 0..{len(steps) - 1}")
        machines = _play(n, self.protocol, steps[:step_index])[0]
        return machines[steps[step_index].process].snapshot()


def run_scenario(scenario: Scenario, protocol: str) -> AnnotatedTrace:
    """Execute the scenario's steps in order under one protocol.

    Basic checkpoints are unconditional; a protocol can only decide its
    timestamps and its forced checkpoints, which are placed immediately
    before their triggering receive; the run names each checkpoint by its
    own count.  Bit-for-bit deterministic in (scenario, protocol).

    The trace is written as columns while the steps run: the checkpoint
    records, and the endpoints of each delivered message, whose intervals
    are the checkpoint counts at its send and at its receive.  No
    per-event record is kept: the events follow from the steps and the
    forced list, and no Event is built unless a caller asks for one."""
    n = scenario.n
    _, checkpoints, counts, delivered, forced, piggybacks = _play(n, protocol, scenario.steps)
    ckpt_counts = {p: counts[p] for p in range(1, n + 1)}
    trace = Trace._from_run(n, scenario.steps, [f.step_index for f in forced],
                            checkpoints, ckpt_counts, delivered)
    return AnnotatedTrace(scenario, protocol, trace, forced, piggybacks)


def _play(n: int, protocol: str, steps):
    """The step loop of a run, also the replay of ``prestate``: ``steps``
    on fresh machines, giving the machines, the checkpoint records, the
    checkpoint counts, the delivered columns, the forced events and the
    piggybacks."""
    machines = [None] + [make_protocol(protocol, n, i) for i in range(1, n + 1)]
    new = tuple.__new__  # a named tuple without its Python-level __new__

    checkpoints = {(i, 1): new(CheckpointRecord, (i, 1, CKPT_INITIAL, machines[i].lc))
                   for i in range(1, n + 1)}
    counts = [0] + [1] * n  # checkpoints so far: the current interval
    delivered: dict[str, tuple[int, int, int, int]] = {}
    # message -> (piggyback, sender, send interval)
    in_flight: dict[str, tuple[Piggyback, int, int]] = {}
    forced: list[ForcedEvent] = []
    piggybacks: list[tuple[int, str, Piggyback]] = []

    for idx, (kind, p, dest, name) in enumerate(steps):
        if kind == "send":
            pb = machines[p].on_send(dest)
            in_flight[name] = (pb, p, counts[p])
            piggybacks.append((idx, name, pb))
        elif kind == "ckpt":
            x = counts[p] = counts[p] + 1
            checkpoints[(p, x)] = new(CheckpointRecord,
                                      (p, x, CKPT_BASIC, machines[p].take_checkpoint()))
        else:
            pb, sp, si = in_flight.pop(name)
            decision, t = machines[p].on_receive(pb)
            if t is not None:
                x = counts[p] = counts[p] + 1
                rec = checkpoints[(p, x)] = new(CheckpointRecord, (p, x, CKPT_FORCED, t))
                forced.append(new(ForcedEvent, (idx, p, name, decision, rec, pb)))
            delivered[name] = (sp, si, p, counts[p])
    return machines, checkpoints, counts, delivered, forced, piggybacks


class CompareRow(namedtuple("CompareRow", "protocol forced checkpoints useless violations")):
    __slots__ = ()

    @property
    def z_consistent(self) -> bool:
        return self.violations == 0


def compare_runs(scenario: Scenario, protocols) -> list[CompareRow]:
    """One row per protocol, in the given order, with the forced and total
    checkpoints of its run and the oracle's quick findings."""
    rows = []
    for name in protocols:
        run = run_scenario(scenario, name)
        useless, violations = oracle.quick_findings(run.trace)
        rows.append(
            CompareRow(name, run.forced_count, run.checkpoint_total, useless, violations)
        )
    return rows


class AmplifyResult(namedtuple("AmplifyResult", "scenario run inserted_message violation")):
    """The amplified scenario, its run, the inserted message's name and the
    amplified ``(source, target)`` violation.  The amplified run's full
    report is ``oracle_report(result.run.trace)``, built by a caller that
    wants its witnesses: they cost far more than ``quick_findings``."""

    __slots__ = ()


def _fresh_message_name(scenario: Scenario) -> str:
    used = scenario.message_names()
    k = 1
    while f"m{k}" in used:
        k += 1
    return f"m{k}"


def amplify_violation(scenario: Scenario, protocol: str) -> AmplifyResult | None:
    """Extend a violating run with one message that closes a Z-cycle.

    Returns None when the run has no cross-process timestamping violation
    (nothing to amplify).  Deterministic: among violations the one with the
    lexicographically smallest (target, source) identity is amplified.
    The new message is sent by the target's process in the target
    interval, right after the step that made the target checkpoint, and
    received by the source's process right after the witness's first
    send.  The insertion points are found in the scenario's steps, read
    with the base run's forced list, so neither run builds an Event.
    """
    base = run_scenario(scenario, protocol)
    # Only the chosen pair needs a witness, so the pairs come bare, as
    # bits; bit order is (process, ordinal) order.
    index = oracle._index(base.trace)
    recs = index.recs
    pair = min(
        ((b, a) for a, b in oracle._violating_pairs(index)
         if recs[a].process != recs[b].process),
        default=None,
    )
    if pair is None:
        return None
    dst, src = recs[pair[0]], recs[pair[1]]

    # The step that made the target checkpoint: on its process, each
    # 'ckpt' step and each receive in the run's forced list made one
    # checkpoint after the initial one, so C_q^x was made by the (x-1)-th.
    # No target is initial: a zigzag path reaches P_q only through a
    # message received in some interval r >= 1 of P_q, and so reaches
    # C_q^{r+1} or later.  The new send goes right after that step, so it
    # lies in the target interval: a forced checkpoint is taken before its
    # triggering receive is delivered.  The steps up to it are unchanged,
    # so the target is made as in the base run.
    forced_steps = set(base.forced_step_indexes())
    made = [idx for idx, st in enumerate(scenario.steps)
            if st.process == dst.process and (st.kind == "ckpt" or idx in forced_steps)]
    send_at = made[dst.ordinal - 2] + 1

    name = _fresh_message_name(scenario)
    steps = list(scenario.steps)
    steps.insert(send_at, send(dst.process, src.process, name))

    first_msg = oracle.zigzag_exists(src, dst, base.trace)[0]
    zeta_send_at = next(
        i for i, st in enumerate(steps) if st.kind == "send" and st.message == first_msg
    )
    recv_at = max(zeta_send_at, send_at) + 1
    steps.insert(recv_at, recv(src.process, name))

    amplified = Scenario(scenario.n, tuple(steps), name=None)
    return AmplifyResult(amplified, run_scenario(amplified, protocol), name, (src, dst))
