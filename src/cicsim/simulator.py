"""Deterministic engine replaying scenarios through one protocol.

A scenario is an ordered list of steps (basic checkpoint, send, receive);
the step order is the global order of the resulting trace.  A Scenario is
valid by construction (its constructor runs the one checker,
step_problems), so nothing that takes a Scenario checks it again.  Running
a scenario yields an annotated trace: the trace itself (with protocol
timestamps), the forced-checkpoint events with their fired conditions and
pre-update state snapshots, and the piggyback log.

amplify_violation implements the adversarial construction that turns a
zigzag-timestamping violation into a scenario extension closing a Z-cycle:
given a run where C_i^x reaches C_j^y over a zigzag path with
C_i^x.t >= C_j^y.t, a fresh message is inserted, sent by P_j as the first
event of interval y and received by P_i right after the witness chain's
first send.  The re-run is judged by the oracle; uselessness is the
expected outcome for protocols that lack zigzag-consistent timestamps, not
a guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import oracle
from .computation import (
    EV_CKPT,
    EV_RECV,
    EV_SEND,
    CheckpointRecord,
    Trace,
)
from .protocols import ForcedDecision, Piggyback, make_protocol


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


@dataclass(frozen=True)
class Step:
    kind: str  # "ckpt" | "send" | "recv"
    process: int
    dest: int | None = None
    message: str | None = None

    def text(self) -> str:
        if self.kind == "ckpt":
            return f"ckpt {self.process}"
        if self.kind == "send":
            return f"send {self.process} {self.dest} {self.message}"
        return f"recv {self.process} {self.message}"


def ckpt(p: int) -> Step:
    return Step("ckpt", p)


def send(p: int, q: int, name: str) -> Step:
    return Step("send", p, q, name)


def recv(p: int, name: str) -> Step:
    return Step("recv", p, message=name)


@dataclass(frozen=True)
class Scenario:
    """A process count and ordered steps; building one that breaks a rule
    of :func:`step_problems` raises :class:`ScenarioError`."""

    n: int
    steps: tuple[Step, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        located = list(step_problems(self.n, self.steps))
        if located:
            raise ScenarioError(scenario_violations(self), located)

    def message_names(self) -> set[str]:
        return {s.message for s in self.steps if s.message}

    def recv_step_index(self, message: str) -> int:
        for idx, s in enumerate(self.steps):
            if s.kind == "recv" and s.message == message:
                return idx
        raise ValueError(f"no receive of {message!r} in scenario")


def step_problems(n: int, steps):
    """Yield (step index, problem) in step order, index None for a process
    count outside 2..MAX_PROCS.  Rules: ids in 1..n, one send and at most
    one receive per name, each receive after its send and at its
    destination, no self-sends, known step kinds."""
    if n < 2:
        yield None, f"process count {n} < 2"
    elif n > MAX_PROCS:
        yield None, f"process count {n} > {MAX_PROCS}"
    sends: dict[str, Step] = {}
    received: set[str] = set()
    for idx, st in enumerate(steps):
        if not 1 <= st.process <= n:
            yield idx, "process out of range"
            continue
        if st.kind == "send":
            if st.dest is None or not 1 <= st.dest <= n:
                yield idx, "destination out of range"
            elif st.dest == st.process:
                yield idx, "self-send"
            if st.message in sends:
                yield idx, f"message {st.message} sent twice"
            else:
                sends[st.message] = st
        elif st.kind == "recv":
            origin = sends.get(st.message)
            if origin is None:
                yield idx, f"receive before send of {st.message}"
            elif origin.dest != st.process:
                yield idx, f"{st.message} was addressed to P{origin.dest}"
            if st.message in received:
                yield idx, f"message {st.message} received twice"
            received.add(st.message)
        elif st.kind != "ckpt":
            yield idx, f"unknown step kind {st.kind!r}"


def scenario_violations(s: Scenario) -> list[str]:
    """The problems of :func:`step_problems` as text, each tagged with its
    step; empty for every Scenario, which cannot be built invalid."""
    return [
        problem if idx is None else f"step {idx} ({s.steps[idx].text()}): {problem}"
        for idx, problem in step_problems(s.n, s.steps)
    ]


@dataclass
class ForcedEvent:
    step_index: int
    process: int
    message: str
    decision: ForcedDecision
    record: CheckpointRecord
    payload: Piggyback
    prestate: dict


@dataclass
class AnnotatedTrace:
    scenario: Scenario
    protocol: str
    trace: Trace
    forced: list[ForcedEvent]
    piggybacks: list[tuple[int, str, Piggyback]]
    step_of_event: list[int | None]

    @property
    def forced_count(self) -> int:
        return len(self.forced)

    @property
    def checkpoint_total(self) -> int:
        return len(self.trace.checkpoints)

    def forced_step_indexes(self) -> list[int]:
        return [f.step_index for f in self.forced]

    def checkpoint(self, process: int, ordinal: int) -> CheckpointRecord:
        return self.trace.checkpoints[(process, ordinal)]


def run_scenario(scenario: Scenario, protocol: str) -> AnnotatedTrace:
    """Execute the scenario's steps in order under one protocol.

    Basic checkpoints are unconditional; a protocol can only decide its
    timestamps and its forced checkpoints, which are placed immediately
    before their triggering receive.  Bit-for-bit deterministic in
    (scenario, protocol).

    The trace is written as columns while the steps run: one tuple per
    event, the checkpoint records, and the endpoints of each delivered
    message, whose intervals are the checkpoint counts at its send and at
    its receive.  No Event is built unless a caller asks for one."""
    n = scenario.n
    machines = [None] + [make_protocol(protocol, n, i) for i in range(1, n + 1)]

    log: list[tuple] = []
    step_of_event: list[int | None] = []
    ordinals = [0] * (n + 1)
    counts = [0] * (n + 1)  # checkpoints so far: the current interval
    checkpoints: dict[tuple[int, int], CheckpointRecord] = {}
    delivered: dict[str, tuple[int, int, int, int, int, int]] = {}

    def checkpoint(p, rec, step_idx):
        counts[p] += 1
        checkpoints[rec.key()] = rec
        ordinals[p] += 1
        log.append((p, ordinals[p], EV_CKPT, None, rec))
        step_of_event.append(step_idx)

    for i in range(1, n + 1):
        checkpoint(i, machines[i].initial_record, None)

    # message -> (piggyback, sender, send interval, send position)
    in_flight: dict[str, tuple[Piggyback, int, int, int]] = {}
    forced: list[ForcedEvent] = []
    piggybacks: list[tuple[int, str, Piggyback]] = []

    for idx, st in enumerate(scenario.steps):
        p = st.process
        if st.kind == "ckpt":
            checkpoint(p, machines[p].take_checkpoint(), idx)
            continue
        name = st.message
        if st.kind == "send":
            pb = machines[p].on_send(st.dest)
            in_flight[name] = (pb, p, counts[p], len(log))
            piggybacks.append((idx, name, pb))
            kind = EV_SEND
        else:
            pb, sp, si, spos = in_flight.pop(name)
            decision, rec, prestate = machines[p].on_receive(pb)
            if rec is not None:
                checkpoint(p, rec, idx)
                forced.append(ForcedEvent(idx, p, name, decision, rec, pb, prestate))
            delivered[name] = (sp, si, spos, p, counts[p], len(log))
            kind = EV_RECV
        ordinals[p] += 1
        log.append((p, ordinals[p], kind, name, None))
        step_of_event.append(idx)

    ckpt_counts = {p: counts[p] for p in range(1, n + 1)}
    trace = Trace._from_log(n, log, checkpoints, ckpt_counts, delivered)
    return AnnotatedTrace(scenario, protocol, trace, forced, piggybacks, step_of_event)


@dataclass
class CompareRow:
    protocol: str
    forced: int
    checkpoints: int
    useless: int
    violations: int

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


@dataclass
class AmplifyResult:
    scenario: Scenario
    run: AnnotatedTrace
    report: oracle.OracleReport
    inserted_message: str
    violation: tuple[CheckpointRecord, CheckpointRecord]


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
    """
    base = run_scenario(scenario, protocol)
    violations = [
        v
        for v in oracle.check_z_consistency(base.trace)
        if v[0].process != v[1].process
    ]
    if not violations:
        return None
    src, dst, witness = min(
        violations,
        key=lambda v: (v[1].process, v[1].ordinal, v[0].process, v[0].ordinal),
    )

    # Anchor positions in scenario-step coordinates.  The target
    # checkpoint's creating event maps to a 'ckpt' step for basic
    # checkpoints or to the triggering 'recv' step for forced ones; in the
    # latter case the receive itself is the first event of the interval,
    # so the new send goes before it.
    dst_pos = base.trace.checkpoint_position(dst)
    dst_step = base.step_of_event[dst_pos]
    if dst_step is None:
        raise ValueError("cannot amplify a violation targeting an initial checkpoint")
    if scenario.steps[dst_step].kind == "ckpt":
        send_at = dst_step + 1
    else:
        send_at = dst_step

    name = _fresh_message_name(scenario)
    steps = list(scenario.steps)
    steps.insert(send_at, send(dst.process, src.process, name))

    first_msg = witness.messages[0]
    zeta_send_at = next(
        i for i, st in enumerate(steps) if st.kind == "send" and st.message == first_msg
    )
    recv_at = max(zeta_send_at, send_at) + 1
    steps.insert(recv_at, recv(src.process, name))

    amplified = Scenario(scenario.n, tuple(steps), name=None)
    run = run_scenario(amplified, protocol)
    report = oracle.oracle_report(run.trace)
    return AmplifyResult(amplified, run, report, name, (src, dst))
