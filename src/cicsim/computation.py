"""Passive model of a distributed computation.

Processes are numbered 1..n.  A trace is a globally ordered list of events
(internal, send, receive, checkpoint); the list order is the single source
of determinism and must linearly extend both per-process order and
send-before-receive.  Every process begins with its initial checkpoint,
and each message is sent once and received at most once.  Channels are
reliable but not FIFO, and messages may still be in flight when the trace
ends.  ``Trace(n, events)`` checks all of this while it indexes the
events and raises :class:`TraceError` when a rule breaks.

Checkpoints are identified as C_i^x: the x-th checkpoint of process i,
1-based, with ordinal 1 always the initial checkpoint.  An interval I_i^x
is the set of events from C_i^x (inclusive) to C_i^{x+1} (exclusive).
A trace's columns place each delivered message by the intervals of its
send and its receive; global event positions belong to the event-level
view alone, which is built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass

CKPT_INITIAL = "initial"
CKPT_BASIC = "basic"
CKPT_FORCED = "forced"
CKPT_VIRTUAL = "virtual-terminal"

EV_INTERNAL = "internal"
EV_SEND = "send"
EV_RECV = "recv"
EV_CKPT = "ckpt"


@dataclass(frozen=True, init=False)
class CheckpointRecord:
    """Identity and protocol-assigned timestamp of one checkpoint.

    A frozen value with slots, because the simulator builds one record per
    checkpoint and a long trace holds them all.  Its ``__init__`` stores
    each field through the slot's own descriptor, which is faster than
    the generated frozen ``__setattr__`` calls; the defaults live in
    ``__init__`` since a slot cannot have a class-level default."""

    __slots__ = ("process", "ordinal", "kind", "timestamp")
    process: int
    ordinal: int
    kind: str
    timestamp: int | None

    def __init__(self, process: int, ordinal: int, kind: str = CKPT_BASIC,
                 timestamp: int | None = None):
        _set_process(self, process)
        _set_ordinal(self, ordinal)
        _set_kind(self, kind)
        _set_timestamp(self, timestamp)

    def __reduce__(self):
        # Copying and pickling rebuild the value through __init__: the
        # default would set each slot through the frozen __setattr__.
        return (CheckpointRecord, (self.process, self.ordinal, self.kind, self.timestamp))

    def key(self) -> tuple[int, int]:
        return (self.process, self.ordinal)

    def label(self) -> str:
        return f"C_{self.process}^{self.ordinal}"


_set_process, _set_ordinal, _set_kind, _set_timestamp = (
    CheckpointRecord.__dict__[name].__set__ for name in CheckpointRecord.__slots__
)


@dataclass(frozen=True)
class Event:
    """One entry of a trace.

    ``ordinal`` is the 1-based position within the owning process's own
    sequence; ``message`` is set for send/recv events and ``checkpoint``
    for ckpt events.
    """

    process: int
    ordinal: int
    kind: str
    message: str | None = None
    checkpoint: CheckpointRecord | None = None


@dataclass(frozen=True)
class Interval:
    process: int
    index: int

    def label(self) -> str:
        return f"I_{self.process}^{self.index}"


class TraceError(ValueError):
    """A ``Trace(n, events)`` that breaks a trace invariant; ``problems``
    holds one text per broken rule."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class Trace:
    """Ordered, immutable-by-convention record of one computation.

    Every trace carries the columns the zigzag oracle reads: ``n``,
    ``event_count``, the checkpoint records by (process, ordinal), the
    per-process checkpoint counts ``ckpt_counts``, and ``delivered``,
    which maps each received message to the integers (sender, send
    interval, receiver, receive interval) of its send and its receive.

    The event-level view (``events`` and the positional index ``_pos``,
    ``_ckpt_pos``, ``_interval``, and ``_msg_pos``, which maps each
    received message to the global positions of its send and its
    receive) is built at construction for a hand-built ``Trace(n,
    events)``, in the same pass that derives the columns and checks every
    trace rule: a trace is valid by construction, and an invalid event
    list raises :class:`TraceError`.  A trace the simulator writes holds
    the columns and no per-event record: on its first use, the
    event-level view is replayed from the scenario's steps, the forced
    step indexes and the checkpoint records, and indexed through the same
    pass.  ``_msg_pos`` is the only place that message positions live.
    """

    _EVENT_VIEW = frozenset(("events", "_pos", "_ckpt_pos", "_interval", "_msg_pos"))

    def __init__(self, n: int, events: list[Event]):
        self.n = n
        self.events = list(events)
        self._index()

    @classmethod
    def _from_run(cls, n, steps, forced_steps, checkpoints, ckpt_counts, delivered) -> "Trace":
        """A trace from columns written while the computation ran.
        ``steps`` are the scenario's steps, in order, and ``forced_steps``
        the indexes of the receive steps a forced checkpoint preceded: the
        run made one event per process (its initial checkpoint), one per
        step and one per forced checkpoint."""
        trace = cls.__new__(cls)
        trace.n = n
        trace._run = (steps, forced_steps)
        trace.event_count = n + len(steps) + len(forced_steps)
        trace.checkpoints = checkpoints
        trace.ckpt_counts = ckpt_counts
        trace.delivered = delivered
        trace._vclock = None
        return trace

    def __getattr__(self, name):
        # Reached only for attributes not yet set: the event-level view of
        # a trace built from a run.
        run = self.__dict__.get("_run")
        if run is None or name not in self._EVENT_VIEW:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.events = self._replay(*run)
        del self._run
        self._index()
        return getattr(self, name)

    def _replay(self, steps, forced_steps) -> list[Event]:
        """The events of a run, in its global order: each process's initial
        checkpoint, then per step a checkpoint (a ``ckpt`` step, or the
        forced one before a receive) and the step's send or receive.  A
        step's kind is its event's kind; the checkpoint events carry the
        run's records."""
        n, records = self.n, self.checkpoints
        events = [Event(p, 1, EV_CKPT, None, records[(p, 1)]) for p in range(1, n + 1)]
        ordinals = [0] + [1] * n
        counts = [0] + [1] * n
        forced = set(forced_steps)
        for idx, st in enumerate(steps):
            p, kind = st.process, st.kind
            if kind == EV_CKPT or idx in forced:
                counts[p] += 1
                ordinals[p] += 1
                events.append(Event(p, ordinals[p], EV_CKPT, None, records[(p, counts[p])]))
            if kind != EV_CKPT:
                ordinals[p] += 1
                events.append(Event(p, ordinals[p], kind, st.message))
        return events

    def _index(self) -> None:
        """Build the columns and the event-level view in one pass that
        checks every rule.  A problem's text is built only when its rule
        breaks, and an event that breaks one is still indexed, so it
        causes no follow-on problem.  As for a scenario, a process count
        that is not an exact int is the only problem reported, and a
        process id, an event ordinal or a checkpoint ordinal that is not an
        exact int, a timestamp that is neither None nor an exact int, or an
        unhashable message name is one problem of its event; a wrongly
        typed ordinal is indexed as the expected one."""
        n, events = self.n, self.events
        if type(n) is not int:
            raise TraceError([f"process count {n!r} is not an int"])
        bad = [f"process count {n} < 2"] if n < 2 else []

        def broken(pos, text):
            ev = events[pos]
            bad.append(f"event #{pos} ({ev.kind} by P{ev.process}): {text}")

        pos_of = self._pos = {}  # (process, ordinal) -> global position
        checkpoints = self.checkpoints = {}
        ckpt_pos = self._ckpt_pos = {}
        interval = self._interval = [0] * len(events)
        seen = [0] * (n + 1)  # per process: the last event ordinal
        count = [0] * (n + 1)  # per process: the last checkpoint ordinal
        sends: dict[str, list[int]] = {}
        recvs: dict[str, list[int]] = {}
        for pos, ev in enumerate(events):
            p, kind = ev.process, ev.kind
            if kind == EV_SEND or kind == EV_RECV:
                try:
                    (sends if kind == EV_SEND else recvs).setdefault(ev.message, []).append(pos)
                except TypeError:
                    broken(pos, f"message name {ev.message!r} is not hashable")
                else:
                    if not ev.message:
                        broken(pos, "missing message name")
            elif kind != EV_CKPT and kind != EV_INTERNAL:
                broken(pos, f"unknown event kind {kind!r}")
            if type(p) is not int:
                broken(pos, f"process id {p!r} is not an int")
                continue
            if not 1 <= p <= n:
                broken(pos, f"process out of range 1..{n}")
                continue
            o = ev.ordinal
            if type(o) is not int:
                broken(pos, f"ordinal {o!r} is not an int")
                o = seen[p] + 1
            elif o != seen[p] + 1:
                broken(pos, f"ordinal {o}, expected {seen[p] + 1}")
            if not seen[p] and kind != EV_CKPT:
                broken(pos, f"P{p} must begin with its initial checkpoint")
            seen[p] = o
            pos_of[(p, o)] = pos
            if kind == EV_CKPT:
                rec = ev.checkpoint
                if rec is None:
                    broken(pos, "checkpoint event without record")
                    continue
                x, o = count[p] + 1, rec.ordinal
                if rec.process != p:
                    broken(pos, f"record process {rec.process} mismatch")
                if type(o) is not int:
                    broken(pos, f"checkpoint ordinal {o!r} is not an int")
                    o = x
                elif o != x:
                    broken(pos, f"checkpoint ordinal {o}, expected {x}")
                if x == 1 and rec.kind != CKPT_INITIAL:
                    broken(pos, "first checkpoint must be kind 'initial'")
                if x > 1 and rec.kind == CKPT_INITIAL:
                    broken(pos, "duplicate initial checkpoint")
                if rec.kind == CKPT_VIRTUAL:
                    broken(pos, "virtual-terminal checkpoints may not appear in traces")
                t = rec.timestamp
                if t is not None:
                    if type(t) is not int:
                        broken(pos, f"timestamp {t!r} is not an int")
                    elif t < 1:
                        broken(pos, f"timestamp {t} < 1")
                count[p] = o
                checkpoints[(p, o)] = rec
                ckpt_pos[(p, o)] = pos
            interval[pos] = count[p]
        bad += [f"P{p} has no initial checkpoint" for p in range(1, n + 1) if not seen[p]]
        bad += [f"message {m}: sent {len(at)} times" for m, at in sends.items() if len(at) > 1]
        delivered = self.delivered = {}
        msg_pos = self._msg_pos = {}
        for name, got in recvs.items():
            at = sends.get(name)
            if at is None:
                bad.append(f"message {name}: received but never sent")
                continue
            if len(got) > 1:
                bad.append(f"message {name}: received {len(got)} times")
            s, r = at[0], got[0]
            if r < s:
                bad.append(f"message {name}: receive precedes its send in the global order")
            delivered[name] = (events[s].process, interval[s], events[r].process, interval[r])
            msg_pos[name] = (s, r)
        if bad:
            raise TraceError(bad)
        self.ckpt_counts = {p: count[p] for p in range(1, n + 1)}
        self.event_count = len(events)
        self._vclock: list[list[int]] | None = None

    # -- basic lookups -------------------------------------------------

    def position(self, event: Event) -> int:
        pos = self._pos.get((event.process, event.ordinal))
        if pos is None or self.events[pos] != event:
            raise ValueError(f"event {event} does not belong to this trace")
        return pos

    def checkpoint_event(self, record: CheckpointRecord) -> Event:
        pos = self._ckpt_pos.get(record.key())
        if pos is None:
            raise ValueError(f"checkpoint {record.label()} not in trace")
        return self.events[pos]

    def sorted_checkpoints(self) -> list[CheckpointRecord]:
        return [self.checkpoints[k] for k in sorted(self.checkpoints)]

    def delivered_messages(self) -> list[str]:
        """Names of messages with both endpoints, sorted."""
        return sorted(self.delivered)

    # -- causality -----------------------------------------------------

    def _vector_clocks(self) -> list[list[int]]:
        """Per-event vector of the highest ordinal in the causal past.

        vc[pos][p] is the largest ordinal of a process-p event that
        causally precedes (or is) the event at ``pos``.
        """
        if self._vclock is not None:
            return self._vclock
        vc: list[list[int]] = []
        last_of: dict[int, int] = {}
        for pos, ev in enumerate(self.events):
            prev = last_of.get(ev.process)
            cur = list(vc[prev]) if prev is not None else [0] * (self.n + 1)
            if ev.kind == EV_RECV:
                other = vc[self._msg_pos[ev.message][0]]
                cur = [max(a, b) for a, b in zip(cur, other)]
            cur[ev.process] = ev.ordinal
            vc.append(cur)
            last_of[ev.process] = pos
        self._vclock = vc
        return vc


def causally_precedes(e1: Event, e2: Event, trace: Trace) -> bool:
    """True iff e1 happens-before e2: program order, message delivery, or
    any transitive chain of the two.  Irreflexive."""
    p1 = trace.position(e1)
    p2 = trace.position(e2)
    if p1 == p2:
        return False
    vc = trace._vector_clocks()
    return vc[p2][e1.process] >= e1.ordinal and p1 < p2


def interval_of(e: Event, trace: Trace) -> Interval:
    """Interval I_i^x holding ``e``; a checkpoint event belongs to the
    interval it opens."""
    pos = trace.position(e)
    return Interval(e.process, trace._interval[pos])


def is_consistent_global_checkpoint(records, trace: Trace) -> bool:
    """True iff the given one-checkpoint-per-process set is pairwise
    unrelated by causal precedence."""
    records = list(records)
    procs = [r.process for r in records]
    if len(set(procs)) != len(procs):
        raise ValueError("duplicate process in global checkpoint")
    if sorted(procs) != list(range(1, trace.n + 1)):
        raise ValueError("need exactly one checkpoint per process")
    evs = [trace.checkpoint_event(r) for r in records]
    for a in evs:
        for b in evs:
            if a is not b and causally_precedes(a, b, trace):
                return False
    return True
