"""Passive model of a distributed computation.

Processes are numbered 1..n.  A trace is a globally ordered list of events
(send, receive, checkpoint); the list order is the single source of
determinism and linearly extends both per-process order and
send-before-receive.  Every process begins with its initial checkpoint,
and each message is sent once and received at most once.  Channels are
reliable but not FIFO, and messages may still be in flight when the trace
ends.  A trace is the view of a run, so the scenario checker is the one
validator of computations: ``Trace(n, events)`` reads its list as steps
and raises ``ValueError`` unless their run gives the list back.

Checkpoints are identified as C_i^x: the x-th checkpoint of process i,
1-based, with ordinal 1 always the initial checkpoint.  An interval I_i^x
is the set of events from C_i^x (inclusive) to C_i^{x+1} (exclusive).
A trace's columns place each delivered message by the intervals of its
send and its receive; global event positions belong to the event-level
view alone, which is built only when read.  Consistency is decided on
the columns: a global checkpoint, one checkpoint per process, is
consistent iff no delivered message is an orphan, sent at or after its
sender's member and received before its receiver's.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import zip_longest

CKPT_INITIAL = "initial"
CKPT_BASIC = "basic"
CKPT_FORCED = "forced"

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


def _record_problems(rec):
    """The problems of one hand-built checkpoint record, one per wrong field."""
    if type(rec) is not CheckpointRecord:
        yield f"checkpoint record {rec!r} is not a CheckpointRecord"
        return
    where = f"checkpoint {rec.label()}"
    if type(rec.process) is not int:
        yield f"{where}: process {rec.process!r} is not an int"
    if type(rec.ordinal) is not int:
        yield f"{where}: ordinal {rec.ordinal!r} is not an int"
    elif rec.kind not in ((CKPT_INITIAL,) if rec.ordinal == 1 else (CKPT_BASIC, CKPT_FORCED)):
        yield f"{where}: kind {rec.kind!r} at ordinal {rec.ordinal}"
    if rec.timestamp is not None and (type(rec.timestamp) is not int or rec.timestamp < 1):
        yield f"{where}: timestamp {rec.timestamp!r} is neither None nor an int >= 1"


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


class Trace:
    """Ordered, immutable-by-convention record of one computation.

    Every trace carries the columns the zigzag oracle reads: ``n``,
    ``event_count``, the checkpoint records by (process, ordinal), the
    per-process checkpoint counts ``ckpt_counts``, and ``delivered``,
    which maps each received message to the integers (sender, send
    interval, receiver, receive interval) of its send and its receive.

    The event-level view (``events``, and ``_msg_pos``, which maps each
    received message to the global positions of its send and its
    receive, the only place message positions live) is a run's replay,
    indexed by one pass that checks nothing: built on first use for a
    trace the simulator writes, and kept by ``Trace(n, events)``.
    """

    _EVENT_VIEW = frozenset(("events", "_msg_pos"))

    def __init__(self, n: int, events: list[Event]):
        """Read ``events`` as a run: its steps must make a ``Scenario``, its
        records pass :func:`_record_problems` and its replay equal
        ``events`` (else ``ValueError``).  An undelivered send goes to any
        other process; a forced checkpoint marks the receive after it."""
        from .simulator import Scenario, Step  # simulator imports this module

        events = list(events)
        receivers = {}
        for ev in events:
            if ev.kind == EV_RECV:
                with suppress(TypeError):  # an unhashable name; its step rejects it
                    receivers[ev.message] = ev.process
        steps, forced, records = [], [], []
        for ev in events:
            p, kind = ev.process, ev.kind
            if kind == EV_SEND:
                q = None
                with suppress(TypeError):
                    q = receivers.get(ev.message)
                if type(q) is not int:  # no usable receiver: any other process stands in
                    q = 2 if p == 1 else 1
                steps.append(Step(kind, p, q, ev.message))
            elif kind != EV_CKPT:
                steps.append(Step(kind, p, message=ev.message))
            else:
                records.append(ev.checkpoint)
                ckpt_kind = getattr(ev.checkpoint, "kind", None)
                if ckpt_kind == CKPT_FORCED:
                    forced.append(len(steps))
                elif ckpt_kind != CKPT_INITIAL:
                    steps.append(Step(kind, p))
        Scenario(n, tuple(steps))
        bad = [text for rec in records for text in _record_problems(rec)]
        if bad:
            raise ValueError("; ".join(bad))
        self.n = n
        self.checkpoints = {rec.key(): rec for rec in records}
        try:
            replay = self._replay(steps, forced)
        except KeyError as missing:
            raise ValueError("no checkpoint record C_%d^%d" % missing.args[0]) from None
        for at, (ev, want) in enumerate(zip_longest(events, replay)):
            if ev != want:
                raise ValueError(f"event #{at} is not the one the run of its steps makes")
        self.events = replay
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
            if kind == EV_CKPT or kind == EV_RECV and idx in forced:
                counts[p] += 1
                ordinals[p] += 1
                events.append(Event(p, ordinals[p], EV_CKPT, None, records[(p, counts[p])]))
            if kind != EV_CKPT:
                ordinals[p] += 1
                events.append(Event(p, ordinals[p], kind, st.message))
        return events

    def _index(self) -> None:
        """Index a replayed list: its event-level view and other columns."""
        n, events = self.n, self.events
        count = [0] * (n + 1)  # per process: the last checkpoint ordinal
        sends = {}  # message -> (process, interval, position) of its send
        delivered = self.delivered = {}
        msg_pos = self._msg_pos = {}
        for pos, ev in enumerate(events):
            p, kind = ev.process, ev.kind
            if kind == EV_CKPT:
                count[p] += 1
            elif kind == EV_SEND:
                sends[ev.message] = (p, count[p], pos)
            else:
                sp, si, s = sends[ev.message]
                delivered[ev.message] = (sp, si, p, count[p])
                msg_pos[ev.message] = (s, pos)
        self.ckpt_counts = {p: count[p] for p in range(1, n + 1)}
        self.event_count = len(events)


def is_consistent_global_checkpoint(records, trace: Trace) -> bool:
    """True iff the given one-checkpoint-per-process set leaves no orphan:
    no delivered message is sent by P_s in interval si >= its member's
    ordinal and received by P_r in interval ri < its member's ordinal.
    Reads the trace's columns, never its event view.  A process or
    ordinal that is not an exact int, a duplicate or missing process, and
    a checkpoint the trace does not hold raise ``ValueError``."""
    member: dict[int, int] = {}
    for rec in records:
        p, x = rec.process, rec.ordinal
        if type(p) is not int or type(x) is not int:
            raise ValueError(f"checkpoint {rec.label()} not in trace")
        if p in member:
            raise ValueError("duplicate process in global checkpoint")
        member[p] = x
    if sorted(member) != list(range(1, trace.n + 1)):
        raise ValueError("need exactly one checkpoint per process")
    for key in member.items():
        if key not in trace.checkpoints:
            raise ValueError("checkpoint C_%d^%d not in trace" % key)
    return not any(si >= member[sp] and ri < member[rp]
                   for sp, si, rp, ri in trace.delivered.values())
