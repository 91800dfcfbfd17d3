"""Passive model of a distributed computation.

Processes are numbered 1..n.  A trace is a globally ordered list of events
(send, receive, checkpoint); the list order is the single source of
determinism and linearly extends both per-process order and
send-before-receive.  Every process begins with its initial checkpoint,
and each message is sent once and received at most once.  Channels are
reliable but not FIFO, and messages may still be in flight when the trace
ends.  A trace is the view of a run, so the scenario checker is the one
validator of computations.  One replay turns a run's steps into its
events, each send carrying its step's destination, and ``Trace(n,
events)`` is its exact inverse: it reads each event back as its step and
raises ``ValueError`` unless their replay gives the list back.

Checkpoints are identified as C_i^x: the x-th checkpoint of process i,
1-based, with ordinal 1 always the initial checkpoint.  An interval I_i^x
is the set of events from C_i^x (inclusive) to C_i^{x+1} (exclusive).
A trace's columns place each delivered message by the intervals of its
send and its receive; the trace keeps no global event position, and the
event-level view is derived only when read.  Consistency is decided on
the columns: a global checkpoint, one checkpoint per process, is
consistent iff no delivered message is an orphan, sent at or after its
sender's member and received before its receiver's.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import zip_longest

CKPT_INITIAL = "initial"
CKPT_BASIC = "basic"
CKPT_FORCED = "forced"

EV_SEND = "send"
EV_RECV = "recv"
EV_CKPT = "ckpt"


class CheckpointRecord(namedtuple("CheckpointRecord", "process ordinal kind timestamp",
                                  defaults=(CKPT_BASIC, None))):
    """Identity and protocol-assigned timestamp of one checkpoint.

    A named tuple with no instance dict, because the simulator builds one
    record per checkpoint and a long trace holds them all."""

    __slots__ = ()

    def key(self) -> tuple[int, int]:
        return (self.process, self.ordinal)

    def label(self) -> str:
        return f"C_{self.process}^{self.ordinal}"


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


class Event(namedtuple("Event", "process ordinal kind message checkpoint dest",
                       defaults=(None, None, None))):
    """One entry of a trace.

    ``ordinal`` is the 1-based position within the owning process's own
    sequence; ``message`` is set for send/recv events, ``checkpoint`` for
    ckpt events and ``dest``, the process a message goes to, for sends.
    """

    __slots__ = ()


class Trace:
    """Ordered, immutable-by-convention record of one computation.

    Every trace carries the columns the zigzag oracle reads: ``n``,
    ``event_count``, the checkpoint records by (process, ordinal), the
    per-process checkpoint counts ``ckpt_counts``, and ``delivered``,
    which maps each received message to the integers (sender, send
    interval, receiver, receive interval) of its send and its receive.

    The event-level view is derived from the run once, when first read:
    ``events`` replays the run's steps and forced list.  A reader that
    wants an event's global position takes its index in ``events``.
    Reading the view leaves the columns as they are.
    """

    def __init__(self, n: int, events: list[Event]):
        """Read ``events`` back as a run's steps: a non-checkpoint event is
        ``Step(kind, process, dest, message)``, a basic checkpoint a
        ``ckpt`` step, and a forced one marks the receive after it.  The
        steps must make a ``Scenario``, the records pass
        :func:`_record_problems` and the replay, whose columns the trace
        takes, equal ``events`` (else ``ValueError``)."""
        from .simulator import Scenario, Step  # simulator imports this module

        events = list(events)
        steps, forced, records = [], [], []
        for ev in events:
            if ev.kind != EV_CKPT:
                steps.append(Step(ev.kind, ev.process, ev.dest, ev.message))
                continue
            records.append(ev.checkpoint)
            ckpt_kind = getattr(ev.checkpoint, "kind", None)
            if ckpt_kind == CKPT_FORCED:
                forced.append(len(steps))
            elif ckpt_kind != CKPT_INITIAL:
                steps.append(Step(EV_CKPT, ev.process))
        Scenario(n, tuple(steps))
        bad = [text for rec in records for text in _record_problems(rec)]
        if bad:
            raise ValueError("; ".join(bad))
        self.n = n
        self.checkpoints = {rec.key(): rec for rec in records}
        try:
            replay, self.delivered, self.ckpt_counts = self._replay(steps, forced)
        except KeyError as missing:
            raise ValueError("no checkpoint record C_%d^%d" % missing.args[0]) from None
        for at, (ev, want) in enumerate(zip_longest(events, replay)):
            if ev != want:
                raise ValueError(f"event #{at} is not the one the run of its steps makes")
        self.events = replay
        self.event_count = len(replay)

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

    @cached_property
    def events(self) -> list[Event]:
        return self._replay(*self._run)[0]

    def _replay(self, steps, forced_steps):
        """One pass over a run: its events, in their global order (each
        process's initial checkpoint, then per step a checkpoint, a
        ``ckpt`` step or the forced one before a receive, and the step's
        send or receive, which carries the step's kind, message and
        ``dest``), and its ``delivered`` and ``ckpt_counts`` columns.  The
        checkpoint events carry the run's records."""
        n, records = self.n, self.checkpoints
        events = [Event(p, 1, EV_CKPT, None, records[(p, 1)]) for p in range(1, n + 1)]
        ordinals = [0] + [1] * n
        counts = [0] + [1] * n
        forced = set(forced_steps)
        sends = {}  # message -> (sender, send interval)
        delivered = {}
        for idx, (kind, p, dest, message) in enumerate(steps):
            if kind == EV_CKPT or kind == EV_RECV and idx in forced:
                counts[p] += 1
                ordinals[p] += 1
                events.append(Event(p, ordinals[p], EV_CKPT, None, records[(p, counts[p])]))
            if kind == EV_SEND:
                sends[message] = (p, counts[p])
            elif kind == EV_RECV:
                delivered[message] = (*sends[message], p, counts[p])
            if kind != EV_CKPT:
                ordinals[p] += 1
                events.append(Event(p, ordinals[p], kind, message, None, dest))
        return events, delivered, {p: counts[p] for p in range(1, n + 1)}


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
