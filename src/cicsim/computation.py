"""Passive model of a distributed computation.

Processes are numbered 1..n.  A trace is a globally ordered list of events
(internal, send, receive, checkpoint); the list order is the single source
of determinism and must linearly extend both per-process order and
send-before-receive.  Channels are reliable but not FIFO, and messages may
still be in flight when the trace ends.

Checkpoints are identified as C_i^x: the x-th checkpoint of process i,
1-based, with ordinal 1 always the initial checkpoint.  An interval I_i^x
is the set of events from C_i^x (inclusive) to C_i^{x+1} (exclusive).
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


@dataclass(frozen=True)
class CheckpointRecord:
    """Identity and protocol-assigned timestamp of one checkpoint."""

    process: int
    ordinal: int
    kind: str = CKPT_BASIC
    timestamp: int | None = None

    def key(self) -> tuple[int, int]:
        return (self.process, self.ordinal)

    def label(self) -> str:
        return f"C_{self.process}^{self.ordinal}"


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


class Trace:
    """Ordered, immutable-by-convention record of one computation.

    Every trace carries the columns the zigzag oracle reads: ``n``,
    ``event_count``, the checkpoint records by (process, ordinal), the
    per-process checkpoint counts ``ckpt_counts``, and ``delivered``,
    which maps each message with both endpoints to the integers
    (sender, send interval, send position, receiver, receive interval,
    receive position) of its first send and first receive.

    The event-level view (``events`` and the positional index
    ``message_sends``/``message_recvs``, ``_pos``, ``_ckpt_pos``,
    ``_interval``) is built at construction for a hand-built
    ``Trace(n, events)``, in the same pass that derives the columns.  A
    trace the simulator writes holds the columns and a tuple log instead,
    and builds the event-level view from the log on its first use.

    Construction is tolerant of invariant violations so that
    :func:`validate_trace` can report them as data; the derived indexes
    are only meaningful on valid traces.
    """

    _EVENT_VIEW = frozenset(
        ("events", "message_sends", "message_recvs", "_pos", "_ckpt_pos", "_interval")
    )

    def __init__(self, n: int, events: list[Event]):
        self.n = n
        self.events = list(events)
        self._index()

    @classmethod
    def _from_log(cls, n, log, checkpoints, ckpt_counts, delivered) -> "Trace":
        """A trace from columns written while the computation ran; ``log``
        holds one (process, ordinal, kind, message, checkpoint) tuple per
        event, the fields of its :class:`Event`."""
        trace = cls.__new__(cls)
        trace.n = n
        trace._log = log
        trace.event_count = len(log)
        trace.checkpoints = checkpoints
        trace.ckpt_counts = ckpt_counts
        trace.delivered = delivered
        trace._vclock = None
        return trace

    def __getattr__(self, name):
        # Reached only for attributes not yet set: the event-level view of
        # a trace built from a log.
        log = self.__dict__.get("_log")
        if log is None or name not in self._EVENT_VIEW:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.events = [Event(*entry) for entry in log]
        del self._log
        self._index()
        return getattr(self, name)

    def _index(self) -> None:
        self._pos = {}  # (process, ordinal) -> global position
        self.message_sends: dict[str, list[int]] = {}
        self.message_recvs: dict[str, list[int]] = {}
        self.checkpoints: dict[tuple[int, int], CheckpointRecord] = {}
        self._ckpt_pos: dict[tuple[int, int], int] = {}
        self._interval = [0] * len(self.events)
        ckpt_count = {p: 0 for p in range(1, self.n + 1)}
        for pos, ev in enumerate(self.events):
            self._pos.setdefault((ev.process, ev.ordinal), pos)
            if ev.kind == EV_SEND:
                self.message_sends.setdefault(ev.message, []).append(pos)
            elif ev.kind == EV_RECV:
                self.message_recvs.setdefault(ev.message, []).append(pos)
            elif ev.kind == EV_CKPT and ev.checkpoint is not None:
                if ev.process in ckpt_count:
                    ckpt_count[ev.process] += 1
                self.checkpoints.setdefault(ev.checkpoint.key(), ev.checkpoint)
                self._ckpt_pos.setdefault(ev.checkpoint.key(), pos)
            if ev.process in ckpt_count:
                self._interval[pos] = max(ckpt_count[ev.process], 1)
        self.ckpt_counts = ckpt_count
        self.event_count = len(self.events)
        self.delivered = {}
        for name, sends in self.message_sends.items():
            recvs = self.message_recvs.get(name)
            if recvs:
                s, r = sends[0], recvs[0]
                self.delivered[name] = (
                    self.events[s].process, self._interval[s], s,
                    self.events[r].process, self._interval[r], r,
                )
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
                sends = self.message_sends.get(ev.message, [])
                if sends and sends[0] < pos:
                    other = vc[sends[0]]
                    cur = [max(a, b) for a, b in zip(cur, other)]
            if ev.process <= self.n:
                cur[ev.process] = ev.ordinal
            vc.append(cur)
            last_of[ev.process] = pos
        self._vclock = vc
        return vc


def validate_trace(trace: Trace) -> list[str]:
    """Check every trace invariant; returns one message per violation.

    Violations are data, not failures: an empty list means the trace is
    well formed.
    """
    bad = []
    if trace.n < 2:
        bad.append(f"process count {trace.n} < 2")
    seen_ord: dict[int, int] = {}
    ckpt_ord: dict[int, int] = {}
    for pos, ev in enumerate(trace.events):
        tag = f"event #{pos} ({ev.kind} by P{ev.process})"
        if not 1 <= ev.process <= trace.n:
            bad.append(f"{tag}: process out of range 1..{trace.n}")
            continue
        expected = seen_ord.get(ev.process, 0) + 1
        if ev.ordinal != expected:
            bad.append(f"{tag}: ordinal {ev.ordinal}, expected {expected}")
        seen_ord[ev.process] = ev.ordinal
        if ev.kind in (EV_SEND, EV_RECV) and not ev.message:
            bad.append(f"{tag}: missing message name")
        if ev.kind == EV_CKPT:
            rec = ev.checkpoint
            if rec is None:
                bad.append(f"{tag}: checkpoint event without record")
                continue
            if rec.process != ev.process:
                bad.append(f"{tag}: record process {rec.process} mismatch")
            x = ckpt_ord.get(ev.process, 0) + 1
            if rec.ordinal != x:
                bad.append(f"{tag}: checkpoint ordinal {rec.ordinal}, expected {x}")
            ckpt_ord[ev.process] = rec.ordinal
            if x == 1 and rec.kind != CKPT_INITIAL:
                bad.append(f"{tag}: first checkpoint must be kind 'initial'")
            if x > 1 and rec.kind == CKPT_INITIAL:
                bad.append(f"{tag}: duplicate initial checkpoint")
            if rec.kind == CKPT_VIRTUAL:
                bad.append(f"{tag}: virtual-terminal checkpoints may not appear in traces")
            if rec.timestamp is not None and rec.timestamp < 1:
                bad.append(f"{tag}: timestamp {rec.timestamp} < 1")
    for name, sends in trace.message_sends.items():
        if len(sends) > 1:
            bad.append(f"message {name}: sent {len(sends)} times")
    for name, recvs in trace.message_recvs.items():
        sends = trace.message_sends.get(name, [])
        if not sends:
            bad.append(f"message {name}: received but never sent")
            continue
        if len(recvs) > 1:
            bad.append(f"message {name}: received {len(recvs)} times")
        if recvs and sends and recvs[0] < sends[0]:
            bad.append(f"message {name}: receive precedes its send in the global order")
    return bad


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
