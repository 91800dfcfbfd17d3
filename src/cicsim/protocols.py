"""Index-based communication-induced checkpointing protocols.

Each protocol is a per-process state machine on one skeleton,
BaseProtocol: taking a checkpoint, sending (returns the control payload to
piggyback), and receiving (evaluates the checkpoint-inducing conditions on
the pre-update state, possibly forces a checkpoint, then applies the update
rules and delivers).  A protocol is only what it plugs into that
skeleton: its first and second conditions (``_c1``/``_c2``, bound to the
``eval_c_*`` predicates below), the vectors it piggybacks
(``payload_fields``), its update rules (``_update``), and the checkpoint
hooks ``_at_checkpoint``, ``_advance_clock`` and ``_after_save``.  The
shared clock discipline: the clock is incremented before a checkpoint is
saved and the checkpoint is stamped with the new value (the lazy
protocols skip the increment unless a receive asked for it); sends
piggyback the clock; receives raise the clock to the incoming timestamp.

Implemented protocols:

* ``none``        bare clock rules, never forces; useful as a baseline.
* ``pi``          partly informed: forces when an incoming timestamp
                  exceeds the timestamp of the first message sent to some
                  process in the current interval.
* ``fi-clockv``   fully informed, integer-vector encoding of remote
                  clock knowledge.
* ``fi-greater``  fully informed, boolean-vector encoding (``fi`` is an
                  alias); forces at exactly the same receives as
                  ``fi-clockv``.
* ``lazy-fi``     fully informed with lazy clock increments: a basic
                  checkpoint may reuse its predecessor's timestamp unless
                  a message with an equal-or-greater timestamp arrived in
                  the interval.
* ``fine``        fi-greater with the first condition weakened by a
                  known-checkpoint (taken) test.  Does not prevent all
                  useless checkpoints; kept to reproduce its failures.
* ``lazy-fine``   the lazy counterpart of fine; same caveat.

``fine-ri``/``lazy-fine-ri`` are experimental variants that test the
receiver's taken entry instead of the witness's; see eval_c_fine1.

All vectors are 1-based (index 0 is an unused placeholder) so the update
rules read like the protocol definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .computation import CKPT_BASIC, CKPT_FORCED, CKPT_INITIAL, CheckpointRecord

INF = math.inf


class ProtocolError(ValueError):
    """Malformed protocol interaction (wrong vector sizes, self-send...)."""


_VECTOR_FIELDS = ("clockv", "greater", "equal_incr", "ckptv", "taken")


@dataclass
class Piggyback:
    """Control payload attached to one application message.

    Only the fields of the owning protocol family are populated;
    vectors are 1-based lists of length n+1.
    """

    t: int
    clockv: list | None = None
    greater: list | None = None
    equal_incr: list | None = None
    ckptv: list | None = None
    taken: list | None = None

    def fields(self) -> dict:
        """Present fields with the index-0 placeholder stripped."""
        out = {"t": self.t}
        for name in _VECTOR_FIELDS:
            vec = getattr(self, name)
            if vec is not None:
                out[name] = list(vec[1:])
        return out


@dataclass(frozen=True)
class ForcedDecision:
    forced: bool
    fired: frozenset


# The decision of every receive at which no condition fires.
_NOT_FORCED = ForcedDecision(False, frozenset())


# ---------------------------------------------------------------------------
# Checkpoint-inducing conditions.
#
# Pure predicates over (receiver pre-update state, incoming payload); the
# state only needs the attributes each condition reads, which keeps them
# directly testable on synthetic states.
# ---------------------------------------------------------------------------


def _procs(state):
    return range(1, state.n + 1)


def eval_c_pi(state, m: Piggyback) -> bool:
    """Partly-informed condition: the incoming timestamp exceeds the
    timestamp of the first message sent to some k this interval."""
    return any(
        state.sent_to[k] and m.t > state.min_to[k] for k in _procs(state)
    )


def eval_c_fi1_clockv(state, m: Piggyback) -> bool:
    """Fully-informed first condition, integer-vector form: partly
    informed, and neither side knows that k's clock already reached m.t."""
    return any(
        state.sent_to[k]
        and m.t > state.min_to[k]
        and m.t > max(state.clockv[k], m.clockv[k])
        for k in _procs(state)
    )


def eval_c_fi1_greater(state, m: Piggyback) -> bool:
    """Fully-informed first condition, boolean form: the sender's clock
    went past k's clock as far as it knows, and past the receiver's."""
    return any(
        state.sent_to[k] and m.greater[k] and m.t > state.lc for k in _procs(state)
    )


def eval_c_fi2(state, m: Piggyback) -> bool:
    """Second condition: the sender's causal past holds a chain that left
    the receiver's current interval and crossed a checkpoint; delivering
    in this interval would close a Z-cycle."""
    i = state.i
    return m.ckptv[i] == state.ckptv[i] and m.taken[i]


def eval_c_lazyfi1(state, m: Piggyback) -> bool:
    """Lazy first condition: with lazy increments an equal remote clock is
    only safe when that process is known to increment before its next
    checkpoint, so the boolean test flips to equal_incr."""
    return any(
        state.sent_to[k] and not m.equal_incr[k] and m.t > state.lc
        for k in _procs(state)
    )


def eval_c_fine1(state, m: Piggyback, taken_index: str = "witness") -> bool:
    """fine's weakening of the fully-informed first condition.

    ``witness`` (the published condition box) additionally requires the
    witness entry m.taken[k]; ``ri`` is the receiver-index reading
    (m.taken[i]) that some descriptions use.  Both are implemented so the
    discrepancy can be explored; ``witness`` is the protocol default.
    """
    if taken_index == "ri":
        return eval_c_fi1_greater(state, m) and m.taken[state.i]
    return any(
        state.sent_to[k] and m.greater[k] and m.t > state.lc and m.taken[k]
        for k in _procs(state)
    )


def eval_c_lazyfine1(state, m: Piggyback, taken_index: str = "witness") -> bool:
    """lazy-fine's weakening of the lazy first condition; same
    taken-index variants as eval_c_fine1."""
    if taken_index == "ri":
        return eval_c_lazyfi1(state, m) and m.taken[state.i]
    return any(
        state.sent_to[k] and not m.equal_incr[k] and m.t > state.lc and m.taken[k]
        for k in _procs(state)
    )


# ---------------------------------------------------------------------------
# Protocol state machines.
# ---------------------------------------------------------------------------


class BaseProtocol:
    """The lifecycle every protocol shares; a subclass declares only:

    * ``_c1``/``_c2``: the first and second checkpoint-inducing conditions,
      an ``eval_c_*`` predicate bound as a method (default: never fires);
    * ``payload_fields``: the state vectors that ``on_send`` copies into
      the Piggyback next to the clock;
    * ``_update``: the update rules applied after the conditions;
    * ``_init_structures`` for the vectors no checkpoint hook resets, and
      ``_mark_send`` for the send bookkeeping;
    * the checkpoint hooks, in the order take_checkpoint runs them:
      ``_at_checkpoint`` resets per-interval structures, ``_advance_clock``
      applies the clock rule (one increment by default), and
      ``_after_save`` updates what depends on the new timestamp.

    Construction runs ``_init_structures`` and takes the initial checkpoint
    (ordinal 1, timestamp 1), retrievable as initial_record.
    """

    name = "?"
    payload_fields: tuple[str, ...] = ()

    def __init__(self, n: int, i: int):
        if not 1 <= i <= n:
            raise ProtocolError(f"process {i} out of range 1..{n}")
        self.n = n
        self.i = i
        self.lc = 0
        self.ckpt_count = 0
        self._init_structures()
        self.initial_record = self.take_checkpoint(CKPT_INITIAL)

    # subclass hooks -----------------------------------------------------

    def _init_structures(self) -> None:
        pass

    def _c1(self, m: Piggyback) -> bool:
        return False

    _c2 = _c1

    def _update(self, m: Piggyback) -> None:
        self.lc = max(self.lc, m.t)

    def _mark_send(self, dest: int) -> None:
        pass

    def _at_checkpoint(self) -> None:
        pass

    def _advance_clock(self) -> None:
        self.lc += 1

    def _after_save(self) -> None:
        pass

    # lifecycle ----------------------------------------------------------

    def take_checkpoint(self, kind: str = CKPT_BASIC) -> CheckpointRecord:
        self._at_checkpoint()
        self._advance_clock()
        self.ckpt_count += 1
        self._after_save()
        return CheckpointRecord(self.i, self.ckpt_count, kind, self.lc)

    def on_send(self, dest: int) -> Piggyback:
        if dest == self.i:
            raise ProtocolError(f"P{self.i} cannot send to itself")
        if not 1 <= dest <= self.n:
            raise ProtocolError(f"destination {dest} out of range 1..{self.n}")
        self._mark_send(dest)
        return Piggyback(
            t=self.lc, **{f: list(getattr(self, f)) for f in self.payload_fields}
        )

    def on_receive(self, m: Piggyback):
        """Returns (decision, forced checkpoint record or None, pre-update
        state snapshot when a checkpoint was forced)."""
        self._check_payload(m)
        c1 = self._c1(m)
        c2 = self._c2(m)
        if not (c1 or c2):
            self._update(m)
            return _NOT_FORCED, None, None
        fired = frozenset(name for name, hit in (("C1", c1), ("C2", c2)) if hit)
        snapshot = self.snapshot()
        record = self.take_checkpoint(CKPT_FORCED)
        self._update(m)
        return ForcedDecision(True, fired), record, snapshot

    # helpers ------------------------------------------------------------

    def _check_payload(self, m: Piggyback) -> None:
        want = set(self.payload_fields)
        for f in _VECTOR_FIELDS:
            vec = getattr(m, f)
            if f in want:
                if vec is None:
                    raise ProtocolError(f"{self.name}: payload missing '{f}'")
                if len(vec) != self.n + 1:
                    raise ProtocolError(
                        f"{self.name}: '{f}' sized for {len(vec) - 1} processes, "
                        f"expected {self.n}"
                    )
            elif vec is not None:
                raise ProtocolError(f"{self.name}: unexpected payload field '{f}'")

    def snapshot(self) -> dict:
        out = {"protocol": self.name, "n": self.n, "i": self.i, "lc": self.lc}
        for f in ("sent_to", "min_to", "clockv", "greater", "equal_incr",
                  "ckptv", "taken", "increment"):
            if hasattr(self, f):
                val = getattr(self, f)
                out[f] = list(val) if isinstance(val, list) else val
        return out


class NoneProtocol(BaseProtocol):
    """Bare clock rules with no forced checkpoints; replays raw patterns."""

    name = "none"


class PartlyInformed(BaseProtocol):
    name = "pi"
    _c1 = eval_c_pi

    def _at_checkpoint(self):
        self.sent_to = [False] * (self.n + 1)
        self.min_to = [INF] * (self.n + 1)

    def _mark_send(self, dest):
        self.sent_to[dest] = True
        # Only the first send of the interval matters; min-merge makes
        # repeated sends harmless.
        self.min_to[dest] = min(self.min_to[dest], self.lc)


class _FIFamily(BaseProtocol):
    """Shared ckptv/taken bookkeeping and second condition of the
    fully-informed protocols."""

    _c2 = eval_c_fi2

    def _init_structures(self):
        self.ckptv = [0] * (self.n + 1)
        self.taken = [False] * (self.n + 1)

    def _at_checkpoint(self):
        self.sent_to = [False] * (self.n + 1)
        for k in _procs(self):
            if k != self.i:
                self.taken[k] = True

    def _after_save(self):
        self.ckptv[self.i] += 1

    def _mark_send(self, dest):
        self.sent_to[dest] = True

    def _merge_ckpt_knowledge(self, m):
        for k in _procs(self):
            if k == self.i:
                continue
            if m.ckptv[k] > self.ckptv[k]:
                self.ckptv[k] = m.ckptv[k]
                self.taken[k] = m.taken[k]
            elif m.ckptv[k] == self.ckptv[k]:
                self.taken[k] = self.taken[k] or m.taken[k]


class ClockvFI(_FIFamily):
    name = "fi-clockv"
    payload_fields = ("clockv", "ckptv", "taken")
    _c1 = eval_c_fi1_clockv

    def _init_structures(self):
        super()._init_structures()
        self.clockv = [0] * (self.n + 1)

    def _at_checkpoint(self):
        super()._at_checkpoint()
        self.min_to = [INF] * (self.n + 1)

    def _after_save(self):
        super()._after_save()
        self.clockv[self.i] = self.lc

    def _mark_send(self, dest):
        super()._mark_send(dest)
        self.min_to[dest] = min(self.min_to[dest], self.lc)

    def _update(self, m):
        if m.t > self.lc:
            self.lc = m.t
            self.clockv[self.i] = self.lc
        for k in _procs(self):
            if k != self.i and m.clockv[k] > self.clockv[k]:
                self.clockv[k] = m.clockv[k]
        self._merge_ckpt_knowledge(m)


class GreaterFI(_FIFamily):
    name = "fi-greater"
    payload_fields = ("greater", "ckptv", "taken")
    _c1 = eval_c_fi1_greater

    def _init_structures(self):
        super()._init_structures()
        self.greater = [False] * (self.n + 1)

    def _at_checkpoint(self):
        super()._at_checkpoint()
        for k in _procs(self):
            if k != self.i:
                self.greater[k] = True

    def _update(self, m):
        if m.t > self.lc:
            self.lc = m.t
            for k in _procs(self):
                if k != self.i:
                    self.greater[k] = m.greater[k]
        elif m.t == self.lc:
            for k in _procs(self):
                if k != self.i:
                    self.greater[k] = self.greater[k] and m.greater[k]
        self._merge_ckpt_knowledge(m)


class LazyFI(_FIFamily):
    name = "lazy-fi"
    payload_fields = ("equal_incr", "ckptv", "taken")
    _c1 = eval_c_lazyfi1

    def _init_structures(self):
        super()._init_structures()
        self.equal_incr = [False] * (self.n + 1)
        self.increment = True

    def _advance_clock(self):
        # Lazy clock rule: the increment only happens when flagged, so a
        # checkpoint may reuse its predecessor's timestamp.
        if self.increment:
            self.lc += 1
            self.equal_incr = [False] * (self.n + 1)
        self.increment = False

    def _update(self, m):
        if m.t > self.lc:
            self.lc = m.t
            self.increment = True
            self.equal_incr[self.i] = True
            for k in _procs(self):
                if k != self.i:
                    self.equal_incr[k] = m.equal_incr[k]
        elif m.t == self.lc:
            self.increment = True
            self.equal_incr[self.i] = True
            for k in _procs(self):
                self.equal_incr[k] = self.equal_incr[k] or m.equal_incr[k]
        self._merge_ckpt_knowledge(m)


class Fine(GreaterFI):
    name = "fine"
    taken_index = "witness"

    def _c1(self, m):
        return eval_c_fine1(self, m, self.taken_index)


class FineRI(Fine):
    name = "fine-ri"
    taken_index = "ri"


class LazyFine(LazyFI):
    name = "lazy-fine"
    taken_index = "witness"

    def _c1(self, m):
        return eval_c_lazyfine1(self, m, self.taken_index)


class LazyFineRI(LazyFine):
    name = "lazy-fine-ri"
    taken_index = "ri"


_REGISTRY = {
    "none": NoneProtocol,
    "pi": PartlyInformed,
    "fi": GreaterFI,
    "fi-greater": GreaterFI,
    "fi-clockv": ClockvFI,
    "lazy-fi": LazyFI,
    "fine": Fine,
    "fine-ri": FineRI,
    "lazy-fine": LazyFine,
    "lazy-fine-ri": LazyFineRI,
}

PROTOCOL_NAMES = tuple(_REGISTRY)


def make_protocol(name: str, n: int, i: int) -> BaseProtocol:
    """Fresh per-process protocol instance, initial checkpoint taken."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; known: {', '.join(PROTOCOL_NAMES)}"
        ) from None
    return cls(n, i)
