"""Index-based communication-induced checkpointing protocols.

Each protocol is a per-process state machine with three entry points:
taking a checkpoint (returns its timestamp), sending (returns the control
payload to piggyback), and receiving (evaluates the checkpoint-inducing
conditions on the pre-update state, possibly forces a checkpoint, then
applies the update rules and delivers).  It decides timestamps and
forcing only; the run numbers the checkpoints.  As the source paper gives
each protocol, a family states each rule as one method,
``take_checkpoint``, ``on_send`` and ``on_receive`` (BaseProtocol's are
``none``'s), next to the vectors it piggybacks (``payload_fields``).  Its
first and second conditions, ``_c1``/``_c2``, bound to the ``eval_c_*``
predicates below, are its only hooks: the receive rule asks them, so a
protocol that differs from its family in a condition alone, as fine
does, overrides nothing else.  The shared clock discipline: the clock is
incremented before a checkpoint is saved and the checkpoint is stamped
with the new value (the lazy protocols skip the increment unless a
receive asked for it); sends piggyback the clock; receives raise the
clock to the incoming timestamp.

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
receiver's taken entry instead of the witness's; see eval_c_fine1_ri.

State and payload representation: a per-process boolean vector
(``sent_to``, ``greater``, ``taken``, ``equal_incr``) is an int mask,
bit k standing for process k, so a boolean condition is one AND over
masks and the integer ones loop only over the set bits of ``sent_to``,
lowest first, peeling one bit per turn with ``mask & -mask``; an
integer vector (``clockv``, ``ckptv``, ``min_to``) is a 1-based list
(index 0 is an unused placeholder) in the state and a tuple in a
payload, so the update rules read like the protocol definitions and a
payload can never alias the state it was copied from.
``Piggyback.fields()`` renders masks back as lists of bools.

Pre-update state: each family declares once, in ``state_fields`` beside
``payload_fields``, the state a forced checkpoint logs next to ``lc``,
which ``snapshot()`` renders.  A machine keeps no copy of it: a run
replays the state before any step when asked (``AnnotatedTrace.prestate``).
"""

from __future__ import annotations

import math
from collections import namedtuple

INF = math.inf


class ProtocolError(ValueError):
    """Malformed protocol interaction (wrong payload shape, self-send...)."""


_VECTOR_FIELDS = ("clockv", "greater", "equal_incr", "ckptv", "taken")
# The vectors held as int masks, in the state or in a payload.
_MASK_FIELDS = frozenset({"sent_to", "greater", "equal_incr", "taken"})


def _bools(mask: int, n: int) -> list:
    """A mask as the 1-based list of n+1 bools it stands for."""
    return [mask >> k & 1 == 1 for k in range(n + 1)]


class Piggyback:
    """Control payload attached to one application message.

    ``t`` is the sender's clock and ``n`` the process count the payload is
    built for.  Only the vectors of the sending protocol family are given,
    the others stay None: ``greater``, ``equal_incr`` and ``taken`` are int
    masks (bit k for process k), ``clockv`` and ``ckptv`` are stored as
    1-based tuples of n+1 entries.  Every vector is an immutable value, so
    a payload never shares state with its sender.  ``field_set`` has bit j
    set when ``_VECTOR_FIELDS[j]`` is present; with ``n`` it is what a
    receiver checks, in O(1).  The constructor checks a payload built by
    hand: ``t`` and ``n`` are exact ints, ``t`` at least 1 (every clock
    starts at the initial checkpoint's 1), a mask is an exact int >= 0
    with no bit outside 1..n (``fields()`` renders bits 1..n only) and an
    integer vector has n+1 entries, exact ints from index 1 on.  A
    protocol's ``on_send`` builds its payload through ``_sent_payload``,
    without the checks.
    """

    __slots__ = ("t", "n", *_VECTOR_FIELDS, "field_set")

    def __init__(self, t: int, n: int, clockv=None, greater: int | None = None,
                 equal_incr: int | None = None, ckptv=None, taken: int | None = None):
        for name, value in (("t", t), ("n", n)):
            if type(value) is not int:
                raise ProtocolError(f"'{name}' {value!r} is not an int")
        if t < 1:
            raise ProtocolError(f"'t' {t} is below 1, the clock of an initial checkpoint")
        for name, mask in (("greater", greater), ("equal_incr", equal_incr), ("taken", taken)):
            if mask is None:
                continue
            if type(mask) is not int or mask < 0:
                raise ProtocolError(f"'{name}' {mask!r} is not an int mask >= 0")
            if mask & 1 or mask.bit_length() > n + 1:
                raise ProtocolError(f"'{name}' {mask:#b} sets a bit outside 1..{n}")
        if clockv is not None:
            clockv = _checked_vector("clockv", clockv, n)
        if ckptv is not None:
            ckptv = _checked_vector("ckptv", ckptv, n)
        self.t = t
        self.n = n
        self.clockv = clockv
        self.greater = greater
        self.equal_incr = equal_incr
        self.ckptv = ckptv
        self.taken = taken
        self.field_set = (
            (clockv is not None) | (greater is not None) << 1
            | (equal_incr is not None) << 2 | (ckptv is not None) << 3
            | (taken is not None) << 4
        )

    def fields(self) -> dict:
        """Present fields as lists with the index-0 placeholder stripped;
        masks render as bools."""
        out = {"t": self.t}
        if not self.field_set:  # a bare clock, as every `none` payload
            return out
        for name in _VECTOR_FIELDS:
            vec = getattr(self, name)
            if vec is None:
                continue
            out[name] = _bools(vec, self.n)[1:] if name in _MASK_FIELDS else list(vec[1:])
        return out


def _checked_vector(name: str, vec, n: int) -> tuple:
    """A hand-built integer vector as a tuple of n+1 entries, each of
    entries 1..n an exact int; index 0 is the unused placeholder."""
    vec = tuple(vec)
    if len(vec) != n + 1:
        raise ProtocolError(f"'{name}' sized for {len(vec) - 1} processes, expected {n}")
    for k in range(1, n + 1):
        if type(vec[k]) is not int:
            raise ProtocolError(f"'{name}' entry {k}, {vec[k]!r}, is not an int")
    return vec


_new_payload = object.__new__


def _sent_payload(t, n, clockv, greater, equal_incr, ckptv, taken, field_set) -> Piggyback:
    """A Piggyback with every slot given, built without the constructor's
    checks: a sender's ``on_send`` sized the vectors itself (copied into
    tuples) and knows its class's ``_field_set``."""
    pb = _new_payload(Piggyback)
    pb.t = t
    pb.n = n
    pb.clockv = clockv
    pb.greater = greater
    pb.equal_incr = equal_incr
    pb.ckptv = ckptv
    pb.taken = taken
    pb.field_set = field_set
    return pb


class ForcedDecision(namedtuple("ForcedDecision", "forced fired")):
    __slots__ = ()


# The only four decisions a receive can reach, keyed by (C1 fired, C2 fired).
_DECISIONS = {
    (c1, c2): ForcedDecision(
        c1 or c2, frozenset(name for name, hit in (("C1", c1), ("C2", c2)) if hit)
    )
    for c1 in (False, True)
    for c2 in (False, True)
}
# What on_receive returns for a receive that forces nothing: one value.
_NOT_FORCED = (_DECISIONS[False, False], None)


# ---------------------------------------------------------------------------
# Checkpoint-inducing conditions.
#
# Pure predicates over (receiver pre-update state, incoming payload); the
# state only needs the attributes each condition reads, which keeps them
# directly testable on synthetic states.  Boolean vectors are masks.
# ---------------------------------------------------------------------------


def eval_c_pi(state, m: Piggyback) -> bool:
    """Partly-informed condition: the incoming timestamp exceeds the
    timestamp of the first message sent to some k this interval; the k,
    the set bits of ``sent_to``, are walked inline, lowest first."""
    t, min_to, sent = m.t, state.min_to, state.sent_to
    while sent:
        low = sent & -sent
        if t > min_to[low.bit_length() - 1]:
            return True
        sent ^= low
    return False


def eval_c_fi1_clockv(state, m: Piggyback) -> bool:
    """Fully-informed first condition, integer-vector form: partly
    informed, and neither side knows that k's clock already reached m.t.
    Walks the set bits of ``sent_to`` as :func:`eval_c_pi` does."""
    t, min_to, mine, theirs = m.t, state.min_to, state.clockv, m.clockv
    sent = state.sent_to
    while sent:
        low = sent & -sent
        k = low.bit_length() - 1
        if t > min_to[k] and t > mine[k] and t > theirs[k]:
            return True
        sent ^= low
    return False


def eval_c_fi1_greater(state, m: Piggyback) -> bool:
    """Fully-informed first condition, boolean form: the sender's clock
    went past k's clock as far as it knows, and past the receiver's."""
    return m.t > state.lc and state.sent_to & m.greater != 0


def eval_c_fi2(state, m: Piggyback) -> bool:
    """Second condition: the sender's causal past holds a chain that left
    the receiver's current interval and crossed a checkpoint; delivering
    in this interval would close a Z-cycle."""
    i = state.i
    return m.ckptv[i] == state.ckptv[i] and m.taken >> i & 1 == 1


def eval_c_lazyfi1(state, m: Piggyback) -> bool:
    """Lazy first condition: with lazy increments an equal remote clock is
    only safe when that process is known to increment before its next
    checkpoint, so the boolean test flips to equal_incr."""
    return m.t > state.lc and state.sent_to & ~m.equal_incr != 0


def eval_c_fine1(state, m: Piggyback) -> bool:
    """fine's weakening of the fully-informed first condition: the
    published condition box additionally requires the witness entry
    m.taken[k]."""
    return m.t > state.lc and state.sent_to & m.greater & m.taken != 0


def eval_c_fine1_ri(state, m: Piggyback) -> bool:
    """The receiver-index reading of eval_c_fine1 that some descriptions
    use (``fine-ri``): the fully-informed first condition and m.taken[i]."""
    return eval_c_fi1_greater(state, m) and m.taken >> state.i & 1 == 1


def eval_c_lazyfine1(state, m: Piggyback) -> bool:
    """lazy-fine's weakening of the lazy first condition by the witness
    entry m.taken[k]."""
    return m.t > state.lc and state.sent_to & ~m.equal_incr & m.taken != 0


def eval_c_lazyfine1_ri(state, m: Piggyback) -> bool:
    """The receiver-index reading of eval_c_lazyfine1 (``lazy-fine-ri``)."""
    return eval_c_lazyfi1(state, m) and m.taken >> state.i & 1 == 1


# ---------------------------------------------------------------------------
# Protocol state machines.
# ---------------------------------------------------------------------------


class BaseProtocol:
    """The lifecycle every protocol shares; a family declares:

    * ``on_send(dest)``, its send rule: check ``dest``, do the send
      bookkeeping, return the payload that ``_sent_payload`` builds;
    * ``on_receive(m)``, its receive rule: check the payload's shape, ask
      ``_c1(m)`` and ``_c2(m)`` on the pre-update state, force through
      ``take_checkpoint()`` if either fired, then apply its clock rule and
      vector merges in place;
    * ``take_checkpoint``: it resets the per-interval structures, applies
      the clock rule (one increment here), updates what depends on the new
      timestamp and returns that timestamp;
    * ``payload_fields``, the vectors it piggybacks, ``state_fields``, the
      state ``snapshot()`` renders next to ``lc``, and ``_init_structures``
      for the state that the initial checkpoint does not set.

    The conditions ``_c1``/``_c2``, ``eval_c_*`` predicates bound as
    methods (default: never fires), are the only hooks.  The rules here
    are ``none``'s.  Construction runs ``_init_structures`` and the
    initial checkpoint.
    """

    name = "?"
    payload_fields: tuple[str, ...] = ()
    state_fields: tuple[str, ...] = ()
    _field_set = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_set = sum(
            1 << j for j, f in enumerate(_VECTOR_FIELDS) if f in cls.payload_fields
        )

    def __init__(self, n: int, i: int):
        for arg, value in (("n", n), ("i", i)):
            if type(value) is not int:
                raise ProtocolError(f"'{arg}' {value!r} is not an int")
        if not 1 <= i <= n:
            raise ProtocolError(f"process {i} out of range 1..{n}")
        self.n = n
        self.i = i
        self.lc = 0
        self._init_structures()
        self.take_checkpoint()

    def _init_structures(self) -> None:
        pass

    def _c1(self, m: Piggyback) -> bool:
        return False

    _c2 = _c1

    def take_checkpoint(self) -> int:
        self.lc += 1
        return self.lc

    def on_send(self, dest: int) -> Piggyback:
        """The payload for a message to ``dest``; ProtocolError unless
        ``dest`` is an exact int naming another process."""
        if type(dest) is not int or dest == self.i or not 1 <= dest <= self.n:
            raise ProtocolError(self._dest_problem(dest))
        return _sent_payload(self.lc, self.n, None, None, None, None, None, 0)

    def on_receive(self, m: Piggyback):
        """Returns (decision, the forced checkpoint's timestamp or None);
        ProtocolError unless ``m`` is a Piggyback of this family's shape."""
        if type(m) is not Piggyback or m.n != self.n or m.field_set != self._field_set:
            raise ProtocolError(self._payload_problem(m))
        c1 = self._c1(m)
        c2 = self._c2(m)
        out = _NOT_FORCED
        if c1 or c2:
            out = _DECISIONS[c1, c2], self.take_checkpoint()
        if m.t > self.lc:
            self.lc = m.t
        return out

    # helpers ------------------------------------------------------------

    def _dest_problem(self, dest) -> str:
        if type(dest) is not int:
            return f"destination {dest!r} is not an int"
        if dest == self.i:
            return f"P{self.i} cannot send to itself"
        return f"destination {dest} out of range 1..{self.n}"

    def _payload_problem(self, m) -> str:
        if type(m) is not Piggyback:
            return f"{self.name}: payload {m!r} is not a Piggyback"
        for f in _VECTOR_FIELDS:
            if f in self.payload_fields and getattr(m, f) is None:
                return f"{self.name}: payload missing '{f}'"
            if f not in self.payload_fields and getattr(m, f) is not None:
                return f"{self.name}: unexpected payload field '{f}'"
        return f"{self.name}: payload built for {m.n} processes, expected {self.n}"

    def snapshot(self) -> dict:
        """The state as logged: protocol, n, i, lc and ``state_fields``,
        masks as 1-based lists of bools and lists copied."""
        n = self.n
        out = {"protocol": self.name, "n": n, "i": self.i, "lc": self.lc}
        for f in self.state_fields:
            val = getattr(self, f)
            if f in _MASK_FIELDS:
                val = _bools(val, n)
            elif type(val) is list:
                val = val[:]
            out[f] = val
        return out


class NoneProtocol(BaseProtocol):
    """Bare clock rules with no forced checkpoints; replays raw patterns."""

    name = "none"


class PartlyInformed(BaseProtocol):
    """BaseProtocol's receive rule behind the partly-informed condition."""

    name = "pi"
    state_fields = ("sent_to", "min_to")
    _c1 = eval_c_pi

    def take_checkpoint(self):
        self.sent_to = 0
        self.min_to = [INF] * (self.n + 1)
        return super().take_checkpoint()

    def on_send(self, dest):
        if type(dest) is not int or dest == self.i or not 1 <= dest <= self.n:
            raise ProtocolError(self._dest_problem(dest))
        self.sent_to |= 1 << dest
        # Only the first send of the interval matters; keeping the minimum
        # makes repeated sends harmless.
        if self.lc < self.min_to[dest]:
            self.min_to[dest] = self.lc
        return _sent_payload(self.lc, self.n, None, None, None, None, None, 0)


class _FIFamily(BaseProtocol):
    """Shared ckptv/taken bookkeeping and second condition of the
    fully-informed protocols.  A family's take_checkpoint applies its own
    resets and clock rule, then ``_saved`` does what every checkpoint
    shares: it clears ``sent_to``, marks every other process as having
    taken a checkpoint, counts itself in ``ckptv`` and returns ``lc``.
    The receive rules of GreaterFI and LazyFI end with
    ``_merge_ckpt_knowledge``; ClockvFI's folds it into its own pass."""

    _c2 = eval_c_fi2

    def _init_structures(self):
        n, i = self.n, self.i
        self._peers = tuple((k, 1 << k) for k in range(1, n + 1) if k != i)
        self._others = ((1 << (n + 1)) - 2) ^ (1 << i)  # every process but i
        self.ckptv = [0] * (n + 1)
        self.taken = 0

    def _saved(self):
        self.sent_to = 0
        self.taken |= self._others
        self.ckptv[self.i] += 1
        return self.lc

    def _merge_ckpt_knowledge(self, m):
        """Per k != i: a larger ckptv entry wins with its taken bit, an
        equal one ORs the taken bits."""
        mine, theirs = self.ckptv, m.ckptv
        raised = same = 0
        for k, bit in self._peers:
            got, had = theirs[k], mine[k]
            if got > had:
                mine[k] = got
                raised |= bit
            elif got == had:
                same |= bit
        self.taken = self.taken & ~raised | m.taken & (raised | same)


class ClockvFI(_FIFamily):
    name = "fi-clockv"
    payload_fields = ("clockv", "ckptv", "taken")
    state_fields = ("sent_to", "min_to", "clockv", "ckptv", "taken")
    _c1 = eval_c_fi1_clockv

    def _init_structures(self):
        super()._init_structures()
        self.clockv = [0] * (self.n + 1)

    def take_checkpoint(self):
        self.min_to = [INF] * (self.n + 1)
        self.lc += 1
        self.clockv[self.i] = self.lc
        return self._saved()

    def on_send(self, dest):
        if type(dest) is not int or dest == self.i or not 1 <= dest <= self.n:
            raise ProtocolError(self._dest_problem(dest))
        self.sent_to |= 1 << dest
        if self.lc < self.min_to[dest]:  # as PartlyInformed
            self.min_to[dest] = self.lc
        return _sent_payload(self.lc, self.n, tuple(self.clockv), None, None,
                             tuple(self.ckptv), self.taken, self._field_set)

    def on_receive(self, m):
        if type(m) is not Piggyback or m.n != self.n or m.field_set != self._field_set:
            raise ProtocolError(self._payload_problem(m))
        c1 = self._c1(m)
        c2 = self._c2(m)
        out = _NOT_FORCED
        if c1 or c2:
            out = _DECISIONS[c1, c2], self.take_checkpoint()
        clockv, ckptv = self.clockv, self.ckptv
        if m.t > self.lc:
            self.lc = clockv[self.i] = m.t
        # The clock-vector max and _merge_ckpt_knowledge's rule in one pass
        # over the peers, since this family's receive is the slowest.
        their_clock, their_ckpt = m.clockv, m.ckptv
        raised = same = 0
        for k, bit in self._peers:
            if their_clock[k] > clockv[k]:
                clockv[k] = their_clock[k]
            got, had = their_ckpt[k], ckptv[k]
            if got > had:
                ckptv[k] = got
                raised |= bit
            elif got == had:
                same |= bit
        self.taken = self.taken & ~raised | m.taken & (raised | same)
        return out


class GreaterFI(_FIFamily):
    name = "fi-greater"
    payload_fields = ("greater", "ckptv", "taken")
    state_fields = ("sent_to", "greater", "ckptv", "taken")
    _c1 = eval_c_fi1_greater

    def take_checkpoint(self):
        self.greater = self._others
        self.lc += 1
        return self._saved()

    def on_send(self, dest):
        if type(dest) is not int or dest == self.i or not 1 <= dest <= self.n:
            raise ProtocolError(self._dest_problem(dest))
        self.sent_to |= 1 << dest
        return _sent_payload(self.lc, self.n, None, self.greater, None,
                             tuple(self.ckptv), self.taken, self._field_set)

    def on_receive(self, m):
        if type(m) is not Piggyback or m.n != self.n or m.field_set != self._field_set:
            raise ProtocolError(self._payload_problem(m))
        c1 = self._c1(m)
        c2 = self._c2(m)
        out = _NOT_FORCED
        if c1 or c2:
            out = _DECISIONS[c1, c2], self.take_checkpoint()
        # The own entry is never set, so it stays False in both branches.
        if m.t > self.lc:
            self.lc = m.t
            self.greater = m.greater & self._others
        elif m.t == self.lc:
            self.greater &= m.greater
        self._merge_ckpt_knowledge(m)
        return out


class LazyFI(_FIFamily):
    name = "lazy-fi"
    payload_fields = ("equal_incr", "ckptv", "taken")
    state_fields = ("sent_to", "equal_incr", "ckptv", "taken", "increment")
    _c1 = eval_c_lazyfi1

    def _init_structures(self):
        super()._init_structures()
        self.increment = True

    def take_checkpoint(self):
        # Lazy clock rule: the increment only happens when flagged, so a
        # checkpoint may reuse its predecessor's timestamp.
        if self.increment:
            self.lc += 1
            self.equal_incr = 0
        self.increment = False
        return self._saved()

    def on_send(self, dest):
        if type(dest) is not int or dest == self.i or not 1 <= dest <= self.n:
            raise ProtocolError(self._dest_problem(dest))
        self.sent_to |= 1 << dest
        return _sent_payload(self.lc, self.n, None, None, self.equal_incr,
                             tuple(self.ckptv), self.taken, self._field_set)

    def on_receive(self, m):
        if type(m) is not Piggyback or m.n != self.n or m.field_set != self._field_set:
            raise ProtocolError(self._payload_problem(m))
        c1 = self._c1(m)
        c2 = self._c2(m)
        out = _NOT_FORCED
        if c1 or c2:
            out = _DECISIONS[c1, c2], self.take_checkpoint()
        own = 1 << self.i
        if m.t > self.lc:
            self.lc = m.t
            self.increment = True
            self.equal_incr = own | m.equal_incr & self._others
        elif m.t == self.lc:
            self.increment = True
            self.equal_incr |= own | m.equal_incr & (self._others | own)
        self._merge_ckpt_knowledge(m)
        return out


class Fine(GreaterFI):
    name = "fine"
    _c1 = eval_c_fine1


class FineRI(Fine):
    name = "fine-ri"
    _c1 = eval_c_fine1_ri


class LazyFine(LazyFI):
    name = "lazy-fine"
    _c1 = eval_c_lazyfine1


class LazyFineRI(LazyFine):
    name = "lazy-fine-ri"
    _c1 = eval_c_lazyfine1_ri


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
    """Fresh per-process protocol instance, initial checkpoint taken;
    ProtocolError unless ``n`` and ``i`` are exact ints with ``1 <= i <= n``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; known: {', '.join(PROTOCOL_NAMES)}"
        ) from None
    return cls(n, i)
