"""List-form reference of the checkpoint-inducing conditions.

cicsim holds every boolean vector as an int mask (bit k for process k).
These are the same conditions written over 1-based lists (index 0 is an
unused placeholder) as ``any()`` loops, the form of the protocol
definitions.  Tests draw list-form states and payloads, convert them with
``masked_state``/``masked_payload``, and require each ``eval_c_*``
predicate to agree with its ``list_c_*`` counterpart.
"""

from types import SimpleNamespace

from cicsim.protocols import (
    Piggyback,
    eval_c_fi1_clockv,
    eval_c_fi1_greater,
    eval_c_fi2,
    eval_c_fine1,
    eval_c_lazyfi1,
    eval_c_lazyfine1,
    eval_c_pi,
)

BOOL_VECTORS = ("sent_to", "greater", "equal_incr", "taken")


def to_mask(vec) -> int:
    """A 1-based list of bools as a mask; index 0 is ignored."""
    return sum(1 << k for k in range(1, len(vec)) if vec[k])


def masked_state(state) -> SimpleNamespace:
    """A copy of a list-form state with its boolean vectors as masks."""
    return SimpleNamespace(**{
        key: to_mask(val) if key in BOOL_VECTORS else val
        for key, val in vars(state).items()
    })


def masked_payload(n: int, m) -> Piggyback:
    """The Piggyback holding a list-form payload's vectors."""
    return Piggyback(
        m.t, n,
        clockv=m.clockv,
        greater=None if m.greater is None else to_mask(m.greater),
        equal_incr=None if m.equal_incr is None else to_mask(m.equal_incr),
        ckptv=m.ckptv,
        taken=None if m.taken is None else to_mask(m.taken),
    )


def _procs(state):
    return range(1, state.n + 1)


def list_c_pi(state, m) -> bool:
    return any(
        state.sent_to[k] and m.t > state.min_to[k] for k in _procs(state)
    )


def list_c_fi1_clockv(state, m) -> bool:
    return any(
        state.sent_to[k]
        and m.t > state.min_to[k]
        and m.t > max(state.clockv[k], m.clockv[k])
        for k in _procs(state)
    )


def list_c_fi1_greater(state, m) -> bool:
    return any(
        state.sent_to[k] and m.greater[k] and m.t > state.lc for k in _procs(state)
    )


def list_c_fi2(state, m) -> bool:
    i = state.i
    return bool(m.ckptv[i] == state.ckptv[i] and m.taken[i])


def list_c_lazyfi1(state, m) -> bool:
    return any(
        state.sent_to[k] and not m.equal_incr[k] and m.t > state.lc
        for k in _procs(state)
    )


def list_c_fine1(state, m, taken_index: str = "witness") -> bool:
    if taken_index == "ri":
        return bool(list_c_fi1_greater(state, m) and m.taken[state.i])
    return any(
        state.sent_to[k] and m.greater[k] and m.t > state.lc and m.taken[k]
        for k in _procs(state)
    )


def list_c_lazyfine1(state, m, taken_index: str = "witness") -> bool:
    if taken_index == "ri":
        return bool(list_c_lazyfi1(state, m) and m.taken[state.i])
    return any(
        state.sent_to[k] and not m.equal_incr[k] and m.t > state.lc and m.taken[k]
        for k in _procs(state)
    )


# (name, mask form, list form, extra arguments)
PAIRS = (
    ("pi", eval_c_pi, list_c_pi, ()),
    ("fi1-clockv", eval_c_fi1_clockv, list_c_fi1_clockv, ()),
    ("fi1-greater", eval_c_fi1_greater, list_c_fi1_greater, ()),
    ("fi2", eval_c_fi2, list_c_fi2, ()),
    ("lazyfi1", eval_c_lazyfi1, list_c_lazyfi1, ()),
    ("fine1", eval_c_fine1, list_c_fine1, ("witness",)),
    ("fine1-ri", eval_c_fine1, list_c_fine1, ("ri",)),
    ("lazyfine1", eval_c_lazyfine1, list_c_lazyfine1, ("witness",)),
    ("lazyfine1-ri", eval_c_lazyfine1, list_c_lazyfine1, ("ri",)),
)


def masked_agreeing(state, m):
    """Convert a list-form (state, payload) pair, assert that every
    ``eval_c_*`` returns the same bool as its list form on it, and return
    the masked pair."""
    ms, mm = masked_state(state), masked_payload(state.n, m)
    for name, fast, ref, extra in PAIRS:
        got, want = fast(ms, mm, *extra), ref(state, m, *extra)
        assert got is want, (name, got, want, state, m)
    return ms, mm
