"""Independent check of Z-cycle witnesses.

Written from the definition in the ``cicsim.oracle`` docstring, not from
the oracle's index: a zigzag path from C_i^x to C_j^y is a message chain
whose first message is sent by P_i in interval x or later, whose every
next message is sent by the previous receiver in the same or a later
interval than the receipt, and whose last message is received by P_j in
an interval before y.  A Z-cycle is a zigzag path from a checkpoint to
itself.  Interval I_p^x runs from C_p^x (inclusive) to C_p^{x+1}
(exclusive), so an event's interval is the number of checkpoints its
process has taken up to and including it.
"""

from __future__ import annotations

from cicsim.computation import EV_CKPT, EV_RECV, EV_SEND


def message_endpoints(events):
    """Map each message name to (process, interval) of its send and of
    its receive, read straight off the event list."""
    taken: dict[int, int] = {}
    sends: dict[str, tuple[int, int]] = {}
    recvs: dict[str, tuple[int, int]] = {}
    for ev in events:
        if ev.kind == EV_CKPT:
            taken[ev.process] = taken.get(ev.process, 0) + 1
        where = (ev.process, taken.get(ev.process, 0))
        if ev.kind == EV_SEND:
            sends[ev.message] = where
        elif ev.kind == EV_RECV:
            recvs[ev.message] = where
    return sends, recvs


def cycle_problem(checkpoint, messages, sends, recvs) -> str | None:
    """Why ``messages`` is not a message-simple Z-cycle on ``checkpoint``
    (a (process, ordinal) pair), or None when it is one."""
    p, x = checkpoint
    if not messages:
        return "empty chain"
    if len(set(messages)) != len(messages):
        return "chain repeats a message"
    for m in messages:
        if m not in sends or m not in recvs:
            return f"{m} is not a delivered message"
    if sends[messages[0]][0] != p or sends[messages[0]][1] < x:
        return f"{messages[0]} is not sent by P{p} in interval {x} or later"
    for a, b in zip(messages, messages[1:]):
        (rp, ri), (sp, si) = recvs[a], sends[b]
        if sp != rp or si < ri:
            return f"{b} is not sent by the receiver of {a} at or after its receipt"
    rp, ri = recvs[messages[-1]]
    if rp != p or ri >= x:
        return f"{messages[-1]} is not received by P{p} before interval {x}"
    return None
