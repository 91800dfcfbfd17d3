"""Reference routes that tests compare the package against.

Each route is written from a definition, shares no code with the oracle
and reads as little of a run as it can:

* happened-before by vector clocks, from a trace's event list alone;
* consistent-global-checkpoint membership by enumeration of every
  one-per-process selection, from the ``delivered`` column alone;
* zigzag reachability by orphan-constraint propagation, from a
  scenario's steps and a run's forced step indexes alone.
"""

from __future__ import annotations

from math import inf

from cicsim.computation import EV_CKPT, EV_RECV, EV_SEND, CheckpointRecord

VIRTUAL = "virtual-terminal"


def sorted_checkpoints(trace) -> list[CheckpointRecord]:
    """The trace's checkpoint records in (process, ordinal) order."""
    return [trace.checkpoints[key] for key in sorted(trace.checkpoints)]


def virtual_terminals(trace) -> list[CheckpointRecord]:
    """One terminal checkpoint per process, C_p^{cnt+1}, standing for the
    state at the end of the trace."""
    return [CheckpointRecord(p, trace.ckpt_counts[p] + 1, VIRTUAL, None)
            for p in range(1, trace.n + 1)]


def checkpoint_events(events) -> dict[tuple[int, int], object]:
    """The checkpoint event of each (process, ordinal) key."""
    return {ev.checkpoint.key(): ev for ev in events if ev.kind == EV_CKPT}


def happened_before(events):
    """``precedes(e, f)``: whether event e happens before event f (Lamport,
    CACM 1978): program order, a message's send before its receive, and
    every chain of the two.  Decided by vector clocks (Fidge 1988; Mattern
    1989) over the event list alone: ``vc[pos][p]`` is the largest ordinal
    of a P_p event that is, or happens before, the event at ``pos``.
    Irreflexive; an event not in the list raises ``KeyError``."""
    n = max(ev.process for ev in events)
    at, vc, last, sent = {}, [], {}, {}
    for pos, ev in enumerate(events):
        prev = last.get(ev.process)
        cur = list(vc[prev]) if prev is not None else [0] * (n + 1)
        if ev.kind == EV_SEND:
            sent[ev.message] = pos
        elif ev.kind == EV_RECV:
            cur = list(map(max, cur, vc[sent[ev.message]]))
        cur[ev.process] = ev.ordinal
        vc.append(cur)
        at[ev] = last[ev.process] = pos

    def precedes(e, f) -> bool:
        a, b = at[e], at[f]
        return a < b and vc[b][e.process] >= e.ordinal

    return precedes


def consistent_membership(trace) -> set[CheckpointRecord]:
    """Checkpoints that belong to at least one consistent global checkpoint.

    Enumerates every one-per-process selection over the real checkpoints
    plus a virtual terminal per process, so it suits small traces only.
    A selection is consistent by the definition: no delivered message is
    an orphan between two members, i.e. sent by P_p in interval x or
    later and received by P_q in an interval before y, for members C_p^x
    and C_q^y.  ``first[p, q][x]``, the suffix minimum of the receive
    intervals at P_q of the messages P_p sends in interval x or later,
    decides that in O(1) per pair.  Its complement over the real
    checkpoints is the useless set (Netzer and Xu, IEEE TPDS 1995)."""
    candidates = [[] for _ in range(trace.n)]
    for rec in sorted_checkpoints(trace) + virtual_terminals(trace):
        candidates[rec.process - 1].append(rec)

    counts = trace.ckpt_counts
    first: dict[tuple[int, int], list] = {}
    for sp, si, rp, ri in trace.delivered.values():
        row = first.setdefault((sp, rp), [inf] * (counts[sp] + 2))
        if ri < row[si]:
            row[si] = ri
    for (p, _), row in first.items():
        for x in range(counts[p] - 1, 0, -1):
            if row[x + 1] < row[x]:
                row[x] = row[x + 1]
    never = [inf] * (max(counts.values()) + 2)

    def compatible(a: CheckpointRecord, b: CheckpointRecord) -> bool:
        p, x, q, y = a.process, a.ordinal, b.process, b.ordinal
        return first.get((p, q), never)[x] >= y and first.get((q, p), never)[y] >= x

    useful: set[CheckpointRecord] = set()
    chosen: list[CheckpointRecord] = []

    def dfs(p: int) -> None:
        if p == len(candidates):
            useful.update(rec for rec in chosen if rec.kind != VIRTUAL)
            return
        for rec in candidates[p]:
            if all(compatible(other, rec) for other in chosen):
                chosen.append(rec)
                dfs(p + 1)
                chosen.pop()

    dfs(0)
    # dfs calls itself through its closure cell, a function <-> cell cycle
    # that only the cyclic collector would free.
    del dfs
    return useful


def orphan_reach(n, steps, forced_steps):
    """(counts, reach): zigzag reachability into every checkpoint by
    orphan-constraint propagation (Y.-M. Wang, IEEE TC 46(4), 1997), from
    a scenario's steps and the indexes of the receive steps that a forced
    checkpoint preceded.  ``counts[p]`` is P_p's checkpoint count, with
    ``counts[0]`` unused.

    ``reach[q, y]``, for y in 1..counts[q] + 1 (the last is P_q's virtual
    terminal), is the list ``dem`` of one fixpoint: start with member y
    for P_q, member 1 for every other process and ``dem[p] = 0``; a
    delivered message sent by P_s in interval si and received by P_r in
    interval ri < m[r] is an orphan unless m[s] > si, so it raises
    ``dem[s]`` to si + 1 and m[s] with it; repeat until nothing moves.
    P_q's own member rises like any other's.  Then a Z-path C_p^x -> C_q^y
    exists iff x < dem[p] (Netzer and Xu, IEEE TPDS 1995)."""
    forced = set(forced_steps)
    counts = [0] + [1] * n
    sent, msgs = {}, []
    for idx, st in enumerate(steps):
        p = st.process
        if st.kind == EV_CKPT or st.kind == EV_RECV and idx in forced:
            counts[p] += 1
        if st.kind == EV_SEND:
            sent[st.message] = (p, counts[p])
        elif st.kind == EV_RECV:
            msgs.append((*sent[st.message], p, counts[p]))
    reach = {}
    for q in range(1, n + 1):
        for y in range(1, counts[q] + 2):
            m = [1] * (n + 1)
            m[q] = y
            dem = [0] * (n + 1)
            moved = True
            while moved:
                moved = False
                for s, si, r, ri in msgs:
                    if ri < m[r] and si >= dem[s]:
                        dem[s] = si + 1
                        if m[s] < dem[s]:
                            m[s] = dem[s]
                        moved = True
            reach[q, y] = dem
    return counts, reach


def reach_mismatches(route, counts, base, zz) -> list[tuple[int, int]]:
    """The checkpoints C_p^x whose zigzag mask ``zz[base[p] + x]``, in the
    oracle's numbering (``cicsim.oracle``), differs from what the
    :func:`orphan_reach` result ``route`` says: bit ``base[q] + y`` set
    exactly when x < reach[q, y][p].  Slot 0 and the virtual terminal
    are included, and their masks must be 0.  A route whose checkpoint
    counts differ from ``counts`` mismatches at every checkpoint."""
    got_counts, reach = route
    if {p: got_counts[p] for p in range(1, len(got_counts))} != counts:
        return [(p, x) for p, cnt in counts.items() for x in range(cnt + 2)]
    want = [0] * len(zz)
    for (q, y), dem in reach.items():
        bit = 1 << (base[q] + y)
        for p, b in base.items():
            for u in range(b + 1, b + dem[p]):
                want[u] |= bit
    return [(p, u - b) for p, b in base.items() for u in range(b, b + counts[p] + 2)
            if zz[u] != want[u]]
