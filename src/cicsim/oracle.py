"""Protocol-independent ground truth over traces.

Everything here is brute force by design: zigzag reachability between
checkpoints, Z-cycle enumeration, useless-checkpoint detection,
Z-consistent-timestamping checks, and an exhaustive consistent-global-
checkpoint membership analysis.  Protocols are judged against these
predicates, never against their own bookkeeping.

A zigzag path from C_i^x to C_j^y is a message chain where the first
message is sent by P_i in interval x or later, every next message is sent
by the previous receiver in the same-or-later interval than the receipt
(possibly earlier in real time), and the last message is received by P_j
in an interval before y.  A Z-cycle is a zigzag path from a checkpoint to
itself and is exactly what makes a checkpoint useless.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .computation import (
    CKPT_VIRTUAL,
    CheckpointRecord,
    Trace,
)


class BudgetExceededError(RuntimeError):
    """Raised when the membership enumeration would exceed its budget."""


@dataclass(frozen=True)
class ZigzagWitness:
    """One concrete zigzag chain between two checkpoints.

    ``causal`` means consecutive messages are also chained by program
    order (each receive happens before the next send in real time).
    """

    source: CheckpointRecord
    target: CheckpointRecord
    messages: tuple[str, ...]
    causal: bool


@dataclass
class OracleReport:
    z_cycles: list[tuple[CheckpointRecord, ZigzagWitness]]
    useless: set[CheckpointRecord]
    violations: list[tuple[CheckpointRecord, CheckpointRecord, ZigzagWitness]]
    stats: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.z_cycles and not self.violations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(adj: list[int]) -> list[int]:
    """Reflexive-transitive closure of a bitmask adjacency list.

    ``adj[i]`` has bit j set when there is an edge i -> j.  Returns
    ``reach`` with ``reach[i]`` covering i itself plus every node reachable
    from i.  Plain fixpoint iteration; graphs here have tens of nodes.
    """
    reach = [(1 << i) | a for i, a in enumerate(adj)]
    changed = True
    while changed:
        changed = False
        for i, rest in enumerate(adj):
            acc = reach[i]
            while rest:
                acc |= reach[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    return reach


class _ZigzagIndex:
    """Message-chain reachability index for one trace.

    Bit i stands for the i-th delivered message in name order.  Undelivered
    messages cannot appear in any zigzag chain and are ignored.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.names = trace.delivered_messages()
        self.bit = {nm: i for i, nm in enumerate(self.names)}
        info = []
        for nm in self.names:
            spos = trace.message_sends[nm][0]
            rpos = trace.message_recvs[nm][0]
            send_ev = trace.events[spos]
            recv_ev = trace.events[rpos]
            info.append(
                (
                    send_ev.process,
                    trace._interval[spos],
                    recv_ev.process,
                    trace._interval[rpos],
                    spos,
                    rpos,
                )
            )
        self.info = info

        # Cumulative masks per process: sends in interval >= x, receives in
        # interval < y.  Index cnt+1 covers the virtual terminal checkpoint.
        counts = {p: trace.ckpt_counts.get(p, 0) for p in range(1, trace.n + 1)}
        send_at = {p: [0] * (cnt + 2) for p, cnt in counts.items()}
        recv_at = {p: [0] * (cnt + 2) for p, cnt in counts.items()}
        for i, (sp, si, rp, ri, _, _) in enumerate(info):
            if si <= counts[sp]:
                send_at[sp][si] |= 1 << i
            if ri <= counts[rp]:
                recv_at[rp][ri] |= 1 << i
        self._start: dict[int, list[int]] = {}
        self._end: dict[int, list[int]] = {}
        for p, cnt in counts.items():
            start = [0] * (cnt + 2)
            for x in range(cnt, 0, -1):
                start[x] = start[x + 1] | send_at[p][x]
            end = [0] * (cnt + 2)
            for y in range(2, cnt + 2):
                end[y] = end[y - 1] | recv_at[p][y - 1]
            self._start[p] = start
            self._end[p] = end

        # A chain ending with message i continues with exactly the messages
        # its receiver sends in the receive interval or later.  Each process
        # has an initial checkpoint, so every interval lies in 1..cnt and the
        # start mask of the receive interval is exactly that set.
        self.adj = [self._start[rp][ri] for _, _, rp, ri, _, _ in info]
        self.closure = _closure(self.adj)
        self._reachable: dict[tuple[int, int], int] = {}

    def _check_key(self, key: tuple[int, int]) -> None:
        p, x = key
        if p not in self._start or not 1 <= x <= len(self._start[p]) - 1:
            raise ValueError(f"checkpoint C_{p}^{x} does not exist in this trace")

    def start_mask(self, key: tuple[int, int]) -> int:
        self._check_key(key)
        return self._start[key[0]][key[1]]

    def end_mask(self, key: tuple[int, int]) -> int:
        self._check_key(key)
        return self._end[key[0]][key[1]]

    def reach_from(self, key: tuple[int, int]) -> int:
        got = self._reachable.get(key)
        if got is None:
            got = 0
            for b in _bits(self.start_mask(key)):
                got |= self.closure[b]
            self._reachable[key] = got
        return got

    def exists(self, src: tuple[int, int], dst: tuple[int, int]) -> bool:
        return bool(self.reach_from(src) & self.end_mask(dst))

    def chain_is_causal(self, names: tuple[str, ...]) -> bool:
        for a, b in zip(names, names[1:]):
            if self.info[self.bit[a]][5] > self.info[self.bit[b]][4]:
                return False
        return True

    def shortest_chain(self, src, dst) -> tuple[str, ...] | None:
        """Shortest chain, ties broken lexicographically by name sequence."""
        end = self.end_mask(dst)
        heap = []
        for b in _bits(self.start_mask(src)):
            if self.closure[b] & end:
                heapq.heappush(heap, (1, (self.names[b],), b))
        seen = set()
        while heap:
            ln, names, last = heapq.heappop(heap)
            if last in seen:
                continue
            seen.add(last)
            if (1 << last) & end:
                return names
            for j in _bits(self.adj[last]):
                if j not in seen and self.closure[j] & end:
                    heapq.heappush(heap, (ln + 1, names + (self.names[j],), j))
        return None

    def simple_chains(self, src, dst, cap=None):
        """All message-simple chains from src to dst, shortest first, lex
        ties; a chain may extend beyond an earlier completion.  Returns
        (chains, truncated): truncated is True when the cap cut the
        enumeration short."""
        end = self.end_mask(dst)
        out: list[tuple[str, ...]] = []
        heap = []
        for b in _bits(self.start_mask(src)):
            if self.closure[b] & end:
                heapq.heappush(heap, (1, (self.names[b],), b, 1 << b))
        while heap:
            ln, names, last, used = heapq.heappop(heap)
            if (1 << last) & end:
                out.append(names)
                if cap is not None and len(out) >= cap:
                    return out, bool(heap)
            for j in _bits(self.adj[last] & ~used):
                if self.closure[j] & end:
                    heapq.heappush(
                        heap, (ln + 1, names + (self.names[j],), j, used | (1 << j))
                    )
        return out, False


def _index(trace: Trace) -> _ZigzagIndex:
    idx = getattr(trace, "_zz_index", None)
    if idx is None:
        idx = _ZigzagIndex(trace)
        trace._zz_index = idx
    return idx


def zigzag_exists(src: CheckpointRecord, dst: CheckpointRecord, trace: Trace):
    """Witness for a zigzag path src -> dst, or None.

    Virtual terminal checkpoints (ordinal = last + 1) are accepted at
    either end; the witness is one shortest chain.
    """
    idx = _index(trace)
    if not idx.exists(src.key(), dst.key()):
        return None
    names = idx.shortest_chain(src.key(), dst.key())
    return ZigzagWitness(src, dst, names, idx.chain_is_causal(names))


DEFAULT_MAX_WITNESSES = 32


def _z_cycles(trace: Trace, cap: int | None):
    """(cycles, useless, truncated): capped simple-chain Z-cycle witnesses
    in checkpoint order, the useless set, and how many checkpoints had
    their enumeration cut short by the cap."""
    if cap is not None and cap < 1:
        raise ValueError("witness cap must be at least 1")
    idx = _index(trace)
    cycles = []
    useless = set()
    truncated = 0
    for rec in trace.sorted_checkpoints():
        if not idx.exists(rec.key(), rec.key()):
            continue
        useless.add(rec)
        chains, cut = idx.simple_chains(rec.key(), rec.key(), cap=cap)
        truncated += cut
        for names in chains:
            cycles.append(
                (rec, ZigzagWitness(rec, rec, names, idx.chain_is_causal(names)))
            )
    return cycles, useless, truncated


def find_z_cycles(
    trace: Trace, max_witnesses_per_checkpoint: int | None = DEFAULT_MAX_WITNESSES
):
    """Every simple-chain Z-cycle witness for every checkpoint.

    Witnesses never repeat a message; per checkpoint they are ordered
    shortest first with lexicographic message-name tie-breaking.  Dense
    unprotected traces can hold astronomically many simple cycles, so
    enumeration stops at ``max_witnesses_per_checkpoint`` (pass None for
    exhaustive output on desk-scale traces; uselessness itself is always
    decided by reachability, never by this bound).
    """
    return _z_cycles(trace, max_witnesses_per_checkpoint)[0]


def useless_checkpoints(trace: Trace) -> set[CheckpointRecord]:
    """Exactly the checkpoints that sit on at least one Z-cycle."""
    idx = _index(trace)
    return {rec for rec in trace.checkpoints.values() if idx.exists(rec.key(), rec.key())}


def _violating_pairs(idx: _ZigzagIndex, recs: list[CheckpointRecord]):
    """Yield (a, b) in checkpoint order for every pair connected by a
    zigzag path a -> b with a.timestamp >= b.timestamp."""
    ends = [idx.end_mask(b.key()) for b in recs]
    for a in recs:
        reach = idx.reach_from(a.key())
        if not reach:
            continue
        for b, end in zip(recs, ends):
            if a.timestamp >= b.timestamp and reach & end:
                yield a, b


def check_z_consistency(trace: Trace):
    """Violations of zigzag-consistent timestamping.

    One entry per ordered checkpoint pair (source may equal target) that
    is connected by a zigzag path yet has source.t >= target.t; a single
    witness per pair.  Requires every checkpoint to carry a timestamp.
    """
    idx = _index(trace)
    recs = trace.sorted_checkpoints()
    for rec in recs:
        if rec.timestamp is None:
            raise ValueError(f"checkpoint {rec.label()} has no timestamp")
    out = []
    for a, b in _violating_pairs(idx, recs):
        names = idx.shortest_chain(a.key(), b.key())
        out.append((a, b, ZigzagWitness(a, b, names, idx.chain_is_causal(names))))
    return out


def quick_findings(trace: Trace) -> tuple[int, int]:
    """(useless count, violation count) without witness construction.

    Existence-only fast path for fuzz campaigns.
    """
    violations = sum(1 for _ in _violating_pairs(_index(trace), trace.sorted_checkpoints()))
    return len(useless_checkpoints(trace)), violations


def virtual_terminals(trace: Trace) -> list[CheckpointRecord]:
    """One terminal checkpoint per process, representing the state at
    trace end; used only by the membership analysis."""
    return [
        CheckpointRecord(p, trace.ckpt_counts.get(p, 0) + 1, CKPT_VIRTUAL, None)
        for p in range(1, trace.n + 1)
    ]


def consistent_membership_bruteforce(
    trace: Trace, budget: int = 10**6
) -> set[CheckpointRecord]:
    """Checkpoints that belong to at least one consistent global checkpoint.

    Enumerates every one-per-process selection over the real checkpoints
    plus a virtual terminal per process; a selection is consistent when no
    two members are connected by a zigzag path in either direction.
    Within budget, the returned useful set is the exact complement of
    useless_checkpoints over the real checkpoints.
    """
    idx = _index(trace)
    candidates = []
    for p in range(1, trace.n + 1):
        own = [r for r in trace.sorted_checkpoints() if r.process == p]
        own.append(virtual_terminals(trace)[p - 1])
        candidates.append(own)
    total = 1
    for group in candidates:
        total *= len(group)
    if total > budget:
        raise BudgetExceededError(
            f"{total} selections exceed the enumeration budget of {budget}"
        )

    keys = [[r.key() for r in group] for group in candidates]
    pair_ok: dict[tuple, bool] = {}

    def compatible(ka, kb) -> bool:
        got = pair_ok.get((ka, kb))
        if got is None:
            got = not idx.exists(ka, kb) and not idx.exists(kb, ka)
            pair_ok[(ka, kb)] = got
            pair_ok[(kb, ka)] = got
        return got

    useful: set[CheckpointRecord] = set()
    chosen: list[int] = []

    def dfs(p: int) -> None:
        if p == len(candidates):
            for q, c in enumerate(chosen):
                rec = candidates[q][c]
                if rec.kind != CKPT_VIRTUAL:
                    useful.add(rec)
            return
        for c, key in enumerate(keys[p]):
            if all(compatible(keys[q][chosen[q]], key) for q in range(p)):
                chosen.append(c)
                dfs(p + 1)
                chosen.pop()

    dfs(0)
    return useful


def oracle_report(
    trace: Trace, max_witnesses_per_checkpoint: int | None = DEFAULT_MAX_WITNESSES
) -> OracleReport:
    """Full report: Z-cycles with witnesses, useless set, Z-consistency
    violations, and summary counters.

    The useless set is decided by reachability, so it is exact even when
    the witness cap truncates cycle enumeration (stats carry a
    ``witnesses_truncated`` count when that happens)."""
    cycles, useless, truncated = _z_cycles(trace, max_witnesses_per_checkpoint)
    idx = _index(trace)
    violations = check_z_consistency(trace)
    stats = {
        "processes": trace.n,
        "events": len(trace.events),
        "messages_delivered": len(idx.names),
        "checkpoints": len(trace.checkpoints),
        "z_cycles": len(cycles),
        "useless": len(useless),
        "violations": len(violations),
        "witnesses_truncated": truncated,
    }
    return OracleReport(cycles, useless, violations, stats)
