"""Protocol-independent ground truth over traces.

Zigzag reachability between checkpoints, Z-cycle enumeration,
useless-checkpoint detection, Z-consistent-timestamping checks, and an
exhaustive consistent-global-checkpoint membership analysis.  Protocols
are judged against these predicates, never against their own
bookkeeping: the oracle reads only these integer columns of a trace,
never its Event list:

* ``delivered``: per message with both endpoints, its sender, send
  interval and send position, and its receiver, receive interval and
  receive position (the positions only decide whether a witness is
  causal);
* ``checkpoints`` and ``ckpt_counts``: the records by (process, ordinal)
  and the number of checkpoints per process;
* ``n`` and ``event_count``.

A zigzag path from C_i^x to C_j^y is a message chain where the first
message is sent by P_i in interval x or later, every next message is sent
by the previous receiver in the same-or-later interval than the receipt
(possibly earlier in real time), and the last message is received by P_j
in an interval before y.  A Z-cycle is a zigzag path from a checkpoint to
itself and is exactly what makes a checkpoint useless.

Reachability is decided on checkpoints, as in the rollback-dependency
view of Wang (IEEE TC 1997) and Netzer and Xu (IEEE TPDS 1995).
``reach[p][x][q]`` is the smallest interval of a receive at P_q that ends
a zigzag path from C_p^x (above every ordinal when none does).  It is the
least fixpoint of

    reach[p][x] = reach[p][x+1] ⊓ ⋃ ({q: r} ⊓ reach[q][r])

where the union runs over the messages sent by P_p in interval x, each
received in interval r of P_q, and both ⊓ and ⋃ take pointwise minima.
A zigzag path from C_p^x to C_q^y exists exactly when
``reach[p][x][q] < y``.  Ordinal cnt+1 of a process with cnt checkpoints
is its virtual terminal, which sends nothing.

Witnesses are chains in the message graph, ordered by length and then by
name sequence.  One layered search finds the first such chain between
two sets of messages: breadth-first layers backwards from the last
messages, then the lowest name of each layer forwards.  A witness is that
search from a checkpoint's first messages to another's last ones; the
Z-cycle witnesses of a checkpoint are the first ``cap`` message-simple
chains, found by Yen's k shortest loopless paths with Lawler's rule, so
that the cap bounds the work, O(cap · L · m) mask operations for m
messages and chains of at most L, and not only the output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

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


class _ZigzagIndex:
    """Zigzag reachability of one trace: the per-checkpoint ``reach``
    vectors of the module docstring, plus the message masks that witness
    search walks.

    Bit i of a message mask stands for the i-th delivered message in name
    order, so the lowest set bit is the first name.  Undelivered messages
    cannot appear in any zigzag chain and are ignored.

    Witness search walks the message graph: a chain ending with message i
    continues with any message in ``adj[i]``, and ``pred[j]`` holds the
    messages that j continues.  These masks are built in O(m) on the first
    witness query, so existence-only callers never pay for them.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.names = trace.delivered_messages()
        ends = [trace.delivered[nm] for nm in self.names]

        # (process, interval) of each message's receive, and the messages
        # each process sends per interval.  Index cnt+1 of a per-process
        # list is the virtual terminal checkpoint, which sends nothing.
        recv = self.recv = [(rp, ri) for _, _, _, rp, ri, _ in ends]
        counts = self.counts = {p: trace.ckpt_counts.get(p, 0) for p in range(1, trace.n + 1)}
        sent = self.sent = {p: [[] for _ in range(cnt + 2)] for p, cnt in counts.items()}
        for i, (sp, si, _, _, _, _) in enumerate(ends):
            if si <= counts[sp]:
                sent[sp][si].append(i)

        # Least fixpoint of the recurrence, in rounds until nothing moves.
        # Every entry of ``nothing`` exceeds every ordinal: no path ends there.
        nothing = [trace.event_count + 2] * (trace.n + 1)
        reach = {p: [nothing] * (cnt + 2) for p, cnt in counts.items()}
        changed = True
        while changed:
            changed = False
            for p, cnt in counts.items():
                rows = reach[p]
                for x in range(cnt, 0, -1):
                    vec = rows[x + 1]
                    for i in sent[p][x]:
                        q, r = recv[i]
                        vec = [a if a < b else b for a, b in zip(vec, reach[q][r])]
                        if r < vec[q]:
                            vec[q] = r
                    if vec != rows[x]:
                        rows[x] = vec
                        changed = True
        self.reach = reach

    @cached_property
    def _start(self) -> dict[int, list[int]]:
        """``_start[p][x]`` masks the messages P_p sends in interval x or
        later.  Each process has an initial checkpoint, so every interval
        lies in 1..cnt."""
        start = {}
        for p, cnt in self.counts.items():
            row = [0] * (cnt + 2)
            for x in range(cnt, 0, -1):
                row[x] = row[x + 1] | sum(1 << i for i in self.sent[p][x])
            start[p] = row
        return start

    @cached_property
    def _got(self) -> dict[int, list[int]]:
        """``_got[p][x]`` masks the messages P_p receives in interval x or
        earlier, so ``_got[q][y - 1]`` is the set of last messages of the
        chains that end at C_q^y."""
        got = {p: [0] * (cnt + 1) for p, cnt in self.counts.items()}
        for i, (rp, ri) in enumerate(self.recv):
            if ri < len(got[rp]):
                got[rp][ri] |= 1 << i
        for row in got.values():
            for x in range(1, len(row)):
                row[x] |= row[x - 1]
        return got

    @cached_property
    def adj(self) -> list[int]:
        """A chain ending with message i continues with exactly the
        messages its receiver sends in the receive interval or later."""
        return [self._start[rp][ri] for rp, ri in self.recv]

    @cached_property
    def pred(self) -> list[int]:
        """``pred[j]``: the messages P_sender(j) receives in the send
        interval of j or earlier, i.e. those whose ``adj`` holds j."""
        pred = [0] * len(self.names)
        for p, rows in self.sent.items():
            for x, sent in enumerate(rows):
                for j in sent:
                    pred[j] = self._got[p][x]
        return pred

    def _check_key(self, key: tuple[int, int]) -> None:
        p, x = key
        if p not in self.reach or not 1 <= x <= len(self.reach[p]) - 1:
            raise ValueError(f"checkpoint C_{p}^{x} does not exist in this trace")

    def start_mask(self, key: tuple[int, int]) -> int:
        self._check_key(key)
        return self._start[key[0]][key[1]]

    def end_mask(self, key: tuple[int, int]) -> int:
        self._check_key(key)
        return self._got[key[0]][key[1] - 1]

    def exists(self, src: tuple[int, int], dst: tuple[int, int]) -> bool:
        self._check_key(src)
        self._check_key(dst)
        return self.reach[src[0]][src[1]][dst[0]] < dst[1]

    def chain_is_causal(self, names: tuple[str, ...]) -> bool:
        ends = self.trace.delivered
        return all(ends[a][5] <= ends[b][2] for a, b in zip(names, names[1:]))

    def _chain(self, first: int, allowed: int, end: int) -> tuple[int, ...] | None:
        """Bits of the lexicographically smallest shortest chain whose
        first message is in ``first``, whose last is in ``end`` and whose
        messages all lie in ``allowed``; None when there is none.

        Backwards, layer d holds the allowed messages whose shortest chain
        into ``end`` has d more messages; the search stops at the first
        layer that meets ``first``.  Forwards, each step takes the lowest
        bit of the next layer among the current message's successors.
        Every message joins at most one layer, so this is O(m) mask
        operations.  A shortest chain never repeats a message."""
        pred = self.pred
        layer = seen = end & allowed
        layers = []
        while layer:
            layers.append(layer)
            if layer & first:
                break
            back = 0
            while layer:
                low = layer & -layer
                back |= pred[low.bit_length() - 1]
                layer ^= low
            layer = back & allowed & ~seen
            seen |= layer
        else:
            return None
        chain = []
        options = first
        for layer in reversed(layers):
            pick = options & layer
            j = (pick & -pick).bit_length() - 1
            chain.append(j)
            options = self.adj[j]
        return tuple(chain)

    def shortest_chain(self, src, dst) -> tuple[str, ...] | None:
        """Shortest chain, ties broken lexicographically by name sequence:
        one :meth:`_chain` from the start mask of src into the end mask of
        dst."""
        chain = self._chain(self.start_mask(src), -1, self.end_mask(dst))
        return None if chain is None else tuple(self.names[j] for j in chain)

    def simple_chains(self, src, dst, cap=None):
        """All message-simple chains from src to dst, shortest first, lex
        ties; a chain may extend beyond an earlier completion.  Returns
        (chains, truncated): truncated is True when a chain beyond the
        cap exists.

        Yen's k shortest loopless paths (Management Science, 1971), over
        the message graph with a virtual source (the start mask of src)
        and a virtual sink (the end mask of dst).  Each accepted chain is
        spurred only at or after the position where it left the chain it
        was spurred from (Lawler, Management Science, 1972).  A spur at
        position v keeps the chain's first v messages (the root) and asks
        :meth:`_chain` for the best suffix that avoids the root and every
        next hop that an accepted chain with the same root already takes.
        Suffixes of one root keep their (length, names) order once the
        root is put in front, so the candidate heap yields the chains in
        exactly that order.  With L the longest chain
        returned, a capped search costs O(cap · L · m) mask operations."""
        start, end = self.start_mask(src), self.end_mask(dst)
        best = self._chain(start, -1, end)
        if best is None:
            return [], False
        out: list[tuple[int, ...]] = []
        hops: dict[tuple[int, ...], int] = {}  # root -> mask of next hops taken
        heap = [(len(best), best, 0)]
        queued = {best}
        while heap and (cap is None or len(out) < cap):
            ln, chain, dev = heapq.heappop(heap)
            out.append(chain)
            root_mask = sum(1 << j for j in chain[:dev])
            for v in range(dev, ln + 1):
                # A spur never stops at its root: a root that reaches dst is
                # a shorter chain, accepted already, and _chain returns at
                # least one message.
                root = chain[:v]
                hop = 1 << chain[v] if v < ln else 0  # 0: the sink
                hops[root] = taken = hops.get(root, 0) | hop
                first = (self.adj[root[-1]] if root else start) & ~taken
                spur = self._chain(first, ~root_mask, end) if first else None
                if spur is not None and root + spur not in queued:
                    queued.add(root + spur)
                    heapq.heappush(heap, (v + len(spur), root + spur, v))
                root_mask |= hop
        names = self.names
        return [tuple(names[j] for j in chain) for chain in out], bool(heap)


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
    in checkpoint order, the useless set, and how many checkpoints lie on
    more Z-cycles than the cap."""
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
    enumeration stops at ``max_witnesses_per_checkpoint``, and its work
    grows with the cap, not with the number of cycles (pass None for
    exhaustive output on desk-scale traces; uselessness itself is always
    decided by reachability, never by this bound).
    """
    return _z_cycles(trace, max_witnesses_per_checkpoint)[0]


def useless_checkpoints(trace: Trace) -> set[CheckpointRecord]:
    """Exactly the checkpoints that sit on at least one Z-cycle."""
    reach = _index(trace).reach
    return {rec for (p, x), rec in trace.checkpoints.items() if reach[p][x][p] < x}


def _violating_pairs(idx: _ZigzagIndex, recs: list[CheckpointRecord]):
    """Yield (a, b) in checkpoint order for every pair connected by a
    zigzag path a -> b with a.timestamp >= b.timestamp.

    ``recs`` is in (process, ordinal) order.  A path a -> C_q^y exists
    exactly when y > reach[a][q], so the row of q is scanned for a only
    when ``floor[reach[a][q]]``, the least timestamp of q's checkpoints
    above that ordinal, is at most a's.  Raises ValueError, before any
    pair, for a checkpoint without a timestamp."""
    rows: dict[int, list[CheckpointRecord]] = {}
    for rec in recs:
        if rec.timestamp is None:
            raise ValueError(f"checkpoint {rec.label()} has no timestamp")
        rows.setdefault(rec.process, []).append(rec)
    scan = []
    for q, row in rows.items():
        floor = [inf] * (row[-1].ordinal + 1)
        for rec in row:
            floor[rec.ordinal - 1] = rec.timestamp
        for r in range(len(floor) - 2, -1, -1):
            if floor[r + 1] < floor[r]:
                floor[r] = floor[r + 1]
        scan.append((q, floor, row))
    for a in recs:
        reach, t = idx.reach[a.process][a.ordinal], a.timestamp
        for q, floor, row in scan:
            r = reach[q]
            if r < len(floor) and floor[r] <= t:
                for b in row:
                    if b.ordinal > r and b.timestamp <= t:
                        yield a, b


def check_z_consistency(trace: Trace):
    """Violations of zigzag-consistent timestamping.

    One entry per ordered checkpoint pair (source may equal target) that
    is connected by a zigzag path yet has source.t >= target.t; a single
    witness per pair.  Requires every checkpoint to carry a timestamp.
    """
    idx = _index(trace)
    out = []
    for a, b in _violating_pairs(idx, trace.sorted_checkpoints()):
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
    ``witnesses_truncated`` count of the checkpoints that lie on more
    Z-cycles than the cap)."""
    cycles, useless, truncated = _z_cycles(trace, max_witnesses_per_checkpoint)
    idx = _index(trace)
    violations = check_z_consistency(trace)
    stats = {
        "processes": trace.n,
        "events": trace.event_count,
        "messages_delivered": len(idx.names),
        "checkpoints": len(trace.checkpoints),
        "z_cycles": len(cycles),
        "useless": len(useless),
        "violations": len(violations),
        "witnesses_truncated": truncated,
    }
    return OracleReport(cycles, useless, violations, stats)
