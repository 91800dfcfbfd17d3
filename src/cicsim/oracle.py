"""Protocol-independent ground truth over traces.

Zigzag reachability between checkpoints, Z-cycle enumeration,
useless-checkpoint detection and Z-consistent-timestamping checks.
Protocols are judged against these predicates, never against their own
bookkeeping: the oracle reads only these integer columns of a trace,
never its Event list nor any event position:

* ``delivered``: per message with both endpoints, its sender and send
  interval, and its receiver and receive interval;
* ``checkpoints`` and ``ckpt_counts``: the records by (process, ordinal)
  and the number of checkpoints per process;
* ``n`` and ``event_count``.

A zigzag path from C_i^x to C_j^y is a message chain where the first
message is sent by P_i in interval x or later, every next message is sent
by the previous receiver in the same-or-later interval than the receipt
(possibly earlier in real time), and the last message is received by P_j
in an interval before y.  A Z-cycle is a zigzag path from a checkpoint to
itself and is exactly what makes a checkpoint useless: in no consistent
global checkpoint, which ``is_consistent_global_checkpoint`` decides on
the same columns (Netzer and Xu).

Reachability is decided on checkpoints, as in the rollback-dependency
view of Wang (IEEE TC 1997) and Netzer and Xu (IEEE TPDS 1995), with one
int mask per checkpoint.  The checkpoints of P_p, which has cnt of them,
own the bits base[p] .. base[p] + cnt + 1, process-major: C_p^x is bit
base[p] + x, ordinal cnt+1 is the virtual terminal, which sends nothing,
and bit base[p] is never set.  ``zz[base[p] + x]`` has bit base[q] + y set
exactly when a zigzag path from C_p^x reaches C_q^y.  It is the least
fixpoint of

    zz(p, x) = zz(p, x+1) | ⋃ (unit(q, r) | zz(q, r))

where the union runs over the messages sent by P_p in interval x, each
received in interval r of P_q, and the message's unit masks C_q^{r+1} ..
C_q^{cnt+1}, the checkpoints of P_q after its receive.  So each process's
share of a mask is a suffix of its ordinals.

The fixpoint takes one pass over the strongly connected components of the
interval graph, whose nodes are the intervals (p, x), with a program edge
(p, x) -> (p, x+1) and an edge (p, x) -> (q, r) for each delivered
message, from the interval in which P_p sends it to the interval in which
P_q receives it.  Masks are equal across a component, and Tarjan's
algorithm (SIAM J. Computing, 1972) emits components sinks first, so a
component's mask is the OR of its messages' units and of the final masks
of the components it reaches.  A mask has V bits for V intervals, so the
masks take at most V²/8 bytes; a component whose only out-edge is its
program edge shares its successor's int, so a stretch of intervals
without sends holds one mask.

A pair (a, b) violates zigzag-consistent timestamping when b is a set bit
of ``zz[a] & below(t(a))``, where below(t) masks the checkpoints whose
timestamp is at most t.  The count of violations is a popcount per
source, with the sources visited in timestamp order and one running
below mask, so it enumerates no pair.

Witnesses are chains in the message graph, ordered by length and then by
name sequence.  Breadth-first layers backwards from a checkpoint's last
messages are built once per end mask and cached: layer d holds the
messages whose shortest chain into it has d more messages.  A shortest
witness walks down those layers from the first one that meets the
source's first messages, taking the lowest name among the successors at
each step.  The Z-cycle witnesses of a checkpoint are its first ``cap``
message-simple chains, found by Yen's k shortest loopless paths with
Lawler's rule.  Its spurs are lazy: each waits on the heap under a lower
bound of its length, and when it reaches the top a walk down the cached
layers that avoids the spur's root resolves it; only a walk that meets a
dead end runs a search restricted to the messages outside the root.
The first ``cap`` chains in (length, names) order, and whether another
one exists, do not depend on how they are found, so the output is that
of eager Yen.  The cap bounds the work, O(cap · L · m) mask operations
for m messages and chains of at most L, and not only the output.

A search from C_p^x into C_q^y reads only two masks that depend on the
pair: the start mask of C_p^x, whose messages can open a chain, and the
end mask of C_q^y, whose messages can close one; the successor masks and
the cached layers of that end mask are the same for the whole trace.  So
one report runs each Z-cycle search, and each shortest-witness search,
once per distinct (start mask, end mask) pair and reuses the result for
every checkpoint, or pair of checkpoints, with the same masks; the
shared results live only for that call.

The message graph's nodes are the delivered messages, and message i
continues with message j when P_receiver(i) sends j in the interval of
its receive or later.  One pass over the messages in name order builds
it, with two masks per interval node base[p] + x, the numbering of
``zz``: the start mask, of the messages P_p sends in interval x or later
(the first messages of the chains from C_p^x), and the got mask, of those
P_p receives in interval x or earlier (the last messages of the chains
into C_p^{x+1}).  Message i's successors are the start mask of its
receive node, and its predecessors the got mask of its send node.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .computation import CheckpointRecord, Trace


class OracleReport(namedtuple("OracleReport", "z_cycles violations stats",
                               defaults=(MappingProxyType({}),))):
    """The :func:`find_z_cycles` entries, the :func:`check_z_consistency`
    entries and the counters (by default none, in a read-only mapping);
    ``useless`` is read off the Z-cycle entries."""

    __slots__ = ()

    @property
    def useless(self) -> set[CheckpointRecord]:
        return {rec for rec, _, _ in self.z_cycles}

    @property
    def clean(self) -> bool:
        return not self.z_cycles and not self.violations


# The message graph's tables, set together by _ZigzagIndex._graph.
_GRAPH = frozenset(("names", "start", "got", "adj", "pred"))


class _ZigzagIndex:
    """Zigzag reachability of one trace: the per-checkpoint masks ``zz``
    of the module docstring, plus the message masks that witness search
    walks.

    ``zz`` comes from one iterative Tarjan pass over the condensation of
    the interval graph, sinks first; every member of a component gets the
    same int.  ``base[p] + x`` is both the node of interval x of P_p and
    the bit of C_p^x, and every per-interval table below is a flat list
    indexed by that node id, as ``zz`` is.  The pass reads
    ``trace.delivered`` in any order, so existence-only callers never sort
    message names.

    Bit i of a message mask stands for the i-th delivered message in name
    order, so the lowest set bit is the first name.  Undelivered messages
    cannot appear in any zigzag chain and are ignored.

    Witness search walks the message graph of the module docstring,
    whose tables :meth:`_graph` builds in one O(m) pass on the first read
    of any of them: the chains from C_p^x start in ``start[base[p] + x]``
    and those into C_q^y end in ``got[base[q] + y - 1]``; a chain ending
    with message i continues with any message in ``adj[i]``, and
    ``pred[j]`` holds the messages that j continues.  The breadth-first
    layers into each end mask are built once per mask, and every witness
    into that checkpoint shares them.
    """

    def __init__(self, trace: Trace):
        # The columns, not the trace: the trace caches its index, so an
        # index that held the trace would make a cycle, and every dropped
        # run would wait for the cyclic collector.
        self.checkpoints = trace.checkpoints
        self.delivered = trace.delivered
        self.counts = trace.ckpt_counts
        self.base, self.zz = _zigzag_masks(self.counts, self.delivered.values())
        self._by_end: dict[int, list[int]] = {}  # end mask -> its layers

    def __getattr__(self, name):
        # Reached only before the message graph is built.
        if name not in _GRAPH:
            raise AttributeError(name)
        self._graph()
        return self.__dict__[name]

    def _graph(self) -> None:
        """Set the message graph's tables (``_GRAPH``): the names; the
        start and got masks by node; ``adj`` and ``pred`` by bit.  A Trace
        is valid by construction, so every interval lies in 1..cnt: slot 0
        of each process and its virtual terminal send and receive nothing."""
        delivered, base = self.delivered, self.base
        self.names = names = sorted(delivered)
        start, got = [0] * len(self.zz), [0] * len(self.zz)
        sends, recvs = [], []
        for i, nm in enumerate(names):
            sp, si, rp, ri = delivered[nm]
            u, v = base[sp] + si, base[rp] + ri
            start[u] |= 1 << i
            got[v] |= 1 << i
            sends.append(u)
            recvs.append(v)
        for p, cnt in self.counts.items():
            b = base[p]
            for u in range(b + cnt, b, -1):  # suffix: interval x or later
                start[u] |= start[u + 1]
            for u in range(b + 1, b + cnt + 1):  # prefix: interval x or earlier
                got[u] |= got[u - 1]
        self.start, self.got = start, got
        self.adj = [start[v] for v in recvs]
        self.pred = [got[u] for u in sends]

    @cached_property
    def recs(self) -> list[CheckpointRecord | None]:
        """The checkpoint record of each node, None at each process's slot
        0 and virtual terminal; node order is (process, ordinal) order."""
        recs = [None] * len(self.zz)
        base = self.base
        for (p, x), rec in self.checkpoints.items():
            recs[base[p] + x] = rec
        return recs

    def _bit(self, key: tuple[int, int]) -> int:
        """The bit of checkpoint ``key``, a virtual terminal included.  The
        tables are flat, so this check alone keeps a key (p, cnt+2) from
        reading the next process's slot 0; a process or ordinal that is
        not an exact int, such as ``True`` or ``1.0``, names no checkpoint."""
        p, x = key
        if (type(p) is not int or type(x) is not int or p not in self.counts
                or not 1 <= x <= self.counts[p] + 1):
            raise ValueError(f"checkpoint C_{p}^{x} does not exist in this trace")
        return self.base[p] + x

    def start_mask(self, key: tuple[int, int]) -> int:
        return self.start[self._bit(key)]

    def end_mask(self, key: tuple[int, int]) -> int:
        return self.got[self._bit(key) - 1]

    def _named(self, chain: tuple[int, ...]) -> tuple[str, ...]:
        """The message names of a chain of bits."""
        return tuple(map(self.names.__getitem__, chain))

    def _back(self, end: int, allowed: int):
        """Breadth-first layers backwards from ``end``: layer d holds the
        allowed messages whose shortest chain into ``end`` has d more
        messages.  Every message joins at most one layer, so all of them
        cost O(m) mask operations."""
        pred = self.pred
        layer = seen = end & allowed
        while layer:
            yield layer
            back = 0
            while layer:
                low = layer & -layer
                back |= pred[low.bit_length() - 1]
                layer ^= low
            layer = back & allowed & ~seen
            seen |= layer

    def _layers(self, end: int) -> list[int]:
        """Every unrestricted layer into ``end``, built once per end mask
        and shared by all the searches into it."""
        layers = self._by_end.get(end)
        if layers is None:
            layers = self._by_end[end] = list(self._back(end, -1))
        return layers

    def _walk(self, first: int, layers: list[int], d: int, avoid: int) -> tuple[int, ...]:
        """Greedy walk down layers d, d-1, .., 0: the lowest bit outside
        ``avoid``, first in ``first`` and then among the successors of the
        message before.  It stops early at a dead end.

        A chain of d + 1 messages from ``first`` into the end of the layers
        takes its k-th message from layer d - k, so when the walk completes
        it is the lexicographically smallest such chain outside ``avoid``;
        when it does not, every such chain is above the walked prefix."""
        adj = self.adj
        chain = []
        options = first
        for k in range(d, -1, -1):
            pick = options & layers[k] & ~avoid
            if not pick:
                break
            j = (pick & -pick).bit_length() - 1
            chain.append(j)
            options = adj[j]
        return tuple(chain)

    def _best(self, first: int, layers) -> tuple[int, ...] | None:
        """Bits of the lexicographically smallest shortest chain from
        ``first`` down ``layers``, or None when no layer meets ``first``.

        ``layers`` is any iterable of layers into one end, nearest first:
        the cached list of :meth:`_layers`, or :meth:`_back` as it runs,
        which then stops at the first layer that meets ``first``.  A
        :meth:`_walk` down the layers seen, from that one, always
        completes.  A shortest chain never repeats a message."""
        seen = []
        for layer in layers:
            seen.append(layer)
            if layer & first:
                return self._walk(first, seen, len(seen) - 1, 0)
        return None

    def _chain(self, first: int, allowed: int, end: int) -> tuple[int, ...] | None:
        """Bits of the lexicographically smallest shortest chain whose
        first message is in ``first``, whose last is in ``end`` and whose
        messages all lie in ``allowed``; None when there is none.

        The restricted search: :meth:`_best` down the :meth:`_back` layers
        of the allowed messages, O(m) mask operations.  A spur of
        :meth:`_simple` runs it as soon as its walk down the cached layers
        dead-ends."""
        return self._best(first, self._back(end, allowed))

    def _shortest(self, a: int, b: int) -> tuple[int, ...] | None:
        """Bits of the shortest chain from node a into node b, ties broken
        lexicographically by name sequence: :meth:`_best` from the start
        mask of a down the cached layers into the end mask of b.  Equal to
        ``_chain(start, -1, end)``, which would build the same layers again
        for every source."""
        return self._best(self.start[a], self._layers(self.got[b - 1]))

    def simple_chains(self, src, dst, cap=None):
        """All message-simple chains from src to dst, shortest first, lex
        ties; a chain may extend beyond an earlier completion.  Returns
        (chains, truncated): truncated is True when a chain beyond the
        cap exists.  The cap is None, for every chain, or an int of at
        least 1: anything else raises ValueError, since it would bound no
        work."""
        chains, truncated = self._simple(self._bit(src), self._bit(dst), cap)
        return list(map(self._named, chains)), truncated

    def _simple(self, a: int, b: int, cap):
        """Bits of the chains of :meth:`simple_chains`, and its flag, from
        node a into node b.

        Yen's k shortest loopless paths (Management Science, 1971), over
        the message graph with a virtual source (the start mask of a)
        and a virtual sink (the end mask of b).  Each accepted chain is
        spurred only at or after the position where it left the chain it
        was spurred from (Lawler, Management Science, 1972).  A spur at
        position v keeps the chain's first v messages (the root); its
        suffix is the best chain into the sink whose first message follows
        the root but is no next hop that an accepted chain with the same
        root already takes, and which avoids the root.  Suffixes of one
        root keep their (length, names) order once the root is put in
        front, so the candidate heap yields the chains in exactly that
        order.

        Spurs are resolved lazily.  When it is made, a spur records its
        first and root masks and goes on the heap under the key
        (v + d + 1, root), where d is the first cached layer of the sink
        that meets its first mask: no suffix is shorter, and the root
        sorts before every chain that extends it.  At the top of the heap
        a :meth:`_walk` down the cached layers that avoids the root
        resolves it; a completed walk is exactly the suffix that
        :meth:`_chain` would find.  A walk that dead-ends runs the
        restricted :meth:`_chain` search at once.  The resolved chain is
        accepted at once when its key is below every key on the heap,
        since it would be popped next, and goes on the heap as a candidate
        otherwise.  On dense traces most spurs never reach the top before
        the cap is met, so most walks and searches are never run.  A
        candidate chain is accepted only when no pending key is smaller,
        so the first ``cap`` chains, and whether another exists, are those
        of eager Yen, which is canonical: the first ``cap`` message-simple
        chains in (length, names) order.  A candidate still on the heap
        when the cap-th chain is accepted is such another chain, so the
        search stops there.

        Each accepted chain makes at most L + 1 spurs for L the longest
        chain returned, and each spur costs one O(L) walk and at most one
        O(m) search, so a capped search costs O(cap · L · m) mask
        operations."""
        _check_cap(cap)
        start, end = self.start[a], self.got[b - 1]
        layers = self._layers(end)
        best = self._best(start, layers)
        if best is None:
            return [], False
        adj = self.adj
        push, pop = heapq.heappush, heapq.heappop
        out: list[tuple[int, ...]] = []
        hops: dict[tuple[int, ...], int] = {}  # root -> mask of next hops taken
        queued = {best}
        # (key length, key chain, v, first, avoid): a candidate chain, with
        # first 0, or a spur, whose key chain is its root and whose first
        # meets a layer; avoid masks the root, the first v messages of the
        # chain.
        heap = [(len(best), best, 0, 0, 0)]
        waiting = 1  # candidate chains on the heap
        while heap:
            ln, chain, v, first, avoid = pop(heap)
            if first:
                suffix = self._walk(first, layers, ln - v - 1, avoid)
                if len(suffix) < ln - v:
                    suffix = self._chain(first, ~avoid, end)
                    if suffix is None:
                        continue
                chain += suffix
                if chain in queued:
                    continue
                queued.add(chain)
                ln = len(chain)
                if heap and heap[0] < (ln, chain):
                    push(heap, (ln, chain, v, 0, avoid))
                    waiting += 1
                    continue
                # Below every key on the heap: the next chain, accepted now.
            else:
                waiting -= 1
            if len(out) == cap:  # never for cap None
                return out, True
            out.append(chain)
            if len(out) == cap and waiting:
                # A waiting candidate is a further simple chain.
                return out, True
            for v in range(v, ln + 1):
                # A spur never stops at its root: a root that reaches dst
                # is a shorter chain, accepted already.
                root = chain[:v]
                hop = 1 << chain[v] if v < ln else 0  # 0: the sink
                hops[root] = taken = hops.get(root, 0) | hop
                first = (adj[chain[v - 1]] if v else start) & ~(taken | avoid)
                if first:
                    for d, layer in enumerate(layers):
                        if layer & first:
                            push(heap, (v + d + 1, root, v, first, avoid))
                            break
                avoid |= hop
        return out, False


def _zigzag_masks(counts, delivered):
    """(base, zz): the bit of each process's ordinal 0 and the ``zz`` mask
    of every interval, in one pass over the strongly connected components
    of the interval graph (module docstring).

    Node base[p] + x is interval x of P_p, and its program edge goes to the
    next node.  edges[u] holds (v, unit) for each message that P_p sends in
    interval u, received at node v, with its unit, and is None for an
    interval that sends nothing.  Slots 0 and cnt+1 of each process are
    emitted nodes without edges whose mask is 0.

    Tarjan's algorithm (SIAM J. Computing, 1972) runs iteratively, so no
    trace is too long for it, in Pearce's single-array form (IPL 116(1),
    2016).  ``rank`` is 0 while a node is unvisited, its DFS index once
    entered, its low link once it finishes as a non-root, and ``done``,
    above every index, once its component is emitted: an emitted node
    never lowers a rank, so no on-stack test is needed.  A finished
    non-root waits on ``stack``; a root's members are the waiting nodes
    ranked at or above its index.  Components are emitted sinks first, so
    the masks outside one are final and only its members have none; its
    mask is the OR of the units of its message edges and of the masks of
    the edges that leave it, one int for all its members."""
    base, top, size = {}, {}, 0
    for p, cnt in counts.items():
        base[p] = size
        size += cnt + 2
        top[p] = 1 << size  # above the bit of P_p's virtual terminal
    done = size + 1
    zz = [None] * size
    rank = [0] * size
    for p, cnt in counts.items():
        b = base[p]
        zz[b] = zz[b + cnt + 1] = 0
        rank[b] = rank[b + cnt + 1] = done
    edges = [None] * size
    for sp, si, rp, ri in delivered:
        u, v = base[sp] + si, base[rp] + ri
        if edges[u] is None:
            edges[u] = []
        edges[u].append((v, top[rp] - (2 << v)))  # the bits above v

    stack: list[int] = []  # finished non-roots
    calls = []  # (node, its message edges not yet followed or None, its index)
    index = 0
    for root in range(size):
        if rank[root]:
            continue
        v = root  # the next node to enter
        while True:
            if v is not None:
                # Enter v, and run down its program edges while the nodes
                # are new: the search follows them first.
                while True:
                    index += 1
                    rank[v] = index
                    out = edges[v]
                    calls.append((v, out and iter(out), index))
                    v += 1
                    if rank[v]:
                        break
                if rank[v] < rank[v - 1]:
                    rank[v - 1] = rank[v]
                v = None
            u, out, num = calls[-1]
            if out is not None:
                for x, _ in out:
                    if not rank[x]:
                        v = x
                        break
                    if rank[x] < rank[u]:
                        rank[u] = rank[x]
                if v is not None:
                    continue
            calls.pop()
            if rank[u] < num:  # not a root, so calls is not empty
                stack.append(u)
                parent = calls[-1][0]
                if rank[u] < rank[parent]:
                    rank[parent] = rank[u]
                continue
            if not stack or rank[stack[-1]] < num:  # u alone
                mask = zz[u + 1]
                if out is not None:
                    for x, unit in edges[u]:
                        mask |= unit | zz[x]
                zz[u] = mask
                rank[u] = done
            else:
                members = [u]
                while stack and rank[stack[-1]] >= num:
                    members.append(stack.pop())
                mask = 0
                for w in members:
                    got = zz[w + 1]  # None when w + 1 is a member
                    if got and got is not mask:
                        mask = mask | got if mask else got
                    for x, unit in edges[w] or ():
                        got = zz[x]
                        mask |= unit if got is None else unit | got
                for w in members:
                    zz[w] = mask
                    rank[w] = done
            if not calls:
                break
    return base, zz


def _index(trace: Trace) -> _ZigzagIndex:
    """The trace's index, built on first use and cached in the trace's
    instance dict, read there directly: a miss costs no AttributeError."""
    idx = trace.__dict__.get("_zz_index")
    if idx is None:
        idx = _ZigzagIndex(trace)
        trace._zz_index = idx
    return idx


def zigzag_exists(src: CheckpointRecord, dst: CheckpointRecord,
                  trace: Trace) -> tuple[str, ...] | None:
    """The shortest zigzag chain src -> dst as message names, ties broken
    lexicographically by name sequence, or None when there is no zigzag
    path.

    Virtual terminal checkpoints (ordinal = last + 1) are accepted at
    either end.
    """
    idx = _index(trace)
    a, b = idx._bit(src.key()), idx._bit(dst.key())
    if not idx.zz[a] >> b & 1:
        return None
    return idx._named(idx._shortest(a, b))


DEFAULT_MAX_WITNESSES = 32


def _check_cap(cap: int | None) -> None:
    """A witness cap bounds the work, so it is None (exhaustive) or an int
    of at least 1: a fractional cap would never be met."""
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValueError(f"witness cap must be None or an int of at least 1, not {cap!r}")


def find_z_cycles(
    trace: Trace, max_witnesses_per_checkpoint: int | None = DEFAULT_MAX_WITNESSES
) -> list[tuple[CheckpointRecord, list[tuple[str, ...]], bool]]:
    """One (checkpoint, chains, truncated) entry per useless checkpoint, in
    checkpoint order: its simple-chain Z-cycle witnesses as message names,
    shortest first with lexicographic ties, and whether a chain beyond the
    cap exists.

    Dense unprotected traces can hold astronomically many simple cycles,
    so enumeration stops at ``max_witnesses_per_checkpoint`` and its work
    grows with the cap (None: every chain, for desk-scale traces);
    uselessness is decided by reachability, never by this bound.
    Checkpoints with equal start and end masks share one search and one
    chains list.
    """
    cap = max_witnesses_per_checkpoint
    _check_cap(cap)
    idx = _index(trace)
    zz = idx.zz
    cycles = []
    found = {}  # (start mask, end mask) -> (named chains, truncated)
    for a, rec in enumerate(idx.recs):
        if not zz[a] >> a & 1:  # 0 at slot 0 and at the virtual terminal
            continue
        key = idx.start[a], idx.got[a - 1]
        shared = found.get(key)
        if shared is None:
            chains, cut = idx._simple(a, a, cap)
            shared = found[key] = list(map(idx._named, chains)), cut
        cycles.append((rec, *shared))
    return cycles


def useless_checkpoints(trace: Trace) -> set[CheckpointRecord]:
    """Exactly the checkpoints that sit on at least one Z-cycle."""
    idx = _index(trace)
    base, zz = idx.base, idx.zz
    return {rec for (p, x), rec in trace.checkpoints.items()
            if zz[base[p] + x] >> (base[p] + x) & 1}


def _timestamp_groups(idx: _ZigzagIndex) -> list[list[int]]:
    """The bits of the checkpoints grouped by timestamp, in timestamp
    order.  Raises ValueError naming the lowest (process, ordinal)
    checkpoint without a timestamp.  The stamps are read by one C-level
    ``itemgetter``, not by the named tuple's field getter."""
    checkpoints, base = idx.checkpoints, idx.base
    at: dict[int | None, list[int]] = {}  # timestamp -> the bits of its checkpoints
    for (p, x), t in zip(checkpoints, map(itemgetter(3), checkpoints.values())):
        if t in at:
            at[t].append(base[p] + x)
        else:
            at[t] = [base[p] + x]
    if None in at:
        missing = min(key for key, rec in checkpoints.items() if rec.timestamp is None)
        raise ValueError(f"checkpoint {checkpoints[missing].label()} has no timestamp")
    return [at[t] for t in sorted(at)]


def _violating_pairs(idx: _ZigzagIndex):
    """Yield (a, b) in checkpoint order for every pair connected by a
    zigzag path a -> b with a.timestamp >= b.timestamp.

    The targets of a are the set bits of ``zz[a] & below(t(a))`` (module
    docstring), taken lowest first; the bits are process-major, so that is
    checkpoint order.  Raises ValueError, before any pair, for a
    checkpoint without a timestamp."""
    zz, recs = idx.zz, idx.recs
    hits, below = {}, 0
    for group in _timestamp_groups(idx):
        for a in group:
            below |= 1 << a
        hits.update((a, zz[a] & below) for a in group)
    for a in sorted(hits):
        hit, src = hits[a], recs[a]
        while hit:
            low = hit & -hit
            yield src, recs[low.bit_length() - 1]
            hit ^= low


def check_z_consistency(
    trace: Trace,
) -> list[tuple[CheckpointRecord, CheckpointRecord, tuple[str, ...]]]:
    """Violations of zigzag-consistent timestamping: one (source, target,
    chain) entry per ordered checkpoint pair (the two may be equal) joined
    by a zigzag path yet with source.t >= target.t, in checkpoint order;
    the chain is the one :func:`zigzag_exists` returns.  Requires every
    checkpoint to carry a timestamp.  Pairs with the same source start
    mask and target end mask share one chain search and one chain.
    """
    idx = _index(trace)
    base = idx.base
    found = {}  # (start mask, end mask) -> names
    violations = []
    for a, b in _violating_pairs(idx):
        u, v = base[a.process] + a.ordinal, base[b.process] + b.ordinal
        key = idx.start[u], idx.got[v - 1]
        shared = found.get(key)
        if shared is None:
            shared = found[key] = idx._named(idx._shortest(u, v))
        violations.append((a, b, shared))
    return violations


def quick_findings(trace: Trace) -> tuple[int, int]:
    """(useless count, violation count) without witness construction.

    Existence-only fast path for fuzz campaigns: a checkpoint a is useless
    when its own bit is set in its mask, and its violations are a popcount
    of ``zz[a] & below(t(a))``, one below mask growing by timestamp group.
    """
    idx = _index(trace)
    zz = idx.zz
    useless = violations = below = 0
    for group in _timestamp_groups(idx):
        for a in group:
            below |= 1 << a
        for a in group:
            mask = zz[a]
            useless += mask >> a & 1
            violations += (mask & below).bit_count()
    return useless, violations


def oracle_report(
    trace: Trace, max_witnesses_per_checkpoint: int | None = DEFAULT_MAX_WITNESSES
) -> OracleReport:
    """Full report: the Z-cycle entries of the useless checkpoints, the
    Z-consistency violations, and summary counters.

    The useless set is decided by reachability, so it is exact even when
    the witness cap truncates cycle enumeration (stats carry the number
    of chains as ``z_cycles`` and a ``witnesses_truncated`` count of the
    checkpoints that lie on more Z-cycles than the cap)."""
    cycles = find_z_cycles(trace, max_witnesses_per_checkpoint)
    violations = check_z_consistency(trace)
    stats = {
        "processes": trace.n,
        "events": trace.event_count,
        "messages_delivered": len(trace.delivered),
        "checkpoints": len(trace.checkpoints),
        "z_cycles": sum(len(chains) for _, chains, _ in cycles),
        "useless": len(cycles),
        "violations": len(violations),
        "witnesses_truncated": sum(cut for _, _, cut in cycles),
    }
    return OracleReport(cycles, violations, stats)
