import hashlib
import heapq
import sys
import time
import tracemalloc
from math import inf

import pytest

from cicsim import oracle
from cicsim.computation import (
    CKPT_INITIAL,
    EV_CKPT,
    EV_RECV,
    EV_SEND,
    CheckpointRecord,
    Event,
    Trace,
    is_consistent_global_checkpoint,
)
from cicsim.oracle import (
    check_z_consistency,
    find_z_cycles,
    oracle_report,
    quick_findings,
    useless_checkpoints,
    zigzag_exists,
)
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.report import run_report, to_json
from cicsim.rng import SplitMix64
from cicsim.scenarios import (
    FIXTURE_NAMES,
    FuzzParams,
    _is_causal,
    builtin,
    parse_scenario,
    random_scenario,
    serialize_scenario,
)
from cicsim.simulator import ScenarioError, run_scenario
from oracle_rows import z_cycle_rows
from references import (
    checkpoint_events,
    consistent_membership,
    happened_before,
    orphan_reach,
    reach_mismatches,
    sorted_checkpoints,
    virtual_terminals,
)


def keys(records):
    return {r.key() for r in records}


def endpoints(events):
    """(sends, recvs, delivered): each message's (process, interval) send
    and receive endpoints, where an event's interval is the number of
    checkpoints its process has taken so far, and the delivered names."""
    taken, sends, recvs = {}, {}, {}
    for ev in events:
        if ev.kind == EV_CKPT:
            taken[ev.process] = taken.get(ev.process, 0) + 1
        where = (ev.process, taken.get(ev.process, 0))
        if ev.kind == EV_SEND:
            sends[ev.message] = where
        elif ev.kind == EV_RECV:
            recvs[ev.message] = where
    return sends, recvs, [m for m in sends if m in recvs]


def reference_zigzag(events):
    """``exists(src, dst)`` over (process, ordinal) keys, written from the
    definition in the ``cicsim.oracle`` docstring: a plain search over
    each delivered message's endpoints."""
    sends, recvs, delivered = endpoints(events)

    def chained(p, x):
        """Messages that can appear in a zigzag chain starting at C_p^x."""
        found = {m for m in delivered if sends[m][0] == p and sends[m][1] >= x}
        todo = list(found)
        while todo:
            q, r = recvs[todo.pop()]
            for m in delivered:
                if m not in found and sends[m][0] == q and sends[m][1] >= r:
                    found.add(m)
                    todo.append(m)
        return found

    earliest = {}  # source -> {process: earliest interval a chain ends in}

    def exists(src, dst):
        if src not in earliest:
            got = earliest[src] = {}
            for m in chained(*src):
                q, r = recvs[m]
                got[q] = min(r, got.get(q, r))
        return earliest[src].get(dst[0], dst[1]) < dst[1]

    return exists


def reference_traces():
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        for protocol in PROTOCOL_NAMES:
            yield f"{name}/{protocol}", run_scenario(scen, protocol).trace
    for seed in range(250):
        params = FuzzParams(n=3 + seed % 6, events=20 + seed * 53 % 181,
                            p_ckpt=(0.05, 0.1, 0.2)[seed % 3], seed=seed + 7000)
        scen = random_scenario(params)
        for protocol in ("none", "fine"):
            yield f"seed {seed + 7000}/{protocol}", run_scenario(scen, protocol).trace


def test_zigzag_exists_matches_definition_reference():
    # Every checkpoint pair, virtual terminals at both ends included.
    cycles = 0
    for label, trace in reference_traces():
        exists = reference_zigzag(trace.events)
        recs = sorted_checkpoints(trace) + virtual_terminals(trace)
        for a in recs:
            for b in recs:
                want = exists(a.key(), b.key())
                assert (zigzag_exists(a, b, trace) is not None) == want, (
                    f"{label}: {a.label()} -> {b.label()}"
                )
                cycles += want and a is b
    assert cycles > 0


def rounds_reach(trace):
    """``reach`` as the least fixpoint of the recurrence in the
    ``cicsim.oracle`` docstring, by full passes over every interval until
    no row moves."""
    counts = {p: trace.ckpt_counts.get(p, 0) for p in range(1, trace.n + 1)}
    sent = {p: [[] for _ in range(cnt + 2)] for p, cnt in counts.items()}
    for name in sorted(trace.delivered):
        sp, si, rp, ri = trace.delivered[name]
        sent[sp][si].append((rp, ri))
    nothing = [trace.event_count + 2] * (trace.n + 1)
    reach = {p: [nothing] * (cnt + 2) for p, cnt in counts.items()}
    changed = True
    while changed:
        changed = False
        for p, cnt in counts.items():
            rows = reach[p]
            for x in range(cnt, 0, -1):
                vec = rows[x + 1]
                for q, r in sent[p][x]:
                    vec = [min(a, b) for a, b in zip(vec, reach[q][r])]
                    vec[q] = min(vec[q], r)
                if vec != rows[x]:
                    rows[x] = vec
                    changed = True
    return reach


def reach_traces():
    """(label, trace): the reference traces, long-safe-shaped runs, and
    dense unprotected runs whose interval graphs have large components."""
    yield from reference_traces()
    for seed in range(10):
        scen = random_scenario(FuzzParams(n=8, events=600, max_in_flight=16, seed=seed + 9100))
        for protocol in ("pi", "fi-clockv", "fi-greater", "lazy-fi"):
            yield f"long seed {seed + 9100}/{protocol}", run_scenario(scen, protocol).trace
    for seed in range(8):
        scen = random_scenario(FuzzParams(n=5 + seed % 4, events=200 + seed * 257, p_send=0.45,
                                          seed=seed + 9200))
        yield f"dense seed {seed + 9200}/none", run_scenario(scen, "none").trace


def rows_as_masks(trace, reach):
    """The ``zz`` masks, in node order, that ``reach`` rows stand for:
    P_p owns bits base[p] .. base[p] + cnt + 1, and a row sets the bit of
    every ordinal y of P_q with reach[q] < y, the virtual terminal
    included.  Rows shared between intervals are encoded once."""
    counts = [trace.ckpt_counts[p] for p in range(1, trace.n + 1)]
    base = [sum(cnt + 2 for cnt in counts[:p]) for p in range(trace.n)]
    memo = {}

    def encode(row):
        mask = 0
        for q, (b, cnt) in enumerate(zip(base, counts), 1):
            if row[q] <= cnt:
                mask |= (1 << (b + cnt + 2)) - (2 << (b + row[q]))
        return mask

    masks = []
    for p in range(1, trace.n + 1):
        for row in reach[p]:
            if id(row) not in memo:
                memo[id(row)] = encode(row)
            masks.append(memo[id(row)])
    return masks


def rows_violation_count(reach, recs):
    """The violation count from ``reach`` rows by a per-row scan: for a
    source a and a process q, the checkpoints of q above reach[a][q] with
    a timestamp at most a's, scanned only when the least timestamp among
    them is at most a's."""
    scan = []
    for q in sorted({rec.process for rec in recs}):
        row = [rec for rec in recs if rec.process == q]
        floor = [rec.timestamp for rec in row] + [inf]  # floor[r]: ordinals above r
        for r in range(len(row) - 1, -1, -1):
            floor[r] = min(floor[r], floor[r + 1])
        scan.append((q, floor, row))
    count = 0
    for a in recs:
        got, t = reach[a.process][a.ordinal], a.timestamp
        for q, floor, row in scan:
            r = got[q]
            if r < len(floor) and floor[r] <= t:
                count += sum(1 for b in row[r:] if b.timestamp <= t)
    return count


def test_reach_rows_match_rounds_reference():
    count = 0
    for label, trace in reach_traces():
        assert oracle._index(trace).zz == rows_as_masks(trace, rounds_reach(trace)), label
        count += 1
    assert count == 690 + 40 + 8


def deep_chain_trace():
    """P1 takes about 20,000 basic checkpoints, so the program edges of
    the interval graph form a path far deeper than the recursion limit.
    Each of two message pairs puts one checkpoint on a Z-cycle."""
    run = ["ckpt 1"] * 10_000
    steps = ["procs 2"]
    for k in (1, 2):
        steps += [f"send 2 1 a{k}", f"recv 1 a{k}", "ckpt 1", f"send 1 2 b{k}", f"recv 2 b{k}",
                  "ckpt 2", *run]
    return run_scenario(parse_scenario("\n".join(steps) + "\n"), "none").trace


def test_reach_is_iterative_on_chains_deeper_than_the_recursion_limit():
    trace = deep_chain_trace()
    assert trace.ckpt_counts[1] > sys.getrecursionlimit()
    want = rounds_reach(trace)
    useless = useless_checkpoints(trace)
    assert oracle._index(trace).zz == rows_as_masks(trace, want)
    assert keys(useless) == {(1, 2), (1, 10_003)}
    assert keys(useless) == {(p, x) for p, rows in want.items()
                             for x in range(1, len(rows) - 1) if rows[x][p] < x}
    violations = rows_violation_count(want, sorted_checkpoints(trace))
    assert quick_findings(trace) == (2, violations)


def test_quick_findings_memory_is_bounded_on_deep_chains():
    # The count keeps one running "timestamp <= t" mask.  A cumulative
    # mask kept per timestamp would grow as V² here: V = 20,010 intervals,
    # and about as many distinct timestamps.
    trace = deep_chain_trace()
    tracemalloc.start()
    try:
        quick_findings(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def reference_chains(events):
    """``chains(src, dst)``: every message-simple zigzag chain from src to
    dst, sorted by (length, names), written from the definition in the
    ``cicsim.oracle`` docstring as a plain depth-first search."""
    sends, recvs, delivered = endpoints(events)
    sent_by = {}
    for m in delivered:
        sent_by.setdefault(sends[m][0], []).append(m)
    starting = {}  # source -> every simple chain that starts there

    def extend(chain, q, r, out):
        for m in sent_by.get(q, ()):
            if sends[m][1] >= r and m not in chain:
                out.append(chain + (m,))
                extend(chain + (m,), *recvs[m], out)
        return out

    def chains(src, dst):
        if src not in starting:
            starting[src] = extend((), *src, [])
        q, y = dst
        ending = [c for c in starting[src] if recvs[c[-1]][0] == q and recvs[c[-1]][1] < y]
        return sorted(ending, key=lambda c: (len(c), c))

    return chains


def small_reference_traces():
    """(label, trace): every built-in × every protocol and 100 seeded
    scenarios of 12 to 30 steps × none, fine, all small enough for an
    exhaustive search."""
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        for protocol in PROTOCOL_NAMES:
            yield f"{name}/{protocol}", run_scenario(scen, protocol).trace
    for seed in range(100):
        params = FuzzParams(n=3 + seed % 3, events=12 + seed * 7 % 19,
                            p_ckpt=(0.2, 0.3, 0.4)[seed % 3], seed=seed + 8000)
        scen = random_scenario(params)
        for protocol in ("none", "fine"):
            yield f"seed {seed + 8000}/{protocol}", run_scenario(scen, protocol).trace


def test_witness_search_matches_definition_reference():
    # Every checkpoint pair, virtual terminals at both ends included.
    many = 0
    for label, trace in small_reference_traces():
        idx = oracle._index(trace)
        chains = reference_chains(trace.events)
        recs = sorted_checkpoints(trace) + virtual_terminals(trace)
        for a in recs:
            for b in recs:
                want = chains(a.key(), b.key())
                where = f"{label}: {a.label()} -> {b.label()}"
                assert zigzag_exists(a, b, trace) == (want[0] if want else None), where
                for cap in (1, 2, 5, 32, None):
                    cut = want if cap is None else want[:cap]
                    more = cap is not None and len(want) > cap
                    assert idx.simple_chains(a.key(), b.key(), cap) == (cut, more), (
                        f"{where}, cap {cap}"
                    )
                many += len(want) > 32
    assert many > 0


def eager_simple_chains(idx, src, dst, cap=None):
    """``simple_chains`` by eager Yen with Lawler's rule: every spur runs
    its restricted ``_chain`` search as soon as it is made, and the heap
    holds only whole chains."""
    start, end = idx.start_mask(src), idx.end_mask(dst)
    best = idx._chain(start, -1, end)
    if best is None:
        return [], False
    out = []
    hops = {}  # root -> mask of next hops taken
    heap = [(len(best), best, 0)]
    queued = {best}
    while heap and (cap is None or len(out) < cap):
        ln, chain, dev = heapq.heappop(heap)
        out.append(chain)
        root_mask = sum(1 << j for j in chain[:dev])
        for v in range(dev, ln + 1):
            root = chain[:v]
            hop = 1 << chain[v] if v < ln else 0  # 0: the sink
            hops[root] = taken = hops.get(root, 0) | hop
            first = (idx.adj[root[-1]] if root else start) & ~taken
            spur = idx._chain(first, ~root_mask, end) if first else None
            if spur is not None and root + spur not in queued:
                queued.add(root + spur)
                heapq.heappush(heap, (v + len(spur), root + spur, v))
            root_mask |= hop
    return [tuple(idx.names[j] for j in chain) for chain in out], bool(heap)


def dense_none_runs():
    """(label, scenario, run): unprotected runs shaped like the
    ``report-none`` benchmark, n 5-6 and 100-400 events, where most
    useless checkpoints lie on more Z-cycles than the default cap."""
    for seed in range(16):
        n = 5 + seed % 2
        rates = tuple(0.02 + 0.04 * ((seed + p) % 7) for p in range(n))
        scen = random_scenario(
            FuzzParams(n=n, events=100 + seed * 20, p_ckpt=rates, seed=seed + 9300)
        )
        yield f"dense seed {seed + 9300}", scen, run_scenario(scen, "none")


def dense_none_traces():
    """(label, trace) of :func:`dense_none_runs`."""
    for label, _, run in dense_none_runs():
        yield label, run.trace


def test_lazy_witness_search_matches_eager_yen_on_dense_traces():
    useless = truncated = pairs = 0
    for label, trace in dense_none_traces():
        idx = oracle._index(trace)
        for rec in useless_checkpoints(trace):
            useless += 1
            for cap in (1, 2, 5, 32):
                got = idx.simple_chains(rec.key(), rec.key(), cap)
                assert got == eager_simple_chains(idx, rec.key(), rec.key(), cap), (
                    f"{label}: {rec.label()}, cap {cap}"
                )
                truncated += got[1]
        entries = []
        for a, b in oracle._violating_pairs(idx):
            want = idx._chain(idx.start_mask(a.key()), -1, idx.end_mask(b.key()))
            chain = zigzag_exists(a, b, trace)
            assert chain == tuple(idx.names[j] for j in want), (
                f"{label}: {a.label()} -> {b.label()}"
            )
            entries.append((a, b, chain))
            pairs += 1
        assert check_z_consistency(trace) == entries, label
    assert useless > 100 and truncated > 100 and pairs > 1000


def test_capped_witness_reports_on_dense_traces_are_pinned():
    # One SHA-256 over the JSON reports of the dense traces at several
    # caps: a change to the witness search that keeps its output keeps
    # these bytes.  eager_simple_chains calls the same _chain as the
    # search, so it alone cannot catch a change to _chain.
    digest = hashlib.sha256()
    useless = truncated = 0
    for _, scen, run in dense_none_runs():
        text = serialize_scenario(scen)
        for cap in (1, 2, 5, 32):
            rep = oracle_report(run.trace, cap)
            digest.update(to_json(run_report(run, rep, text)).encode())
            useless += rep.stats["useless"]
            truncated += rep.stats["witnesses_truncated"]
    assert (useless, truncated) == (2008, 1995)
    assert digest.hexdigest() == (
        "7ad3ed34057f5d39c623a5cfd7a8d6ea89f4afd3833811353b9ae48e97ccd593"
    )


def report_none_runs(count=20):
    """(label, run): unprotected 100-event n=6 runs drawn like the
    ``report-none`` benchmark's, one checkpoint rate per process."""
    for seed in range(count):
        prng = SplitMix64(seed ^ 0xC1C51A8)
        rates = tuple(0.02 + 0.28 * prng.random() for _ in range(6))
        params = FuzzParams(n=6, events=100, p_ckpt=rates, p_send=0.35,
                            max_in_flight=8, seed=seed + 9400)
        yield f"report-none seed {seed + 9400}", run_scenario(random_scenario(params), "none")


def test_shared_witness_searches_equal_unshared_ones(monkeypatch):
    # oracle_report searches once per distinct (start mask, end mask) pair
    # and reuses the result.  Every checkpoint's chains and truncation flag
    # and every pair's witness must equal a search of its own on a newly
    # built index, and the searches run must be exactly one per distinct
    # pair.  The entries name exactly the useless checkpoints of a
    # hand-built copy of the trace.
    calls = {"_simple": 0, "_shortest": 0}
    for name in calls:
        method = getattr(oracle._ZigzagIndex, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(oracle._ZigzagIndex, name, counted)

    cases = [(label, run.trace, (1, 2, 5, 32)) for label, _, run in dense_none_runs()]
    for seed, (label, run) in enumerate(report_none_runs()):
        cases.append((label, run.trace, (1, 2, 5, 32)))
        # Arbitrary timestamps also give violations along causal chains,
        # which logical-clock stamps never do.
        cases.append((f"{label}, restamped", restamped(run.trace, seed), (32,)))
    for name in FIXTURE_NAMES:  # small enough for exhaustive search
        scen, _ = builtin(name)
        cases += [(f"{name} under {p}", run_scenario(scen, p).trace, (1, None))
                  for p in ("none", "fine", "lazy-fine")]
    shared_cycles = shared_pairs = truncated = 0
    for label, trace, caps in cases:
        fresh = oracle._ZigzagIndex(trace)
        useless = useless_checkpoints(Trace(trace.n, trace.events))
        for cap in caps:
            where = f"{label}, cap {cap}"
            calls.update(_simple=0, _shortest=0)
            rep = oracle_report(trace, cap)
            assert rep.useless == useless, where
            cycle_keys = {(fresh.start_mask(r.key()), fresh.end_mask(r.key()))
                          for r, _, _ in rep.z_cycles}
            pair_keys = {(fresh.start_mask(a.key()), fresh.end_mask(b.key()))
                         for a, b, _ in rep.violations}
            assert calls == {"_simple": len(cycle_keys), "_shortest": len(pair_keys)}, where
            order = [r.key() for r, _, _ in rep.z_cycles]
            assert order == sorted(keys(useless)), where
            for rec, chains, cut in rep.z_cycles:
                a = fresh._bit(rec.key())
                want, want_cut = fresh._simple(a, a, cap)
                assert chains == [tuple(fresh.names[j] for j in c) for c in want], (
                    f"{where}: {rec.label()}"
                )
                assert cut == want_cut, f"{where}: {rec.label()}"
            flags = sum(cut for _, _, cut in rep.z_cycles)
            assert rep.stats["witnesses_truncated"] == flags, where
            assert rep.stats["z_cycles"] == len(z_cycle_rows(rep.z_cycles)), where
            truncated += flags
            for a, b, chain in rep.violations:
                u, v = fresh._bit(a.key()), fresh._bit(b.key())
                assert (a, b, chain) == (a, b, fresh._named(fresh._shortest(u, v))), (
                    f"{label}: {a.label()} -> {b.label()}"
                )
            shared_cycles += len(rep.z_cycles) - len(cycle_keys)
            shared_pairs += len(rep.violations) - len(pair_keys)
    # The traces do share mask pairs, so the shared path is exercised, and
    # some checkpoints lie on more Z-cycles than the cap.
    assert shared_cycles > 0 and shared_pairs > 0 and truncated > 0


def test_simple_chains_rejects_a_cap_below_one(fixture_run):
    # A cap has to bound the work, so no entry point reads a cap below 1
    # as "no cap"; None is the exhaustive search.
    trace = fixture_run("ccp", "none").trace
    idx = oracle._index(trace)
    for cap in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="at least 1"):
            idx.simple_chains((3, 3), (3, 3), cap)
        with pytest.raises(ValueError, match="at least 1"):
            find_z_cycles(trace, cap)
    assert len(idx.simple_chains((3, 3), (3, 3), None)[0]) == 2
    # find_z_cycles checks the cap before any work, even on a clean trace.
    clean = fixture_run("ccp", "fi").trace
    assert not useless_checkpoints(clean)
    with pytest.raises(ValueError, match="at least 1"):
        find_z_cycles(clean, -1)


def test_witnesses_truncated_means_a_chain_beyond_the_cap(fixture_run):
    trace = fixture_run("ccp", "none").trace
    # C_3^3, the only useless checkpoint, lies on exactly two Z-cycles.
    assert len(z_cycle_rows(find_z_cycles(trace, max_witnesses_per_checkpoint=None))) == 2
    assert oracle_report(trace, 2).stats["witnesses_truncated"] == 0
    assert oracle_report(trace, 1).stats["witnesses_truncated"] == 1
    # The second chain extends the first one.
    idx = oracle._index(trace)
    assert idx.simple_chains((1, 2), (2, 3), 1) == ([("m4",)], True)
    assert idx.simple_chains((1, 2), (2, 3), 2) == ([("m4",), ("m4", "m3", "m6")], False)


def test_ccp_causal_zigzag(fixture_run):
    trace = fixture_run("ccp", "none").trace
    chain = zigzag_exists(trace.checkpoints[(1, 1)], trace.checkpoints[(3, 2)], trace)
    assert chain == ("m1", "m2")
    assert _is_causal(trace, chain)


def test_ccp_noncausal_zigzag(fixture_run):
    trace = fixture_run("ccp", "none").trace
    chain = zigzag_exists(trace.checkpoints[(1, 2)], trace.checkpoints[(3, 3)], trace)
    assert chain == ("m4", "m3")
    assert not _is_causal(trace, chain)


def test_claim_causality_matches_causal_precedence(fixture_run):
    # The zigzag claim reads a witness as causal when each receive comes
    # before the next send in the event view's positions; that is causal
    # precedence on each link, whose receive and send share a process.
    traces = [fixture_run("ccp", "none").trace] + [
        run_scenario(random_scenario(FuzzParams(n=4, events=80, seed=s)), "none").trace
        for s in range(6)
    ]
    seen = set()
    for trace in traces:
        at, events = trace._msg_pos, trace.events
        precedes = happened_before(events)
        recs = sorted_checkpoints(trace)
        for names in (c for a in recs for b in recs if (c := zigzag_exists(a, b, trace))):
            want = all(precedes(events[at[a][1]], events[at[b][0]])
                       for a, b in zip(names, names[1:]))
            assert _is_causal(trace, names) == want, names
            seen.add(want)
    assert seen == {True, False}


def test_z_cycle_witnesses_are_never_causal():
    # A Z-cycle on C_p^x ends with a receive by P_p before x and starts
    # with a send by P_p at x or later, so the report writes "causal":
    # false as a constant.
    traces = [trace for _, trace in dense_none_traces()]
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        traces += [run_scenario(scen, p).trace for p in ("none", "fine", "lazy-fine")]
    chains = 0
    for trace in traces:
        idx = oracle._index(trace)
        for rec in useless_checkpoints(trace):
            a = idx._bit(rec.key())
            for cap in (1, 5, 32):
                for chain in idx._simple(a, a, cap)[0]:
                    names = tuple(idx.names[j] for j in chain)
                    assert not _is_causal(trace, names), (rec.label(), names)
                    chains += 1
    assert chains > 1000


def test_zigzag_absent_without_messages():
    events = [
        Event(i, 1, "ckpt", checkpoint=CheckpointRecord(i, 1, CKPT_INITIAL, 1))
        for i in (1, 2)
    ]
    trace = Trace(2, events)
    c = trace.checkpoints[(1, 1)]
    assert zigzag_exists(c, c, trace) is None


def test_ccp_cycle_witnesses_exact(fixture_run):
    trace = fixture_run("ccp", "none").trace
    cycles = find_z_cycles(trace)
    assert [(rec.key(), chains, cut) for rec, chains, cut in cycles] == [
        ((3, 3), [("m6", "m3"), ("m6", "m5", "m4", "m3")], False),
    ]


def test_single_process_trace_is_refused():
    events = [Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, 1))]
    with pytest.raises(ScenarioError) as exc:
        Trace(1, events)
    assert exc.value.problems == ["process count 1 < 2"]


def test_z_consistent_fixture_has_no_cycles(fixture_run):
    assert find_z_cycles(fixture_run("z-consistent", "none").trace) == []


def test_ccp_useless_set(fixture_run):
    trace = fixture_run("ccp", "none").trace
    assert keys(useless_checkpoints(trace)) == {(3, 3)}


def test_fi_run_has_no_useless_checkpoints(fixture_run):
    assert useless_checkpoints(fixture_run("ccp", "fi").trace) == set()


def test_fine_counterexample_useless(fixture_run):
    got = useless_checkpoints(fixture_run("fine-counterexample", "fine").trace)
    assert keys(got) == {(3, 2)}


def test_ccp_z_consistency_violation(fixture_run):
    trace = fixture_run("ccp", "none").trace
    pairs = {(a.key(), b.key()) for a, b, _ in check_z_consistency(trace)}
    assert ((3, 3), (1, 3)) in pairs
    for a, b, chain in check_z_consistency(trace):
        assert a.timestamp >= b.timestamp
        assert chain


def test_fine_proposal_violation(fixture_run):
    trace = fixture_run("fine-proposal", "fine").trace
    pairs = [(a.key(), b.key()) for a, b, _ in check_z_consistency(trace)]
    assert pairs == [((1, 2), (3, 2))]


@pytest.mark.parametrize("entry", [check_z_consistency, quick_findings, oracle_report],
                         ids=lambda entry: entry.__name__)
def test_missing_timestamp_rejected(entry):
    events = [
        Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, None)),
        Event(2, 1, "ckpt", checkpoint=CheckpointRecord(2, 1, CKPT_INITIAL, 1)),
    ]
    with pytest.raises(ValueError, match=r"^checkpoint C_1\^1 has no timestamp$"):
        entry(Trace(2, events))


def test_missing_timestamp_names_the_lowest_checkpoint():
    # C_2^2 comes first in the trace, but C_1^2 is the lower (process,
    # ordinal) key, so it is the one named.
    events = [
        Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, 1)),
        Event(2, 1, "ckpt", checkpoint=CheckpointRecord(2, 1, CKPT_INITIAL, 1)),
        Event(2, 2, "ckpt", checkpoint=CheckpointRecord(2, 2, "basic", None)),
        Event(1, 2, "ckpt", checkpoint=CheckpointRecord(1, 2, "basic", None)),
    ]
    with pytest.raises(ValueError, match=r"^checkpoint C_1\^2 has no timestamp$"):
        quick_findings(Trace(2, events))


def reference_violating_pairs(reach, recs):
    """The all-pairs scan of ``reach`` rows: every source against every
    checkpoint."""
    for a in recs:
        row = reach[a.process][a.ordinal]
        for b in recs:
            if a.timestamp >= b.timestamp and row[b.process] < b.ordinal:
                yield a, b


def restamped(trace, seed):
    """The same computation with arbitrary, non-monotone timestamps."""
    draw = SplitMix64(seed)
    events = []
    for ev in trace.events:
        if ev.checkpoint is not None:
            rec = ev.checkpoint._replace(timestamp=1 + draw.below(6))
            ev = ev._replace(checkpoint=rec)
        events.append(ev)
    return Trace(trace.n, events)


def test_violation_scan_matches_all_pairs_reference():
    def ckpt(p, ordinal, x, t):
        kind = CKPT_INITIAL if x == 1 else "basic"
        return Event(p, ordinal, EV_CKPT, checkpoint=CheckpointRecord(p, x, kind, t))

    # m1 leaves P1's last interval and reaches P2 in its first, so the
    # reach row of each P1 checkpoint covers every P2 ordinal above 1 and
    # the rows of P2's checkpoints are empty.  P2's timestamps go down.
    hand = Trace(2, [
        ckpt(1, 1, 1, 4), ckpt(2, 1, 1, 1), ckpt(1, 2, 2, 2), Event(1, 3, EV_SEND, "m1", dest=2),
        Event(2, 2, EV_RECV, "m1"), ckpt(2, 3, 2, 9), ckpt(2, 4, 3, 3), ckpt(2, 5, 4, 4),
    ])
    pairs = oracle._violating_pairs(oracle._index(hand))
    assert [(a.key(), b.key()) for a, b in pairs] == [((1, 1), (2, 3)), ((1, 1), (2, 4))]
    traces = [hand]
    for seed in range(60):
        scen = random_scenario(FuzzParams(n=3 + seed % 4, events=30 + seed * 7 % 150,
                                          seed=seed + 5100))
        for protocol in ("none", "fine", "lazy-fine"):
            trace = run_scenario(scen, protocol).trace
            traces += [trace, restamped(trace, seed)]
    found = 0
    for trace in traces:
        got = list(oracle._violating_pairs(oracle._index(trace)))
        assert got == list(reference_violating_pairs(rounds_reach(trace),
                                                     sorted_checkpoints(trace)))
        assert quick_findings(trace)[1] == len(got)
        found += len(got)
    assert found > 1000


def test_membership_on_ccp(fixture_run):
    trace = fixture_run("ccp", "none").trace
    useful = consistent_membership(trace)
    all_real = keys(trace.checkpoints.values())
    assert all_real - keys(useful) == {(3, 3)}


def test_membership_catches_a_corrupted_mask():
    # Membership decides compatibility from the messages alone.  Masks
    # corrupted to hide every zigzag path into or out of the useless C_3^3
    # make the two routes disagree; a membership test read off the same
    # masks would agree with them and miss it.
    trace = run_scenario(builtin("ccp")[0], "none").trace
    real = keys(trace.checkpoints.values())
    assert real - keys(consistent_membership(trace)) == {(3, 3)}
    assert keys(useless_checkpoints(trace)) == {(3, 3)}
    idx = oracle._index(trace)
    bit = idx.base[3] + 3
    idx.zz = [0 if u == bit else mask & ~(1 << bit) for u, mask in enumerate(idx.zz)]
    assert keys(useless_checkpoints(trace)) == set()
    assert real - keys(consistent_membership(trace)) == {(3, 3)}


def test_orphan_route_agrees_and_catches_every_flipped_zz_bit():
    # The orphan-constraint route reads only the scenario's steps and the
    # forced step indexes.  It gives every built-in's masks under every
    # protocol, and on ccp each single flipped bit of every mask, slot 0
    # and virtual terminal included, shows at exactly its checkpoint.
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        for protocol in PROTOCOL_NAMES:
            run = run_scenario(scen, protocol)
            idx = oracle._index(run.trace)
            route = orphan_reach(scen.n, scen.steps, run.forced_step_indexes())
            assert reach_mismatches(route, idx.counts, idx.base, idx.zz) == [], (name, protocol)
    scen, _ = builtin("ccp")
    run = run_scenario(scen, "none")
    idx = oracle._index(run.trace)
    route = orphan_reach(scen.n, scen.steps, run.forced_step_indexes())
    flips = 0
    for p, b in idx.base.items():
        for x in range(idx.counts[p] + 2):
            for bit in range(len(idx.zz)):
                zz = list(idx.zz)
                zz[b + x] ^= 1 << bit
                assert reach_mismatches(route, idx.counts, idx.base, zz) == [(p, x)]
                flips += 1
    assert flips == len(idx.zz) ** 2 == 196


def test_membership_trivial_without_messages():
    events = [
        Event(i, 1, "ckpt", checkpoint=CheckpointRecord(i, 1, CKPT_INITIAL, 1))
        for i in (1, 2, 3)
    ]
    trace = Trace(3, events)
    assert keys(consistent_membership(trace)) == {(1, 1), (2, 1), (3, 1)}


def test_virtual_terminals_never_in_traces(fixture_run):
    trace = fixture_run("ccp", "none").trace
    terms = virtual_terminals(trace)
    assert [t.key() for t in terms] == [(1, 4), (2, 3), (3, 4)]
    assert all(t.key() not in trace.checkpoints for t in terms)


def test_zigzag_accepts_virtual_endpoints(fixture_run):
    trace = fixture_run("ccp", "none").trace
    term_p2 = virtual_terminals(trace)[1]
    assert zigzag_exists(trace.checkpoints[(3, 3)], term_p2, trace) == ("m6",)
    # virtual terminals sit at trace end: nothing is sent after them
    assert zigzag_exists(term_p2, trace.checkpoints[(3, 3)], trace) is None
    with pytest.raises(ValueError):
        zigzag_exists(
            CheckpointRecord(2, 9, "virtual-terminal", None),
            trace.checkpoints[(3, 3)],
            trace,
        )


@pytest.mark.parametrize("bad", [(1, 0), (2, 4), (3, 5), (4, 1), (True, 2), (1.0, 2), ([1], 1)])
def test_every_entry_point_rejects_a_checkpoint_out_of_range(fixture_run, bad):
    # Checkpoint counts {1: 3, 2: 2, 3: 3}: each key lies just outside a
    # process's ordinals 1..cnt+1, names no process, or has a process or
    # ordinal that is not an exact int (True and 1.0 hash as 1).  The
    # per-interval tables are flat, so (2, 4) would read P3's slot 0
    # without the check.
    trace = fixture_run("ccp", "none").trace
    assert trace.ckpt_counts == {1: 3, 2: 2, 3: 3}
    idx = oracle._index(trace)
    ok, rec = (1, 1), CheckpointRecord(*bad, "virtual-terminal", None)
    calls = [
        lambda: zigzag_exists(rec, trace.checkpoints[ok], trace),
        lambda: zigzag_exists(trace.checkpoints[ok], rec, trace),
        lambda: idx.start_mask(bad),
        lambda: idx.end_mask(bad),
        lambda: idx.simple_chains(bad, ok),
        lambda: idx.simple_chains(ok, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="does not exist"):
            call()


def test_membership_complement_equals_useless_on_random_traces():
    for seed in range(10):
        scen = random_scenario(FuzzParams(n=3 + seed % 2, events=22, seed=seed + 100))
        trace = run_scenario(scen, "none").trace
        useful = consistent_membership(trace)
        complement = keys(trace.checkpoints.values()) - keys(useful)
        assert complement == keys(useless_checkpoints(trace)), f"seed {seed + 100}"


def test_causality_between_checkpoints_implies_zigzag():
    for seed in (5, 21, 33):
        scen = random_scenario(FuzzParams(n=3, events=28, seed=seed))
        trace = run_scenario(scen, "none").trace
        recs = sorted_checkpoints(trace)
        precedes = happened_before(trace.events)
        at = checkpoint_events(trace.events)
        for a in recs:
            for b in recs:
                if a.process == b.process:
                    continue
                if precedes(at[a.key()], at[b.key()]):
                    assert zigzag_exists(a, b, trace) is not None


def test_no_violations_implies_no_cycles():
    for seed in range(8):
        scen = random_scenario(FuzzParams(n=3, events=30, seed=seed + 400))
        for protocol in ("none", "fine"):
            trace = run_scenario(scen, protocol).trace
            if not check_z_consistency(trace):
                assert find_z_cycles(trace) == []


def test_equal_timestamps_on_clean_runs_form_consistent_lines():
    for seed in range(8):
        scen = random_scenario(FuzzParams(n=3, events=30, seed=seed + 50))
        trace = run_scenario(scen, "fi").trace
        assert check_z_consistency(trace) == []
        recs = sorted_checkpoints(trace)
        for a in recs:
            for b in recs:
                if a is not b and a.timestamp == b.timestamp:
                    assert zigzag_exists(a, b, trace) is None
        by_t = {}
        for r in recs:
            by_t.setdefault(r.timestamp, {})[r.process] = r
        for t, group in by_t.items():
            if len(group) == trace.n:
                assert is_consistent_global_checkpoint(list(group.values()), trace)


def test_quick_findings_matches_full_report(fixture_run):
    for name, protocol in (
        ("ccp", "none"),
        ("ccp", "fi"),
        ("fine-counterexample", "fine"),
        ("lazy-fine-counterexample", "lazy-fine"),
    ):
        trace = fixture_run(name, protocol).trace
        useless, violations = quick_findings(trace)
        rep = oracle_report(trace)
        assert useless == len(rep.useless)
        assert violations == len(rep.violations)


def test_report_stats(fixture_run):
    rep = oracle_report(fixture_run("ccp", "none").trace)
    assert rep.stats["checkpoints"] == 8
    assert rep.stats["messages_delivered"] == 6
    assert rep.stats["useless"] == 1
    assert rep.stats["witnesses_truncated"] == 0
    assert not rep.clean


def test_witness_cap_keeps_dense_traces_tractable():
    # An unprotected 200-event trace holds astronomically many simple
    # cycles; the report must stay fast, keep the useless set exact, and
    # flag the truncation.
    scen = random_scenario(
        FuzzParams(n=5, events=200, p_ckpt=0.08, p_send=0.55, max_in_flight=12, seed=9)
    )
    trace = run_scenario(scen, "none").trace
    t0 = time.time()
    rep = oracle_report(trace)
    assert time.time() - t0 < 10.0
    useless_count, _ = quick_findings(trace)
    assert len(rep.useless) == useless_count > 0
    assert rep.stats["witnesses_truncated"] > 0
    assert max(len(chains) for _, chains, _ in rep.z_cycles) <= 32
    with pytest.raises(ValueError):
        find_z_cycles(trace, max_witnesses_per_checkpoint=0)


def test_dense_report_time_is_bounded():
    # The witness cap bounds the work of enumeration, not only its output.
    scen = random_scenario(
        FuzzParams(n=6, events=400, p_ckpt=0.1, p_send=0.35, max_in_flight=8, seed=7)
    )
    trace = run_scenario(scen, "none").trace
    t0 = time.time()
    rep = oracle_report(trace)
    assert time.time() - t0 < 10.0
    assert rep.stats["useless"] > 0
    assert rep.stats["witnesses_truncated"] > 0


def test_witness_search_work_is_bounded_by_the_cap(monkeypatch):
    # Each accepted chain makes at most L + 1 spurs, for L the longest
    # chain returned, and each spur costs at most one walk down the cached
    # layers and one restricted search.  The other walks are the shortest
    # chain's and the one that ends each search.  The trace is that of
    # test_dense_report_time_is_bounded.
    scen = random_scenario(
        FuzzParams(n=6, events=400, p_ckpt=0.1, p_send=0.35, max_in_flight=8, seed=7)
    )
    trace = run_scenario(scen, "none").trace
    idx = oracle._index(trace)
    count = {"_chain": 0, "_walk": 0}

    def counted(name):
        method = getattr(oracle._ZigzagIndex, name)

        def call(self, *args):
            count[name] += 1
            return method(self, *args)

        monkeypatch.setattr(oracle._ZigzagIndex, name, call)

    counted("_chain")
    counted("_walk")
    cap = oracle.DEFAULT_MAX_WITNESSES
    searches = walks = 0
    for rec in useless_checkpoints(trace):
        count.update(_chain=0, _walk=0)
        chains, _ = idx.simple_chains(rec.key(), rec.key(), cap)
        bound = cap * (max(map(len, chains)) + 1)
        assert count["_chain"] <= bound, rec.label()
        assert count["_walk"] <= bound + 1 + count["_chain"], rec.label()
        searches += count["_chain"]
        walks += count["_walk"]
    # Almost every spur is resolved by a walk down the cached layers.
    assert 0 < 20 * searches < walks
