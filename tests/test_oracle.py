import time
from dataclasses import replace

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
    causally_precedes,
    is_consistent_global_checkpoint,
)
from cicsim.oracle import (
    BudgetExceededError,
    check_z_consistency,
    consistent_membership_bruteforce,
    find_z_cycles,
    oracle_report,
    quick_findings,
    useless_checkpoints,
    virtual_terminals,
    zigzag_exists,
)
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.rng import SplitMix64
from cicsim.scenarios import FIXTURE_NAMES, FuzzParams, builtin, random_scenario
from cicsim.simulator import run_scenario


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
        recs = trace.sorted_checkpoints() + virtual_terminals(trace)
        for a in recs:
            for b in recs:
                want = exists(a.key(), b.key())
                assert (zigzag_exists(a, b, trace) is not None) == want, (
                    f"{label}: {a.label()} -> {b.label()}"
                )
                cycles += want and a is b
    assert cycles > 0


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
        recs = trace.sorted_checkpoints() + virtual_terminals(trace)
        for a in recs:
            for b in recs:
                want = chains(a.key(), b.key())
                where = f"{label}: {a.label()} -> {b.label()}"
                got = idx.shortest_chain(a.key(), b.key())
                assert got == (want[0] if want else None), where
                for cap in (1, 2, 5, 32, None):
                    cut = want if cap is None else want[:cap]
                    more = cap is not None and len(want) > cap
                    assert idx.simple_chains(a.key(), b.key(), cap) == (cut, more), (
                        f"{where}, cap {cap}"
                    )
                many += len(want) > 32
    assert many > 0


def test_witnesses_truncated_means_a_chain_beyond_the_cap(fixture_run):
    trace = fixture_run("ccp", "none").trace
    # C_3^3, the only useless checkpoint, lies on exactly two Z-cycles.
    assert len(find_z_cycles(trace, max_witnesses_per_checkpoint=None)) == 2
    assert oracle_report(trace, 2).stats["witnesses_truncated"] == 0
    assert oracle_report(trace, 1).stats["witnesses_truncated"] == 1
    # The second chain extends the first one.
    idx = oracle._index(trace)
    assert idx.simple_chains((1, 2), (2, 3), 1) == ([("m4",)], True)
    assert idx.simple_chains((1, 2), (2, 3), 2) == ([("m4",), ("m4", "m3", "m6")], False)


def test_ccp_causal_zigzag(fixture_run):
    trace = fixture_run("ccp", "none").trace
    w = zigzag_exists(trace.checkpoints[(1, 1)], trace.checkpoints[(3, 2)], trace)
    assert w.messages == ("m1", "m2")
    assert w.causal


def test_ccp_noncausal_zigzag(fixture_run):
    trace = fixture_run("ccp", "none").trace
    w = zigzag_exists(trace.checkpoints[(1, 2)], trace.checkpoints[(3, 3)], trace)
    assert w.messages == ("m4", "m3")
    assert not w.causal


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
    assert [(rec.key(), w.messages) for rec, w in cycles] == [
        ((3, 3), ("m6", "m3")),
        ((3, 3), ("m6", "m5", "m4", "m3")),
    ]


def test_cycles_empty_on_single_process_trace():
    events = [Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, 1))]
    trace = Trace(1, events)
    assert find_z_cycles(trace) == []


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
    for a, b, w in check_z_consistency(trace):
        assert a.timestamp >= b.timestamp
        assert w.messages


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


def reference_violating_pairs(idx, recs):
    """The all-pairs scan: every source against every checkpoint."""
    for a in recs:
        row = idx.reach[a.process][a.ordinal]
        for b in recs:
            if a.timestamp >= b.timestamp and row[b.process] < b.ordinal:
                yield a, b


def restamped(trace, seed):
    """The same computation with arbitrary, non-monotone timestamps."""
    draw = SplitMix64(seed)
    events = []
    for ev in trace.events:
        if ev.checkpoint is not None:
            rec = replace(ev.checkpoint, timestamp=1 + draw.below(6))
            ev = replace(ev, checkpoint=rec)
        events.append(ev)
    return Trace(trace.n, events)


def test_violation_scan_matches_all_pairs_reference():
    def ckpt(p, ordinal, x, t):
        return Event(p, ordinal, EV_CKPT, checkpoint=CheckpointRecord(p, x, "basic", t))

    # m1 leaves P1's last interval and reaches P2 in its first, so the
    # reach row of each P1 checkpoint covers every P2 ordinal above 1 and
    # the rows of P2's checkpoints are empty.  P2's timestamps go down.
    hand = Trace(2, [
        ckpt(1, 1, 1, 4), ckpt(2, 1, 1, 1), ckpt(1, 2, 2, 2), Event(1, 3, EV_SEND, "m1"),
        Event(2, 2, EV_RECV, "m1"), ckpt(2, 3, 2, 9), ckpt(2, 4, 3, 3), ckpt(2, 5, 4, 4),
    ])
    pairs = oracle._violating_pairs(oracle._index(hand), hand.sorted_checkpoints())
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
        idx = oracle._index(trace)
        recs = trace.sorted_checkpoints()
        got = list(oracle._violating_pairs(idx, recs))
        assert got == list(reference_violating_pairs(idx, recs))
        assert quick_findings(trace)[1] == len(got)
        found += len(got)
    assert found > 1000


def test_membership_on_ccp(fixture_run):
    trace = fixture_run("ccp", "none").trace
    useful = consistent_membership_bruteforce(trace)
    all_real = keys(trace.checkpoints.values())
    assert all_real - keys(useful) == {(3, 3)}


def test_membership_trivial_without_messages():
    events = [
        Event(i, 1, "ckpt", checkpoint=CheckpointRecord(i, 1, CKPT_INITIAL, 1))
        for i in (1, 2, 3)
    ]
    trace = Trace(3, events)
    assert keys(consistent_membership_bruteforce(trace)) == {(1, 1), (2, 1), (3, 1)}


def test_membership_budget_refusal(fixture_run):
    trace = fixture_run("ccp", "none").trace
    with pytest.raises(BudgetExceededError):
        consistent_membership_bruteforce(trace, budget=3)


def test_virtual_terminals_never_in_traces(fixture_run):
    trace = fixture_run("ccp", "none").trace
    terms = virtual_terminals(trace)
    assert [t.key() for t in terms] == [(1, 4), (2, 3), (3, 4)]
    assert all(t.key() not in trace.checkpoints for t in terms)


def test_zigzag_accepts_virtual_endpoints(fixture_run):
    trace = fixture_run("ccp", "none").trace
    term_p2 = virtual_terminals(trace)[1]
    w = zigzag_exists(trace.checkpoints[(3, 3)], term_p2, trace)
    assert w is not None and w.messages == ("m6",)
    # virtual terminals sit at trace end: nothing is sent after them
    assert zigzag_exists(term_p2, trace.checkpoints[(3, 3)], trace) is None
    with pytest.raises(ValueError):
        zigzag_exists(
            CheckpointRecord(2, 9, "virtual-terminal", None),
            trace.checkpoints[(3, 3)],
            trace,
        )


def test_membership_complement_equals_useless_on_random_traces():
    for seed in range(10):
        scen = random_scenario(FuzzParams(n=3 + seed % 2, events=22, seed=seed + 100))
        trace = run_scenario(scen, "none").trace
        useful = consistent_membership_bruteforce(trace)
        complement = keys(trace.checkpoints.values()) - keys(useful)
        assert complement == keys(useless_checkpoints(trace)), f"seed {seed + 100}"


def test_causality_between_checkpoints_implies_zigzag():
    for seed in (5, 21, 33):
        scen = random_scenario(FuzzParams(n=3, events=28, seed=seed))
        trace = run_scenario(scen, "none").trace
        recs = trace.sorted_checkpoints()
        for a in recs:
            for b in recs:
                if a.process == b.process:
                    continue
                ea = trace.checkpoint_event(a)
                eb = trace.checkpoint_event(b)
                if causally_precedes(ea, eb, trace):
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
        recs = trace.sorted_checkpoints()
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
        assert keys(rep.useless) == {r.key() for r, _ in rep.z_cycles}


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
    assert keys(rep.useless) == {r.key() for r, _ in rep.z_cycles}
    assert rep.stats["witnesses_truncated"] > 0
    per_ckpt = {}
    for rec, _ in rep.z_cycles:
        per_ckpt[rec.key()] = per_ckpt.get(rec.key(), 0) + 1
    assert max(per_ckpt.values()) <= 32
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
