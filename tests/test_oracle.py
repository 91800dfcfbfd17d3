import time

import pytest

from cicsim.computation import (
    CKPT_INITIAL,
    CheckpointRecord,
    Event,
    Trace,
    causally_precedes,
    is_consistent_global_checkpoint,
)
from cicsim.oracle import (
    BudgetExceededError,
    _closure,
    check_z_consistency,
    consistent_membership_bruteforce,
    find_z_cycles,
    oracle_report,
    quick_findings,
    useless_checkpoints,
    virtual_terminals,
    zigzag_exists,
)
from cicsim.scenarios import FuzzParams, random_scenario
from cicsim.simulator import run_scenario


def keys(records):
    return {r.key() for r in records}


def test_closure_basics():
    assert _closure([]) == []
    assert _closure([0]) == [1]
    # chain 0 -> 1 -> 2
    assert _closure([0b010, 0b100, 0]) == [0b111, 0b110, 0b100]
    # 2-cycle
    assert _closure([0b10, 0b01]) == [0b11, 0b11]


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


def test_missing_timestamp_rejected():
    events = [
        Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, None)),
        Event(2, 1, "ckpt", checkpoint=CheckpointRecord(2, 1, CKPT_INITIAL, 1)),
    ]
    with pytest.raises(ValueError):
        check_z_consistency(Trace(2, events))


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
