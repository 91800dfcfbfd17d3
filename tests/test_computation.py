import copy
import dataclasses
import pickle

import pytest

from cicsim.computation import (
    CKPT_INITIAL,
    CheckpointRecord,
    Event,
    Interval,
    Trace,
    TraceError,
    causally_precedes,
    interval_of,
    is_consistent_global_checkpoint,
)
from cicsim.oracle import useless_checkpoints
from cicsim.scenarios import FuzzParams, random_scenario
from cicsim.simulator import run_scenario


def initial_events(n):
    return [
        Event(i, 1, "ckpt", checkpoint=CheckpointRecord(i, 1, CKPT_INITIAL, 1))
        for i in range(1, n + 1)
    ]


def problems(n, events):
    """The problems Trace(n, events) raises with."""
    with pytest.raises(TraceError) as exc:
        Trace(n, events)
    return exc.value.problems


def test_minimal_trace_is_valid():
    Trace(3, initial_events(3))


def test_receive_before_send_is_flagged():
    events = initial_events(2)
    events.append(Event(2, 2, "recv", message="m1"))
    events.append(Event(1, 2, "send", message="m1"))
    bad = problems(2, events)
    assert any("receive precedes its send" in msg for msg in bad)


def test_orphan_receive_and_double_send_flagged():
    events = initial_events(2)
    events.append(Event(1, 2, "send", message="m1"))
    events.append(Event(1, 3, "send", message="m1"))
    events.append(Event(2, 2, "recv", message="mx"))
    bad = problems(2, events)
    assert any("sent 2 times" in msg for msg in bad)
    assert any("never sent" in msg for msg in bad)


def test_ordinal_gaps_flagged():
    events = initial_events(2)
    events.append(Event(1, 5, "internal"))
    bad = problems(2, events)
    assert any("ordinal 5, expected 2" in msg for msg in bad)


def motivation_events(p2_initial):
    """P2 sends m2 and receives m1; P1 receives m2, takes C_1^2 and sends
    m1.  With P2's initial checkpoint, [m1, m2] is a Z-cycle on C_1^2."""
    k = 1 if p2_initial else 0  # P2's events before it sends m2
    c21 = Event(2, 1, "ckpt", checkpoint=CheckpointRecord(2, 1, CKPT_INITIAL, 1))
    return [
        Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, 1)),
        *([c21] if p2_initial else []),
        Event(2, k + 1, "send", message="m2"),
        Event(1, 2, "recv", message="m2"),
        Event(1, 3, "ckpt", checkpoint=CheckpointRecord(1, 2, "basic", 2)),
        Event(1, 4, "send", message="m1"),
        Event(2, k + 2, "recv", message="m1"),
    ]


def test_process_without_initial_checkpoint_is_refused():
    bad = problems(2, motivation_events(p2_initial=False))
    assert bad == ["event #1 (send by P2): P2 must begin with its initial checkpoint"]
    trace = Trace(2, motivation_events(p2_initial=True))
    assert {rec.key() for rec in useless_checkpoints(trace)} == {(1, 2)}


def test_unknown_event_kind_is_refused():
    events = initial_events(2)
    events.append(Event(1, 2, "rollback"))
    assert problems(2, events) == ["event #2 (rollback by P1): unknown event kind 'rollback'"]


def stamped(t):
    """Two initial checkpoints, P1's with timestamp ``t``."""
    return [Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, t)),
            *initial_events(2)[1:]]


@pytest.mark.parametrize("n, events, expected", [
    (2.0, initial_events(2), ["process count 2.0 is not an int"]),
    ("2", initial_events(2), ["process count '2' is not an int"]),
    (True, initial_events(2), ["process count True is not an int"]),
    (3, initial_events(3) + [Event(3.0, 2, "internal")],
     ["event #3 (internal by P3.0): process id 3.0 is not an int"]),
    (2, initial_events(2) + [Event("2", 2, "internal")],
     ["event #2 (internal by P2): process id '2' is not an int"]),
    (2, initial_events(2) + [Event(True, 2, "internal")],
     ["event #2 (internal by PTrue): process id True is not an int"]),
    (2, initial_events(2) + [Event(1, 2, "send", ["x"])],
     ["event #2 (send by P1): message name ['x'] is not hashable"]),
    (2, initial_events(2) + [Event(2, 2, "recv", ["x"])],
     ["event #2 (recv by P2): message name ['x'] is not hashable"]),
    (2, stamped("1"), ["event #0 (ckpt by P1): timestamp '1' is not an int"]),
    (2, stamped(1.0), ["event #0 (ckpt by P1): timestamp 1.0 is not an int"]),
    (2, stamped(True), ["event #0 (ckpt by P1): timestamp True is not an int"]),
    (2, initial_events(2) + [Event(1, 2.0, "internal")],
     ["event #2 (internal by P1): ordinal 2.0 is not an int"]),
    (2, [Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1.0, CKPT_INITIAL, 1)),
         *initial_events(2)[1:]],
     ["event #0 (ckpt by P1): checkpoint ordinal 1.0 is not an int"]),
], ids=["float-count", "str-count", "bool-count", "float-process", "str-process",
        "bool-process", "unhashable-send", "unhashable-recv", "str-timestamp",
        "float-timestamp", "bool-timestamp", "float-ordinal", "float-checkpoint-ordinal"])
def test_wrongly_typed_input_is_one_problem(n, events, expected):
    # These once raised a bare TypeError out of the indexing pass.
    assert problems(n, events) == expected


def test_process_without_events_is_refused():
    assert problems(3, initial_events(2)) == ["P3 has no initial checkpoint"]


def test_fixture_traces_validate(fixture_run):
    for name in ("ccp", "fine-proposal", "lazy-fine-counterexample"):
        for protocol in ("none", "fi"):
            trace = fixture_run(name, protocol).trace
            Trace(trace.n, trace.events)


def test_send_precedes_receive(fixture_run):
    trace = fixture_run("ccp", "none").trace
    for name in trace.delivered_messages():
        s, r = (trace.events[pos] for pos in trace._msg_pos[name])
        assert causally_precedes(s, r, trace)
        assert not causally_precedes(r, s, trace)


def test_causality_is_irreflexive(fixture_run):
    trace = fixture_run("ccp", "none").trace
    for ev in trace.events:
        assert not causally_precedes(ev, ev, trace)


def test_ccp_initial_checkpoint_precedes_c32(fixture_run):
    trace = fixture_run("ccp", "none").trace
    c11 = trace.checkpoint_event(trace.checkpoints[(1, 1)])
    c32 = trace.checkpoint_event(trace.checkpoints[(3, 2)])
    assert causally_precedes(c11, c32, trace)
    assert not causally_precedes(c32, c11, trace)


def test_unknown_event_rejected(fixture_run):
    trace = fixture_run("ccp", "none").trace
    stranger = Event(1, 99, "internal")
    with pytest.raises(ValueError):
        causally_precedes(stranger, trace.events[0], trace)


def test_causality_is_transitive_on_random_traces():
    for seed in (3, 11):
        scen = random_scenario(FuzzParams(n=3, events=24, seed=seed))
        trace = run_scenario(scen, "none").trace
        evs = trace.events
        rel = [
            [causally_precedes(a, b, trace) for b in evs]
            for a in evs
        ]
        n = len(evs)
        for a in range(n):
            for b in range(n):
                if not rel[a][b]:
                    continue
                for c in range(n):
                    if rel[b][c]:
                        assert rel[a][c]


def test_interval_of_checkpoint_event(fixture_run):
    trace = fixture_run("ccp", "none").trace
    c22 = trace.checkpoint_event(trace.checkpoints[(2, 2)])
    assert interval_of(c22, trace) == Interval(2, 2)


def test_interval_before_any_basic_checkpoint(fixture_run):
    trace = fixture_run("ccp", "none").trace
    first_send = trace.events[trace._msg_pos["m1"][0]]
    assert interval_of(first_send, trace) == Interval(1, 1)


def test_interval_of_m3_receive_in_fine_proposal(fixture_run):
    trace = fixture_run("fine-proposal", "none").trace
    recv_m3 = trace.events[trace._msg_pos["m3"][1]]
    assert interval_of(recv_m3, trace) == Interval(2, 1)


def test_consistent_global_checkpoint_examples(fixture_run):
    trace = fixture_run("ccp", "none").trace
    picks = lambda *keys: [trace.checkpoints[k] for k in keys]
    assert is_consistent_global_checkpoint(picks((1, 2), (2, 2), (3, 2)), trace)
    assert is_consistent_global_checkpoint(picks((1, 1), (2, 1), (3, 1)), trace)
    assert not is_consistent_global_checkpoint(picks((1, 1), (2, 1), (3, 2)), trace)


def test_consistent_set_rejects_duplicates(fixture_run):
    trace = fixture_run("ccp", "none").trace
    recs = [trace.checkpoints[(1, 1)], trace.checkpoints[(1, 2)], trace.checkpoints[(3, 1)]]
    with pytest.raises(ValueError):
        is_consistent_global_checkpoint(recs, trace)


def test_initial_checkpoints_always_consistent():
    for seed in range(6):
        scen = random_scenario(FuzzParams(n=4, events=30, seed=seed))
        trace = run_scenario(scen, "none").trace
        initials = [trace.checkpoints[(p, 1)] for p in range(1, 5)]
        assert is_consistent_global_checkpoint(initials, trace)


def test_checkpoint_record_is_a_frozen_value():
    rec = CheckpointRecord(2, 3, "forced", 4)
    assert [f.name for f in dataclasses.fields(CheckpointRecord)] == [
        "process", "ordinal", "kind", "timestamp"]
    assert repr(rec) == "CheckpointRecord(process=2, ordinal=3, kind='forced', timestamp=4)"
    assert not hasattr(rec, "__dict__")  # slots: no per-record dict
    same = CheckpointRecord(process=2, ordinal=3, kind="forced", timestamp=4)
    assert rec == same and hash(rec) == hash(same) == hash((2, 3, "forced", 4))
    assert rec != CheckpointRecord(2, 3, "forced", 5)
    assert CheckpointRecord(1, 2) == CheckpointRecord(1, 2, "basic", None)
    for name in ("process", "timestamp", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.kind
    moved = dataclasses.replace(rec, timestamp=7)
    assert moved == CheckpointRecord(2, 3, "forced", 7) and rec.timestamp == 4
    assert len({rec, same, moved}) == 2
    assert copy.copy(rec) == copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec
