import copy
import itertools
import pickle

import pytest

from cicsim.computation import (
    CKPT_FORCED,
    CKPT_INITIAL,
    CheckpointRecord,
    Event,
    Trace,
    is_consistent_global_checkpoint,
)
from cicsim import oracle
from cicsim.oracle import quick_findings, useless_checkpoints
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.scenarios import FIXTURE_NAMES, FuzzParams, builtin, random_scenario
from cicsim.simulator import Scenario, recv, run_scenario, send
from references import checkpoint_events, happened_before


def initial_events(n):
    return [
        Event(i, 1, "ckpt", checkpoint=CheckpointRecord(i, 1, CKPT_INITIAL, 1))
        for i in range(1, n + 1)
    ]


def problems(n, events):
    """The problems Trace(n, events) raises with."""
    with pytest.raises(ValueError) as exc:
        Trace(n, events)
    return str(exc.value).split("; ")


def test_minimal_trace_is_valid():
    Trace(3, initial_events(3))


def motivation_events(p2_initial):
    """P2 sends m2 and receives m1; P1 receives m2, takes C_1^2 and sends
    m1.  With P2's initial checkpoint, [m1, m2] is a Z-cycle on C_1^2."""
    k = 1 if p2_initial else 0  # P2's events before it sends m2
    c21 = Event(2, 1, "ckpt", checkpoint=CheckpointRecord(2, 1, CKPT_INITIAL, 1))
    return [
        Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, 1)),
        *([c21] if p2_initial else []),
        Event(2, k + 1, "send", message="m2", dest=1),
        Event(1, 2, "recv", message="m2"),
        Event(1, 3, "ckpt", checkpoint=CheckpointRecord(1, 2, "basic", 2)),
        Event(1, 4, "send", message="m1", dest=2),
        Event(2, k + 2, "recv", message="m1"),
    ]


def test_ordinal_gaps_flagged():
    # The run of these steps makes P1's send its event 2, not its event 5.
    events = initial_events(2) + [Event(1, 5, "send", "m1", dest=2)]
    assert problems(2, events) == ["event #2 is not the one the run of its steps makes"]


def test_unknown_event_kind_is_refused():
    # Any other kind is a step of that kind, which the scenario rejects.
    events = initial_events(2) + [Event(1, 2, "rollback")]
    assert problems(2, events) == ["step 0 (rollback 1 None): unknown step kind 'rollback'"]


def test_process_without_initial_checkpoint_is_refused():
    assert problems(2, motivation_events(p2_initial=False)) == ["no checkpoint record C_2^1"]
    trace = Trace(2, motivation_events(p2_initial=True))
    assert {rec.key() for rec in useless_checkpoints(trace)} == {(1, 2)}


def stamped(t):
    """Two initial checkpoints, P1's with timestamp ``t``."""
    return [Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, CKPT_INITIAL, t)),
            *initial_events(2)[1:]]


def with_record(rec):
    """Two initial checkpoints, then P1's checkpoint event with ``rec``."""
    return initial_events(2) + [Event(1, 2, "ckpt", checkpoint=rec)]


def received_by(p):
    """P1 sends m1, and process ``p`` receives it."""
    return initial_events(2) + [Event(1, 2, "send", "m1", dest=2), Event(p, 2, "recv", "m1")]


NOT_ONE_TOKEN = "message name ['x'] is not one token without '#'"


@pytest.mark.parametrize("events, expected", [
    # The send goes to P2, so a receiver that is not an int is the
    # receive's one problem, and an unhashable name the send's or the
    # receive's.
    (received_by(2.0), ["step 1 (recv 2.0 m1): process id 2.0 is not an int"]),
    (received_by("2"), ["step 1 (recv 2 m1): process id '2' is not an int"]),
    (received_by(True), ["step 1 (recv True m1): process id True is not an int"]),
    (initial_events(2) + [Event(1, 2, "send", ["x"], dest=2)],
     [f"step 0 (send 1 2 ['x']): {NOT_ONE_TOKEN}"]),
    (initial_events(2) + [Event(2, 2, "recv", ["x"])],
     [f"step 0 (recv 2 ['x']): {NOT_ONE_TOKEN}"]),
    (stamped("1"), ["checkpoint C_1^1: timestamp '1' is neither None nor an int >= 1"]),
    (stamped(1.0), ["checkpoint C_1^1: timestamp 1.0 is neither None nor an int >= 1"]),
    (stamped(True), ["checkpoint C_1^1: timestamp True is neither None nor an int >= 1"]),
    (stamped(0), ["checkpoint C_1^1: timestamp 0 is neither None nor an int >= 1"]),
    ([Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1.0, CKPT_INITIAL, 1)),
      *initial_events(2)[1:]],
     ["checkpoint C_1^1.0: ordinal 1.0 is not an int"]),
    ([Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1.0, 1, CKPT_INITIAL, 1)),
      *initial_events(2)[1:]],
     ["checkpoint C_1.0^1: process 1.0 is not an int"]),
    (with_record(None), ["checkpoint record None is not a CheckpointRecord"]),
    (with_record(CheckpointRecord(1, 2, "virtual-terminal", 2)),
     ["checkpoint C_1^2: kind 'virtual-terminal' at ordinal 2"]),
    (with_record(CheckpointRecord(1, 2, CKPT_INITIAL, 2)),
     ["checkpoint C_1^2: kind 'initial' at ordinal 2"]),
    ([Event(1, 1, "ckpt", checkpoint=CheckpointRecord(1, 1, "basic", 1)),
      *initial_events(2)[1:]],
     ["checkpoint C_1^1: kind 'basic' at ordinal 1"]),
    # An item that is not exactly an Event once raised AttributeError.
    ([None], ["event #0: NoneType is not an Event"]),
    ("ab", ["event #0: str is not an Event"]),
    ([initial_events(2)[0], tuple(initial_events(2)[1])], ["event #1: tuple is not an Event"]),
    # An events argument that is not iterable once raised a bare TypeError.
    (None, ["events NoneType is not iterable"]),
    (5, ["events int is not iterable"]),
], ids=["float-process", "str-process", "bool-process",
        "unhashable-send", "unhashable-recv", "str-timestamp", "float-timestamp",
        "bool-timestamp", "zero-timestamp", "float-checkpoint-ordinal",
        "float-record-process", "no-record", "virtual-terminal", "late-initial",
        "basic-initial", "none-item", "str-items", "plain-tuple-item",
        "none-events", "int-events"])
def test_wrongly_typed_input_is_one_problem(events, expected):
    # Each list has one wrong field, and it is reported once.
    assert problems(2, events) == expected


def test_process_without_events_is_refused():
    assert problems(3, initial_events(2)) == ["no checkpoint record C_3^1"]


def send_then_forced_receive(between):
    """P1 sends m1; P2 takes a forced C_2^2, then the ``between`` events,
    then receives m1."""
    forced = Event(2, 2, "ckpt", checkpoint=CheckpointRecord(2, 2, CKPT_FORCED, 2))
    return [*initial_events(2), Event(1, 2, "send", "m1", dest=2), forced, *between,
            Event(2, 2 + len(between) + 1, "recv", "m1")]


def test_lists_that_are_not_a_runs_view_are_refused():
    c21 = initial_events(2)[1]
    late_initial = [initial_events(2)[0], Event(1, 2, "send", "m1", dest=2), c21,
                    Event(2, 2, "recv", "m1")]
    assert problems(2, late_initial) == ["event #1 is not the one the run of its steps makes"]
    # A forced checkpoint marks the receive right after it.
    assert Trace(2, send_then_forced_receive([])).checkpoints[(2, 2)].kind == CKPT_FORCED
    before_a_send = send_then_forced_receive([Event(2, 3, "send", "m2", dest=1)])
    assert problems(2, before_a_send) == ["event #3 is not the one the run of its steps makes"]
    before_another_receive = [
        *initial_events(2), Event(2, 2, "send", "m2", dest=1), Event(1, 2, "send", "m1", dest=2),
        Event(2, 3, "ckpt", checkpoint=CheckpointRecord(2, 2, CKPT_FORCED, 2)),
        Event(1, 3, "recv", "m2"), Event(2, 4, "recv", "m1"),
    ]
    assert problems(2, before_another_receive) == ["no checkpoint record C_1^2"]
    assert problems(2, initial_events(2) + [Event(1, 2, "internal")]) == [
        "step 0 (internal 1 None): unknown step kind 'internal'"]


def test_a_trace_keeps_the_canonical_replay_of_its_list():
    # 2.0 == 2, so the list equals its replay; the trace keeps the replay.
    events = initial_events(2) + [Event(1, 2.0, "send", "m1", dest=2), Event(2, 2, "recv", "m1")]
    trace = Trace(2, events)
    assert trace.events == events
    assert type(trace.events[2].ordinal) is int
    assert trace.delivered == {"m1": (1, 1, 2, 1)}


SWAP_INS = (1.0, True, "1", None, [1], 0, -1, 99)
EVENT_FIELDS = Event._fields
RECORD_FIELDS = CheckpointRecord._fields


def mutants(events):
    """Each event deleted, each adjacent pair swapped, and each field of an
    event or of its checkpoint record replaced by each of ``SWAP_INS``."""
    for pos, ev in enumerate(events):
        head, tail = events[:pos], events[pos + 1:]
        yield head + tail
        if tail:
            yield head + [tail[0], ev] + tail[1:]
        for value in SWAP_INS:
            for name in EVENT_FIELDS:
                yield head + [ev._replace(**{name: value})] + tail
            for name in RECORD_FIELDS if ev.checkpoint is not None else ():
                rec = ev.checkpoint._replace(**{name: value})
                yield head + [ev._replace(checkpoint=rec)] + tail


def column_values(trace):
    """Every number the trace's columns and events hold."""
    yield trace.n
    yield trace.event_count
    for key, rec in trace.checkpoints.items():
        yield from (*key, rec.process, rec.ordinal)
        if rec.timestamp is not None:
            yield rec.timestamp
    for item in trace.ckpt_counts.items():
        yield from item
    for ends in trace.delivered.values():
        yield from ends
    for ev in trace.events:
        yield from (ev.process, ev.ordinal)


def test_every_mutant_of_a_run_view_is_refused_or_canonical():
    # The systematic form of the wrongly-typed-input cases: a mutant of a
    # run's event view is either refused with a ValueError or equal to the
    # view of a run, and then the trace holds that run's exact ints.
    views = [run_scenario(builtin(name)[0], protocol).trace
             for name in FIXTURE_NAMES for protocol in ("none", "fi", "lazy-fine")]
    views += [run_scenario(random_scenario(FuzzParams(n=2 + seed % 3, events=12, seed=seed)),
                           "none").trace for seed in range(10)]
    refused = accepted = 0
    for view in views:
        for events in mutants(view.events):
            try:
                trace = Trace(view.n, events)
            except ValueError:
                refused += 1
                continue
            accepted += 1
            assert trace.events == events
            assert all(type(v) is int for v in column_values(trace)), events
            if any(rec.timestamp is None for rec in trace.checkpoints.values()):
                with pytest.raises(ValueError, match="has no timestamp"):
                    quick_findings(trace)
            else:
                quick_findings(trace)
    assert refused > 10 * accepted > 0


def test_fixture_traces_validate(fixture_run):
    for name in ("ccp", "fine-proposal", "lazy-fine-counterexample"):
        for protocol in ("none", "fi"):
            trace = fixture_run(name, protocol).trace
            Trace(trace.n, trace.events)


def test_send_events_carry_their_steps_destination():
    in_flight = 0
    for seed in range(20):
        scen = random_scenario(FuzzParams(n=3 + seed % 3, events=30, seed=seed))
        trace = run_scenario(scen, "lazy-fi").trace
        sends = [(ev.process, ev.message, ev.dest) for ev in trace.events if ev.kind == "send"]
        assert sends == [(st.process, st.message, st.dest)
                         for st in scen.steps if st.kind == "send"], seed
        assert all(ev.dest is None for ev in trace.events if ev.kind != "send")
        in_flight += len(sends) - len(trace.delivered)
    assert in_flight > 0


def test_a_trace_of_a_runs_events_is_that_run():
    # m1 is still in flight at the end, so no receive names P3 as its
    # destination: only the send event does.
    scen = Scenario(3, (send(1, 3, "m1"), send(2, 3, "m2"), recv(3, "m2")))
    trace = run_scenario(scen, "fi").trace
    rebuilt = Trace(3, trace.events)
    assert rebuilt.events == trace.events
    assert [ev.dest for ev in rebuilt.events if ev.kind == "send"] == [3, 3]
    assert (rebuilt.delivered, rebuilt.ckpt_counts, rebuilt.event_count) == (
        trace.delivered, trace.ckpt_counts, trace.event_count)


def test_reading_the_event_view_leaves_the_columns():
    # Over 256 events, so the event count is not a cached small int.
    scen = random_scenario(FuzzParams(n=4, events=400, seed=5))
    trace = run_scenario(scen, "fi").trace
    idx = oracle._index(trace)
    columns = (trace.delivered, trace.ckpt_counts, trace.event_count, trace.checkpoints)
    assert len(trace.events) == trace.event_count > 256
    after = (trace.delivered, trace.ckpt_counts, trace.event_count, trace.checkpoints)
    assert all(a is b for a, b in zip(columns, after))
    assert idx.delivered is trace.delivered and idx.counts is trace.ckpt_counts


def test_send_precedes_receive(fixture_run):
    trace = fixture_run("ccp", "none").trace
    precedes = happened_before(trace.events)
    at = {(ev.kind, ev.message): ev for ev in trace.events}
    for name in sorted(trace.delivered):
        s, r = at["send", name], at["recv", name]
        assert precedes(s, r)
        assert not precedes(r, s)


def test_causality_is_irreflexive(fixture_run):
    trace = fixture_run("ccp", "none").trace
    precedes = happened_before(trace.events)
    for ev in trace.events:
        assert not precedes(ev, ev)


def test_ccp_initial_checkpoint_precedes_c32(fixture_run):
    trace = fixture_run("ccp", "none").trace
    precedes = happened_before(trace.events)
    at = checkpoint_events(trace.events)
    assert precedes(at[1, 1], at[3, 2])
    assert not precedes(at[3, 2], at[1, 1])


def test_causality_is_transitive_on_random_traces():
    for seed in (3, 11):
        scen = random_scenario(FuzzParams(n=3, events=24, seed=seed))
        trace = run_scenario(scen, "none").trace
        evs = trace.events
        precedes = happened_before(evs)
        rel = [
            [precedes(a, b) for b in evs]
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


def test_interval_before_any_basic_checkpoint(fixture_run):
    # m1 is P1's first send, before its first basic checkpoint.
    trace = fixture_run("ccp", "none").trace
    assert trace.delivered["m1"][:2] == (1, 1)


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


def selection_traces():
    """(label, trace): every built-in under every protocol, then 300 seeded
    24-event scenarios under none, fine and lazy-fi."""
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        for protocol in PROTOCOL_NAMES:
            yield f"{name}/{protocol}", run_scenario(scen, protocol).trace
    for seed in range(300):
        scen = random_scenario(FuzzParams(n=3 + seed % 3, events=24, seed=seed + 9000))
        for protocol in ("none", "fine", "lazy-fi"):
            yield f"seed {seed + 9000}/{protocol}", run_scenario(scen, protocol).trace


def test_consistency_is_pairwise_causal_independence():
    # A global checkpoint is consistent iff no two of its checkpoints are
    # causally related; the predicate reads only the delivered column, the
    # reference only the event list.
    fresh = run_scenario(builtin("ccp")[0], "none").trace
    c = fresh.checkpoints
    assert is_consistent_global_checkpoint([c[1, 2], c[2, 2], c[3, 2]], fresh)
    assert "events" not in vars(fresh)  # built no event view
    for p, x in ((True, 2), (1.0, 2), ([1], 1), (1, 2.0)):
        odd = [CheckpointRecord(p, x), c[2, 2], c[3, 2]]
        with pytest.raises(ValueError, match="not in trace"):
            is_consistent_global_checkpoint(odd, fresh)
    selections = consistent = 0
    for label, trace in selection_traces():
        precedes = happened_before(trace.events)
        at = checkpoint_events(trace.events)
        related = {(a, b) for a in at for b in at if precedes(at[a], at[b])}
        groups = [[trace.checkpoints[p, x] for x in range(1, trace.ckpt_counts[p] + 1)]
                  for p in range(1, trace.n + 1)]
        for line in itertools.product(*groups):
            keys = [rec.key() for rec in line]
            want = not any((a, b) in related for a in keys for b in keys)
            assert is_consistent_global_checkpoint(line, trace) == want, (label, keys)
            selections += 1
            consistent += want
    assert selections > 20_000 and 0.2 < consistent / selections < 0.5


def test_initial_checkpoints_always_consistent():
    for seed in range(6):
        scen = random_scenario(FuzzParams(n=4, events=30, seed=seed))
        trace = run_scenario(scen, "none").trace
        initials = [trace.checkpoints[(p, 1)] for p in range(1, 5)]
        assert is_consistent_global_checkpoint(initials, trace)


def test_checkpoint_record_is_a_frozen_value():
    rec = CheckpointRecord(2, 3, "forced", 4)
    assert CheckpointRecord._fields == ("process", "ordinal", "kind", "timestamp")
    assert repr(rec) == "CheckpointRecord(process=2, ordinal=3, kind='forced', timestamp=4)"
    assert not hasattr(rec, "__dict__")  # slots: no per-record dict
    same = CheckpointRecord(process=2, ordinal=3, kind="forced", timestamp=4)
    assert rec == same and hash(rec) == hash(same) == hash((2, 3, "forced", 4))
    assert rec != CheckpointRecord(2, 3, "forced", 5)
    assert CheckpointRecord(1, 2) == CheckpointRecord(1, 2, "basic", None)
    for name in ("process", "timestamp", "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 9)
    with pytest.raises(AttributeError):
        del rec.kind
    moved = rec._replace(timestamp=7)
    assert moved == CheckpointRecord(2, 3, "forced", 7) and rec.timestamp == 4
    assert len({rec, same, moved}) == 2
    assert copy.copy(rec) == copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec
