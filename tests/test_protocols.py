import hashlib
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from cicsim.oracle import oracle_report
from cicsim.protocols import (
    Piggyback,
    PROTOCOL_NAMES,
    ProtocolError,
    eval_c_fi1_clockv,
    eval_c_fi1_greater,
    eval_c_fi2,
    eval_c_fine1,
    eval_c_fine1_ri,
    eval_c_lazyfi1,
    eval_c_lazyfine1,
    eval_c_pi,
    make_protocol,
)
from cicsim.scenarios import (
    FIXTURE_NAMES,
    FuzzParams,
    builtin,
    parse_scenario,
    random_scenario,
)
from cicsim.simulator import run_scenario
from list_conditions import masked_agreeing

INF = math.inf


def bits(true_at=()):
    """The mask with bit k set for each k in true_at."""
    return sum(1 << k for k in set(true_at))


def ivec(n, pairs=(), default=0):
    v = [None] + [default] * n
    for k, val in pairs:
        v[k] = val
    return v


def mk_state(n=3, i=2, lc=1, sent_to=(), min_to=(), clockv=(), greater=(),
             equal_incr=(), ckptv=(), taken=()):
    return SimpleNamespace(
        n=n,
        i=i,
        lc=lc,
        sent_to=bits(sent_to),
        min_to=ivec(n, min_to, INF),
        clockv=ivec(n, clockv),
        greater=bits(greater),
        equal_incr=bits(equal_incr),
        ckptv=ivec(n, ckptv),
        taken=bits(taken),
    )


def mk_pb(n=3, t=1, clockv=(), greater=(), equal_incr=(), ckptv=(), taken=()):
    return Piggyback(
        t=t,
        n=n,
        clockv=ivec(n, clockv),
        greater=bits(greater),
        equal_incr=bits(equal_incr),
        ckptv=ivec(n, ckptv),
        taken=bits(taken),
    )


def fi_pb(n=3, t=1, greater=(), ckptv=(), taken=()):
    return Piggyback(t=t, n=n, greater=bits(greater), ckptv=ivec(n, ckptv),
                     taken=bits(taken))


def lazy_pb(n=3, t=1, equal_incr=(), ckptv=(), taken=()):
    return Piggyback(t=t, n=n, equal_incr=bits(equal_incr), ckptv=ivec(n, ckptv),
                     taken=bits(taken))


# -- initialization ---------------------------------------------------------


def test_fi_greater_init():
    p = make_protocol("fi-greater", 3, 2)
    snap = p.snapshot()
    assert p.lc == 1
    assert snap["ckptv"][1:] == [0, 1, 0]
    assert snap["taken"][1:] == [True, False, True]
    assert snap["greater"][1:] == [True, False, True]
    assert snap["sent_to"][1:] == [False, False, False]


def test_lazy_fi_init():
    p = make_protocol("lazy-fi", 3, 1)
    snap = p.snapshot()
    assert p.lc == 1
    assert p.increment is False
    assert snap["equal_incr"][1:] == [False, False, False]
    assert snap["ckptv"][1:] == [1, 0, 0]
    assert snap["taken"][1:] == [False, True, True]


def test_pi_init():
    p = make_protocol("pi", 2, 1)
    snap = p.snapshot()
    assert p.lc == 1
    assert snap["sent_to"][1:] == [False, False]
    assert snap["min_to"][1:] == [INF, INF]


def test_fi_clockv_init():
    p = make_protocol("fi-clockv", 3, 3)
    snap = p.snapshot()
    assert snap["clockv"][1:] == [0, 0, 1]
    assert p.lc == 1
    assert snap["min_to"][1:] == [INF, INF, INF]


def test_unknown_protocol():
    with pytest.raises(ProtocolError):
        make_protocol("who", 3, 1)


@pytest.mark.parametrize("n, i, problem", [
    (True, True, "'n' True"), ("3", 1, "'n' '3'"), (3, 1.0, "'i' 1.0"), (3.0, 1, "'n' 3.0"),
], ids=["bools", "str-n", "float-i", "float-n"])
def test_process_count_and_id_must_be_ints(n, i, problem):
    # The bools once built a machine; the others raised a bare TypeError.
    with pytest.raises(ProtocolError) as err:
        make_protocol("fi", n, i)
    assert str(err.value) == f"{problem} is not an int"


# -- take_checkpoint --------------------------------------------------------


def test_fi_checkpoint_bumps_clock_and_resets_vectors():
    p = make_protocol("fi-greater", 3, 2)
    assert p.take_checkpoint() == 2 == p.lc
    snap = p.snapshot()
    assert snap["greater"][1:] == [True, False, True]
    assert snap["taken"][1:] == [True, False, True]
    assert snap["ckptv"][2] == 2


def test_lazy_checkpoint_reuses_timestamp_without_increment():
    p = make_protocol("lazy-fi", 3, 1)
    p.lc = 2
    p.increment = False
    assert p.take_checkpoint() == 2


def test_lazy_checkpoint_increments_when_flagged():
    p = make_protocol("lazy-fi", 3, 1)
    p.lc = 2
    p.increment = True
    p.equal_incr = bits((2, 3))
    assert p.take_checkpoint() == 3
    assert p.snapshot()["equal_incr"][1:] == [False, False, False]
    assert p.increment is False


# -- on_send ----------------------------------------------------------------


def test_pi_first_send_records_clock():
    p = make_protocol("pi", 3, 1)
    pb = p.on_send(3)
    assert pb.t == 1
    snap = p.snapshot()
    assert snap["min_to"][3] == 1
    assert snap["sent_to"][3] is True
    assert pb.greater is None and pb.ckptv is None


def test_repeated_send_is_idempotent():
    p = make_protocol("fi-greater", 3, 1)
    p.on_send(2)
    before = p.snapshot()
    p.on_send(2)
    assert p.snapshot() == before


def test_pi_min_to_keeps_minimum():
    p = make_protocol("pi", 3, 1)
    p.on_send(3)
    p.lc = 5
    p.on_send(3)
    assert p.snapshot()["min_to"][3] == 1


def test_lazy_payload_fields():
    p = make_protocol("lazy-fi", 3, 1)
    pb = p.on_send(2)
    assert pb.equal_incr is not None and pb.ckptv is not None and pb.taken is not None
    assert pb.clockv is None and pb.greater is None


def test_self_send_rejected():
    p = make_protocol("fi", 3, 2)
    with pytest.raises(ProtocolError):
        p.on_send(2)


def test_payload_snapshot_not_aliased():
    p = make_protocol("fi-greater", 3, 1)
    pb = p.on_send(2)
    p.take_checkpoint()
    assert pb.ckptv[1] == 1  # still the value at send time


PAYLOAD_SLOTS = ("t", "n", "clockv", "greater", "equal_incr", "ckptv", "taken", "field_set")


def slot_values(pb):
    return tuple(getattr(pb, name) for name in PAYLOAD_SLOTS)


def test_sent_payloads_equal_checked_ones():
    # on_send builds its payload without the constructor's checks.  Each
    # must equal, slot by slot, what the checked constructor builds from
    # the sender's state at the send, and keep those values while the
    # sender runs on.
    scenarios = [builtin(name)[0] for name in FIXTURE_NAMES]
    scenarios += [random_scenario(FuzzParams(n=2 + s % 7, events=60, seed=s + 9100))
                  for s in range(12)]
    for name in PROTOCOL_NAMES:
        sent = []
        for scen in scenarios:
            machines = [None] + [make_protocol(name, scen.n, i) for i in range(1, scen.n + 1)]
            in_flight = {}
            for st in scen.steps:
                m = machines[st.process]
                if st.kind == "ckpt":
                    m.take_checkpoint()
                elif st.kind == "recv":
                    m.on_receive(in_flight.pop(st.message))
                else:
                    pb = m.on_send(st.dest)
                    checked = Piggyback(m.lc, m.n, **{f: getattr(m, f) for f in m.payload_fields})
                    assert slot_values(pb) == slot_values(checked), (name, scen.name, st)
                    assert pb.field_set == m._field_set
                    in_flight[st.message] = pb
                    sent.append((pb, slot_values(checked)))
        assert sent, name
        assert all(slot_values(pb) == values for pb, values in sent), name


def test_wrongly_sized_payload_vectors_rejected():
    for field in ("clockv", "ckptv"):
        for size in (3, 5):
            with pytest.raises(ProtocolError, match=field):
                Piggyback(t=1, n=3, **{field: [0] * size})
    assert Piggyback(t=1, n=3, clockv=[0] * 4, ckptv=[0] * 4).field_set == 0b1001


@pytest.mark.parametrize("field, wrong", [
    ("t", {"t": "2"}),
    ("t", {"t": None}),
    ("t", {"t": True}),
    ("n", {"n": 3.0}),
    ("greater", {"greater": [False, True, False, True]}),
    ("greater", {"greater": -2}),
    ("taken", {"taken": 1.0}),
    ("equal_incr", {"equal_incr": True}),
    ("ckptv", {"ckptv": ["0"] * 4}),
    ("ckptv", {"ckptv": [0, 1, True, 0]}),
    ("clockv", {"clockv": [0, 1, 2.0, 3]}),
])
def test_wrongly_typed_payload_values_rejected(field, wrong):
    # Each of these reached a fi-greater receiver and raised a bare
    # TypeError there, or in fields(), or (t=True) was read as clock 1.
    good = {"t": 2, "n": 3, "greater": bits((1, 3)), "ckptv": [0, 1, 0, 0], "taken": 0}
    make_protocol("fi-greater", 3, 2).on_receive(Piggyback(**good))
    with pytest.raises(ProtocolError, match=f"'{field}'"):
        Piggyback(**{**good, **wrong})


@pytest.mark.parametrize("field, wrong", [
    ("t", {"t": 0}),
    ("t", {"t": -4}),
    ("greater", {"greater": 1 << 9 | 1 << 2}),
    ("greater", {"greater": 1 | 1 << 2}),  # bit 0 stands for no process
    ("equal_incr", {"greater": None, "equal_incr": 1 << 4}),  # bit n + 1
    ("taken", {"taken": 1 << 7}),
    ("taken", {"taken": 1}),
])
def test_out_of_range_payload_values_rejected(field, wrong):
    # fields() renders bits 1..n, so such a payload read as all-False
    # where it was set, and a clock of 0 precedes every checkpoint.
    good = {"t": 1, "n": 3, "greater": bits((1, 3)), "ckptv": [0, 1, 0, 0], "taken": bits((3,))}
    assert Piggyback(**good).fields()["greater"] == [True, False, True]
    with pytest.raises(ProtocolError, match=f"'{field}'"):
        Piggyback(**{**good, **wrong})


# -- condition evaluators ---------------------------------------------------


def test_eval_c_pi_cases():
    assert eval_c_pi(mk_state(sent_to=(3,), min_to=((3, 1),)), mk_pb(t=2))
    assert not eval_c_pi(mk_state(), mk_pb(t=99))
    assert not eval_c_pi(mk_state(sent_to=(3,), min_to=((3, 1),)), mk_pb(t=1))


def test_eval_c_fi1_clockv_cases():
    st_ = mk_state(sent_to=(3,), min_to=((3, 1),))
    assert not eval_c_fi1_clockv(st_, mk_pb(t=2, clockv=((3, 2),)))
    st2 = mk_state(sent_to=(3,), min_to=((3, 1),), clockv=((3, 2),))
    assert not eval_c_fi1_clockv(st2, mk_pb(t=2, clockv=((3, 1),)))
    st3 = mk_state(sent_to=(3,), min_to=((3, 1),), clockv=((3, 1),))
    assert eval_c_fi1_clockv(st3, mk_pb(t=2, clockv=((3, 1),)))


def test_eval_c_fi1_greater_cases():
    st_ = mk_state(lc=1, sent_to=(3,))
    assert eval_c_fi1_greater(st_, mk_pb(t=2, greater=(3,)))
    assert not eval_c_fi1_greater(mk_state(lc=2, sent_to=(3,)), mk_pb(t=2, greater=(3,)))
    assert not eval_c_fi1_greater(st_, mk_pb(t=2))


def test_eval_c_fi2_cases():
    st_ = mk_state(i=2, ckptv=((2, 1),))
    assert eval_c_fi2(st_, mk_pb(t=1, ckptv=((2, 1),), taken=(2,)))
    assert not eval_c_fi2(st_, mk_pb(t=1, ckptv=(), taken=(2,)))
    assert not eval_c_fi2(st_, mk_pb(t=1, ckptv=((2, 1),)))


def test_eval_c_lazyfi1_cases():
    st_ = mk_state(lc=1, sent_to=(3,))
    assert eval_c_lazyfi1(st_, mk_pb(t=2))
    assert not eval_c_lazyfi1(st_, mk_pb(t=2, equal_incr=(3,)))
    assert not eval_c_lazyfi1(st_, mk_pb(t=1))


def test_eval_c_fine1_cases():
    st_ = mk_state(lc=1, sent_to=(3,))
    assert not eval_c_fine1(st_, mk_pb(t=2, greater=(3,)))
    assert eval_c_fine1(st_, mk_pb(t=2, greater=(3,), taken=(3,)))
    assert not eval_c_fine1(mk_state(lc=1), mk_pb(t=2, greater=(3,), taken=(3,)))


def test_eval_c_fine1_receiver_index_variant():
    st_ = mk_state(i=2, lc=1, sent_to=(3,))
    m = mk_pb(t=2, greater=(3,), taken=(2,))
    assert eval_c_fine1_ri(st_, m)
    assert not eval_c_fine1(st_, m)


def test_eval_c_lazyfine1_cases():
    st_ = mk_state(lc=1, sent_to=(3,))
    assert not eval_c_lazyfine1(st_, mk_pb(t=2))
    assert eval_c_lazyfine1(st_, mk_pb(t=2, taken=(3,)))
    assert not eval_c_lazyfine1(st_, mk_pb(t=1, taken=(3,)))


# -- on_receive -------------------------------------------------------------


def test_fi_receive_forces_then_updates():
    p = make_protocol("fi-greater", 3, 2)
    p.on_send(3)
    before = p.snapshot()
    decision, t = p.on_receive(fi_pb(t=2, greater=(1, 3)))
    assert decision.forced and "C1" in decision.fired
    assert t == 2 == p.lc
    assert before["lc"] == 1 and before["sent_to"][3] is True
    assert p.snapshot()["sent_to"][3] is False  # the forced checkpoint reset it


def test_fi_receive_low_timestamp_merges_only():
    p = make_protocol("fi-greater", 3, 2)
    p.take_checkpoint()  # lc = 2
    decision, t = p.on_receive(fi_pb(t=1, ckptv=((1, 1),), taken=(1,)))
    assert not decision.forced and t is None
    assert p.lc == 2
    snap = p.snapshot()
    assert snap["ckptv"][1] == 1 and snap["taken"][1] is True
    assert snap["greater"][1] is True  # untouched below the clock


def test_fi_equal_clock_and_merges_greater():
    p = make_protocol("fi-greater", 3, 2)
    assert p.snapshot()["greater"][1:] == [True, False, True]
    p.on_receive(fi_pb(t=1, greater=(1,)))
    assert p.snapshot()["greater"][1:] == [True, False, False]


def test_lazy_receive_sets_increment_on_equal_clock():
    p = make_protocol("lazy-fi", 3, 2)
    assert p.increment is False
    p.on_receive(lazy_pb(t=1))
    assert p.increment is True
    assert p.snapshot()["equal_incr"][2] is True


def test_lazy_receive_overwrites_equal_incr_on_greater_clock():
    p = make_protocol("lazy-fi", 3, 2)
    p.on_receive(lazy_pb(t=3, equal_incr=(1, 3)))
    assert p.lc == 3
    assert p.snapshot()["equal_incr"][1:] == [True, True, True]


def test_vector_length_mismatch_rejected():
    p = make_protocol("fi-greater", 4, 2)
    with pytest.raises(ProtocolError):
        p.on_receive(fi_pb(n=3, t=1))
    # An integer vector whose length disagrees with n is refused when built.
    with pytest.raises(ProtocolError):
        Piggyback(t=1, n=4, greater=0, ckptv=ivec(3), taken=0)


def test_missing_field_rejected():
    p = make_protocol("lazy-fi", 3, 2)
    with pytest.raises(ProtocolError):
        p.on_receive(Piggyback(t=1, n=3))


def test_none_protocol_only_tracks_clock():
    p = make_protocol("none", 3, 1)
    decision, t = p.on_receive(Piggyback(t=7, n=3))
    assert not decision.forced and t is None
    assert p.lc == 7


# -- run-level invariants ---------------------------------------------------


def test_eager_timestamps_strictly_increase_per_process():
    for seed in range(12):
        scen = random_scenario(FuzzParams(n=3, events=30, seed=seed + 900))
        for protocol in ("none", "pi", "fi-clockv", "fi-greater", "fine"):
            trace = run_scenario(scen, protocol).trace
            for p in range(1, 4):
                ts = [r.timestamp for (q, _), r in sorted(trace.checkpoints.items()) if q == p]
                assert all(a < b for a, b in zip(ts, ts[1:])), (seed, protocol, p)


def test_lazy_timestamps_never_decrease():
    for seed in range(12):
        scen = random_scenario(FuzzParams(n=3, events=30, seed=seed + 900))
        for protocol in ("lazy-fi", "lazy-fine"):
            trace = run_scenario(scen, protocol).trace
            for p in range(1, 4):
                ts = [r.timestamp for (q, _), r in sorted(trace.checkpoints.items()) if q == p]
                assert all(a <= b for a, b in zip(ts, ts[1:]))


def test_own_greater_entry_stays_false():
    scen = random_scenario(FuzzParams(n=4, events=36, seed=77))
    machines = {i: make_protocol("fi-greater", 4, i) for i in range(1, 5)}
    in_flight = {}
    for step in scen.steps:
        if step.kind == "ckpt":
            machines[step.process].take_checkpoint()
        elif step.kind == "send":
            in_flight[step.message] = machines[step.process].on_send(step.dest)
        else:
            machines[step.process].on_receive(in_flight.pop(step.message))
        for i, m in machines.items():
            assert m.snapshot()["greater"][i] is False


def test_run_names_every_checkpoint():
    # The machines return timestamps only.  In every built-in run under
    # every protocol, each record sits under its own (process, ordinal)
    # key; on each process the initial checkpoint is ordinal 1 with
    # timestamp 1, then each ckpt step and each forced receive makes the
    # next ordinal, of kind basic or forced, and a forced receive's
    # ForcedEvent holds that very record.
    for name in FIXTURE_NAMES:
        scen = builtin(name)[0]
        for protocol in PROTOCOL_NAMES:
            run = run_scenario(scen, protocol)
            forced = {f.step_index: f for f in run.forced}
            got = run.trace.checkpoints
            counts = [0] + [1] * scen.n
            want = {(p, 1): "initial" for p in range(1, scen.n + 1)}
            for idx, st in enumerate(scen.steps):
                if st.kind == "ckpt" or idx in forced:
                    counts[st.process] += 1
                    key = (st.process, counts[st.process])
                    want[key] = "basic" if st.kind == "ckpt" else "forced"
                    if idx in forced:
                        assert forced[idx].record is got[key], (name, protocol, idx)
            assert {key: rec.kind for key, rec in got.items()} == want, (name, protocol)
            assert all(rec.key() == key and type(rec.timestamp) is int
                       for key, rec in got.items()), (name, protocol)
            assert all(got[p, 1].timestamp == 1 for p in range(1, scen.n + 1))


TAKEN_MERGE = """procs 3
send 2 3 m2
recv 3 m2
ckpt 3
send 2 1 m3
recv 1 m3
send 3 1 m4
recv 1 m4
send 1 2 m5
recv 2 m5
"""


def test_taken_merge_ors_equal_ckptv_entries():
    # P1 learns P2's interval from m3 and again, with an equal ckptv entry,
    # from m4, sent by P3 after C_3^2, which followed m2 from P2.  Only the
    # equal-entry OR of the taken merge carries P3's taken[2] into P1, so
    # that m5 makes P2 force before it closes the Z-cycle [m4, m5, m2] on
    # C_3^2.  No built-in fixture shows this merge at fault; a merge that
    # keeps only the raised entries' bits makes every FI and FINE variant
    # but lazy-fi force nothing, leaving C_3^2 useless, and lazy-fi fire
    # C1 alone.
    scen = parse_scenario(TAKEN_MERGE)
    fired = {"pi": {"C1"}, "lazy-fi": {"C1", "C2"}, "lazy-fine-ri": {"C1", "C2"}}
    for protocol in PROTOCOL_NAMES:
        run = run_scenario(scen, protocol)
        rep = oracle_report(run.trace)
        forced = [(f.step_index, set(f.decision.fired)) for f in run.forced]
        if protocol == "none":
            assert forced == []
            assert [(r.key(), chains) for r, chains, _ in rep.z_cycles] == [
                ((3, 2), [("m4", "m5", "m2")])]
        else:
            assert forced == [(8, fired.get(protocol, {"C2"}))], protocol
            assert rep.clean, protocol


# -- implication properties -------------------------------------------------


@given(st.data())
def test_condition_implications(data):
    """List-form (state, payload) pairs: every mask predicate equals its
    list form, and the weakened conditions imply the ones they weaken."""
    n = data.draw(st.integers(2, 5))
    i = data.draw(st.integers(1, n))

    def bools():
        return [None] + data.draw(st.lists(st.booleans(), min_size=n, max_size=n))

    def ints(hi):
        return [None] + data.draw(
            st.lists(st.integers(0, hi), min_size=n, max_size=n)
        )

    state = SimpleNamespace(
        n=n,
        i=i,
        lc=data.draw(st.integers(1, 5)),
        sent_to=bools(),
        min_to=[None] + [INF if v == 0 else v for v in ints(4)[1:]],
        clockv=ints(5),
        greater=bools(),
        equal_incr=bools(),
        ckptv=ints(3),
        taken=bools(),
    )
    m = SimpleNamespace(
        t=data.draw(st.integers(1, 6)),
        clockv=ints(5),
        greater=bools(),
        equal_incr=bools(),
        ckptv=ints(3),
        taken=bools(),
    )
    state, m = masked_agreeing(state, m)
    if eval_c_fine1(state, m):
        assert eval_c_fi1_greater(state, m)
    if eval_c_lazyfine1(state, m):
        assert eval_c_lazyfi1(state, m)
    if eval_c_fi1_clockv(state, m):
        assert eval_c_pi(state, m)


# -- behaviour pin ------------------------------------------------------------


def _behaviour_scenarios():
    yield from (builtin(name)[0] for name in FIXTURE_NAMES)
    for seed in range(300):
        n = 2 + seed % 5
        yield random_scenario(FuzzParams(
            n=n, events=20 + seed % 41, p_ckpt=(0.05, 0.15, 0.3)[seed % 3],
            p_send=0.3 + 0.05 * (seed % 4), max_in_flight=1 + seed % 8, seed=seed,
        ))


def test_protocol_behaviour_digest_is_pinned():
    """One SHA-256 over what every protocol decides and emits on the
    builtin fixtures and 300 seeded scenarios: each forced step with its
    fired conditions, timestamp and pre-update state, every checkpoint
    record, and the rendered fields of every piggyback.  Any change to a
    protocol's state representation must leave it unchanged."""
    sha = hashlib.sha256()
    for scen in _behaviour_scenarios():
        for protocol in PROTOCOL_NAMES:
            run = run_scenario(scen, protocol)
            rows = [protocol]
            for f in run.forced:
                rows.append((f.step_index, sorted(f.decision.fired), f.record.timestamp,
                             sorted(run.prestate(f.step_index).items())))
            for key, r in sorted(run.trace.checkpoints.items()):
                rows.append((key, r.kind, r.timestamp))
            for step, name, pb in run.piggybacks:
                rows.append((step, name, pb.fields()))
            sha.update(repr(rows).encode())
    assert sha.hexdigest() == "c834bac35952cb8df7d4301c7f40ecf49b8c2a2ec145fff1579cb4d151692173"
