import copy
import hashlib
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from cicsim import protocols
from cicsim.computation import CheckpointRecord, Trace
from cicsim.oracle import oracle_report, quick_findings
from cicsim.protocols import (
    PROTOCOL_NAMES,
    ProtocolError,
    eval_c_fi1_clockv,
    eval_c_fi1_greater,
    eval_c_fi2,
    eval_c_fine1,
    eval_c_lazyfi1,
    eval_c_lazyfine1,
    eval_c_pi,
    make_protocol,
)
from cicsim.report import run_report, to_json
from cicsim.rng import SplitMix64
from cicsim.scenarios import (
    FIXTURE_NAMES,
    FuzzParams,
    ScenarioParseError,
    builtin,
    parse_scenario,
    random_scenario,
    serialize_scenario,
)
from cicsim.simulator import (
    ForcedEvent,
    Scenario,
    ScenarioError,
    Step,
    amplify_violation,
    ckpt,
    compare_runs,
    recv,
    run_scenario,
    scenario_violations,
    send,
    step_problems,
)
from list_conditions import masked_state
from oracle_rows import z_cycle_rows

CONDITION_FUNCS = {
    "pi": {"C1": eval_c_pi},
    "fi-clockv": {"C1": eval_c_fi1_clockv, "C2": eval_c_fi2},
    "fi-greater": {"C1": eval_c_fi1_greater, "C2": eval_c_fi2},
    "fi": {"C1": eval_c_fi1_greater, "C2": eval_c_fi2},
    "lazy-fi": {"C1": eval_c_lazyfi1, "C2": eval_c_fi2},
    "fine": {"C1": eval_c_fine1, "C2": eval_c_fi2},
    "lazy-fine": {"C1": eval_c_lazyfine1, "C2": eval_c_fi2},
}


def test_runs_are_deterministic():
    scen, _ = builtin("ccp")
    a = run_scenario(scen, "fi")
    b = run_scenario(scen, "fi")
    assert a.trace.events == b.trace.events
    assert [f.record for f in a.forced] == [f.record for f in b.forced]
    assert [(i, n, p.fields()) for i, n, p in a.piggybacks] == [
        (i, n, p.fields()) for i, n, p in b.piggybacks
    ]


def test_forced_checkpoint_sits_before_its_receive():
    scen, _ = builtin("ccp")
    run = run_scenario(scen, "fi")
    (forced,) = run.forced
    events = run.trace.events
    pos = next(at for at, ev in enumerate(events) if ev.checkpoint == forced.record)
    after = events[pos + 1]
    assert after.kind == "recv" and after.message == forced.message


def test_forced_decisions_replay_on_logged_prestate():
    cases = [
        ("strict-b", "pi"),
        ("greater-c", "fi-greater"),
        ("greater-c", "fi-clockv"),
        ("taken", "fi-greater"),
        ("ccp", "fi-greater"),
        ("lazy-greater-a", "lazy-fi"),
        ("lazy-greater-c", "lazy-fi"),
    ]
    for name, protocol in cases:
        scen, _ = builtin(name)
        run = run_scenario(scen, protocol)
        assert run.forced, (name, protocol)
        for ev in run.forced:
            state = masked_state(SimpleNamespace(**run.prestate(ev.step_index)))
            for cond in ev.decision.fired:
                func = CONDITION_FUNCS[protocol][cond]
                assert func(state, ev.payload), (name, protocol, cond)


def eager_snapshot(m):
    """The state dict every forced receive once rendered eagerly, written
    apart from ``snapshot()``: the reference ``run.prestate`` reproduces."""
    out = {"protocol": m.name, "n": m.n, "i": m.i, "lc": m.lc}
    for f in ("sent_to", "min_to", "clockv", "greater", "equal_incr",
              "ckptv", "taken", "increment"):
        if hasattr(m, f):
            val = getattr(m, f)
            if f in ("sent_to", "greater", "equal_incr", "taken"):
                val = [val >> k & 1 == 1 for k in range(m.n + 1)]
            elif isinstance(val, list):
                val = list(val)
            out[f] = val
    return out


def eager_prestates(scen, protocol):
    """(step index, eager snapshot) of each forced receive, replayed on
    fresh machines."""
    machines = [None] + [make_protocol(protocol, scen.n, i) for i in range(1, scen.n + 1)]
    in_flight, out = {}, []
    for idx, st in enumerate(scen.steps):
        m = machines[st.process]
        if st.kind == "ckpt":
            m.take_checkpoint()
        elif st.kind == "send":
            in_flight[st.message] = m.on_send(st.dest)
        else:
            before = eager_snapshot(m)
            if m.on_receive(in_flight.pop(st.message))[1] is not None:
                out.append((idx, before))
    return out


def test_a_run_renders_no_prestate(monkeypatch):
    # A run renders no state: the pre-state of a forced receive is
    # replayed only when run.prestate reads it.
    renders = []

    def counting(real):
        def call(*args):
            renders.append(real.__name__)
            return real(*args)
        return call

    monkeypatch.setattr(protocols, "_bools", counting(protocols._bools))
    monkeypatch.setattr(protocols.BaseProtocol, "snapshot",
                        counting(protocols.BaseProtocol.snapshot))
    scenarios = [builtin(name)[0] for name in FIXTURE_NAMES]
    scenarios += [random_scenario(FuzzParams(n=2 + s % 4, events=40, seed=s + 4100))
                  for s in range(20)]
    runs = [(scen, protocol, run_scenario(scen, protocol))
            for scen in scenarios for protocol in PROTOCOL_NAMES]
    assert renders == []

    forced = {protocol: 0 for protocol in PROTOCOL_NAMES}
    for scen, protocol, run in runs:
        got = [(f.step_index, list(run.prestate(f.step_index).items())) for f in run.forced]
        want = [(idx, list(snap.items())) for idx, snap in eager_prestates(scen, protocol)]
        assert got == want, (scen.name, protocol)
        forced[protocol] += len(got)
    assert forced["none"] == 0
    assert all(forced[p] > 0 for p in PROTOCOL_NAMES if p != "none"), forced

    # Each read returns fresh lists: changing one leaves the next read as it was.
    run = next(run for _, _, run in runs if run.forced)
    at = run.forced[0].step_index
    first, second = run.prestate(at), run.prestate(at)
    for val in first.values():
        if isinstance(val, list):
            val.append(None)
    assert first != second == run.prestate(at)


def test_prestate_needs_a_step_index_of_the_scenario():
    run = run_scenario(builtin("ccp")[0], "fi")
    for bad in (-1, len(run.scenario.steps), True, 1.0):
        with pytest.raises(ValueError, match="step index"):
            run.prestate(bad)


def test_none_adds_no_checkpoints():
    for seed in range(10):
        scen = random_scenario(FuzzParams(n=3, events=30, seed=seed + 70))
        run = run_scenario(scen, "none")
        demanded = sum(1 for s in scen.steps if s.kind == "ckpt")
        assert run.checkpoint_total == demanded + scen.n


def test_empty_scenario_only_initials():
    scen = Scenario(3, ())
    for protocol in ("none", "pi", "fi", "lazy-fi", "fine"):
        run = run_scenario(scen, protocol)
        assert run.checkpoint_total == 3
        assert {r.timestamp for r in run.trace.checkpoints.values()} == {1}
        assert run.forced == []


def test_step_is_a_frozen_value():
    step = Step("send", 1, 2, "m1")
    assert Step._fields == ("kind", "process", "dest", "message")
    assert repr(step) == "Step(kind='send', process=1, dest=2, message='m1')"
    assert not hasattr(step, "__dict__")  # slots: no per-step dict
    same = Step(kind="send", process=1, dest=2, message="m1")
    assert step == same and hash(step) == hash(same) == hash(("send", 1, 2, "m1"))
    assert step != Step("send", 1, 3, "m1")
    assert Step("recv", 2, message="m1") == Step("recv", 2, None, "m1")
    assert Step("ckpt", 3) == Step("ckpt", 3, None, None)
    for name in ("kind", "message", "other"):
        with pytest.raises(AttributeError):
            setattr(step, name, "x")
    with pytest.raises(AttributeError):
        del step.dest
    moved = step._replace(dest=3)
    assert moved == Step("send", 1, 3, "m1") and step.dest == 2
    assert len({step, same, moved}) == 2
    assert copy.copy(step) == copy.deepcopy(step) == pickle.loads(pickle.dumps(step)) == step


def test_scenario_keeps_its_name_out_of_its_value_and_checks_every_copy():
    steps = (send(1, 2, "m1"), recv(2, "m1"))
    named, other = Scenario(2, steps, name="a"), Scenario(2, steps, name="b")
    assert named == other and not named != other and hash(named) == hash(other)
    assert named != Scenario(2, steps[:1]) and named != Scenario(3, steps)
    assert named != (2, steps, "a") and (2, steps, "a") != named
    assert named._replace(name="c").name == "c" and named._replace(name="c") == named
    with pytest.raises(ScenarioError):
        named._replace(steps=(recv(1, "m9"),))
    with pytest.raises(ScenarioError):
        Scenario._make((2, (recv(1, "m9"),), None))
    copied = pickle.loads(pickle.dumps(named))
    assert copy.copy(named) == copy.deepcopy(named) == copied == named
    assert copied.name == "a"


def test_invalid_scenarios_rejected():
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(2, (recv(1, "m1"),)), "none")
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(2, (send(1, 1, "m1"),)), "none")
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(2, (send(1, 2, "m1"), recv(1, "m1"))), "none")


def test_unknown_protocol_rejected():
    with pytest.raises(ProtocolError):
        run_scenario(Scenario(2, ()), "quantum")


# -- columnar traces ---------------------------------------------------------

EVENT_VIEW = ("events",)


def columnar_cases():
    """(label, scenario, protocols): every built-in under every protocol,
    then 300 seeded scenarios (n 3-8, up to 600 events), each under two
    protocols in turn."""
    for name in FIXTURE_NAMES:
        yield name, builtin(name)[0], PROTOCOL_NAMES
    for seed in range(300):
        prng = SplitMix64(seed ^ 0xC0105)
        n = 3 + prng.below(6)
        events = 20 + prng.below(581) if seed % 5 == 0 else 20 + prng.below(181)
        rates = tuple(0.02 + 0.28 * prng.random() for _ in range(n))
        scen = random_scenario(FuzzParams(n=n, events=events, p_ckpt=rates, seed=seed))
        protocols = (PROTOCOL_NAMES[seed % 10], PROTOCOL_NAMES[(seed * 7 + 3) % 10])
        yield f"seed {seed}", scen, protocols


def oracle_view(trace, cap):
    """Everything the oracle says about a trace, as plain data; the
    report's violations are those of check_z_consistency."""
    rep = oracle_report(trace, cap)
    return (
        quick_findings(trace),
        [(a.key(), b.key(), chain) for a, b, chain in rep.violations],
        [(r.key(), names) for r, names in z_cycle_rows(rep.z_cycles)],
        sorted(r.key() for r in rep.useless),
        rep.stats,
    )


def test_columnar_trace_equals_trace_rebuilt_from_its_events():
    for label, scen, protocols in columnar_cases():
        for protocol in protocols:
            trace = run_scenario(scen, protocol).trace
            # A small witness cap keeps dense unprotected traces cheap; the
            # report still reads every column.
            cap = 4 if label.startswith("seed") else None
            columns = (trace.event_count, trace.checkpoints, trace.ckpt_counts,
                       trace.delivered)
            judged = oracle_view(trace, cap)
            rebuilt = Trace(trace.n, trace.events)
            where = (label, protocol)
            assert columns == (rebuilt.event_count, rebuilt.checkpoints, rebuilt.ckpt_counts,
                               rebuilt.delivered), where
            assert oracle_view(rebuilt, cap) == judged, where
            for name in EVENT_VIEW:
                assert getattr(trace, name) == getattr(rebuilt, name), (where, name)


def test_event_view_digest_is_pinned():
    """One SHA-256 over the event view of every columnar_cases() run:
    each event's process, ordinal, kind and message, and its checkpoint's
    key, kind and timestamp.  Pinned before the run loop stopped keeping a
    per-event log, so the view derived on first read is the one the log
    gave."""
    sha = hashlib.sha256()
    for label, scen, protocols in columnar_cases():
        for protocol in protocols:
            sha.update(f"{label} {protocol}\n".encode())
            for ev in run_scenario(scen, protocol).trace.events:
                rec = ev.checkpoint
                ckpt = None if rec is None else (rec.key(), rec.kind, rec.timestamp)
                sha.update(repr((ev.process, ev.ordinal, ev.kind, ev.message, ckpt)).encode())
    assert sha.hexdigest() == "9bbdb64295b9ad69c70469fb2ae6f8b7c0af82004c81eec1e3d3deeba82dd2b2"


def test_run_built_values_have_exact_types():
    """run_scenario builds its records and forced events without the
    named-tuple constructors, so each must still be its exact type with
    the fields the constructor gives.  One SHA-256 pins the repr of every
    record and the repr of every forced event up to its decision (the
    decision's set and the payload have no stable repr)."""
    sha = hashlib.sha256()
    for name in FIXTURE_NAMES:
        scen = builtin(name)[0]
        for protocol in PROTOCOL_NAMES:
            where = (name, protocol)
            run = run_scenario(scen, protocol)
            records = run.trace.checkpoints
            for key, rec in records.items():
                assert type(rec) is CheckpointRecord, where
                assert [type(v) for v in (rec.process, rec.ordinal, rec.timestamp)] == [int] * 3
                assert rec == CheckpointRecord(*rec) and rec.key() == key, where
                sha.update(repr(rec).encode())
            for f in run.forced:
                assert type(f) is ForcedEvent, where
                assert f.record is records[(f.process, f.record.ordinal)], where
                sha.update(repr(f).partition(", decision=")[0].encode())
    assert repr(records[(1, 1)]) == (
        "CheckpointRecord(process=1, ordinal=1, kind='initial', timestamp=1)")
    assert repr(run_scenario(builtin("ccp")[0], "fi").forced[0]).startswith(
        "ForcedEvent(step_index=14, process=2, message='m6', decision=ForcedDecision(")
    assert sha.hexdigest() == "5b6bba518d9d303e661e7dae1064edf4cbfef818cf191b09eb50e53ac21a2009"


def test_reports_build_no_events():
    scen, _ = builtin("lazy-fine-counterexample")
    run = run_scenario(scen, "lazy-fine")
    assert quick_findings(run.trace) == (1, 2)
    rep = run_report(run, oracle_report(run.trace), serialize_scenario(scen))
    assert to_json(rep)
    assert all(name not in vars(run.trace) for name in EVENT_VIEW)
    assert len(run.trace.events) == run.trace.event_count == rep["oracle"]["stats"]["events"]

    # A long run keeps no per-event record until its event view is read:
    # every list or tuple within four references of the run is shorter
    # than the event count (the scenario's steps are one event short per
    # process).
    scen = random_scenario(FuzzParams(n=8, events=600, p_ckpt=0.1, max_in_flight=16, seed=3))
    run = run_scenario(scen, "lazy-fi")
    trace = run.trace
    assert run.forced and trace.event_count == scen.n + len(scen.steps) + len(run.forced)
    assert max(map(len, sequences_near(run))) < trace.event_count
    assert all(name not in vars(trace) for name in EVENT_VIEW)
    assert len(trace.events) == trace.event_count
    assert max(map(len, sequences_near(run))) == trace.event_count


def sequences_near(obj, depth=4):
    """The lists and tuples reachable from obj through at most ``depth``
    attributes, items and dict values."""
    found = []

    def walk(x, d):
        if isinstance(x, (list, tuple)):
            found.append(x)
            inner = x
        elif isinstance(x, dict):
            inner = x.values()
        elif hasattr(x, "__dict__") and not isinstance(x, type):
            inner = vars(x).values()
        else:
            return
        if d:
            for item in inner:
                walk(item, d - 1)

    walk(obj, depth)
    return found


# -- compare ----------------------------------------------------------------


def test_compare_ccp():
    scen, _ = builtin("ccp")
    rows = {r.protocol: r for r in compare_runs(scen, ["none", "pi", "fi"])}
    assert rows["none"].useless == 1
    assert rows["pi"].useless == 0
    assert rows["fi"].useless == 0
    assert rows["none"].forced == 0
    assert rows["fi"].forced == 1


def test_compare_fine_counterexample():
    scen, _ = builtin("fine-counterexample")
    rows = {r.protocol: r for r in compare_runs(scen, ["fi", "fine"])}
    assert rows["fi"].useless == 0 and rows["fi"].forced >= 1
    assert rows["fine"].forced == 0 and rows["fine"].useless == 1


def test_compare_empty_scenario():
    rows = compare_runs(Scenario(2, ()), ["none", "pi", "fi", "lazy-fi"])
    for r in rows:
        assert r.forced == 0 and r.useless == 0 and r.violations == 0


# -- amplifier ---------------------------------------------------------------


def test_amplify_fine_proposal_reproduces_counterexample():
    scen, _ = builtin("fine-proposal")
    result = amplify_violation(scen, "fine")
    expected, _ = builtin("fine-counterexample")
    assert result.scenario == expected
    assert result.inserted_message == "m4"
    assert {r.key() for r in oracle_report(result.run.trace).useless} == {(3, 2)}


def test_amplify_theorem1():
    scen, _ = builtin("theorem1-a")
    result = amplify_violation(scen, "none")
    expected, _ = builtin("theorem1-b")
    assert result.scenario == expected
    assert {r.key() for r in oracle_report(result.run.trace).useless} == {(3, 2)}


def test_amplify_nothing_for_safe_protocol():
    scen, _ = builtin("fine-proposal")
    assert amplify_violation(scen, "fi") is None


def test_amplify_lazy_fine_precursor():
    full, _ = builtin("lazy-fine-counterexample")
    precursor = Scenario(
        full.n, tuple(s for s in full.steps if s.message != "m5")
    )
    result = amplify_violation(precursor, "lazy-fine")
    assert result is not None
    assert result.inserted_message == "m5"
    rep = oracle_report(result.run.trace)
    witnesses = {names for _, names in z_cycle_rows(rep.z_cycles)}
    assert ("m5", "m4", "m2") in witnesses


def test_amplify_handles_forced_target_checkpoint():
    # Fuzz-found case (campaign derivation, seed 101) where the chosen
    # violation targets a forced checkpoint.  The checkpoint is taken
    # before its triggering receive is delivered, so the new send must
    # follow that receive to lie in the target interval.  The re-run may
    # legitimately diverge; the contract is a valid deterministic scenario
    # and an oracle report, not uselessness.
    from cicsim.oracle import check_z_consistency
    from cicsim.rng import SplitMix64
    from cicsim.scenarios import FuzzParams, random_scenario

    seed = 101
    prng = SplitMix64(seed * 0x9E3779B9 + 17)
    n = 3 + seed % 3
    rates = tuple(0.03 + 0.27 * prng.random() for _ in range(n))
    scen = random_scenario(
        FuzzParams(n=n, events=40, p_ckpt=rates,
                   p_send=0.30 + 0.20 * prng.random(), max_in_flight=6, seed=seed)
    )
    base = run_scenario(scen, "fine")
    _, target, _ = min(
        (v for v in check_z_consistency(base.trace) if v[0].process != v[1].process),
        key=lambda v: (v[1].process, v[1].ordinal, v[0].process, v[0].ordinal),
    )
    assert target.kind == "forced"
    result = amplify_violation(scen, "fine")
    assert result is not None
    assert scenario_violations(result.scenario) == []
    assert result.run.trace.delivered[result.inserted_message][:2] == (
        target.process, target.ordinal
    )
    again = amplify_violation(scen, "fine")
    assert again.scenario == result.scenario  # deterministic


AMPLIFY_PIN_PROTOCOLS = ("none", "fine", "lazy-fine", "fine-ri", "lazy-fine-ri")


def test_amplify_digest_is_pinned():
    """One SHA-256 over every amplified scenario and its useless set, on
    600 seeded scenarios x the protocols that admit violations.  The set
    must hold a forced target and a basic target that follows a forced
    checkpoint of its own process, the two cases where counting only the
    process's ckpt steps would find the wrong anchor step."""
    sha = hashlib.sha256()
    forced_targets = basic_after_forced = 0
    for seed in range(5000, 5600):
        scen = random_scenario(FuzzParams(
            n=3 + seed % 3, events=30 + seed % 20,
            p_ckpt=0.05 + 0.05 * (seed % 4), seed=seed,
        ))
        for protocol in AMPLIFY_PIN_PROTOCOLS:
            result = amplify_violation(scen, protocol)
            if result is None:
                sha.update(b"none\n")
                continue
            sha.update(serialize_scenario(result.scenario).encode())
            useless = oracle_report(result.run.trace).useless
            sha.update(repr(sorted(r.key() for r in useless)).encode())
            dst = result.violation[1]
            # The new message is sent in the target interval.
            assert result.run.trace.delivered[result.inserted_message][:2] == (
                dst.process, dst.ordinal
            ), (seed, protocol)
            if dst.kind == "forced":
                forced_targets += 1
            elif any(f.record.process == dst.process and f.record.ordinal < dst.ordinal
                     for f in run_scenario(scen, protocol).forced):
                basic_after_forced += 1
    assert forced_targets > 0 and basic_after_forced > 0
    assert sha.hexdigest() == "7aae3795f493b9c25a06dbc1a5e5ce0f360cedc3e00dfad2c1e237f990ca77cc"


def test_amplify_builds_no_events(events_made):
    for name, protocol in (("fine-proposal", "fine"), ("theorem1-a", "none")):
        assert amplify_violation(builtin(name)[0], protocol) is not None
    assert events_made == []


def test_amplify_builds_one_witness_for_its_target(monkeypatch):
    # The base run needs a witness only for the pair it amplifies, and the
    # amplified run's report is built only by a caller: then every other
    # _shortest call is that report's, one per distinct (start mask,
    # end mask) pair among its violations.
    from cicsim.oracle import _ZigzagIndex, _index

    calls = []
    real = _ZigzagIndex._shortest

    def counting_shortest(self, src, dst):
        calls.append((src, dst))
        return real(self, src, dst)

    monkeypatch.setattr(_ZigzagIndex, "_shortest", counting_shortest)
    scenarios = [(builtin(name)[0], protocol)
                 for name, protocol in (("fine-proposal", "fine"), ("theorem1-a", "none"))]
    scenarios += [(random_scenario(FuzzParams(n=4, events=60, seed=seed)), "none")
                  for seed in range(5)]
    amplified = 0
    for scen, protocol in scenarios:
        calls.clear()
        result = amplify_violation(scen, protocol)
        if result is None:
            assert calls == []
            continue
        amplified += 1
        assert len(calls) == 1
        violations = oracle_report(result.run.trace).violations
        idx = _index(result.run.trace)
        masks = {(idx.start_mask(a.key()), idx.end_mask(b.key()))
                 for a, b, _ in violations}
        assert len(calls) == 1 + len(masks)
    assert amplified >= 5


def test_amplified_scenarios_stay_valid():
    for name, protocol in (("fine-proposal", "fine"), ("theorem1-a", "none")):
        scen, _ = builtin(name)
        result = amplify_violation(scen, protocol)
        assert scenario_violations(result.scenario) == []


INVALID_STEPS = (
    Step("ckpt", 3), Step("send", 1, 1, "m1"), Step("send", 2, 3, "m2"),
    Step("send", 2, 1, "m1"), Step("recv", 1, message="m9"),
    Step("recv", 1, message="m1"), Step("recv", 2, message="m1"),
    Step("bogus", 1),
)


def test_scenario_violation_messages():
    with pytest.raises(ScenarioError) as err:
        Scenario(2, INVALID_STEPS)
    assert err.value.problems == [
        "step 0 (ckpt 3): process out of range",
        "step 1 (send 1 1 m1): self-send",
        "step 2 (send 2 3 m2): destination out of range",
        "step 3 (send 2 1 m1): message m1 sent twice",
        "step 4 (recv 1 m9): receive before send of m9",
        "step 6 (recv 2 m1): m1 was addressed to P1",
        "step 6 (recv 2 m1): message m1 received twice",
        "step 7 (bogus 1 None): unknown step kind 'bogus'",
    ]
    # A step of an unknown kind shows its own kind, not a receive's.
    with pytest.raises(ScenarioError) as err:
        Scenario(2, (Step("rollback", 1),))
    assert err.value.problems == ["step 0 (rollback 1 None): unknown step kind 'rollback'"]


@pytest.mark.parametrize("steps, problem", [
    ((ckpt(1.0),), "process id 1.0 is not an int"),
    ((ckpt(True),), "process id True is not an int"),
    ((send(1, 2, "a"), recv(2.0, "a")), None),  # located at step 1 below
    ((Step("send", 1, 2.0, "a"), recv(2, "a")), "destination 2.0 is not an int"),
    ((Step("send", 1, None, "a"),), "destination None is not an int"),
    ((Step("send", 1, 2, None), recv(2, None)), "message name None is not one token without '#'"),
    ((send(1, 2, ""), recv(2, "")), "message name '' is not one token without '#'"),
    ((send(1, 2, "a b"), recv(2, "a b")), "message name 'a b' is not one token without '#'"),
    ((send(1, 2, "x#y"), recv(2, "x#y")), "message name 'x#y' is not one token without '#'"),
    ((send(1, 2, "a\u2028b"), recv(2, "a\u2028b")),
     "message name 'a\\u2028b' is not one token without '#'"),
    ((send(1, 2, 7), recv(2, 7)), "message name 7 is not one token without '#'"),
], ids=["ckpt-float", "ckpt-bool", "recv-float", "dest-float", "dest-none", "name-none",
        "name-empty", "name-space", "name-hash", "name-line-separator", "name-int"])
def test_scenario_rejects_steps_the_text_format_cannot_hold(steps, problem):
    # Each was accepted once and then failed in the run, in the trace or in
    # parse(serialize(s)) == s.  A rejected send's receive adds no problem.
    with pytest.raises(ScenarioError) as err:
        Scenario(2, steps)
    if problem is None:
        assert err.value.located == [(1, "process id 2.0 is not an int")]
    else:
        assert err.value.located == [(0, problem)]


@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_scenario_rejects_a_process_count_that_is_not_an_int(n):
    # 2.0 was accepted once, then serialized as "procs 2.0" and failed in
    # the run with a TypeError.
    with pytest.raises(ScenarioError) as err:
        Scenario(n, (send(1, 2, "a"), recv(2, "a")))
    assert err.value.located == [(None, f"process count {n!r} is not an int")]


def test_scenario_rejects_unhashable_message_names():
    # Such a name once raised a bare TypeError from the send bookkeeping.
    bad = "message name ['x'] is not one token without '#'"
    with pytest.raises(ScenarioError) as err:
        Scenario(2, (send(1, 2, ["x"]),))
    assert err.value.located == [(0, bad)]
    with pytest.raises(ScenarioError) as err:
        Scenario(2, (send(1, 2, ["x"]), recv(2, ["x"]), send(1, 2, "a"), recv(2, "a")))
    assert err.value.located == [(0, bad), (1, bad)]


def test_scenario_rejects_fields_a_step_kind_does_not_use():
    # The text format cannot hold them: they were once accepted, dropped by
    # serialize_scenario, and the receive's destination reached its event.
    with pytest.raises(ScenarioError) as err:
        Scenario(2, (send(1, 2, "m1"), Step("recv", 2, 1, "m1"), Step("ckpt", 1, 2, "x")))
    assert err.value.located == [
        (1, "receive names destination 1"),
        (2, "checkpoint names destination 2"),
        (2, "checkpoint names message 'x'"),
    ]


@pytest.mark.parametrize("steps, problem", [
    ((("send", 1, 1, "a"),), "step 0 (('send', 1, 1, 'a')): tuple is not a Step"),
    ((("ckpt", 1),), "step 0 (('ckpt', 1)): tuple is not a Step"),
    ((None,), "step 0 (None): NoneType is not a Step"),
    ([("send", 1, 2, "a"), ("recv", 2, None, "a")], "steps list is not a tuple"),
    ([ckpt(1)], "steps list is not a tuple"),
])
def test_scenario_rejects_steps_that_are_not_a_tuple_of_steps(steps, problem):
    # The first four once raised AttributeError, ValueError, TypeError and
    # AttributeError; the last built a scenario that hash() refused.
    with pytest.raises(ScenarioError) as err:
        Scenario(2, steps)
    assert err.value.problems == [problem]


@given(st.text(max_size=4))
@example(" a")
@example("a\x1cb")
@example("a\x85")
@example("#")
@settings(max_examples=200, deadline=None)
def test_every_accepted_message_name_survives_the_text_format(name):
    try:
        scen = Scenario(2, (send(1, 2, name), recv(2, name)))
    except ScenarioError:
        return
    assert parse_scenario(serialize_scenario(scen)) == scen
    assert run_scenario(scen, "none").trace.events


def test_invalid_scenario_checks_its_steps_once(monkeypatch):
    import cicsim.simulator

    calls = []
    real = cicsim.simulator.step_problems

    def counting_step_problems(n, steps):
        calls.append(n)
        return real(n, steps)

    monkeypatch.setattr(cicsim.simulator, "step_problems", counting_step_problems)
    for n, steps in ((2, INVALID_STEPS), (1, ()), (2, (recv(1, "m1"),))):
        calls.clear()
        with pytest.raises(ScenarioError):
            Scenario(n, steps)
        assert calls == [n]


def test_parser_reports_the_constructor_problems_at_their_lines():
    # The text format cannot spell an unknown step kind: it is a syntax
    # error there, so the last step is left out.
    steps = INVALID_STEPS[:-1]
    text = "procs 2\n" + "".join(st.text() + "\n" for st in steps)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    located = list(step_problems(2, steps))
    assert len(located) == 7
    assert err.value.errors == [(idx + 2, problem) for idx, problem in located]


def test_every_generated_scenario_constructs():
    # Each of these builds a Scenario, which raises on any problem; amplified
    # scenarios are covered by test_amplified_scenarios_stay_valid.
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        assert scenario_violations(scen) == []
    for seed in range(200):
        params = FuzzParams(n=2 + seed % 7, events=10 + 3 * seed,
                            p_ckpt=0.05 + (seed % 5) / 10,
                            max_in_flight=1 + seed % 8, seed=seed)
        assert scenario_violations(random_scenario(params)) == []
