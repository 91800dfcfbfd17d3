from types import SimpleNamespace

import pytest

from cicsim.computation import Trace
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
    Scenario,
    ScenarioError,
    Step,
    amplify_violation,
    compare_runs,
    recv,
    run_scenario,
    scenario_violations,
    send,
    step_problems,
)
from list_conditions import masked_state

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
    pos = run.trace.checkpoint_position(forced.record)
    after = run.trace.events[pos + 1]
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
            state = masked_state(SimpleNamespace(**ev.prestate))
            for cond in ev.decision.fired:
                func = CONDITION_FUNCS[protocol][cond]
                assert func(state, ev.payload), (name, protocol, cond)


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

EVENT_VIEW = ("events", "message_sends", "message_recvs", "_pos", "_ckpt_pos", "_interval")


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
        [(a.key(), b.key(), w.messages, w.causal) for a, b, w in rep.violations],
        [(r.key(), w.messages, w.causal) for r, w in rep.z_cycles],
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
                       trace.delivered, trace.delivered_messages())
            judged = oracle_view(trace, cap)
            rebuilt = Trace(trace.n, trace.events)
            where = (label, protocol)
            assert columns == (rebuilt.event_count, rebuilt.checkpoints, rebuilt.ckpt_counts,
                               rebuilt.delivered, rebuilt.delivered_messages()), where
            assert oracle_view(rebuilt, cap) == judged, where
            for name in EVENT_VIEW:
                assert getattr(trace, name) == getattr(rebuilt, name), (where, name)


def test_reports_build_no_events():
    scen, _ = builtin("lazy-fine-counterexample")
    run = run_scenario(scen, "lazy-fine")
    assert quick_findings(run.trace) == (1, 2)
    rep = run_report(run, oracle_report(run.trace), serialize_scenario(scen))
    assert to_json(rep)
    assert all(name not in vars(run.trace) for name in EVENT_VIEW)
    assert len(run.trace.events) == run.trace.event_count == rep["oracle"]["stats"]["events"]


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
    assert {r.key() for r in result.report.useless} == {(3, 2)}


def test_amplify_theorem1():
    scen, _ = builtin("theorem1-a")
    result = amplify_violation(scen, "none")
    expected, _ = builtin("theorem1-b")
    assert result.scenario == expected
    assert {r.key() for r in result.report.useless} == {(3, 2)}


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
    witnesses = {w.messages for _, w in result.report.z_cycles}
    assert ("m5", "m4", "m2") in witnesses


def test_amplify_handles_forced_target_checkpoint():
    # Fuzz-found case (campaign derivation, seed 101) where the chosen
    # violation targets a forced checkpoint: the new send must precede the
    # triggering receive, which is itself the first event of the target
    # interval.  The re-run may legitimately diverge; the contract is a
    # valid deterministic scenario and an oracle report, not uselessness.
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
    chosen = min(
        (v for v in check_z_consistency(base.trace) if v[0].process != v[1].process),
        key=lambda v: (v[1].process, v[1].ordinal, v[0].process, v[0].ordinal),
    )
    assert chosen[1].kind == "forced"
    result = amplify_violation(scen, "fine")
    assert result is not None
    assert scenario_violations(result.scenario) == []
    again = amplify_violation(scen, "fine")
    assert again.scenario == result.scenario  # deterministic


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
        "step 7 (recv 1 None): unknown step kind 'bogus'",
    ]


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
