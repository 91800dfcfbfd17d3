"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the fuzz-campaign timing.  The campaign (criteria 7, 8, 11) executes
10,000 seeded scenarios once and is shared by those criteria; criterion
7 also checks every run's zigzag masks against a second route, orphan
constraint propagation (``references.orphan_reach``), and runs each
scenario unprotected (``none``) as well, for the route check alone: those
runs have useless checkpoints, so their masks exercise components that
reach their own checkpoint.
"""

import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from cicsim import oracle
from cicsim.protocols import (
    eval_c_fi1_clockv,
    eval_c_fi1_greater,
    eval_c_fine1,
    eval_c_lazyfi1,
    eval_c_lazyfine1,
    eval_c_pi,
)
from cicsim.rng import SplitMix64
from cicsim.scenarios import FuzzParams, _is_causal, builtin, random_scenario
from cicsim.simulator import amplify_violation, run_scenario
from list_conditions import masked_agreeing
from oracle_rows import z_cycle_rows
from references import consistent_membership, orphan_reach, reach_mismatches

CAMPAIGN_RUNS = 10_000
CAMPAIGN_PROTOCOLS = ("pi", "fi-clockv", "fi-greater", "lazy-fi")


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def keys(records):
    return {r.key() for r in records}


# -- criteria 1-6: exact figure replay ---------------------------------------


def test_criterion_1_ccp_replay():
    scen, _ = builtin("ccp")
    trace = run_scenario(scen, "none").trace
    rep = oracle.oracle_report(trace)

    assert keys(rep.useless) == {(3, 3)}
    assert [(r.key(), names) for r, names in z_cycle_rows(rep.z_cycles)] == [
        ((3, 3), ("m6", "m3")),
        ((3, 3), ("m6", "m5", "m4", "m3")),
    ]
    chain = oracle.zigzag_exists(trace.checkpoints[(1, 1)], trace.checkpoints[(3, 2)], trace)
    assert chain == ("m1", "m2") and _is_causal(scen, chain)
    chain = oracle.zigzag_exists(trace.checkpoints[(1, 2)], trace.checkpoints[(3, 3)], trace)
    assert chain == ("m4", "m3") and not _is_causal(scen, chain)
    pairs = {(a.key(), b.key()) for a, b, _ in rep.violations}
    assert ((3, 3), (1, 3)) in pairs
    assert trace.checkpoints[(3, 3)].timestamp == trace.checkpoints[(1, 3)].timestamp == 3
    _ok(1, "ccp replay: useless {C_3^3}, both cycle witnesses, both zigzags, "
           "C_3^3.t = C_1^3.t violation")


def test_criterion_2_fi_replay():
    scen, _ = builtin("ccp")
    for protocol in ("fi-clockv", "fi-greater"):
        run = run_scenario(scen, protocol)
        rep = oracle.oracle_report(run.trace)
        assert run.forced_count == 1, protocol
        assert not rep.useless and not rep.violations, protocol
    _ok(2, "both fi encodings add exactly 1 forced checkpoint on ccp and are clean")


def test_criterion_3_condition_sites():
    def forced_msgs(name, protocol):
        scen, _ = builtin(name)
        run = run_scenario(scen, protocol)
        return {f.message for f in run.forced}

    for enc in ("fi-clockv", "fi-greater"):
        assert forced_msgs("clockv-a", enc) == set()
        assert forced_msgs("clockv-b", enc) == set()
        assert forced_msgs("greater-c", enc) == {"m3"}
    assert forced_msgs("lazy-greater-a", "lazy-fi") == {"m5"}
    assert forced_msgs("lazy-greater-b", "lazy-fi") == set()
    assert forced_msgs("lazy-greater-c", "lazy-fi") == {"m7"}
    _ok(3, "fi declines at clockv-a/b, forces once at greater-c; lazy-fi forces "
           "at m5 (a), not at m7 (b), and at m7 to break [m7,m4,m6] (c)")


def test_criterion_4_fine_counterexample():
    scen, _ = builtin("fine-counterexample")
    fine = run_scenario(scen, "fine")
    assert fine.forced_count == 0
    assert keys(oracle.useless_checkpoints(fine.trace)) == {(3, 2)}
    fi = run_scenario(scen, "fi")
    assert fi.forced_count >= 1
    assert not oracle.useless_checkpoints(fi.trace)
    _ok(4, "fine: 0 forced and C_3^2 useless; fi on the same scenario: "
           f"{fi.forced_count} forced, 0 useless")


def test_criterion_5_lazy_fine_counterexample():
    scen, _ = builtin("lazy-fine-counterexample")
    lf = run_scenario(scen, "lazy-fine")
    rep = oracle.oracle_report(lf.trace)
    assert ("m5", "m4", "m2") in {names for _, names in z_cycle_rows(rep.z_cycles)}
    assert len(rep.useless) == 1
    safe = run_scenario(scen, "lazy-fi")
    assert not oracle.useless_checkpoints(safe.trace)
    _ok(5, "lazy-fine admits the [m5,m4,m2] cycle and one useless checkpoint; "
           "lazy-fi is clean on the same scenario")


def test_criterion_6_amplifier():
    scen, _ = builtin("fine-proposal")
    result = amplify_violation(scen, "fine")
    assert result is not None
    useless = oracle.oracle_report(result.run.trace).useless
    assert useless, "amplified run must contain a useless checkpoint"
    assert run_scenario(result.scenario, "fine").forced_count == 0
    _ok(6, f"amplify(fine-proposal, fine) inserts {result.inserted_message} and "
           f"yields useless {sorted(r.label() for r in useless)}")


# -- campaign (criteria 7, 8, 11) ---------------------------------------------


@dataclass
class Campaign:
    runs: int
    findings: list
    encoding_mismatches: list
    forced_totals: dict
    reversals: list
    reach_mismatches: list
    reachable_pairs: int
    none_pairs: int
    elapsed: float


@pytest.fixture(scope="module")
def campaign():
    findings = []
    mismatches = []
    totals = {p: 0 for p in CAMPAIGN_PROTOCOLS}
    reversals = []
    disagreements = []
    pairs = none_pairs = 0
    t0 = time.time()
    for seed in range(CAMPAIGN_RUNS):
        prng = SplitMix64(seed * 0x9E3779B9 + 17)
        n = 3 + seed % 3
        rates = tuple(0.03 + 0.27 * prng.random() for _ in range(n))
        params = FuzzParams(
            n=n,
            events=40,
            p_ckpt=rates,
            p_send=0.30 + 0.20 * prng.random(),
            max_in_flight=6,
            seed=seed,
        )
        scen = random_scenario(params)
        forced_steps = {}
        forced_counts = {}
        for protocol in CAMPAIGN_PROTOCOLS + ("none",):
            run = run_scenario(scen, protocol)
            # The second route: reachability by orphan constraints, from the
            # steps and the forced step indexes alone, against every mask.
            idx = oracle._index(run.trace)
            route = orphan_reach(n, scen.steps, run.forced_step_indexes())
            wrong = reach_mismatches(route, idx.counts, idx.base, idx.zz)
            if wrong:
                disagreements.append((seed, protocol, wrong))
            reached = sum(mask.bit_count() for mask in idx.zz)
            if protocol == "none":  # counts in the route check alone
                none_pairs += reached
                continue
            pairs += reached
            totals[protocol] += run.forced_count
            forced_counts[protocol] = run.forced_count
            forced_steps[protocol] = tuple(run.forced_step_indexes())
            useless, violations = oracle.quick_findings(run.trace)
            if useless or violations:
                findings.append((seed, protocol, useless, violations))
        if forced_steps["fi-clockv"] != forced_steps["fi-greater"]:
            mismatches.append((seed, forced_steps["fi-clockv"], forced_steps["fi-greater"]))
        if forced_counts["fi-greater"] > forced_counts["pi"]:
            reversals.append((seed, forced_counts["fi-greater"], forced_counts["pi"]))
    elapsed = time.time() - t0
    return Campaign(CAMPAIGN_RUNS, findings, mismatches, totals, reversals,
                    disagreements, pairs, none_pairs, elapsed)


def test_criterion_7_safety_fuzz(campaign):
    assert campaign.findings == [], campaign.findings[:5]
    assert campaign.reach_mismatches == [], campaign.reach_mismatches[:5]
    assert campaign.reachable_pairs > 0 and campaign.none_pairs > 0
    assert campaign.elapsed < 60.0, f"campaign took {campaign.elapsed:.1f}s"
    _ok(7, f"{campaign.runs} scenarios x {len(CAMPAIGN_PROTOCOLS)} protocols: "
           f"0 useless, 0 violations, and the orphan-constraint route gives all "
           f"{campaign.reachable_pairs} reachable pairs of those runs and all "
           f"{campaign.none_pairs} of the same scenarios run under none, "
           f"in {campaign.elapsed:.1f}s")


def test_criterion_8_encoding_equivalence(campaign):
    assert campaign.encoding_mismatches == [], campaign.encoding_mismatches[:5]
    _ok(8, f"fi-clockv and fi-greater forced at identical receives on all "
           f"{campaign.runs} scenarios")


def test_criterion_9_condition_implications():
    rng = SplitMix64(0xACCE97)
    checked = 0
    for _ in range(100_000):
        n = 2 + rng.below(4)
        i = 1 + rng.below(n)

        def bools():
            return [None] + [rng.below(2) == 1 for _ in range(n)]

        def ints(hi):
            return [None] + [rng.below(hi + 1) for _ in range(n)]

        state = SimpleNamespace(
            n=n, i=i, lc=1 + rng.below(5),
            sent_to=bools(),
            min_to=[None] + [math.inf if rng.below(4) == 0 else 1 + rng.below(4)
                             for _ in range(n)],
            clockv=ints(5), greater=bools(), equal_incr=bools(),
            ckptv=ints(3), taken=bools(),
        )
        m = SimpleNamespace(
            t=1 + rng.below(6), clockv=ints(5), greater=bools(),
            equal_incr=bools(), ckptv=ints(3), taken=bools(),
        )
        state, m = masked_agreeing(state, m)
        if eval_c_fine1(state, m):
            assert eval_c_fi1_greater(state, m)
        if eval_c_lazyfine1(state, m):
            assert eval_c_lazyfi1(state, m)
        if eval_c_fi1_clockv(state, m):
            assert eval_c_pi(state, m)
        checked += 1
    _ok(9, f"{checked} randomized (state, payload) pairs: each condition equals "
           "its list form; fine1=>fi1, lazyfine1=>lazyfi1, fi1-clockv=>pi, "
           "0 counterexamples")


def test_criterion_10_membership_cross_validation():
    protocols = ("none", "none", "fine", "lazy-fine", "pi")
    checked = 0
    for seed in range(200):
        params = FuzzParams(
            n=3 + seed % 2, events=22, p_ckpt=0.18, p_send=0.35,
            max_in_flight=5, seed=seed + 31_000,
        )
        scen = random_scenario(params)
        trace = run_scenario(scen, protocols[seed % len(protocols)]).trace
        useful = consistent_membership(trace)
        complement = keys(trace.checkpoints.values()) - keys(useful)
        assert complement == keys(oracle.useless_checkpoints(trace)), seed
        checked += 1
    _ok(10, f"{checked} traces: brute-force membership complement equals the "
            "Z-cycle useless set")


def test_criterion_11_efficiency_trend(campaign):
    fi_total = campaign.forced_totals["fi-greater"]
    pi_total = campaign.forced_totals["pi"]
    assert fi_total <= pi_total, campaign.forced_totals
    if campaign.reversals:
        print(f"  per-trace reversals (fi > pi) logged: {len(campaign.reversals)}, "
              f"first: {campaign.reversals[:3]}")
    _ok(11, f"aggregated forced checkpoints: fi {fi_total} <= pi {pi_total} "
            f"(lazy-fi {campaign.forced_totals['lazy-fi']}, "
            f"fi-clockv {campaign.forced_totals['fi-clockv']}); "
            f"{len(campaign.reversals)} per-trace reversals logged")
