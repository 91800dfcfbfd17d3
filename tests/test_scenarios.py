import hashlib
import inspect
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cicsim import scenarios
from cicsim.computation import Trace
from cicsim.rng import SplitMix64
from cicsim.scenarios import (
    FIXTURE_NAMES,
    FixtureClaim,
    FuzzParams,
    ScenarioParseError,
    UnknownScenarioError,
    _eval_claim,
    builtin,
    builtin_description,
    draw_threshold,
    parse_scenario,
    random_scenario,
    serialize_scenario,
    verify_fixture,
)
from cicsim.simulator import MAX_PROCS, Step, run_scenario
from references import float_threshold_steps


# -- parser / serializer ----------------------------------------------------


def test_parse_minimal():
    s = parse_scenario("procs 2\nsend 1 2 m1\nrecv 2 m1\n")
    assert s.n == 2
    assert s.steps == (Step("send", 1, 2, "m1"), Step("recv", 2, message="m1"))


def test_parse_comments_and_blanks():
    s = parse_scenario("# header\n\nprocs 2\nsend 1 2 m1   # fire\nrecv 2 m1\n")
    assert len(s.steps) == 2


@pytest.mark.parametrize("text", ["", "\n", "# only a comment\n"])
def test_empty_scenario_text_is_refused(text):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.errors == [(0, "empty scenario text")]


def test_receive_without_send_is_line_numbered():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("procs 2\nrecv 2 m1\n")
    assert err.value.errors == [(2, "receive before send of m1")]


def test_missing_header_reports_line_one():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("recv 2 m1\n")
    assert err.value.errors[0][0] == 1


def test_parse_error_catalogue():
    text = (
        "procs 2\n"
        "send 1 1 m1\n"      # self send
        "send 1 2 m2\n"
        "send 1 2 m2\n"      # duplicate name
        "recv 1 m2\n"        # wrong destination
        "hop 1\n"            # unknown step
        "ckpt 9\n"           # out of range
    )
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    lines = [ln for ln, _ in err.value.errors]
    assert lines == [2, 4, 5, 6, 7]


@pytest.mark.parametrize("text, lineno", [
    ("procs \u00b2\n", 1),                # superscript two: int() rejects it
    ("procs 2\nckpt \u00b2\n", 2),
    ("procs 2\nsend 1 \u0662 m1\n", 2),  # Arabic-Indic two: int() reads 2
], ids=["superscript-procs", "superscript-ckpt", "arabic-indic-send"])
def test_non_ascii_digits_are_line_numbered(text, lineno):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.errors[0][0] == lineno


def test_process_bound_is_line_numbered():
    assert parse_scenario(f"procs {MAX_PROCS}\n").n == MAX_PROCS
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(f"procs {MAX_PROCS + 1}\n")
    assert err.value.errors == [(1, f"process count {MAX_PROCS + 1} > {MAX_PROCS}")]


@pytest.mark.parametrize("header", ["procs x", "procs \u00b2"],
                         ids=["letter", "superscript"])
def test_bad_header_is_the_only_error(header):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(header + "\nckpt 1\n")
    assert err.value.errors == [(1, "expected 'procs N' header")]


def test_roundtrip_builtins():
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        assert parse_scenario(serialize_scenario(scen)) == scen


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_scenarios(seed):
    scen = random_scenario(FuzzParams(n=2 + seed % 4, events=30, seed=seed))
    assert parse_scenario(serialize_scenario(scen)) == scen


# -- builtin registry and claims --------------------------------------------


def test_registry_is_complete():
    assert set(FIXTURE_NAMES) == {
        "ccp", "z-consistent", "strict-a", "strict-b", "clockv-a", "clockv-b",
        "greater-c", "taken", "lazy-a", "lazy-b", "lazy-c", "lazy-greater-a",
        "lazy-greater-b", "lazy-greater-c", "fine-proposal",
        "fine-counterexample", "lazy-fine-counterexample",
        "theorem1-a", "theorem1-b",
    }


def test_unknown_builtin_lists_registry():
    with pytest.raises(UnknownScenarioError) as err:
        builtin("nope")
    assert "ccp" in str(err.value)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_claims_hold(name):
    failures = verify_fixture(name)
    assert not failures, "\n".join(failures)


def test_verify_fixture_names_each_failed_claim(monkeypatch):
    # A false zigzag claim (no path, or another witness) and a claim whose
    # check raises each give one failure text, with the claim's note.
    scen = builtin("ccp")[0]
    claims = [
        FixtureClaim("zigzag", "none", ((3, 3), (1, 1), None), "no path"),
        FixtureClaim("zigzag", "none", ((1, 2), (3, 3), ("m3", "m4"))),
        FixtureClaim("zigzag", "none", ((1, 2), (3, 3), ("m4", "m3"))),
        FixtureClaim("zigzag", "none", ((9, 1), (3, 3), None), "no such checkpoint"),
    ]
    monkeypatch.setattr(scenarios, "builtin", lambda name: (scen, claims))
    assert verify_fixture("ccp") == [
        "ccp [none] zigzag((3, 3), (1, 1), None): no zigzag path found (no path)",
        "ccp [none] zigzag((1, 2), (3, 3), ('m3', 'm4')): witness ['m4', 'm3'], "
        "expected ['m3', 'm4']",
        "ccp [none] zigzag((9, 1), (3, 3), None): raised KeyError((9, 1)) "
        "(no such checkpoint)",
    ]


def test_fixture_verification_builds_no_events(events_made):
    # The claims read a run's columns, its scenario and its report: the
    # zigzag claim's causal flag compares step indexes, not event
    # positions, so no claim replays the event view.
    for name in FIXTURE_NAMES:
        assert verify_fixture(name) == []
    assert events_made == []


def test_fixture_library_digest_is_pinned():
    # One SHA-256 over every fixture's name, description, canonical text
    # and claims, in registry order: verify_fixture only checks the claims
    # that exist, so a dropped or edited claim shows here.
    sha = hashlib.sha256()
    total = 0
    for name in FIXTURE_NAMES:
        scen, claims = builtin(name)
        total += len(claims)
        sha.update(repr((
            name, builtin_description(name), serialize_scenario(scen),
            [(c.kind, c.protocol, c.expect, c.note) for c in claims],
        )).encode())
    assert (len(FIXTURE_NAMES), total) == (19, 111)
    assert sha.hexdigest() == (
        "ee0c26cfdf47b7c63b4d467acfae6143e26978141ad362bc2b97b3c78691abcb"
    )


def test_each_fact_is_stated_once():
    # _eval_claim accepts exactly the kinds the built-ins use, and a run's
    # forced sites, its useless set and each checkpoint's Z-cycle witnesses
    # are each stated by at most one claim.
    accepted = set(re.findall(r'kind == "(\w+)"', inspect.getsource(_eval_claim)))
    assert accepted == {"forced", "timestamp", "message_t", "interval", "zigzag",
                        "z_cycles", "useless", "violation", "clean", "consistent"}
    used, statements = set(), Counter()
    for name in FIXTURE_NAMES:
        for c in builtin(name)[1]:
            used.add(c.kind)
            if c.kind in ("forced", "useless"):
                statements[name, c.protocol, c.kind] += 1
            elif c.kind == "z_cycles":
                statements[name, c.protocol, c.kind, c.expect[0]] += 1
    assert used == accepted
    assert [fact for fact, count in statements.items() if count > 1] == []
    scen, _ = builtin("strict-a")
    run = run_scenario(scen, "pi")
    for old in ("forced_total", "forced_at", "not_forced_at", "z_cycle", "z_cycles_exact"):
        with pytest.raises(ValueError, match="unknown claim kind"):
            _eval_claim(FixtureClaim(old, "pi", ()), scen, run, None)


def test_interval_claim_reads_the_receive_interval():
    scen, _ = builtin("fine-proposal")
    run = run_scenario(scen, "fine")
    for key, verdict in (((2, 1), True), ((2, 2), False)):
        claim = FixtureClaim("interval", "fine", ("m3", key))
        got = _eval_claim(claim, scen, run, None)
        assert got == (verdict, "recv m3 in I_2^1")


def test_z_consistent_is_ccp_plus_one_checkpoint():
    ccp, _ = builtin("ccp")
    zc, _ = builtin("z-consistent")
    assert zc.n == ccp.n
    assert len(zc.steps) - len(ccp.steps) == 1
    added = [s for s in zc.steps if list(zc.steps).count(s) > list(ccp.steps).count(s)]
    assert added and all(s.kind == "ckpt" for s in added)
    # removing the extra checkpoint gives ccp back
    idx = zc.steps.index(added[0], 10)
    assert zc.steps[:idx] + zc.steps[idx + 1:] == ccp.steps


# -- random scenarios --------------------------------------------------------


def test_same_seed_same_scenario():
    p = FuzzParams(n=4, events=40, seed=123)
    assert random_scenario(p) == random_scenario(p)


def test_different_seeds_differ():
    a = random_scenario(FuzzParams(n=3, events=40, seed=1))
    b = random_scenario(FuzzParams(n=3, events=40, seed=2))
    assert a != b


@pytest.mark.parametrize("knob, value", [
    ("n", 3.0), ("n", True), ("events", 40.5), ("events", 40.0),
    ("max_in_flight", 8.0), ("max_in_flight", "8"),
    ("seed", 1.5), ("seed", "1"), ("seed", True),
    ("p_send", "0.3"), ("p_send", True),
    ("p_ckpt", ("0.1", "0.2", "0.3")), ("p_ckpt", (0.1, True, 0.2)), ("p_ckpt", True),
    ("p_ckpt", None), ("p_ckpt", (x for x in (0.1, 0.2, 0.3))), ("p_ckpt", {0.1, 0.2, 0.3}),
    ("p_ckpt", {1: 0.1, 2: 0.2, 3: 0.3}), ("p_ckpt", range(3)), ("p_ckpt", b"\x00\x00\x01"),
])
def test_count_knobs_must_be_exact_ints(knob, value):
    # A float n once raised a bare TypeError and a float event budget gave
    # a scenario one step longer than asked for; a float or str seed and a
    # str rate or a None p_ckpt raised a bare TypeError, and a bool seed or
    # rate was read as 1.  A rate may be any int or float ("must be an int
    # or a float").  Per-process rates come as an exact list or tuple: a
    # generator was used up by the first call, a set has no per-process
    # order, a dict or range was read by its keys and bytes as small ints.
    params = FuzzParams(**{"n": 3, "seed": 1, knob: value})
    with pytest.raises(ValueError, match=f"{knob} must be an int"):
        random_scenario(params)


def test_degenerate_params_rejected():
    with pytest.raises(ValueError):
        random_scenario(FuzzParams(n=1, seed=0))
    with pytest.raises(ValueError):
        random_scenario(FuzzParams(n=MAX_PROCS + 1, seed=0))
    with pytest.raises(ValueError):
        random_scenario(FuzzParams(n=3, p_send=1.5, seed=0))
    with pytest.raises(ValueError):
        random_scenario(FuzzParams(n=3, p_ckpt=(0.1, 0.2), seed=0))
    # No events or no sends: a campaign of such scenarios checks nothing.
    for events, max_in_flight in ((0, 8), (-5, 8), (40, 0)):
        with pytest.raises(ValueError):
            random_scenario(
                FuzzParams(n=3, events=events, max_in_flight=max_in_flight, seed=1)
            )


def test_generated_scenarios_run_and_validate():
    for seed in range(60):
        params = FuzzParams(n=2 + seed % 4, events=40, seed=seed * 7 + 1)
        scen = random_scenario(params)
        assert len(scen.steps) <= params.events
        run = run_scenario(scen, "none")
        Trace(run.trace.n, run.trace.events)


def test_in_flight_cap_respected():
    params = FuzzParams(n=3, events=40, max_in_flight=2, seed=5)
    scen = random_scenario(params)
    flying = 0
    for step in scen.steps:
        if step.kind == "send":
            flying += 1
            assert flying <= 2
        elif step.kind == "recv":
            flying -= 1


def test_asymmetric_rates_order_checkpoint_counts():
    counts = [0, 0, 0]
    for seed in range(1000):
        scen = random_scenario(
            FuzzParams(n=3, events=30, p_ckpt=(0.5, 0.05, 0.05), seed=seed)
        )
        for step in scen.steps:
            if step.kind == "ckpt":
                counts[step.process - 1] += 1
    assert counts[0] > 2 * counts[1]
    assert counts[0] > 2 * counts[2]


def test_generator_golden_output():
    # Frozen output: generation is part of the reproducer-seed contract,
    # so any change to the drawing logic must be deliberate.
    scen = random_scenario(FuzzParams(n=3, events=10, seed=42))
    assert serialize_scenario(scen) == (
        "procs 3\nsend 2 1 m1\nckpt 1\nsend 1 2 m2\nrecv 2 m2\nrecv 1 m1\n"
        "send 3 2 m3\nckpt 1\nrecv 2 m3\nsend 3 2 m4\nrecv 2 m4\n"
    )


def test_splitmix_stream_is_stable():
    rng = SplitMix64(42)
    first = [rng.next_u64() for _ in range(4)]
    rng2 = SplitMix64(42)
    assert [rng2.next_u64() for _ in range(4)] == first
    assert all(0 <= v < 2**64 for v in first)
    assert all(0.0 <= SplitMix64(7).random() < 1.0 for _ in range(5))


_U64 = (1 << 64) - 1


def splitmix64_reference(seed):
    """Scalar splitmix64 (Steele, Lea and Flood, OOPSLA 2014), one draw at
    a time: the stream SplitMix64 must reproduce."""
    state = seed & _U64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _U64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        yield z ^ (z >> 31)


def test_splitmix_stream_matches_the_published_vector():
    # The reference implementation's output for seed 1234567.
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**64 + 5, 123456789])
@pytest.mark.parametrize("length", [1, 7, 8, 9, 40, 41, 73, 300])
def test_splitmix_stream_matches_the_scalar_reference(seed, length):
    # Draws are made in batches; lengths on and around batch ends (8, 40,
    # 72, ...) and the three methods interleaved must give the scalar
    # stream, one draw per call.
    rng, ref = SplitMix64(seed), splitmix64_reference(seed)
    for i in range(length):
        want = next(ref)
        if i % 3 == 0:
            assert rng.next_u64() == want
        elif i % 3 == 1:
            assert rng.random() == (want >> 11) * 2.0 ** -53
        else:
            bound = 1 + i * 7919 % 1000
            assert rng.below(bound) == want % bound


@pytest.mark.parametrize("bound", [2.5, 1e30, True, "3", 0])
def test_below_needs_an_int_bound(bound):
    # A float bound once gave a float "integer" (below(2.5) was 1.0) and
    # True was read as 1.
    with pytest.raises(ValueError, match="below\\(\\) needs an int bound"):
        SplitMix64(1).below(bound)


def _bench_params(seed, procs, events, max_in_flight=8):
    # Knobs drawn the way pipebench's workloads and ``cicsim fuzz`` draw
    # them by default.
    prng = SplitMix64(seed ^ 0xC1C51A8)
    lo, hi = procs
    n = lo + prng.below(hi - lo + 1) if hi > lo else lo
    rates = tuple(0.02 + 0.28 * prng.random() for _ in range(n))
    return FuzzParams(n=n, events=events, p_ckpt=rates, p_send=0.35,
                      max_in_flight=max_in_flight, seed=seed)


_EDGE_SEEDS = (0, 1, 7, -1, 2**64 + 5)
_GENERATED = {
    "campaign": lambda: [_bench_params(s, (3, 5), 40) for s in range(1, 201)],
    "long-safe": lambda: [_bench_params(s, (8, 8), 600, 16) for s in range(1, 21)],
    "report-none": lambda: [_bench_params(s, (6, 6), 100) for s in range(1, 121)],
    "edges": lambda: [
        FuzzParams(**knobs, seed=s)
        for knobs in (
            dict(n=2), dict(n=256, events=50), dict(n=4, p_ckpt=0.0),
            dict(n=4, p_ckpt=1.0), dict(n=4, max_in_flight=1), dict(n=3, events=1),
        )
        for s in _EDGE_SEEDS
    ],
    # Send rates so low that messages are still in flight when the 8 x
    # events draws run out, so the generator's final drain loop delivers
    # them.  Ten of the 400 low-rate draws drain one message; each of the
    # last four drains two, so its draw order shows.
    "drain": lambda: [
        *(FuzzParams(n=3, events=20, p_ckpt=0.0, p_send=p_send, max_in_flight=8, seed=s)
          for p_send in (0.01, 0.02) for s in range(200)),
        *(FuzzParams(n=3, events=events, p_ckpt=0.0, p_send=p_send, max_in_flight=8, seed=s)
          for events, p_send, s in ((4, 0.05, 507), (6, 0.02, 156), (10, 0.1, 399),
                                    (20, 0.1, 280))),
    ],
}


@pytest.mark.parametrize("shape, digest", [
    ("campaign", "d012a881beabee2cc63cd8263212d082a8dd736d569f0e2a12b4859c0130c75f"),
    ("long-safe", "f370b5c41ebe51f53a7fb965a45c80598784caa51b11d18299684cb9b254db43"),
    ("report-none", "f908889596b117fbd9e25a8a0c1d14662716d12aa3619175f17ef2ea821245b4"),
    ("edges", "c2f41ba3ae012712db787b6423f01010de9a0cc8f0a33173d6698c1e22156c06"),
    ("drain", "446d4ed5cbcd4dd438a15c3f13510f49b19ff26a85a503e639dba2abd1a41e84"),
])
def test_generated_scenarios_are_pinned(shape, digest):
    # One SHA-256 over the text of every scenario of the shape, in seed
    # order: generation is part of the reproducer-seed contract, pinned
    # here on the benchmark's inputs and on extreme knobs.
    sha = hashlib.sha256()
    for params in _GENERATED[shape]():
        sha.update(serialize_scenario(random_scenario(params)).encode())
    assert sha.hexdigest() == digest


# Rates whose scaled value 2**53 * p is 0 or an integer (0.0, 1.0,
# 1 - 2**-53), far below 1 (5e-324, 2**-60), or not an integer (0.1,
# 0.3).  The threshold test adds checkpoint plus send rates above 1.
_EDGE_RATES = (0.0, 1.0, 5e-324, 2.0 ** -60, 0.1, 0.3, 1 - 2.0 ** -53)


@pytest.mark.parametrize("prob", [*_EDGE_RATES, 0.7 + 0.6, 1.0 + 0.35])
def test_draw_threshold_is_exact_at_the_boundary(prob):
    # A seeded draw almost never lands on floor(x), where an int threshold
    # rounded down would differ from the float comparison.
    x = prob * 2.0 ** 53
    threshold = draw_threshold(prob)
    assert type(threshold) is int
    for r in (math.floor(x) - 1, math.floor(x), math.ceil(x)):
        assert (r < threshold) == (r < x), (prob, r)


def _assert_plain_steps(steps):
    none = type(None)
    for st in steps:
        kind, p, dest, message = st
        assert type(st) is Step and type(kind) is str and type(p) is int, st
        assert type(dest) is (int if kind == "send" else none), st
        assert type(message) is (none if kind == "ckpt" else str), st
        assert repr(st) == (
            f"Step(kind={kind!r}, process={p}, dest={dest!r}, message={message!r})"
        )


def _reference_params():
    """The benchmark's three shapes and edge knobs: 2,200 seeds in all."""
    return [
        *(_bench_params(s, (3, 5), 40) for s in range(1, 1201)),
        *(_bench_params(s, (8, 8), 600, 16) for s in range(1, 61)),
        *(_bench_params(s, (6, 6), 100) for s in range(1, 301)),
        *(
            FuzzParams(**knobs, seed=s)
            for knobs in (
                *(dict(n=4, p_ckpt=prob) for prob in _EDGE_RATES),
                *(dict(n=4, p_send=prob) for prob in _EDGE_RATES),
                dict(n=5, p_ckpt=0.7, p_send=0.6),
                dict(n=256, max_in_flight=1),
            )
            for s in range(1, 41)
        ),
    ]


def test_generator_matches_the_float_threshold_reference():
    params_list = _reference_params()
    assert len(params_list) >= 2000
    for params in params_list:
        scen = random_scenario(params)
        assert scen.steps == float_threshold_steps(params), params
        _assert_plain_steps(scen.steps)
        parsed = parse_scenario(serialize_scenario(scen))
        assert parsed == scen, params
        _assert_plain_steps(parsed.steps)
