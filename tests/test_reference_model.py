"""The protocol machines against the reference model of reference_model.py.

For each run the two must agree on four things: the steps a forced
checkpoint preceded, the conditions each force fired, the timestamp of
every checkpoint by (process, ordinal), and the rendered ``fields()`` of
every piggyback.  A mismatch names the scenario (built-in name or seed),
the protocol, the step and the field.
"""

import random

from cicsim.protocols import PROTOCOL_NAMES
from cicsim.rng import SplitMix64
from cicsim.scenarios import FIXTURE_NAMES, FuzzParams, builtin, random_scenario
from cicsim.simulator import run_scenario
from reference_model import PROTOCOLS, run_model


def differences(label, scenario, protocol):
    """Each disagreement between the run and the model, as text, and the
    number of forces the run made."""
    run = run_scenario(scenario, protocol)
    forced, timestamps, payloads = run_model(scenario, protocol)
    where = f"{label} {protocol}"
    out = []
    got_forced = {f.step_index: set(f.decision.fired) for f in run.forced}
    for step in sorted(got_forced.keys() | forced.keys()):
        got, want = got_forced.get(step), forced.get(step)
        if got != want:
            out.append(f"{where} step {step}: fired {got}, model {want}")
    got_ts = {key: rec.timestamp for key, rec in run.trace.checkpoints.items()}
    for key in sorted(got_ts.keys() | timestamps.keys()):
        step, want = timestamps.get(key, (None, None))
        if got_ts.get(key) != want:
            out.append(f"{where} step {step}: timestamp of C_{key[0]}^{key[1]} "
                       f"{got_ts.get(key)}, model {want}")
    got_pb = {step: pb.fields() for step, _, pb in run.piggybacks}
    for step in sorted(got_pb.keys() | payloads.keys()):
        got, want = got_pb.get(step, {}), payloads.get(step, {})
        for field in sorted(got.keys() | want.keys()):
            if got.get(field) != want.get(field):
                out.append(f"{where} step {step}: piggyback {field} {got.get(field)}, "
                           f"model {want.get(field)}")
    return out, len(got_forced)


def campaign_scenario(seed):
    """A campaign-shaped scenario: 40 events, n 3-6, one checkpoint rate
    per process between 0.02 and 0.30."""
    draw = random.Random(seed)
    n = draw.randint(3, 6)
    rates = tuple(0.02 + 0.28 * draw.random() for _ in range(n))
    return random_scenario(FuzzParams(n=n, events=40, p_ckpt=rates, seed=seed))


def test_model_covers_every_protocol():
    assert set(PROTOCOLS) == set(PROTOCOL_NAMES)


def test_machines_match_the_model_on_every_builtin():
    bad = [line for name in FIXTURE_NAMES for protocol in PROTOCOL_NAMES
           for line in differences(name, builtin(name)[0], protocol)[0]]
    assert bad == [], "\n".join(bad[:10])


def test_machines_match_the_model_on_seeded_scenarios():
    # 400 seeds x 10 protocols take about 2 s.
    bad, forced = [], 0
    for seed in range(400):
        scenario = campaign_scenario(seed)
        for protocol in PROTOCOL_NAMES:
            lines, count = differences(f"seed {seed}", scenario, protocol)
            bad += lines
            forced += count
    assert bad == [], "\n".join(bad[:10])
    assert forced > 5000


def test_machines_match_the_model_at_the_long_safe_shape():
    # The benchmark's long-safe inputs for seeds 1-3, drawn as it draws
    # them: n = 8, 600 events, up to 16 messages in flight, one checkpoint
    # rate per process.  The seeded scenarios above stop at n = 6 and 40
    # events, short of the peer loops of eight processes.
    bad, forced = [], 0
    for seed in (1, 2, 3):
        draw = SplitMix64(seed ^ 0xC1C51A8)
        rates = tuple(0.02 + 0.28 * draw.random() for _ in range(8))
        scenario = random_scenario(FuzzParams(n=8, events=600, p_ckpt=rates, p_send=0.35,
                                              max_in_flight=16, seed=seed))
        for protocol in PROTOCOL_NAMES:
            lines, count = differences(f"long-safe seed {seed}", scenario, protocol)
            bad += lines
            forced += count
    assert bad == [], "\n".join(bad[:10])
    assert forced > 500
