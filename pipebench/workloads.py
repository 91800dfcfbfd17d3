"""The three workloads of the pipeline benchmark, their output checks and
their deterministic counters.

Every call into cicsim goes through ``call(metric, fn, *args)``: the
untraced run passes a plain forwarder, the traced run a tracer that keeps
one span per call under the metric's name.  The package itself is never
patched.  A workload has:

* ``build(start)``: the inputs of one pass, from the contiguous seed range
  that begins at ``start`` (no seed is skipped);
* ``op(item, call)``: one unit of user-visible work, the only timed part;
* ``check(item, result, call)``: the problems found in the op's output (an
  op with any problem is a failed op);
* ``probe(item, result, call)``: traced runs only; times, on the op's own
  scenario and runs, the sibling calls that split the op's time between
  layers (validation, ``Trace`` indexing, oracle entry points on a fresh
  ``Trace``), and returns the (run, oracle report, report JSON) triples
  the counters read.  A layer metric that neither the op nor its siblings
  call stays 0 on that workload.
"""

from __future__ import annotations

import hashlib
import json

from cicsim.computation import CKPT_BASIC, Trace
from cicsim.oracle import (
    check_z_consistency,
    find_z_cycles,
    oracle_report,
    quick_findings,
    useless_checkpoints,
)
from cicsim.report import run_report, to_json
from cicsim.rng import SplitMix64
from cicsim.scenarios import (
    FuzzParams,
    parse_scenario,
    random_scenario,
    serialize_scenario,
)
from cicsim.simulator import run_scenario, scenario_violations
from zigzag_check import cycle_problem, message_endpoints

SAFE = ("pi", "fi-clockv", "fi-greater", "lazy-fi")
PROTOCOLS = ("none",) + SAFE

ORACLE = {
    "oracle.quick_findings_s": quick_findings,
    "oracle.useless_checkpoints_s": useless_checkpoints,
    "oracle.check_z_consistency_s": check_z_consistency,
    "oracle.find_z_cycles_s": find_z_cycles,
    "oracle.oracle_report_s": oracle_report,
}

# Per-layer timings: mean seconds per op spent in the call.
TIMINGS = (
    "scenarios.random_scenario_s",
    "scenarios.parse_scenario_s",
    *(f"simulator.run_scenario_s.{p}" for p in PROTOCOLS),
    "simulator.scenario_violations_s",
    "computation.trace_index_s",
    *ORACLE,
    "report.run_report_s",
    "report.to_json_s",
)

# Exact counts over the first traced pass; a speed-only change must not
# move them.  Units other than "count" are listed in UNITS.
COUNTS = (
    "protocols.events",
    "protocols.basic",
    "protocols.forced_c1",
    "protocols.forced_c2",
    "protocols.forced_both",
    "oracle.messages_delivered",
    "oracle.checkpoints",
    "oracle.useless",
    "oracle.violations",
    "oracle.z_cycles",
    "oracle.witnesses_truncated",
    "report.bytes",
)
UNITS = {
    "report.bytes": "B",
    "protocols.forced_ratio": "ratio",
    "protocols.piggyback_ints_per_msg": "1/msg",
    "protocols.piggyback_bools_per_msg": "1/msg",
    "oracle.truncated_share": "ratio",
}


def fuzz_params(seed: int, procs: tuple[int, int], events: int,
                max_in_flight: int = 8) -> FuzzParams:
    """Scenario knobs drawn the way ``cicsim fuzz`` draws them by default:
    the process count from ``procs`` and one checkpoint rate per process."""
    low, high = procs
    prng = SplitMix64(seed ^ 0xC1C51A8)
    n = low + prng.below(high - low + 1) if high > low else low
    rates = tuple(0.02 + 0.28 * prng.random() for _ in range(n))
    return FuzzParams(n=n, events=events, p_ckpt=rates, p_send=0.35,
                      max_in_flight=max_in_flight, seed=seed)


def _safe_run_problems(run, findings) -> list[str]:
    useless, violations = findings
    if useless or violations:
        return [f"{run.protocol}: {useless} useless, {violations} violations"]
    return []


def _time_siblings(call, scenario, run, oracle_names) -> None:
    """Validation and trace indexing of one run, and the named oracle
    entry points, each on its own freshly built Trace, so no cached index
    hides the index-building cost."""
    call("simulator.scenario_violations_s", scenario_violations, scenario)
    n, events = scenario.n, run.trace.events
    call("computation.trace_index_s", Trace, n, events)
    for name in oracle_names:
        call(name, ORACLE[name], Trace(n, events))


# Reachability entry points the safe workloads' quick_findings stands for.
REACHABILITY = ("oracle.useless_checkpoints_s", "oracle.check_z_consistency_s")


def _safe_report(run, text):
    """Full oracle report and report JSON of one safe run, untimed: the
    counters and the digest read it, the op does not make it."""
    orep = oracle_report(run.trace)
    return run, orep, to_json(run_report(run, orep, text))


class Campaign:
    """``cicsim fuzz --protocols pi,fi-clockv,fi-greater,lazy-fi``: many
    short runs, so the simulator's per-run overhead dominates."""

    name = "campaign"

    def __init__(self, seeds: int = 2000):
        self.seeds = seeds

    def build(self, start: int) -> list:
        return [fuzz_params(s, (3, 5), 40) for s in range(start, start + self.seeds)]

    def op(self, params, call):
        scenario = call("scenarios.random_scenario_s", random_scenario, params)
        runs = []
        for protocol in SAFE:
            run = call(f"simulator.run_scenario_s.{protocol}", run_scenario, scenario, protocol)
            runs.append((run, call("oracle.quick_findings_s", quick_findings, run.trace)))
        return scenario, runs

    def check(self, params, result, call) -> list[str]:
        _, runs = result
        problems = [p for run, found in runs for p in _safe_run_problems(run, found)]
        forced = {run.protocol: run.forced_step_indexes() for run, _ in runs}
        if forced["fi-clockv"] != forced["fi-greater"]:
            problems.append("fi-clockv and fi-greater forced at different steps")
        return problems

    def probe(self, params, result, call) -> list:
        scenario, runs = result
        for run, _ in runs:
            _time_siblings(call, scenario, run, REACHABILITY)
        text = serialize_scenario(scenario)
        return [_safe_report(run, text) for run, _ in runs]


class LongSafe:
    """The four safe protocols on long traces: the per-event and
    per-message-pair cost of zigzag reachability dominates."""

    name = "long-safe"

    def __init__(self, scenarios: int = 50, events: int = 600):
        self.scenarios = scenarios
        self.events = events
        self._clockv_steps: dict[int, list[int]] = {}

    def build(self, start: int) -> list:
        items = []
        for s in range(start, start + self.scenarios):
            params = fuzz_params(s, (8, 8), self.events, max_in_flight=16)
            scenario = random_scenario(params)
            items.extend((params, scenario, protocol) for protocol in SAFE)
        return items

    def op(self, item, call):
        _, scenario, protocol = item
        run = call(f"simulator.run_scenario_s.{protocol}", run_scenario, scenario, protocol)
        return run, call("oracle.quick_findings_s", quick_findings, run.trace)

    def check(self, item, result, call) -> list[str]:
        params, _, protocol = item
        run, found = result
        problems = _safe_run_problems(run, found)
        # Ops of one scenario run in SAFE order, so fi-clockv comes first.
        if protocol == "fi-clockv":
            self._clockv_steps[params.seed] = run.forced_step_indexes()
        elif protocol == "fi-greater":
            if self._clockv_steps.get(params.seed) != run.forced_step_indexes():
                problems.append("fi-clockv and fi-greater forced at different steps")
        return problems

    def probe(self, item, result, call) -> list:
        _, scenario, _ = item
        run, _ = result
        _time_siblings(call, scenario, run, REACHABILITY)
        return [_safe_report(run, serialize_scenario(scenario))]


class ReportNone:
    """``cicsim run <file> none --json`` on unprotected traces: witness
    enumeration dominates, with a heavy tail in time and memory."""

    name = "report-none"

    def __init__(self, traces: int = 120, events: int = 100):
        self.traces = traces
        self.events = events

    def build(self, start: int) -> list:
        items = []
        for s in range(start, start + self.traces):
            params = fuzz_params(s, (6, 6), self.events)
            items.append((params, f"none-{s}.scn", serialize_scenario(random_scenario(params))))
        return items

    def op(self, item, call):
        _, name, text = item
        scenario = call("scenarios.parse_scenario_s", parse_scenario, text, name)
        run = call("simulator.run_scenario_s.none", run_scenario, scenario, "none")
        orep = call("oracle.oracle_report_s", oracle_report, run.trace)
        rep = call("report.run_report_s", run_report, run, orep, text, name)
        return run, orep, call("report.to_json_s", to_json, rep)

    def check(self, item, result, call) -> list[str]:
        run, _, text = result
        shown = json.loads(text)["oracle"]
        useless = {tuple(c) for c in shown["useless"]}
        fresh = call("oracle.useless_checkpoints_s", useless_checkpoints,
                     Trace(run.scenario.n, run.trace.events))
        problems = []
        if useless != {rec.key() for rec in fresh}:
            problems.append("report useless set differs from useless_checkpoints")
        sends, recvs = message_endpoints(run.trace.events)
        witnessed = set()
        for z in shown["z_cycles"]:
            ckpt = tuple(z["checkpoint"])
            if z["from"] != z["checkpoint"] or z["to"] != z["checkpoint"]:
                why = "witness endpoints are not its checkpoint"
            else:
                why = cycle_problem(ckpt, z["messages"], sends, recvs)
            if why:
                problems.append(f"witness {z['messages']} on C_{ckpt[0]}^{ckpt[1]}: {why}")
            witnessed.add(ckpt)
        if witnessed != useless:
            problems.append("witnessed checkpoints differ from the useless set")
        return problems

    def probe(self, item, result, call) -> list:
        run, orep, text = result
        # useless_checkpoints on a fresh Trace is timed by check().
        _time_siblings(call, run.scenario, run, ("oracle.quick_findings_s",
                                                 "oracle.check_z_consistency_s",
                                                 "oracle.find_z_cycles_s"))
        return [(run, orep, text)]


WORKLOADS = {w.name: w for w in (Campaign, LongSafe, ReportNone)}


class Counters:
    """Exact totals over one pass, and a SHA-256 of the report JSON in
    input order."""

    def __init__(self):
        self.totals = dict.fromkeys(COUNTS, 0)
        self.ints = 0
        self.bools = 0
        self.messages = 0
        self.sha = hashlib.sha256()

    def add(self, run, orep, text: str) -> None:
        t = self.totals
        t["protocols.events"] += len(run.trace.events)
        t["protocols.basic"] += sum(r.kind == CKPT_BASIC for r in run.trace.checkpoints.values())
        for f in run.forced:
            fired = f.decision.fired
            key = "both" if len(fired) > 1 else "c1" if "C1" in fired else "c2"
            t[f"protocols.forced_{key}"] += 1
        for _, _, payload in run.piggybacks:
            for value in payload.fields().values():
                values = value if isinstance(value, list) else [value]
                bools = sum(isinstance(v, bool) for v in values)
                self.bools += bools
                self.ints += len(values) - bools
            self.messages += 1
        for key in ("messages_delivered", "checkpoints", "useless", "violations",
                    "z_cycles", "witnesses_truncated"):
            t[f"oracle.{key}"] += orep.stats[key]
        data = text.encode()
        t["report.bytes"] += len(data)
        self.sha.update(data)

    def metrics(self) -> dict:
        t = self.totals
        forced = t["protocols.forced_c1"] + t["protocols.forced_c2"] + t["protocols.forced_both"]
        out = dict(t)
        out["protocols.forced_ratio"] = forced / t["protocols.basic"] if t["protocols.basic"] else 0.0
        out["protocols.piggyback_ints_per_msg"] = self.ints / self.messages if self.messages else 0.0
        out["protocols.piggyback_bools_per_msg"] = self.bools / self.messages if self.messages else 0.0
        out["oracle.truncated_share"] = (
            t["oracle.witnesses_truncated"] / t["oracle.useless"] if t["oracle.useless"] else 0.0
        )
        return out

    def digest(self) -> str:
        return self.sha.hexdigest()
