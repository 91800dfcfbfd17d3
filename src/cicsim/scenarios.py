"""Scenario text format, the built-in fixture library, and the fuzzer.

Scenario files are line oriented::

    procs 3          # header: process count
    send 1 2 m1      # P1 sends message m1 to P2
    recv 2 m1        # P2 delivers m1
    ckpt 3           # P3 takes a basic checkpoint

``#`` starts a comment; file order is the global simulation order.  Every
built-in fixture reconstructs a small checkpoint-and-communication pattern
whose interesting behavior (forced or declined checkpoints, zigzag paths,
Z-cycles, timestamp collisions) is pinned down by machine-checkable
claims, so the fixture library doubles as an executable test corpus.

Where a pattern under-determines the exact event order, the chosen order
is documented inline; the claims, not the drawing, are authoritative.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import oracle
from .computation import is_consistent_global_checkpoint
from .rng import SplitMix64
from .simulator import MAX_PROCS, Scenario, ScenarioError, Step, run_scenario


class ScenarioParseError(ValueError):
    """Carries (line number, message) pairs for every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in self.errors))


class UnknownScenarioError(KeyError):
    def __init__(self, name):
        super().__init__(
            f"unknown scenario {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )


def _is_number(token: str) -> bool:
    """ASCII digits only: str.isdigit() also accepts superscripts, which
    int() rejects, and other scripts' digits, which int() converts."""
    return token.isascii() and token.isdigit()


def parse_scenario(text: str, name: str | None = None) -> Scenario:
    """Parse the line-oriented scenario format, rejecting ill-formed input
    with line-numbered errors.  Only the syntax is checked here; the
    Scenario constructor's problems are reported at their step's line (the
    header's for the process count).  Steps are built as plain tuple
    values, as :func:`random_scenario` builds them."""
    new = tuple.__new__
    errors: list[tuple[int, str]] = []
    n: int | None = None
    steps: list[Step] = []
    line_of: dict[int | None, int] = {}  # step index -> line; None: header

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if not (len(parts) == 2 and parts[0] == "procs" and _is_number(parts[1])):
                raise ScenarioParseError([(lineno, "expected 'procs N' header")])
            n = int(parts[1])
            line_of[None] = lineno
            continue
        kind = parts[0]
        if kind == "ckpt" and len(parts) == 2 and _is_number(parts[1]):
            step = new(Step, ("ckpt", int(parts[1]), None, None))
        elif (kind == "send" and len(parts) == 4
              and _is_number(parts[1]) and _is_number(parts[2])):
            step = new(Step, ("send", int(parts[1]), int(parts[2]), parts[3]))
        elif kind == "recv" and len(parts) == 3 and _is_number(parts[1]):
            step = new(Step, ("recv", int(parts[1]), None, parts[2]))
        else:
            errors.append((lineno, f"cannot parse step {line!r}"))
            continue
        line_of[len(steps)] = lineno
        steps.append(step)
    if n is None:
        raise ScenarioParseError([(0, "empty scenario text")])
    try:
        scenario = Scenario(n, tuple(steps), name=name)
    except ScenarioError as exc:
        errors.extend((line_of[idx], problem) for idx, problem in exc.located)
        errors.sort(key=lambda e: e[0])  # stable: a line keeps its order
    if errors:
        raise ScenarioParseError(errors)
    return scenario


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s."""
    lines = [f"procs {s.n}"]
    lines.extend(st.text() for st in s.steps)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixture claims.
# ---------------------------------------------------------------------------


class FixtureClaim(namedtuple("FixtureClaim", "kind protocol expect note", defaults=("",))):
    """One machine-checkable assertion about a fixture under a protocol.

    ``kind`` selects the check, ``expect`` carries its arguments, and
    ``note`` states in plain words which behavior the claim pins down.
    Each fact is stated once and exactly: ``forced`` gives the run's
    forced receives in step order as (message, sorted fired conditions),
    ``useless`` the whole useless set and ``z_cycles`` one checkpoint's
    whole witness list.
    """

    __slots__ = ()


def _c(kind, protocol, *expect, note=""):
    return FixtureClaim(kind, protocol, tuple(expect), note)


def _is_causal(scen: Scenario, names) -> bool:
    """Whether each receive of the named zigzag chain comes before the next
    send, read off the scenario's step order, which a run's events follow;
    the oracle reads no position."""
    at = {(st.kind, st.message): idx for idx, st in enumerate(scen.steps)}
    return all(at["recv", a] < at["send", b] for a, b in zip(names, names[1:]))


def _eval_claim(claim: FixtureClaim, scen: Scenario, run, report):
    """Check one claim against the run of its protocol and that run's
    oracle report; return (holds, detail)."""
    kind, e = claim.kind, claim.expect
    trace = run.trace
    if kind == "forced":
        got = tuple((f.message, tuple(sorted(f.decision.fired))) for f in run.forced)
        return got == e, f"forced {got}, expected {e}"
    if kind == "timestamp":
        key, t = e
        got = trace.checkpoints[tuple(key)].timestamp
        return got == t, f"C_{key[0]}^{key[1]}.t = {got}, expected {t}"
    if kind == "message_t":
        msg, t = e
        pb = next(p for _, nm, p in run.piggybacks if nm == msg)
        return pb.t == t, f"{msg}.t = {pb.t}, expected {t}"
    if kind == "zigzag":
        src = trace.checkpoints[tuple(e[0])]
        dst = trace.checkpoints[tuple(e[1])]
        chain = oracle.zigzag_exists(src, dst, trace)
        if chain is None:
            return False, "no zigzag path found"
        msgs, causal = e[2], e[3] if len(e) > 3 else None
        if msgs is not None and chain != tuple(msgs):
            return False, f"witness {list(chain)}, expected {list(msgs)}"
        if causal is None:
            return True, ""
        got = _is_causal(scen, chain)
        return got == causal, f"causal={got}, expected {causal}"
    if kind == "z_cycles":
        key, want = e
        got = tuple(tuple(chain) for r, chains, _ in report.z_cycles if r.key() == tuple(key)
                    for chain in chains)
        return got == want, f"C_{key[0]}^{key[1]} witnesses {got}, expected {want}"
    if kind == "useless":
        got = {r.key() for r in report.useless}
        want = {tuple(k) for k in e[0]}
        return got == want, f"useless {sorted(got)}, expected {sorted(want)}"
    if kind == "violation":
        a, b = e
        pairs = {(src.key(), dst.key()) for src, dst, _ in report.violations}
        return (tuple(a), tuple(b)) in pairs, f"violation pairs {sorted(pairs)}"
    if kind == "clean":
        return report.clean, (
            f"{report.stats['z_cycles']} cycles, {len(report.violations)} violations"
        )
    if kind == "consistent":
        keys, expected = e
        recs = [trace.checkpoints[tuple(k)] for k in keys]
        got = is_consistent_global_checkpoint(recs, trace)
        return got == expected, f"consistent={got}, expected {expected}"
    if kind == "interval":
        msg, key = e
        p, x = trace.delivered[msg][2:]  # the receive's process and interval
        return (p, x) == tuple(key), f"recv {msg} in I_{p}^{x}"
    raise ValueError(f"unknown claim kind {kind!r}")


def verify_fixture(name: str) -> list[str]:
    """Replay a fixture through every protocol its claims mention, judge
    each run once with the oracle, and return one message per failed
    claim (empty list: fixture verified)."""
    scen, claims = builtin(name)
    runs = {proto: run_scenario(scen, proto) for proto in {c.protocol for c in claims}}
    reports = {proto: oracle.oracle_report(run.trace) for proto, run in runs.items()}
    failures = []
    for claim in claims:
        try:
            ok, detail = _eval_claim(claim, scen, runs[claim.protocol], reports[claim.protocol])
        except Exception as exc:  # claim machinery must not mask fixture bugs
            ok, detail = False, f"raised {exc!r}"
        if not ok:
            failures.append(
                f"{name} [{claim.protocol}] {claim.kind}{claim.expect}: {detail}"
                + (f" ({claim.note})" if claim.note else "")
            )
    return failures


# ---------------------------------------------------------------------------
# Fixture library.
# ---------------------------------------------------------------------------


class _Fixture(namedtuple("_Fixture", "description text claims")):
    """One built-in: its one-line description, its scenario text (with the
    event-order choices as comments) and the claims its runs must meet."""

    __slots__ = ()


_FIXTURES: dict[str, _Fixture] = {
    "ccp": _Fixture(
        "three processes, six messages, one useless checkpoint (C_3^3)",
        """\
procs 3
# Motivating pattern: three processes, six messages, basic checkpoints
# placed so that P3's third checkpoint sits on two zigzag cycles while
# every other checkpoint stays useful.  m3 is sent before m4 arrives and
# m5/m6 cross, giving the non-causal links the cycles need.
send 1 2 m1
recv 2 m1
send 2 3 m2
recv 3 m2
ckpt 2
ckpt 3
ckpt 1
send 2 3 m3
recv 3 m3
ckpt 3
send 1 2 m4
recv 2 m4
send 2 1 m5
send 3 2 m6
recv 2 m6
recv 1 m5
ckpt 1
""", (
        _c("timestamp", "none", (3, 3), 3, note="bare clock rules stamp C_3^3 with 3"),
        _c("timestamp", "none", (1, 3), 3, note="C_1^3 collides with C_3^3"),
        _c("z_cycles", "none", (3, 3), (("m6", "m3"), ("m6", "m5", "m4", "m3")),
           note="both cycles through C_3^3, shortest first"),
        _c("useless", "none", ((3, 3),), note="exactly one useless checkpoint"),
        _c("zigzag", "none", (1, 1), (3, 2), ("m1", "m2"), True,
           note="causal zigzag example"),
        _c("zigzag", "none", (1, 2), (3, 3), ("m4", "m3"), False,
           note="non-causal zigzag example"),
        _c("violation", "none", (3, 3), (1, 3),
           note="equal timestamps across a zigzag path"),
        _c("consistent", "none", ((1, 2), (2, 2), (3, 2)), True,
           note="the all-second-checkpoints line is consistent"),
        _c("consistent", "none", ((1, 1), (2, 1), (3, 2)), False,
           note="C_1^1 causally precedes C_3^2"),
        _c("forced", "fi-greater", ("m6", ("C1", "C2")),
           note="one forced checkpoint repairs the pattern"),
        _c("clean", "fi-greater", note="fully-informed run is zigzag-consistent"),
        _c("forced", "fi-clockv", ("m6", ("C1", "C2"))),
        _c("clean", "fi-clockv"),
        _c("forced", "pi", ("m6", ("C1",))),
        _c("clean", "pi"),
    )),

    "z-consistent": _Fixture(
        "ccp plus one checkpoint on P2; zigzag-consistent under bare clocks",
        """\
procs 3
# The ccp pattern with one extra checkpoint on P2 before m6 is delivered;
# the addition breaks both cycles and makes the bare-clock timestamps
# zigzag-consistent.
send 1 2 m1
recv 2 m1
send 2 3 m2
recv 3 m2
ckpt 2
ckpt 3
ckpt 1
send 2 3 m3
recv 3 m3
ckpt 3
send 1 2 m4
recv 2 m4
send 2 1 m5
send 3 2 m6
ckpt 2
recv 2 m6
recv 1 m5
ckpt 1
""", (
        _c("clean", "none", note="one added checkpoint restores consistency"),
        _c("timestamp", "none", (2, 3), 3),
        _c("forced", "none"),
    )),

    "strict-a": _Fixture(
        "two-message zigzag, equal timestamps: partly informed stays quiet",
        """\
procs 3
# Two-message zigzag where the incoming timestamp equals the timestamp of
# the earlier outgoing message; no forced checkpoint is needed.
send 2 3 m1
recv 3 m1
ckpt 3
send 1 2 m2
recv 2 m2
""", (
        _c("forced", "pi", note="equal timestamps force nothing"),
        _c("clean", "pi"),
        _c("zigzag", "pi", (1, 1), (3, 2), ("m2", "m1"), False,
           note="the two-message zigzag the condition watches"),
        _c("clean", "none"),
    )),

    "strict-b": _Fixture(
        "two-message zigzag, greater timestamp: partly informed forces",
        """\
procs 3
# Same shape with the sender one checkpoint ahead: the incoming timestamp
# exceeds the first outgoing one and the receiver must force, otherwise
# C_1^2 reaches C_3^2 over [m2, m1] with equal timestamps.
ckpt 1
send 2 3 m1
recv 3 m1
ckpt 3
send 1 2 m2
recv 2 m2
""", (
        _c("forced", "pi", ("m2", ("C1",)), note="partly-informed condition fires"),
        _c("clean", "pi"),
        _c("violation", "none", (1, 2), (3, 2),
           note="without the force the timestamps collide"),
        _c("useless", "none", (), note="a violation without any Z-cycle yet"),
        _c("timestamp", "none", (1, 2), 2),
        _c("timestamp", "none", (3, 2), 2),
    )),

    "clockv-a": _Fixture(
        "sender-side clock knowledge suppresses the partly-informed force",
        """\
procs 3
# The sender of m3 has piggybacked knowledge that P3's clock already
# reached m3.t, so the integer-vector refinement can skip the forced
# checkpoint the partly-informed rule would take.  m1 is delivered late,
# after C_3^2.
send 2 3 m1
ckpt 3
send 3 1 m2
ckpt 1
recv 1 m2
recv 3 m1
send 1 2 m3
recv 2 m3
ckpt 3
""", (
        _c("forced", "fi-clockv", note="m3.clockv already covers P3's clock"),
        _c("forced", "pi", ("m3", ("C1",)), note="partly informed still forces"),
        _c("forced", "fi-greater", note="boolean encoding agrees"),
        _c("clean", "fi-clockv"),
        _c("zigzag", "fi-clockv", (1, 2), (3, 3), ("m3", "m1"), None,
           note="the path stays consistent: 2 < 3"),
        _c("timestamp", "fi-clockv", (1, 2), 2),
        _c("timestamp", "fi-clockv", (3, 3), 3),
    )),

    "clockv-b": _Fixture(
        "receiver-side clock knowledge suppresses the partly-informed force",
        """\
procs 3
# Same refinement with the knowledge arriving at the receiver itself:
# m2 teaches P2 that P3 reached clock 2, so neither m2 nor the later m3
# needs a forced checkpoint.
send 2 3 m1
ckpt 3
send 3 2 m2
recv 3 m1
recv 2 m2
ckpt 1
send 1 2 m3
recv 2 m3
ckpt 3
""", (
        _c("forced", "fi-clockv",
           note="receiver-side clock knowledge suppresses the force"),
        _c("forced", "pi", ("m2", ("C1",))),
        _c("forced", "fi-greater"),
        _c("clean", "fi-clockv"),
        _c("zigzag", "fi-clockv", (1, 2), (3, 3), ("m3", "m1"), None),
    )),

    "greater-c": _Fixture(
        "boolean clock encoding: greater flag plus greater timestamp forces",
        """\
procs 3
# Boolean encoding of the same information: m3 arrives with a greater
# clock and its sender believes P3 is still behind, so the receiver must
# force before delivering.
send 2 3 m1
send 3 2 m2
recv 2 m2
ckpt 1
send 1 2 m3
recv 2 m3
recv 3 m1
ckpt 3
""", (
        _c("forced", "fi-greater", ("m3", ("C1",)),
           note="m3.greater[3] with a greater timestamp forces"),
        _c("forced", "fi-clockv", ("m3", ("C1",)), note="encodings force together"),
        _c("clean", "fi-greater"),
        _c("violation", "none", (1, 2), (3, 2),
           note="skipping the force collides the timestamps"),
        _c("useless", "none", ()),
    )),

    "taken": _Fixture(
        "checkpoint counts with taken marks catch a cycle the clock test misses",
        """\
procs 3
# Why the checkpoint-count vector with taken marks is needed: the first
# condition stays quiet at m3 (the sender knows P3's clock caught up),
# but delivering m3 in P2's current interval would close the cycle
# [m2, m3, m1] through C_3^2.  The second condition catches it.
send 2 3 m1
recv 3 m1
ckpt 3
send 3 1 m2
recv 1 m2
send 1 2 m3
recv 2 m3
""", (
        _c("forced", "fi-greater", ("m3", ("C2",)),
           note="only the causal-chain-with-checkpoint test fires"),
        _c("clean", "fi-greater"),
        _c("forced", "fi-clockv", ("m3", ("C2",))),
        _c("useless", "none", ((3, 2),), note="without the force C_3^2 is useless"),
        _c("z_cycles", "none", (3, 2), (("m2", "m3", "m1"),)),
    )),

    "lazy-a": _Fixture(
        "lazy increments: lower-stamped receive lets a checkpoint reuse its stamp",
        """\
procs 3
# Lazy increments: P2 receives only a lower-stamped message in its
# interval, so the next basic checkpoint may reuse timestamp 2.
send 3 2 m1
recv 2 m1
ckpt 2
send 1 2 m2
recv 2 m2
ckpt 2
""", (
        _c("forced", "lazy-fi"),
        _c("timestamp", "lazy-fi", (2, 2), 2),
        _c("timestamp", "lazy-fi", (2, 3), 2, note="timestamp reused"),
        _c("clean", "lazy-fi"),
        _c("timestamp", "fi-greater", (2, 3), 3,
           note="the eager protocol spends a fresh timestamp here"),
    )),

    "lazy-b": _Fixture(
        "lazy increments: equal-stamped receive requires an increment",
        """\
procs 3
# An equal-stamped message arrives in the interval, so the next basic
# checkpoint must increment: reusing 2 would equal C_1^2 across [m3].
send 3 2 m1
recv 2 m1
ckpt 2
send 3 1 m2
recv 1 m2
ckpt 1
send 1 2 m3
recv 2 m3
ckpt 2
""", (
        _c("forced", "lazy-fi"),
        _c("timestamp", "lazy-fi", (2, 2), 2),
        _c("timestamp", "lazy-fi", (1, 2), 2),
        _c("timestamp", "lazy-fi", (2, 3), 3, note="increment on equal clock"),
        _c("clean", "lazy-fi"),
        _c("zigzag", "lazy-fi", (1, 2), (2, 3), ("m3",), None),
    )),

    "lazy-c": _Fixture(
        "lazy increments: greater-stamped receive bumps the clock then increments",
        """\
procs 3
# A greater-stamped message arrives; the clock jumps and the next basic
# checkpoint increments past it.  P2's first basic checkpoint closes an
# empty interval and legitimately reuses timestamp 1.
send 2 3 m1
ckpt 2
recv 3 m1
ckpt 3
send 3 1 m2
recv 1 m2
ckpt 1
send 1 2 m3
recv 2 m3
ckpt 2
""", (
        _c("forced", "lazy-fi"),
        _c("timestamp", "lazy-fi", (2, 2), 1, note="empty interval reuses 1"),
        _c("timestamp", "lazy-fi", (3, 2), 2),
        _c("timestamp", "lazy-fi", (1, 2), 3),
        _c("timestamp", "lazy-fi", (2, 3), 4, note="increment past the jump"),
        _c("clean", "lazy-fi"),
    )),

    "lazy-greater-a": _Fixture(
        "lazy run where the eager boolean vector is not informative enough",
        """\
procs 4
# Why the eager boolean vector is not enough under lazy increments: P1
# knows P3's clock equals m5.t, but not whether P3 will increment before
# its next checkpoint, so P2 must force before delivering m5.  The eager
# protocol, which increments unconditionally, needs no force here.
send 4 3 m1
recv 3 m1
ckpt 3
send 2 3 m2
send 3 1 m3
send 2 1 m4
recv 1 m3
send 1 2 m5
recv 1 m4
recv 2 m5
recv 3 m2
ckpt 3
""", (
        _c("forced", "lazy-fi", ("m5", ("C1",)),
           note="equal_incr gives no increment promise for P3"),
        _c("clean", "lazy-fi"),
        _c("timestamp", "lazy-fi", (3, 3), 2, note="P3 indeed reuses its stamp"),
        _c("forced", "fi-greater", note="eager increments make the same pattern safe"),
        _c("clean", "fi-greater"),
        _c("timestamp", "fi-greater", (3, 3), 3),
    )),

    "lazy-greater-b": _Fixture(
        "increment promises propagate and suppress the forced checkpoint",
        """\
procs 5
# The increment promise travels: P5's reply re-arms P3's increment flag
# after its checkpoint, m6 carries equal_incr[3], and P2 can deliver m7
# without forcing.
send 4 3 m1
recv 3 m1
ckpt 3
send 2 3 m2
send 3 5 m3
send 2 1 m4
recv 5 m3
send 5 3 m5
recv 3 m5
send 3 1 m6
recv 1 m4
recv 1 m6
send 1 2 m7
recv 2 m7
recv 3 m2
ckpt 3
""", (
        _c("forced", "lazy-fi",
           note="the piggybacked increment promise suppresses the force"),
        _c("clean", "lazy-fi"),
        _c("timestamp", "lazy-fi", (3, 3), 3, note="P3 keeps the promise"),
    )),

    "lazy-greater-c": _Fixture(
        "increment promise present but a pending cycle still forces",
        """\
procs 5
# Even with the increment promise, the checkpoint-count machinery is
# still needed: delivering m7 in P2's interval would close the cycle
# [m7, m4, m6] through C_1^2.  m4 is named for its place in that cycle;
# it is sent before m3 in the global order.
send 4 3 m1
recv 3 m1
send 2 1 m2
send 2 3 m4
recv 3 m4
ckpt 3
send 3 5 m3
recv 5 m3
send 5 3 m5
recv 3 m5
send 3 1 m6
recv 1 m2
recv 1 m6
ckpt 1
send 1 2 m7
recv 2 m7
""", (
        _c("forced", "lazy-fi", ("m7", ("C1", "C2")),
           note="the count/taken test detects the pending cycle"),
        _c("clean", "lazy-fi"),
        _c("z_cycles", "none", (1, 2),
           (("m7", "m2"), ("m7", "m4", "m6"), ("m7", "m4", "m3", "m5", "m6")),
           note="the cycle the force breaks is [m7, m4, m6]"),
        _c("useless", "none", ((1, 2), (3, 2))),
    )),

    "fine-proposal": _Fixture(
        "fine declines a force and loses zigzag-consistent timestamps",
        """\
procs 3
# The weakened first condition in action: at m3 every classic trigger is
# up (greater clock, sender thinks P3 is behind) but no checkpoint is
# known on the closing chain, so fine declines the forced checkpoint the
# fully-informed protocol takes.  The price: C_1^2 reaches C_3^2 over
# [m3, m1] with equal timestamps.  m2 is delivered late, after C_1^2.
send 2 3 m1
recv 3 m1
send 3 1 m2
ckpt 3
ckpt 1
recv 1 m2
send 1 2 m3
recv 2 m3
""", (
        _c("forced", "fine", note="no known checkpoint on the chain"),
        _c("message_t", "fine", "m1", 1),
        _c("message_t", "fine", "m3", 2),
        _c("violation", "fine", (1, 2), (3, 2),
           note="the run is not zigzag-consistent"),
        _c("useless", "fine", (), note="but nothing is useless yet"),
        _c("timestamp", "fine", (1, 2), 2),
        _c("timestamp", "fine", (3, 2), 2),
        _c("interval", "fine", "m3", (2, 1)),
        _c("forced", "fi-greater", ("m3", ("C1",)),
           note="the fully-informed protocol forces here"),
        _c("clean", "fi-greater"),
        _c("forced", "fine-ri", note="the receiver-index variant also declines"),
    )),

    "fine-counterexample": _Fixture(
        "amplified continuation: fine admits a useless checkpoint",
        """\
procs 3
# Continuation of fine-proposal produced by the violation amplifier: m4
# leaves P3 right after C_3^2 and lands at P1 inside the interval where
# m3 was sent, closing the cycle [m4, m3, m1].  fine still sees no reason
# to force anywhere and C_3^2 becomes useless.
send 2 3 m1
recv 3 m1
send 3 1 m2
ckpt 3
send 3 1 m4
ckpt 1
recv 1 m2
send 1 2 m3
recv 1 m4
recv 2 m3
""", (
        _c("forced", "fine", note="zero forced checkpoints"),
        _c("useless", "fine", ((3, 2),), note="P3's second checkpoint is useless"),
        _c("z_cycles", "fine", (3, 2), (("m4", "m3", "m1"),)),
        _c("forced", "fi-greater", ("m3", ("C1",))),
        _c("clean", "fi-greater",
           note="the fully-informed protocol survives the same scenario"),
        _c("forced", "fine-ri"),
        _c("useless", "fine-ri", ((3, 2),),
           note="the receiver-index variant fails here too"),
    )),

    "lazy-fine-counterexample": _Fixture(
        "lazy-fine admits a useless checkpoint where lazy-fi stays safe",
        """\
procs 4
# The lazy variant of the same failure.  m3 teaches P2 about P4 before
# P4 checkpoints; m4 then carries a greater clock to P3, which has sent
# m2 to P4 in its current interval.  lazy-fi forces at m4; lazy-fine sees
# taken[4] false and declines.  m5 closes the cycle [m5, m4, m2] through
# C_4^2 with an equal clock at P2, firing nothing.
send 1 2 m1
recv 2 m1
ckpt 2
send 3 4 m2
send 4 2 m3
recv 4 m2
recv 2 m3
ckpt 4
send 2 3 m4
recv 3 m4
send 4 2 m5
recv 2 m5
""", (
        _c("forced", "lazy-fine",
           note="m4: no checkpoint known behind the witness; m5: equal clock fires nothing"),
        _c("z_cycles", "lazy-fine", (4, 2), (("m5", "m4", "m2"),)),
        _c("useless", "lazy-fine", ((4, 2),), note="exactly one useless checkpoint"),
        _c("forced", "lazy-fi", ("m4", ("C1",)),
           note="the unweakened condition breaks the cycle at m4"),
        _c("clean", "lazy-fi"),
        _c("forced", "lazy-fine-ri", ("m4", ("C1",)),
           note="receiver-index variant forces here and misses the failure"),
    )),

    "theorem1-a": _Fixture(
        "timestamp violation without any Z-cycle (amplifier input)",
        """\
procs 3
# Minimal violating-but-harmless computation: C_1^2 reaches C_3^2 over
# the non-causal chain [m1, m2] with equal timestamps, yet no Z-cycle
# exists.  Input for the violation amplifier.
send 2 3 m2
ckpt 1
send 1 2 m1
recv 2 m1
recv 3 m2
ckpt 3
""", (
        _c("violation", "none", (1, 2), (3, 2)),
        _c("useless", "none", (), note="violation without a cycle"),
        _c("zigzag", "none", (1, 2), (3, 2), ("m1", "m2"), False),
        _c("timestamp", "none", (1, 2), 2),
        _c("timestamp", "none", (3, 2), 2),
    )),

    "theorem1-b": _Fixture(
        "theorem1-a plus the amplifier's message: the cycle closes",
        """\
procs 3
# theorem1-a extended by the amplifier: m3 leaves P3 right after C_3^2
# and lands at P1 after m1 was sent, closing the cycle [m3, m1, m2].
send 2 3 m2
ckpt 1
send 1 2 m1
recv 2 m1
recv 3 m2
ckpt 3
send 3 1 m3
recv 1 m3
""", (
        _c("useless", "none", ((3, 2),)),
        _c("z_cycles", "none", (3, 2), (("m3", "m1", "m2"),)),
    )),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def _fixture(name: str) -> _Fixture:
    try:
        return _FIXTURES[name]
    except KeyError:
        raise UnknownScenarioError(name) from None


def builtin(name: str) -> tuple[Scenario, list[FixtureClaim]]:
    """Reconstructed scenario and its claims; unknown names list the
    registry."""
    fx = _fixture(name)
    return parse_scenario(fx.text, name=name), list(fx.claims)


def builtin_description(name: str) -> str:
    return _fixture(name).description


# ---------------------------------------------------------------------------
# Random scenarios.
# ---------------------------------------------------------------------------


class FuzzParams(namedtuple("FuzzParams", "n events p_ckpt p_send max_in_flight seed",
                             defaults=(40, 0.15, 0.35, 8, 0))):
    """Knobs for the seeded scenario generator: ``n``, ``events``,
    ``p_ckpt``, ``p_send``, ``max_in_flight`` and ``seed``.

    ``p_ckpt`` is either one probability or a per-process list or tuple,
    which is how asymmetric checkpointing rates are expressed.
    """

    __slots__ = ()


def checked_rates(params: FuzzParams) -> list[float]:
    """Per-process checkpoint probabilities of ``params``, after checking
    every knob; raises ValueError for an out-of-range one, for a count
    (``n``, ``events``, ``max_in_flight``) or a ``seed`` that is not an
    exact int, or for a ``p_send`` or ``p_ckpt`` entry that is not an int
    or a float (a bool is neither here; several rates come as an exact
    list or tuple)."""
    for knob in ("n", "events", "max_in_flight", "seed"):
        value = getattr(params, knob)
        if type(value) is not int:
            raise ValueError(f"{knob} must be an int, got {value!r}")
    if not 2 <= params.n <= MAX_PROCS:
        raise ValueError(f"need 2 to {MAX_PROCS} processes, got {params.n}")
    if params.events < 1:
        raise ValueError(f"need at least 1 event, got {params.events}")
    if params.max_in_flight < 1:
        raise ValueError(f"max_in_flight must be at least 1, got {params.max_in_flight}")
    rates = params.p_ckpt  # one rate for every process unless a list or tuple
    rates = list(rates) if type(rates) in (list, tuple) else [rates] * params.n
    if len(rates) != params.n:
        raise ValueError("p_ckpt must have one entry per process")
    for knob, prob in [("p_ckpt", x) for x in rates] + [("p_send", params.p_send)]:
        if type(prob) is bool or not isinstance(prob, (int, float)):
            raise ValueError(f"{knob} must be an int or a float, got {prob!r}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability {float(prob)} outside [0, 1]")
    return [float(x) for x in rates]


def draw_threshold(prob: float) -> int:
    """The int ``T`` with ``r < T`` exactly when ``r * 2**-53 < prob``,
    for every int ``r``: the generator's test of a 53-bit draw against a
    probability.  Scaling by a power of two is exact, so ``r * 2**-53 <
    prob`` is ``r < prob * 2**53``; an int is below a float exactly when it
    is below the float's ceiling."""
    return math.ceil(prob * 2.0 ** 53)


def random_scenario(params: FuzzParams) -> Scenario:
    """Seeded, reproducible scenario.

    Every draw comes from one splitmix64 stream, so equal params give
    bit-identical scenarios on any platform.  Deliveries pick uniformly
    among in-flight messages (channels are not FIFO); pending messages are
    drained at the end while the event budget lasts, so sends are received
    unless the budget truncates the trace.

    Each step draws a process, then a 53-bit ``r``, the numerator of
    ``SplitMix64.random``; ``r`` is compared with int thresholds, one
    checkpoint and one send threshold per process (``draw_threshold``),
    which give the same outcome as comparing the float ``r * 2**-53`` with
    the rates.  The steps are built as plain tuple values, without the
    named-tuple constructor: a process's ``ckpt`` step is one shared
    value, and a send's ``recv`` step is built when the send is drawn, so
    a delivery pops a step that is already built.
    """
    n, events, max_in_flight = params.n, params.events, params.max_in_flight
    new = tuple.__new__
    ckpt_below, send_below, ckpt_steps = [], [], []
    for p, prob in enumerate(checked_rates(params), 1):
        ckpt_below.append(draw_threshold(prob))
        send_below.append(draw_threshold(prob + params.p_send))
        ckpt_steps.append(new(Step, ("ckpt", p, None, None)))
    # SplitMix64.below and .random, inlined: one draw each, in the order
    # p, r, then q or the index of the message delivered.
    draw = SplitMix64(params.seed).draws.__next__
    steps: list[Step] = []
    add = steps.append
    in_flight: list[Step] = []  # the receive of each message in flight
    counter = 0
    for _ in range(events * 8):
        if len(steps) == events:
            break
        i = draw() % n  # process i + 1
        r = draw() >> 11
        if r < ckpt_below[i]:
            add(ckpt_steps[i])
        elif r < send_below[i] and len(in_flight) < max_in_flight:
            q = 1 + draw() % (n - 1)
            if q > i:
                q += 1
            counter += 1
            name = f"m{counter}"
            add(new(Step, ("send", i + 1, q, name)))
            in_flight.append(new(Step, ("recv", q, None, name)))
        elif in_flight:
            add(in_flight.pop(draw() % len(in_flight)))
    while in_flight and len(steps) < events:
        add(in_flight.pop(draw() % len(in_flight)))
    return Scenario(n, tuple(steps))
