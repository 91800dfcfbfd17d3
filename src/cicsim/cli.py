"""Command-line interface.

Verbs: run, fuzz, compare, amplify, diagram, list-scenarios.  Exit codes
are a stable scripting contract: 0 success/clean, 1 oracle findings
(useless checkpoints or timestamping violations, with --check), 2 usage
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import oracle, report
from .diagram import ascii_diagram, svg_diagram
from .protocols import PROTOCOL_NAMES, ProtocolError
from .rng import SplitMix64
from .scenarios import (
    FIXTURE_NAMES,
    FuzzParams,
    ScenarioParseError,
    UnknownScenarioError,
    builtin,
    builtin_description,
    checked_rates,
    parse_scenario,
    random_scenario,
    serialize_scenario,
)
from .simulator import MAX_PROCS, Scenario, amplify_violation, compare_runs, run_scenario

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _load_scenario(ref: str) -> Scenario:
    if ref in FIXTURE_NAMES:
        return builtin(ref)[0]
    if os.path.exists(ref):
        try:
            with open(ref, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read scenario file {ref!r}: {exc}") from exc
        return parse_scenario(text, name=os.path.basename(ref))
    raise UsageError(
        f"unknown scenario {ref!r}: not a built-in name or readable file; "
        f"built-ins: {', '.join(FIXTURE_NAMES)}"
    )


def _check_out(out: str | None) -> None:
    """Raise the UsageError that _write would raise for ``out``, before any
    work is done; nothing is created or truncated."""
    if not out:
        return
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    exc = OSError(code, os.strerror(code), out)
    raise UsageError(f"cannot write {out!r}: {exc}")


def _check_json_out(args) -> None:
    """``--out`` writes the ``--json`` report, so it needs ``--json``."""
    if args.out and not args.json:
        raise UsageError("--out writes the --json report: add --json or drop --out")
    _check_out(args.out)


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _print_human(rep: dict) -> None:
    s = rep["summary"]
    print(f"scenario  {rep['scenario']['id']} (hash {rep['scenario']['hash']})")
    print(f"protocol  {rep['protocol']}")
    print(
        f"checkpoints {s['total_checkpoints']}  forced {s['forced']}  "
        f"useless {s['useless']}  violations {s['violations']}"
    )
    for f in rep["forced_events"]:
        print(
            f"  forced at step {f['step']}: P{f['process']} before delivering "
            f"{f['message']} via {'+'.join(f['conditions'])} (t={f['t']})"
        )
    for z in rep["oracle"]["z_cycles"]:
        print(
            f"  z-cycle on C_{z['checkpoint'][0]}^{z['checkpoint'][1]}: "
            f"{', '.join(z['messages'])}"
        )
    truncated = rep["oracle"]["stats"]["witnesses_truncated"]
    if truncated:
        cap = oracle.DEFAULT_MAX_WITNESSES
        print(
            f"  witnesses cut: {truncated} checkpoint(s) lie on more than {cap} "
            f"Z-cycles; the first {cap} of each are listed"
        )
    for v in rep["oracle"]["violations"]:
        print(
            f"  violation: C_{v['from'][0]}^{v['from'][1]} (t={v['from_t']}) "
            f"zigzags to C_{v['to'][0]}^{v['to'][1]} (t={v['to_t']}) "
            f"via {', '.join(v['messages'])}"
        )


def cmd_run(args) -> int:
    _check_json_out(args)
    scen = _load_scenario(args.scenario)
    run = run_scenario(scen, args.protocol)
    orep = oracle.oracle_report(run.trace)
    # The digest is of the canonical text, so a file's comments and
    # layout do not change it.
    rep = report.run_report(run, orep, serialize_scenario(scen), scenario_id=args.scenario)
    if args.json:
        _write(report.to_json(rep), args.out)
    else:
        _print_human(rep)
    if args.check and not orep.clean:
        return EXIT_FINDINGS
    return EXIT_OK


def _parse_procs(spec: str) -> tuple[int, int]:
    """``N`` or ``MIN-MAX`` with 2 <= MIN <= MAX <= MAX_PROCS."""
    lo, sep, hi = spec.partition("-")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"bad --procs value {spec!r}") from None
    if not 2 <= lo <= hi <= MAX_PROCS:
        raise UsageError(f"bad --procs value {spec!r}: need 2 <= MIN <= MAX <= {MAX_PROCS}")
    return lo, hi


def _parse_protocols(spec: str) -> list[str]:
    """A comma-separated list of distinct known protocol names."""
    protocols = spec.split(",")
    for p in protocols:
        if p not in PROTOCOL_NAMES:
            raise UsageError(f"unknown protocol {p!r}; known: {', '.join(PROTOCOL_NAMES)}")
    if len(set(protocols)) != len(protocols):
        raise UsageError(f"protocol named twice in {spec!r}")
    return protocols


def _fuzz_params(args, procs: tuple[int, int], seed: int) -> FuzzParams:
    prng = SplitMix64(seed ^ 0xC1C51A8)
    lo, hi = procs
    n = lo + prng.below(hi - lo + 1) if hi > lo else lo
    if args.p_ckpt:
        rates = args.p_ckpt if len(args.p_ckpt) > 1 else args.p_ckpt[0]
    else:
        # Asymmetric by default: every process draws its own rate.
        rates = tuple(0.02 + 0.28 * prng.random() for _ in range(n))
    return FuzzParams(
        n=n,
        events=args.events,
        p_ckpt=rates,
        p_send=args.p_send,
        max_in_flight=args.max_in_flight,
        seed=seed,
    )


def cmd_fuzz(args) -> int:
    _check_json_out(args)
    protocols = _parse_protocols(args.protocols)
    if args.runs < 0:
        raise UsageError(f"--runs must be at least 0, got {args.runs}")
    procs = _parse_procs(args.procs)
    if args.p_ckpt and len(args.p_ckpt) > 1 and procs != (len(args.p_ckpt),) * 2:
        raise UsageError(
            f"--p-ckpt repeated {len(args.p_ckpt)} times needs --procs {len(args.p_ckpt)}"
        )
    try:  # checked before the loop, so zero runs reject bad flags too
        checked_rates(_fuzz_params(args, procs, args.seed))
    except ValueError as exc:  # out-of-range generator parameters
        raise UsageError(str(exc)) from exc
    forced_totals = {p: 0 for p in protocols}
    findings = []
    for seed in range(args.seed, args.seed + args.runs):
        params = _fuzz_params(args, procs, seed)
        scen = random_scenario(params)
        for row in compare_runs(scen, protocols):
            forced_totals[row.protocol] += row.forced
            if row.useless or row.violations:
                findings.append(
                    {
                        "seed": seed,
                        "protocol": row.protocol,
                        "useless": row.useless,
                        "violations": row.violations,
                        "hash": report.scenario_hash(serialize_scenario(scen)),
                        "params": {**params._asdict(), "p_ckpt": checked_rates(params)},
                    }
                )
    findings.sort(key=lambda f: (f["seed"], f["protocol"]))
    if args.json:
        body = {
            "runs": args.runs,
            "seed0": args.seed,
            "protocols": protocols,
            "forced_totals": forced_totals,
            "findings": findings,
        }
        _write(report.to_json(body), args.out)
    else:
        seeds = f", seeds {args.seed}..{args.seed + args.runs - 1}" if args.runs else ""
        print(f"fuzz: {args.runs} scenarios{seeds}")
        for proto in protocols:
            print(f"  {proto:12s} forced checkpoints total: {forced_totals[proto]}")
        if findings:
            print(f"  findings ({len(findings)}):")
            for f in findings:
                print(
                    f"    seed {f['seed']} {f['protocol']}: useless={f['useless']} "
                    f"violations={f['violations']} (scenario {f['hash']})"
                )
        else:
            print("  findings: none")
    if args.check and findings:
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_compare(args) -> int:
    protocols = _parse_protocols(args.protocols)
    scen = _load_scenario(args.scenario)
    rows = compare_runs(scen, protocols)
    print(f"{'protocol':14s} {'forced':>6s} {'ckpts':>6s} {'useless':>8s} {'z-consistent':>13s}")
    for r in rows:
        print(
            f"{r.protocol:14s} {r.forced:6d} {r.checkpoints:6d} {r.useless:8d} "
            f"{str(r.z_consistent):>13s}"
        )
    return EXIT_OK


def cmd_amplify(args) -> int:
    _check_json_out(args)
    scen = _load_scenario(args.scenario)
    result = amplify_violation(scen, args.protocol)
    if result is None:
        if args.json:
            _write(report.to_json({"amplified": None}), args.out)
        else:
            print("nothing to amplify: the run has no cross-process timestamp violation")
        return EXIT_OK
    text = serialize_scenario(result.scenario)
    useless, violations = oracle.quick_findings(result.run.trace)
    if args.json:
        rep = report.run_report(result.run, result.report, text, scenario_id="amplified")
        rep["amplified"] = {
            "inserted_message": result.inserted_message,
            "violation": [
                [result.violation[0].process, result.violation[0].ordinal],
                [result.violation[1].process, result.violation[1].ordinal],
            ],
        }
        _write(report.to_json(rep), args.out)
    else:
        src, dst = result.violation
        print(
            f"amplified violation {src.label()} -> {dst.label()} with new "
            f"message {result.inserted_message}"
        )
        print(text, end="")
        print(f"result: useless={useless} violations={violations}")
    if args.check and (useless or violations):
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_diagram(args) -> int:
    _check_out(args.out)
    scen = _load_scenario(args.scenario)
    run = run_scenario(scen, args.protocol)
    text = ascii_diagram(run) if args.format == "ascii" else svg_diagram(run)
    _write(text, args.out)
    return EXIT_OK


def cmd_list_scenarios(args) -> int:
    for name in FIXTURE_NAMES:
        scen, _ = builtin(name)
        print(f"{name:26s} procs={scen.n} steps={len(scen.steps):3d}  "
              f"{builtin_description(name)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cicsim",
        description="simulate and verify index-based communication-induced "
        "checkpointing protocols",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario under one protocol")
    p.add_argument("scenario", help="built-in name or scenario file path")
    p.add_argument("protocol", choices=PROTOCOL_NAMES)
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if the oracle finds useless checkpoints or violations")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fuzz", help="run seeded random scenarios")
    p.add_argument("--protocols", default="fi",
                   help="comma-separated protocol names")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", default="3-5",
                   help="process count, N or MIN-MAX (per-seed random)")
    p.add_argument("--events", type=int, default=40)
    p.add_argument("--p-ckpt", type=float, action="append", default=None,
                   help="basic-checkpoint probability; repeat for per-process "
                        "asymmetric rates (default: random per process)")
    p.add_argument("--p-send", type=float, default=0.35)
    p.add_argument("--max-in-flight", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("compare", help="compare protocols on one scenario")
    p.add_argument("scenario")
    p.add_argument("--protocols", default="none,pi,fi")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("amplify", help="extend a violating run into a Z-cycle")
    p.add_argument("scenario")
    p.add_argument("protocol", choices=PROTOCOL_NAMES)
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("diagram", help="render a space-time diagram")
    p.add_argument("scenario")
    p.add_argument("protocol", choices=PROTOCOL_NAMES)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    p.set_defaults(func=cmd_list_scenarios)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, UnknownScenarioError, ScenarioParseError, ProtocolError) as exc:
        print(f"cicsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - defensive
        print(f"cicsim: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
