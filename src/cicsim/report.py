"""JSON report schema for runs and fuzz campaigns, and its writer.

Reports are plain dicts serialized with sorted keys, a two-space indent
and fixed separators, so parsing and re-serializing a report is
byte-identical.  Every report embeds a content digest of the canonical
scenario text, which makes fuzz findings reproducible from (seed, params)
alone.

``to_json`` is a small recursive writer rather than a ``json.dumps`` call:
``indent=2`` makes the standard library drop its C encoder for the
pure-Python one, which took about as long as the oracle on an unprotected
100-event report.  Its output equals
``json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"``
byte for byte; ``cicsim run``, ``fuzz`` and ``amplify`` all write through it.

A run report repeats a few checkpoints many times: each Z-cycle entry names
its checkpoint and its witness's ends as ``[process, ordinal]`` pairs, so an
unprotected 100-event report writes about 900 pairs but only about 14
distinct ones.  The writer keeps the text of each pair it has written as a
dict value, keyed by depth (the text carries its indentation) and the two
ints, for the length of one ``to_json`` call, and reuses it for every later
occurrence; a hit costs a dict lookup instead of formatting the pair.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _escape

from .oracle import OracleReport
from .simulator import AnnotatedTrace


def scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_report(run: AnnotatedTrace, oracle_report: OracleReport, scenario_text: str,
               scenario_id: str | None = None) -> dict:
    per_process = [{"process": p, "checkpoints": []} for p in range(1, run.scenario.n + 1)]
    for (p, _), r in sorted(run.trace.checkpoints.items()):
        per_process[p - 1]["checkpoints"].append(
            {"ordinal": r.ordinal, "kind": r.kind, "t": r.timestamp}
        )
    forced = [
        {
            "step": f.step_index,
            "process": f.process,
            "message": f.message,
            "conditions": sorted(f.decision.fired),
            "t": f.record.timestamp,
        }
        for f in run.forced
    ]
    piggybacks = [
        {"step": step, "message": name, **pb.fields()}
        for step, name, pb in run.piggybacks
    ]
    rep = {
        "scenario": {
            "id": scenario_id or (run.scenario.name or "inline"),
            "hash": scenario_hash(scenario_text),
            "procs": run.scenario.n,
            "steps": len(run.scenario.steps),
        },
        "protocol": run.protocol,
        "processes": per_process,
        "forced_events": forced,
        "piggybacks": piggybacks,
        "oracle": {
            "z_cycles": [
                {
                    "checkpoint": [r.process, r.ordinal],
                    "from": [w.source.process, w.source.ordinal],
                    "to": [w.target.process, w.target.ordinal],
                    "messages": list(w.messages),
                    "causal": w.causal,
                }
                for r, w in oracle_report.z_cycles
            ],
            "useless": sorted([r.process, r.ordinal] for r in oracle_report.useless),
            "violations": [
                {
                    "from": [a.process, a.ordinal],
                    "from_t": a.timestamp,
                    "to": [b.process, b.ordinal],
                    "to_t": b.timestamp,
                    "messages": list(w.messages),
                }
                for a, b, w in oracle_report.violations
            ],
            "stats": dict(oracle_report.stats),
        },
        "summary": {
            "forced": run.forced_count,
            "total_checkpoints": run.checkpoint_total,
            "useless": len(oracle_report.useless),
            "violations": len(oracle_report.violations),
            "z_consistent": not oracle_report.violations,
        },
    }
    return rep


def to_json(obj) -> str:
    """Canonical serialization: sorted keys, two-space indent, fixed
    separators and a trailing newline; equal byte for byte to
    ``json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"``.

    Dict keys must be ``str`` (a report has no other kind); any other key
    raises TypeError.  Each distinct ``[int, int]`` dict value at a given
    depth (a checkpoint's ``[process, ordinal]``) is formatted once per
    call and its text reused; only exact ``int`` items qualify, so a pair
    holding a bool or an int subclass is written the generic way.
    """
    return _encode(obj, 0, {}) + "\n"


class _Indents(dict):
    """depth -> (newline and indent of a closing bracket at that depth, of
    an item inside it, and the separator between two such items)."""

    def __missing__(self, depth: int) -> tuple[str, str, str]:
        close = "\n" + "  " * depth
        self[depth] = indents = (close, close + "  ", "," + close + "  ")
        return indents


_INDENTS = _Indents()
_INTS = frozenset([int])  # exact types, so a bool is not an int here
_STRS = frozenset([str])


def _encode(v, depth: int, pairs: dict) -> str:
    """``v`` as JSON, written as the value of a line at ``depth``; ``pairs``
    memoizes the text of each ``[int, int]`` dict value by its depth and
    items."""
    t = type(v)
    if t is str:
        return _escape(v)
    if t is int:
        return int.__repr__(v)
    # Exact container types first; isinstance only for subclasses.
    if t is list or t is tuple or (t is not dict and isinstance(v, (list, tuple))):
        if not v:
            return "[]"
        close, item, sep = _INDENTS[depth]
        # Leaf lists ([p, o] pairs, message names, piggyback vectors) in one join.
        if _INTS.issuperset(map(type, v)):
            body = sep.join(map(int.__repr__, v))
        elif _STRS.issuperset(map(type, v)):
            body = sep.join(map(_escape, v))
        else:
            depth += 1
            body = sep.join([_encode(x, depth, pairs) for x in v])
        return f"[{item}{body}{close}]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        close, item, sep = _INDENTS[depth]
        depth += 1
        inner_close, inner_item, inner_sep = _INDENTS[depth]
        # One join over the pieces, so each value's text is copied once.
        parts = ["{", item]
        for k in sorted(v):
            x = v[k]
            t = type(x)
            # Scalars and non-empty leaf lists inline, as the branches above
            # write them; everything else recursively.
            if t is str:
                x = _escape(x)
            elif t is int:
                x = int.__repr__(x)
            elif t is bool:
                x = "true" if x else "false"
            elif t is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int:
                # A [process, ordinal] pair: the same few recur hundreds of
                # times in a report, so each is written once per depth.
                key = (depth, x[0], x[1])
                text = pairs.get(key)
                if text is None:
                    text = pairs[key] = (
                        f"[{inner_item}{inner_sep.join(map(int.__repr__, x))}{inner_close}]"
                    )
                x = text
            elif t is list and x and type(x[0]) is int and _INTS.issuperset(map(type, x)):
                x = f"[{inner_item}{inner_sep.join(map(int.__repr__, x))}{inner_close}]"
            elif t is list and x and type(x[0]) is str and _STRS.issuperset(map(type, x)):
                x = f"[{inner_item}{inner_sep.join(map(_escape, x))}{inner_close}]"
            else:
                x = _encode(x, depth, pairs)
            # _escape raises TypeError for a key that is not a str.
            parts += (_escape(k), ": ", x, sep)
        parts[-1] = close  # no separator after the last item
        parts.append("}")
        return "".join(parts)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    # float (float.__repr__, NaN, Infinity) and the rest exactly as json.dumps.
    return json.dumps(v)
