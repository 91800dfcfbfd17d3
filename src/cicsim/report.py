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

Every list in a run report is a table: a list of dicts with one key set
(``processes`` and each process's ``checkpoints``, ``forced_events``,
``piggybacks``, ``z_cycles``, ``violations``, and a campaign's
``findings``).  The writer builds one plan per table instead of redoing
the per-dict work on every row: the sorted keys, a row template that
holds every key's written ``"key": `` text and the indentation, and one
value writer per key, chosen by the type of the first row's value.  A
list is a table when every item is an exact ``dict``, none is empty and
each has the first item's keys; a lone dict is a table of one row, so
there is one dict writer.  The plan is exact because rows with one key
set share their sorted key order and key texts, so only the values
differ, and each value is still tested against its writer's type (exact
``str``, exact ``int``, ``bool``, an all-int pair, a non-empty all-int or
all-``str`` list) and written by the generic branch when the test fails:
a row whose value differs in type from the first row's is written as
``json.dumps`` writes it.  The writer fills the table column by column;
row by row, with one writer call per value, measured slower.

A run report repeats a few checkpoints many times: each Z-cycle entry names
its checkpoint and its witness's ends as ``[process, ordinal]`` pairs, so an
unprotected 100-event report writes about 900 pairs but only about 14
distinct ones.  The pair column's writer keeps the text of each pair it has
written, keyed by depth (the text carries its indentation) and the two
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
    for (p, _), (_, ordinal, kind, t) in sorted(run.trace.checkpoints.items()):
        per_process[p - 1]["checkpoints"].append({"ordinal": ordinal, "kind": kind, "t": t})
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
            # One row per chain.  "causal" is a constant, since no Z-cycle is
            # causal: a Z-cycle on C_p^x ends with a receive by P_p in an
            # interval before x and starts with a send by P_p in interval x
            # or later, so that receive comes before that send, while a
            # causal chain puts its first send before its last receive.
            "z_cycles": [
                {
                    "checkpoint": [p, x],
                    "from": [p, x],
                    "to": [p, x],
                    "messages": list(names),
                    "causal": False,
                }
                for (p, x, _, _), chains, _ in oracle_report.z_cycles
                for names in chains
            ],
            # The entries are in checkpoint order, so this is sorted.
            "useless": [[p, x] for (p, x, _, _), _, _ in oracle_report.z_cycles],
            "violations": [
                {
                    "from": [ap, ax],
                    "from_t": at,
                    "to": [bp, bx],
                    "to_t": bt,
                    "messages": list(names),
                }
                for (ap, ax, _, at), (bp, bx, _, bt), names in oracle_report.violations
            ],
            "stats": dict(oracle_report.stats),
        },
        "summary": {
            "forced": run.forced_count,
            "total_checkpoints": run.checkpoint_total,
            "useless": len(oracle_report.z_cycles),
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
    raises TypeError.  Lists of same-keyed dicts are written as tables,
    from one plan per list (see the module docstring).  Each distinct
    ``[int, int]`` value at a given depth in a column of such pairs (a
    checkpoint's ``[process, ordinal]``) is formatted once per call and its
    text reused; only exact ``int`` items qualify, so a pair holding a bool
    or an int subclass is written the generic way.
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
    memoizes the text of each ``[int, int]`` table value by its depth and
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
        elif _is_table(v):
            body = sep.join(_rows(v, depth + 1, pairs))
        else:
            depth += 1
            body = sep.join([_encode(x, depth, pairs) for x in v])
        return f"[{item}{body}{close}]"
    if isinstance(v, dict):
        # A lone dict is a table of one row.
        return _rows((v,), depth, pairs)[0] if v else "{}"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    # float (float.__repr__, NaN, Infinity) and the rest exactly as json.dumps.
    return json.dumps(v)


def _is_table(v) -> bool:
    """Whether every item of the list ``v`` is an exact, non-empty dict with
    the first item's key set."""
    first = v[0]
    if type(first) is not dict or not first:
        return False
    keys = first.keys()
    for x in v:
        if type(x) is not dict or x.keys() != keys:
            return False
    return True


def _rows(rows, depth: int, pairs: dict) -> list[str]:
    """The text of each dict in ``rows`` (non-empty dicts with one key set),
    written at ``depth``, from one plan: the sorted keys, one row template
    holding every key's text, and one value writer per key."""
    first = rows[0]
    keys = sorted(first)
    close, item, sep = _INDENTS[depth]
    # _escape raises TypeError for a key that is not a str; a key's "%" is
    # doubled so that the template writes it as it is.
    template = "".join([
        "{", item,
        sep.join([_escape(k).replace("%", "%%") + ": %s" for k in keys]),
        close, "}",
    ])
    depth += 1
    columns = [_column([r[k] for r in rows], first[k], depth, pairs) for k in keys]
    return [template % values for values in zip(*columns)]


def _column(col: list, guess, depth: int, pairs: dict) -> list[str]:
    """The text of each value in ``col``, written at ``depth``.  The writer
    is chosen by the type of ``guess`` (the first row's value), but every
    value is tested against it and written by ``_encode`` if it fails, so a
    value's text never depends on another row's."""
    t = type(guess)
    if t is str:
        return [_escape(x) if type(x) is str else _encode(x, depth, pairs) for x in col]
    if t is int:
        return [int.__repr__(x) if type(x) is int else _encode(x, depth, pairs) for x in col]
    if t is bool:
        return ["true" if x is True else "false" if x is False else _encode(x, depth, pairs)
                for x in col]
    if t is not list or not guess:
        return [_encode(x, depth, pairs) for x in col]
    close, item, sep = _INDENTS[depth]
    t = type(guess[0])
    if t is int and len(guess) == 2 and type(guess[1]) is int:
        # [process, ordinal] pairs: the same few recur hundreds of times in
        # a report, so each is written once per depth.
        out = []
        for x in col:
            if type(x) is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int:
                key = (depth, x[0], x[1])
                text = pairs.get(key)
                if text is None:
                    text = pairs[key] = f"[{item}{sep.join(map(int.__repr__, x))}{close}]"
            else:
                text = _encode(x, depth, pairs)
            out.append(text)
        return out
    if t is int:
        return [f"[{item}{sep.join(map(int.__repr__, x))}{close}]"
                if type(x) is list and x and _INTS.issuperset(map(type, x))
                else _encode(x, depth, pairs) for x in col]
    if t is str:
        return [f"[{item}{sep.join(map(_escape, x))}{close}]"
                if type(x) is list and x and _STRS.issuperset(map(type, x))
                else _encode(x, depth, pairs) for x in col]
    return [_encode(x, depth, pairs) for x in col]
