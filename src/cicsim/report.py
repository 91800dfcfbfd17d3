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
``findings``).  The writer writes each table in one join instead of
redoing the per-dict work on every row.  A list is a table when every
item is an exact ``dict`` with the first item's (non-zero) key count and
one ``itemgetter`` of the first item's sorted keys reads every item; a
``KeyError`` means it is not.  A lone dict is a table of one row, so
there is one dict writer.  The getter's rows, transposed, are the value
columns; the table's text is a row plan of the fixed ``"key": `` heads
(with the brackets and indentation) repeated once per row, each column's
texts put into its slots, and one join.  Each column's value writer is
chosen by the type of the first row's value, and each value is still
tested against its writer's type (exact ``str``, exact ``int``, ``bool``,
a non-empty all-int or all-``str`` list) and written by the generic
branch when the test fails: a row whose value differs in type from the
first row's is written as ``json.dumps`` writes it.  The writer fills
the table column by column; row by row, with one writer call per value,
measured slower.

A run report repeats a few checkpoints and chains many times: an
unprotected 100-event report writes about 900 ``[process, ordinal]`` pairs
but only about 14 distinct ones, and many witnesses recur.  So
``run_report`` puts one list object per checkpoint and per distinct chain
in every row that names it, and each repeated list object is written once
per column: a repeat of the value before reuses its text, and any other
repeat reads it by ``id`` from a map that lives for that column.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter

from .oracle import OracleReport
from .simulator import AnnotatedTrace


def scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_report(run: AnnotatedTrace, oracle_report: OracleReport, scenario_text: str,
               scenario_id: str | None = None) -> dict:
    """The report of ``run`` and of ``oracle_report``, the oracle's report
    on ``run.trace``.  Rows share their list values (module docstring), so
    treat the report as read-only."""
    per_process = [{"process": p, "checkpoints": []} for p in range(1, run.scenario.n + 1)]
    for (p, _), (_, ordinal, kind, t) in sorted(run.trace.checkpoints.items()):
        per_process[p - 1]["checkpoints"].append({"ordinal": ordinal, "kind": kind, "t": t})
    at = {rec: [p, x] for (p, x), rec in run.trace.checkpoints.items()}
    cycles = oracle_report.z_cycles
    chain = {names: list(names) for _, chains, _ in cycles for names in chains}
    chain.update((names, list(names)) for _, _, names in oracle_report.violations)
    useless = [at[rec] for rec, _, _ in cycles]
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
                    "checkpoint": pair,
                    "from": pair,
                    "to": pair,
                    "messages": chain[names],
                    "causal": False,
                }
                for pair, (_, chains, _) in zip(useless, cycles)
                for names in chains
            ],
            # The entries are in checkpoint order, so this is sorted.
            "useless": useless,
            "violations": [
                {
                    "from": at[a],
                    "from_t": a.timestamp,
                    "to": at[b],
                    "to_t": b.timestamp,
                    "messages": chain[names],
                }
                for a, b, names in oracle_report.violations
            ],
            "stats": dict(oracle_report.stats),
        },
        "summary": {
            "forced": run.forced_count,
            "total_checkpoints": run.checkpoint_total,
            "useless": len(cycles),
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
    in one join per list, and a list object that recurs in a column of
    such a table is written once (see the module docstring).
    """
    return _encode(obj, 0) + "\n"


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
_DICTS = frozenset([dict])


def _encode(v, depth: int) -> str:
    """``v`` as JSON, written as the value of a line at ``depth``."""
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
            body = _table(v, depth + 1) if _DICTS.issuperset(map(type, v)) else None
            if body is None:
                depth += 1
                body = sep.join([_encode(x, depth) for x in v])
        return f"[{item}{body}{close}]"
    if isinstance(v, dict):
        # A lone dict is a table of one row.
        return _table((v,), depth) if v else "{}"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    # float (float.__repr__, NaN, Infinity) and the rest exactly as json.dumps.
    return json.dumps(v)


def _table(rows, depth: int) -> str | None:
    """The dicts in ``rows`` written at ``depth`` and joined by the item
    separator of the list that holds them, or None when they are no table
    (module docstring): every row has the first row's key count and holds
    each of its keys, so the rows share one key set."""
    keys = sorted(rows[0])
    if not keys or {len(keys)} != set(map(len, rows)):
        return None
    try:
        got = list(map(itemgetter(*keys), rows))
    except KeyError:
        return None
    close, item, sep = _INDENTS[depth]
    # _escape raises TypeError for a key that is not a str.
    first, *rest = [_escape(k) + ": " for k in keys]
    lead = f"{{{item}{first}"
    # One row's plan: its opening (the close of the row before, the
    # separator and the first head), then a slot for each column's text,
    # each slot after the first behind its key's head.
    plan = [f"{close}}},{close}{lead}", ""]
    for head in rest:
        plan += sep + head, ""
    out = plan * len(rows) + [close + "}"]
    out[0] = lead
    for i, col in enumerate(zip(*got) if rest else [got]):
        out[2 * i + 1::len(plan)] = _column(col, depth + 1)
    return "".join(out)


def _column(col, depth: int) -> list[str]:
    """The text of each value in ``col``, written at ``depth``.  The writer
    is chosen by the type of the first row's value, but every value is
    tested against it and written by ``_encode`` if it fails, so a value's
    text never depends on another row's."""
    guess = col[0]
    t = type(guess)
    if t is str:
        return [_escape(x) if type(x) is str else _encode(x, depth) for x in col]
    if t is int:
        return [int.__repr__(x) if type(x) is int else _encode(x, depth) for x in col]
    if t is bool:
        return ["true" if x is True else "false" if x is False else _encode(x, depth)
                for x in col]
    if t is not list:
        return [_encode(x, depth) for x in col]
    close, item, sep = _INDENTS[depth]
    kinds, fmt = (_STRS, _escape) if guess and type(guess[0]) is str else (_INTS, int.__repr__)
    # Each list object once (module docstring); every value stays alive in
    # col, so no two of them share an id.
    out, texts = [], {}
    last, text = texts, ""  # texts is no value of col
    for x in col:
        if x is not last:
            last = x
            text = texts.get(id(x))
            if text is None:
                text = texts[id(x)] = (
                    f"[{item}{sep.join(map(fmt, x))}{close}]"
                    if type(x) is list and x and kinds.issuperset(map(type, x))
                    else _encode(x, depth))
        out.append(text)
    return out
