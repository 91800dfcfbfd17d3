"""Space-time diagrams of annotated traces.

One horizontal line per process, time flowing left to right, slanted
arrows for messages, rectangles for basic and initial checkpoints,
diamonds for forced ones, timestamps attached to every checkpoint.  The
ASCII renderer keeps the same conventions with one fixed-width column per
global event: ``[t=2]`` basic/initial checkpoint, ``<t=2>`` forced
checkpoint, ``m1>`` send, ``>m1`` receive.  Output is deterministic text.
"""

from __future__ import annotations

from .computation import CKPT_FORCED, EV_CKPT, EV_RECV, EV_SEND
from .simulator import AnnotatedTrace


def ascii_diagram(run: AnnotatedTrace) -> str:
    trace = run.trace
    cells: list[list[str]] = [["" for _ in trace.events] for _ in range(trace.n)]
    for pos, ev in enumerate(trace.events):
        row = ev.process - 1
        if ev.kind == EV_CKPT:
            rec = ev.checkpoint
            mark = f"<t={rec.timestamp}>" if rec.kind == CKPT_FORCED else f"[t={rec.timestamp}]"
            cells[row][pos] = mark
        elif ev.kind == EV_SEND:
            cells[row][pos] = f"{ev.message}>"
        elif ev.kind == EV_RECV:
            cells[row][pos] = f">{ev.message}"
    widths = [
        max(4, max((len(cells[r][c]) for r in range(trace.n)), default=0) + 2)
        for c in range(len(trace.events))
    ]
    lines = []
    for r in range(trace.n):
        parts = [f"P{r + 1} "]
        for c, w in enumerate(widths):
            parts.append(cells[r][c].center(w, "-"))
        lines.append("".join(parts).rstrip("-") or f"P{r + 1}")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped for XML character data,
    as ``xml.sax.saxutils.escape`` writes it; that module's import pulls in
    ``urllib.request`` and with it ``http.client``, ``ssl`` and ``email``,
    which doubled the start-up time of every ``cicsim`` command."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_X0, _XSTEP, _Y0, _YSTEP = 70, 46, 50, 80


def svg_diagram(run: AnnotatedTrace) -> str:
    """Static SVG: process lines, message arrows, rect/diamond checkpoint
    marks with their timestamps in parentheses."""
    trace = run.trace
    width = _X0 + _XSTEP * (len(trace.events) + 1)
    height = _Y0 + _YSTEP * trace.n

    def x(pos):
        return _X0 + _XSTEP * pos

    def y(proc):
        return _Y0 + _YSTEP * (proc - 1)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs><marker id='arr' markerWidth='8' markerHeight='8' refX='7' refY='4' "
        "orient='auto'><path d='M0,0 L8,4 L0,8 z'/></marker></defs>",
    ]
    for p in range(1, trace.n + 1):
        out.append(
            f'<line x1="{_X0 - 40}" y1="{y(p)}" x2="{width - 10}" y2="{y(p)}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(f'<text x="{_X0 - 62}" y="{y(p) + 5}" font-size="14">P{p}</text>')
    column = {(ev.kind, ev.message): pos for pos, ev in enumerate(trace.events)}
    for name in sorted(trace.delivered):
        sender, _, receiver, _ = trace.delivered[name]
        x1, y1 = x(column[EV_SEND, name]), y(sender)
        x2, y2 = x(column[EV_RECV, name]), y(receiver)
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" '
            'stroke-width="1" marker-end="url(#arr)"/>'
        )
        out.append(
            f'<text x="{(x1 + x2) / 2:.0f}" y="{(y1 + y2) / 2 - 4:.0f}" '
            f'font-size="11">{_escape(name)}</text>'
        )
    for pos, ev in enumerate(trace.events):
        if ev.kind != EV_CKPT:
            continue
        rec = ev.checkpoint
        cx, cy = x(pos), y(ev.process)
        if rec.kind == CKPT_FORCED:
            out.append(
                f'<polygon points="{cx},{cy - 8} {cx + 8},{cy} {cx},{cy + 8} '
                f'{cx - 8},{cy}" fill="black"/>'
            )
        else:
            out.append(
                f'<rect x="{cx - 6}" y="{cy - 6}" width="12" height="12" fill="black"/>'
            )
        out.append(
            f'<text x="{cx - 8}" y="{cy + 24}" font-size="11">'
            f"({rec.timestamp})</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
