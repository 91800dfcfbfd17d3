"""A reference model of what the protocol machines decide.

Written from the rules as the source paper restates them: HMNR, the fully
informed protocol (Hélary, Mostefaoui, Netzer and Raynal, *Distributed
Computing* 13(1), 2000) in its integer clock-vector form and in its
boolean ``greater`` form, Lazy-FI, which increments the logical clock only
when a message with an equal or greater clock has arrived in the
interval, and FINE and Lazy-FINE, which add a ``taken`` test to the first
condition of FI and Lazy-FI.  It also covers the bare clock rules of
``none`` and the partly informed ``pi``.

Nothing here comes from ``cicsim.protocols`` or ``cicsim.simulator``: a
process's state is a dict, every boolean vector a 1-based list of bools
and every integer vector a 1-based list of ints (index 0 is unused), and
each protocol family is a table of plain functions, one per event kind:

* ``init(n, i)``: the state before the initial checkpoint;
* ``checkpoint(s)``: the checkpoint procedure, basic, forced or initial;
* ``send(s, k)``: the send bookkeeping, and ``payload(s)`` the control
  information piggybacked on the message, as a dict of copies;
* ``c2(s, m)``: the second checkpoint-inducing condition;
* ``deliver(s, m)``: the update rules applied before delivery.

A protocol is a family and its first condition.  :func:`run_model` has
its own loop over a scenario's steps.
"""

from math import inf


def _procs(s):
    return range(1, s["n"] + 1)


def _copy(s, *names):
    return {name: list(s[name]) for name in names}


# -- none: the clock rules alone ----------------------------------------------


def none_init(n, i):
    return {"n": n, "i": i, "lc": 0}


def none_checkpoint(s):
    s["lc"] += 1


def none_send(s, k):
    pass


def none_payload(s):
    return {"t": s["lc"]}


def never(s, m):
    return False


def none_deliver(s, m):
    s["lc"] = max(s["lc"], m["t"])


# -- pi: partly informed ------------------------------------------------------


def pi_init(n, i):
    return {**none_init(n, i), "sent_to": [False] * (n + 1), "min_to": [inf] * (n + 1)}


def pi_checkpoint(s):
    s["lc"] += 1
    s["sent_to"] = [False] * (s["n"] + 1)
    s["min_to"] = [inf] * (s["n"] + 1)


def pi_send(s, k):
    # min_to[k] is the clock of the first message sent to P_k in the
    # current interval.
    if not s["sent_to"][k]:
        s["sent_to"][k] = True
        s["min_to"][k] = s["lc"]


def c1_pi(s, m):
    return any(s["sent_to"][k] and m["t"] > s["min_to"][k] for k in _procs(s))


# -- what every fully informed protocol shares --------------------------------


def fi_init(n, i):
    """sent_to, ckptv and taken: ckptv[k] is the ordinal of the last
    checkpoint of P_k that P_i knows of; each checkpoint of P_i sets
    taken[k] for every k != i, and a receive merges it with ckptv[k]."""
    return {**none_init(n, i), "sent_to": [False] * (n + 1),
            "ckptv": [0] * (n + 1), "taken": [False] * (n + 1)}


def fi_saved(s):
    """The part of the checkpoint procedure after the clock rule."""
    s["sent_to"] = [False] * (s["n"] + 1)
    for k in _procs(s):
        if k != s["i"]:
            s["taken"][k] = True
    s["ckptv"][s["i"]] += 1


def fi_send(s, k):
    s["sent_to"][k] = True


def c2_fi(s, m):
    i = s["i"]
    return m["ckptv"][i] == s["ckptv"][i] and m["taken"][i]


def fi_merge_ckpt(s, m):
    for k in _procs(s):
        if k == s["i"]:
            continue
        if m["ckptv"][k] > s["ckptv"][k]:
            s["ckptv"][k] = m["ckptv"][k]
            s["taken"][k] = m["taken"][k]
        elif m["ckptv"][k] == s["ckptv"][k]:
            s["taken"][k] = s["taken"][k] or m["taken"][k]


# -- fi-clockv: HMNR with the vector of known clocks --------------------------


def clockv_init(n, i):
    return {**fi_init(n, i), "min_to": [inf] * (n + 1), "clockv": [0] * (n + 1)}


def clockv_checkpoint(s):
    s["lc"] += 1
    s["clockv"][s["i"]] = s["lc"]
    s["min_to"] = [inf] * (s["n"] + 1)
    fi_saved(s)


def clockv_payload(s):
    return {"t": s["lc"], **_copy(s, "clockv", "ckptv", "taken")}


def c1_clockv(s, m):
    return any(s["sent_to"][k] and m["t"] > s["min_to"][k]
               and m["t"] > max(s["clockv"][k], m["clockv"][k]) for k in _procs(s))


def clockv_deliver(s, m):
    s["lc"] = max(s["lc"], m["t"])
    for k in _procs(s):
        s["clockv"][k] = s["lc"] if k == s["i"] else max(s["clockv"][k], m["clockv"][k])
    fi_merge_ckpt(s, m)


# -- fi-greater, fine, fine-ri: HMNR with greater -----------------------------


def greater_init(n, i):
    return {**fi_init(n, i), "greater": [False] * (n + 1)}


def greater_checkpoint(s):
    # greater[k]: lc is above every clock of P_k that P_i knows.
    s["lc"] += 1
    s["greater"] = [k != s["i"] and k > 0 for k in range(s["n"] + 1)]
    fi_saved(s)


def greater_payload(s):
    return {"t": s["lc"], **_copy(s, "greater", "ckptv", "taken")}


def c1_greater(s, m):
    return any(s["sent_to"][k] and m["greater"][k] and m["t"] > s["lc"] for k in _procs(s))


def c1_fine(s, m):
    return any(s["sent_to"][k] and m["greater"][k] and m["t"] > s["lc"] and m["taken"][k]
               for k in _procs(s))


def c1_fine_ri(s, m):
    return c1_greater(s, m) and m["taken"][s["i"]]


def greater_deliver(s, m):
    i = s["i"]
    if m["t"] > s["lc"]:
        s["lc"] = m["t"]
        for k in _procs(s):
            s["greater"][k] = k != i and m["greater"][k]
    elif m["t"] == s["lc"]:
        for k in _procs(s):
            s["greater"][k] = s["greater"][k] and m["greater"][k]
    fi_merge_ckpt(s, m)


# -- lazy-fi, lazy-fine, lazy-fine-ri: lazy clock increments ------------------


def lazy_init(n, i):
    # increment is set so that the initial checkpoint gets timestamp 1.
    return {**fi_init(n, i), "equal_incr": [False] * (n + 1), "increment": True}


def lazy_checkpoint(s):
    # The clock goes up only when a message with an equal or greater clock
    # arrived since the last increment; equal_incr[k] (P_k has P_i's clock
    # and will increment before its next checkpoint) then no longer holds.
    if s["increment"]:
        s["lc"] += 1
        s["equal_incr"] = [False] * (s["n"] + 1)
    s["increment"] = False
    fi_saved(s)


def lazy_payload(s):
    return {"t": s["lc"], **_copy(s, "equal_incr", "ckptv", "taken")}


def c1_lazy(s, m):
    return any(s["sent_to"][k] and not m["equal_incr"][k] and m["t"] > s["lc"]
               for k in _procs(s))


def c1_lazy_fine(s, m):
    return any(s["sent_to"][k] and not m["equal_incr"][k] and m["t"] > s["lc"]
               and m["taken"][k] for k in _procs(s))


def c1_lazy_fine_ri(s, m):
    return c1_lazy(s, m) and m["taken"][s["i"]]


def lazy_deliver(s, m):
    i = s["i"]
    if m["t"] > s["lc"]:
        s["lc"] = m["t"]
        s["increment"] = True
        for k in _procs(s):
            s["equal_incr"][k] = k == i or m["equal_incr"][k]
    elif m["t"] == s["lc"]:
        s["increment"] = True
        for k in _procs(s):
            s["equal_incr"][k] = k == i or s["equal_incr"][k] or m["equal_incr"][k]
    fi_merge_ckpt(s, m)


# -- the protocols --------------------------------------------------------------


def _family(init, checkpoint, send, payload, c2, deliver):
    return {"init": init, "checkpoint": checkpoint, "send": send, "payload": payload,
            "c2": c2, "deliver": deliver}


NONE = _family(none_init, none_checkpoint, none_send, none_payload, never, none_deliver)
PI = _family(pi_init, pi_checkpoint, pi_send, none_payload, never, none_deliver)
CLOCKV = _family(clockv_init, clockv_checkpoint, pi_send, clockv_payload, c2_fi,
                 clockv_deliver)
GREATER = _family(greater_init, greater_checkpoint, fi_send, greater_payload, c2_fi,
                  greater_deliver)
LAZY = _family(lazy_init, lazy_checkpoint, fi_send, lazy_payload, c2_fi, lazy_deliver)

# name -> (family, first condition)
PROTOCOLS = {
    "none": (NONE, never),
    "pi": (PI, c1_pi),
    "fi": (GREATER, c1_greater),
    "fi-greater": (GREATER, c1_greater),
    "fi-clockv": (CLOCKV, c1_clockv),
    "lazy-fi": (LAZY, c1_lazy),
    "fine": (GREATER, c1_fine),
    "fine-ri": (GREATER, c1_fine_ri),
    "lazy-fine": (LAZY, c1_lazy_fine),
    "lazy-fine-ri": (LAZY, c1_lazy_fine_ri),
}


def run_model(scenario, protocol):
    """What the model decides on a scenario's steps, each a (kind,
    process, dest, message) tuple: ``forced`` maps each step a forced
    checkpoint preceded to the set of conditions that fired, ``timestamps``
    maps each checkpoint (p, x) to (the index of the step that made it,
    None for the initial one; its timestamp), and ``payloads`` maps each
    send step to its piggyback, vectors without the index-0 placeholder."""
    family, c1 = PROTOCOLS[protocol]
    n = scenario.n
    states = [None] + [family["init"](n, i) for i in range(1, n + 1)]
    made = [0] * (n + 1)  # checkpoints so far, per process
    timestamps, forced, payloads, in_flight = {}, {}, {}, {}

    def checkpoint(p, step):
        family["checkpoint"](states[p])
        made[p] += 1
        timestamps[(p, made[p])] = (step, states[p]["lc"])

    for p in range(1, n + 1):
        checkpoint(p, None)
    for step, (kind, p, dest, message) in enumerate(scenario.steps):
        s = states[p]
        if kind == "ckpt":
            checkpoint(p, step)
        elif kind == "send":
            family["send"](s, dest)
            m = in_flight[message] = family["payload"](s)
            payloads[step] = {f: v if f == "t" else v[1:] for f, v in m.items()}
        else:
            m = in_flight.pop(message)
            fired = {name for name, cond in (("C1", c1), ("C2", family["c2"])) if cond(s, m)}
            if fired:
                forced[step] = fired
                checkpoint(p, step)
            family["deliver"](s, m)
    return forced, timestamps, payloads
