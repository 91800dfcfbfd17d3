"""Simulator and verification lab for index-based communication-induced
checkpointing protocols.

The package replays scripted or randomized distributed computations
through the classic index-based protocol family (partly informed, fully
informed in two encodings, lazy, and the weakened fine variants) and
checks every run against a zigzag-path oracle that ignores the protocols'
bookkeeping: checkpoint reachability computed in one Tarjan pass over the
condensation of the interval graph, sinks first, from which come Z-cycles,
useless checkpoints, and zigzag-consistent timestamping.
"""

from .computation import (
    CheckpointRecord,
    Event,
    Interval,
    Trace,
    TraceError,
    causally_precedes,
    interval_of,
    is_consistent_global_checkpoint,
)
from .oracle import (
    BudgetExceededError,
    OracleReport,
    check_z_consistency,
    consistent_membership_bruteforce,
    find_z_cycles,
    oracle_report,
    useless_checkpoints,
    zigzag_exists,
)
from .protocols import (
    PROTOCOL_NAMES,
    ForcedDecision,
    Piggyback,
    ProtocolError,
    eval_c_fi1_clockv,
    eval_c_fi1_greater,
    eval_c_fi2,
    eval_c_fine1,
    eval_c_fine1_ri,
    eval_c_lazyfi1,
    eval_c_lazyfine1,
    eval_c_lazyfine1_ri,
    eval_c_pi,
    make_protocol,
)
from .scenarios import (
    FIXTURE_NAMES,
    FixtureClaim,
    FuzzParams,
    ScenarioParseError,
    UnknownScenarioError,
    builtin,
    parse_scenario,
    random_scenario,
    serialize_scenario,
    verify_fixture,
)
from .simulator import (
    AnnotatedTrace,
    Scenario,
    ScenarioError,
    Step,
    amplify_violation,
    compare_runs,
    run_scenario,
)

__version__ = "0.1.0"
