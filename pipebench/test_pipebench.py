"""Self-test of the pipeline benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q pipebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from cicsim.report import to_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return {
        "campaign": lambda: workloads.Campaign(seeds=6),
        "long-safe": lambda: workloads.LongSafe(scenarios=2, events=80),
        "report-none": lambda: workloads.ReportNone(traces=4, events=60),
    }[name]()


def measure(workload, trace: bool):
    return run.measure(workload, 3, 1, trace, setup_reps=1)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace):
    result, _ = measure(tiny(name), trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_counters_repeat_exactly(name):
    _, first = measure(tiny(name), True)
    _, second = measure(tiny(name), True)
    assert first["counters"] == second["counters"]
    assert first["report_sha256"] == second["report_sha256"]


class DroppedMessage(workloads.ReportNone):
    """Drops the first message of the first witness in each report.  That
    always breaks a Z-cycle on C_p^x: the first message is sent by P_p to
    another process (no self-sends), so the second one is not sent by P_p."""

    def op(self, item, call):
        run_, orep, text = super().op(item, call)
        rep = json.loads(text)
        cycles = rep["oracle"]["z_cycles"]
        if cycles:
            cycles[0]["messages"] = cycles[0]["messages"][1:]
        return run_, orep, to_json(rep)


def test_corrupted_witness_is_a_failed_op():
    clean, _ = measure(tiny("report-none"), False)
    assert clean["failed"] == 0
    with_cycles = sum(bool(orep.z_cycles) for _, orep, _ in
                      (tiny("report-none").op(item, run.direct)
                       for item in tiny("report-none").build(3)))
    assert with_cycles >= 1
    result, record = measure(DroppedMessage(traces=4, events=60), False)
    assert not result["correct"]
    assert result["failed"] == with_cycles
    assert "is not sent by P" in json.dumps(record["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
