import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from cicsim import oracle
from cicsim.cli import main
from cicsim.diagram import ascii_diagram, svg_diagram
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.report import run_report, scenario_hash, to_json
from cicsim.scenarios import FIXTURE_NAMES, builtin, serialize_scenario
from cicsim.simulator import Scenario, run_scenario


def report_for(name, protocol):
    scen, _ = builtin(name)
    run = run_scenario(scen, protocol)
    return run_report(run, oracle.oracle_report(run.trace), serialize_scenario(scen),
                      scenario_id=name)


# -- report ------------------------------------------------------------------


def test_json_roundtrip_is_byte_identical():
    rep = report_for("ccp", "none")
    text = to_json(rep)
    assert to_json(json.loads(text)) == text


def test_builtin_report_bytes_are_pinned():
    # Every built-in under every protocol, in registry order: a refactor
    # that keeps behaviour keeps these bytes.
    digest = hashlib.sha256()
    for name in FIXTURE_NAMES:
        for protocol in PROTOCOL_NAMES:
            digest.update(to_json(report_for(name, protocol)).encode())
    assert digest.hexdigest() == (
        "b0c9f7e33c89a6a663b523c99276ddc59e6b7eb11424065e127584613f2dde1b"
    )


def test_report_contents():
    rep = report_for("ccp", "none")
    assert rep["summary"] == {
        "forced": 0,
        "total_checkpoints": 8,
        "useless": 1,
        "violations": 2,
        "z_consistent": False,
    }
    assert rep["oracle"]["useless"] == [[3, 3]]
    assert rep["scenario"]["hash"] == scenario_hash(
        serialize_scenario(builtin("ccp")[0])
    )
    assert {pb["message"] for pb in rep["piggybacks"]} == {
        "m1", "m2", "m3", "m4", "m5", "m6"
    }


def test_report_forced_events():
    rep = report_for("ccp", "fi")
    assert len(rep["forced_events"]) == 1
    ev = rep["forced_events"][0]
    assert ev["message"] == "m6" and ev["process"] == 2
    assert rep["summary"]["z_consistent"] is True


# -- diagrams ----------------------------------------------------------------


def test_ascii_diagram_ccp():
    run = run_scenario(builtin("ccp")[0], "none")
    art = ascii_diagram(run)
    lines = art.strip("\n").split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("P1") and lines[2].startswith("P3")
    assert "t=3" in lines[2]  # the C_3^3 timestamp annotation
    assert art == ascii_diagram(run)  # deterministic


def test_ascii_diagram_empty_scenario():
    run = run_scenario(Scenario(2, ()), "none")
    art = ascii_diagram(run)
    assert art.count("[t=1]") == 2


def test_ascii_marks_forced_checkpoints():
    run = run_scenario(builtin("ccp")[0], "fi")
    assert "<t=3>" in ascii_diagram(run)


def test_svg_structure_counts_forced_diamonds():
    run = run_scenario(builtin("fine-counterexample")[0], "fine")
    doc = svg_diagram(run)
    root = ET.fromstring(doc)
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(polygons) == 0  # no forced checkpoints under fine
    assert len(rects) == run.checkpoint_total

    run_fi = run_scenario(builtin("ccp")[0], "fi")
    root = ET.fromstring(svg_diagram(run_fi))
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    assert len(polygons) == run_fi.forced_count == 1


# -- CLI ---------------------------------------------------------------------


def test_cli_run_check_exit_codes(capsys):
    assert main(["run", "ccp", "none", "--check"]) == 1
    assert main(["run", "ccp", "fi", "--check"]) == 0
    assert main(["run", "fine-counterexample", "fine", "--check"]) == 1
    capsys.readouterr()


def test_cli_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "missing-fixture", "fi"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err


def test_cli_unknown_protocol_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "ccp", "quantum"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["run", "ccp", "none", "--json", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["protocol"] == "none"
    assert rep["oracle"]["useless"] == [[3, 3]]
    capsys.readouterr()


def test_cli_scenario_file_input(tmp_path, capsys):
    path = tmp_path / "two.scn"
    path.write_text("procs 2\nsend 1 2 m1\nrecv 2 m1\n")
    assert main(["run", str(path), "fi", "--check"]) == 0
    capsys.readouterr()


def test_cli_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("procs 2\nrecv 2 m1\n")
    assert main(["run", str(path), "fi"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "procs \u00b2\n",
    "procs 2\nsend 1 \u0662 m1\n",
], ids=["superscript-two", "arabic-indic-two"])
def test_cli_non_ascii_digits_are_usage_error(tmp_path, capsys, text):
    path = tmp_path / "digits.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "none"]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_cli_directory_as_scenario_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path), "none"]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_cli_non_utf8_scenario_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes("procs 2\n# caf\xe9\n".encode("latin-1"))
    assert main(["run", str(path), "none"]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("ccp", "fine-counterexample", "theorem1-b"):
        assert name in out


def test_cli_compare(capsys):
    assert main(["compare", "ccp", "--protocols", "none,pi,fi"]) == 0
    out = capsys.readouterr().out
    assert "none" in out and "fi" in out


@pytest.mark.parametrize("protocols", ["fi,fi", "none,quantum"])
def test_cli_compare_bad_protocol_list_is_usage_error(protocols, capsys):
    assert main(["compare", "ccp", "--protocols", protocols]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cicsim: ") and captured.out == ""


def test_cli_amplify(capsys):
    assert main(["amplify", "fine-proposal", "fine", "--check"]) == 1
    out = capsys.readouterr().out
    assert "m4" in out
    assert main(["amplify", "fine-proposal", "fi"]) == 0
    out = capsys.readouterr().out
    assert "nothing to amplify" in out


def test_cli_diagram(tmp_path, capsys):
    svg = tmp_path / "d.svg"
    assert main(["diagram", "ccp", "fi", "--format", "svg", "--out", str(svg)]) == 0
    ET.fromstring(svg.read_text())
    assert main(["diagram", "ccp", "none"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("P1")


def test_cli_fuzz_safe_protocols(capsys):
    code = main([
        "fuzz", "--protocols", "fi,lazy-fi", "--runs", "40", "--procs", "3-4",
        "--events", "30", "--seed", "0", "--check",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "findings: none" in out


def test_cli_fuzz_none_reports_findings(capsys):
    code = main([
        "fuzz", "--protocols", "none", "--runs", "60", "--procs", "3",
        "--events", "40", "--check",
    ])
    out = capsys.readouterr().out
    assert code == 1  # uncontrolled checkpointing admits findings
    assert "seed" in out


def test_cli_fuzz_asymmetric_rates_flag(capsys):
    code = main([
        "fuzz", "--protocols", "fi", "--runs", "3", "--procs", "3",
        "--p-ckpt", "0.5", "--p-ckpt", "0.05", "--p-ckpt", "0.05", "--check",
    ])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--procs", "1"],
    ["--procs", "0-2"],
    ["--procs", "5-3"],
    ["--runs", "-3"],
    ["--p-send", "1.5"],
    ["--p-ckpt", "2.0"],
    ["--events", "0"],
    ["--events", "-5"],
    ["--max-in-flight", "0"],
    ["--runs", "0", "--events", "-5"],
    ["--runs", "0", "--max-in-flight", "0"],
    ["--runs", "0", "--p-send", "7"],
    ["--runs", "0", "--p-ckpt", "2.0"],
    ["--procs", "4", "--p-ckpt", "0.1", "--p-ckpt", "0.2", "--p-ckpt", "0.3"],
    *(["--procs", "3-5", "--p-ckpt", "0.1", "--p-ckpt", "0.2", "--p-ckpt", "0.3",
       "--runs", "1", "--seed", seed] for seed in ("0", "1", "2", "5")),
    ["--protocols", "fi,fi"],
    ["--protocols", "fi,fi", "--runs", "0"],
    ["--protocols", "fi,nope", "--runs", "0"],
    ["--procs", "257"],
    ["--procs", "2-300", "--runs", "0"],
    *(["--procs", "2-300", "--runs", "1", "--seed", seed] for seed in ("0", "1", "2")),
], ids=lambda flags: " ".join(flags))
def test_cli_fuzz_bad_flag_is_usage_error(flags, capsys):
    assert main(["fuzz", "--runs", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cicsim: ")
    assert "internal error" not in captured.err
    assert captured.out == ""


def test_cli_unwritable_output_is_internal_error(capsys):
    code = main(["diagram", "ccp", "none", "--out", "/nonexistent-dir/x.txt"])
    assert code == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_fuzz_fine_finds_failures(capsys):
    code = main(["fuzz", "--protocols", "fine", "--runs", "300", "--check"])
    out = capsys.readouterr().out
    assert code == 1
    assert "seed " in out  # reproducer seeds are printed


def test_cli_fuzz_json(tmp_path, capsys):
    out = tmp_path / "fuzz.json"
    assert main([
        "fuzz", "--protocols", "fi", "--runs", "5", "--json", "--out", str(out),
    ]) == 0
    body = json.loads(out.read_text())
    assert body["runs"] == 5
    assert "fi" in body["forced_totals"]
    capsys.readouterr()
