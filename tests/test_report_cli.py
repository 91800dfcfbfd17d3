import hashlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import OrderedDict, namedtuple
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cicsim import cli, oracle, scenarios, simulator
from cicsim.cli import main
from cicsim.diagram import ascii_diagram, svg_diagram
from cicsim.protocols import PROTOCOL_NAMES
from cicsim.report import run_report, scenario_hash, to_json
from cicsim.scenarios import (
    FIXTURE_NAMES,
    FuzzParams,
    builtin,
    random_scenario,
    serialize_scenario,
)
from cicsim.simulator import Scenario, recv, run_scenario, send


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


Point = namedtuple("Point", "x y")


class Side(IntEnum):
    LEFT = 1
    RIGHT = 2


def _stdlib_json(v):
    return json.dumps(v, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# Quotes, backslashes, control characters, a lone surrogate and non-ASCII
# text, mixed with arbitrary characters.
_json_text = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\xe9\u2028\ud800\U0001f600'),
))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
    _json_text,
)
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_json_text, children, max_size=5),
        st.lists(st.integers(min_value=-(10**20), max_value=10**20), max_size=5),
        st.lists(_json_text, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans(), _json_text), max_size=5),
    ),
    max_leaves=40,
)


@given(_json_trees)
@example({
    "": [], "e": {}, "t": (1, (2, "x")), "pairs": [[1, 2], [3, -4]],
    "names": ["m1", "m\u00e9"], "mixed": [1, True, "a", None, 2.5, -0.0],
    "big": [10**30, -(10**30)], "floats": [float("nan"), float("-inf")],
    "subclasses": [OrderedDict(b=1, a=[]), Point(3, "p")],
})
@example({
    "bool_int": [True, 1], "bools": [True], "empty": [], "ints": [1, 2],
    "strs": ["x"], "tuple": (1, 2), "flag": True,
})
@example({"a": [1, 2], "b": {"c": [1, 2]}, "d": [[1, 2]]})  # one pair, three depths
@example({"int_bool": [1, True], "bool_int": [True, 1]})
@example({"enum": [Side.LEFT, Side.RIGHT], "mixed": [Side.LEFT, 2]})
@example({"huge": [2**64 + 1, -(2**70)], "negative": [-1, -2]})
@settings(max_examples=400, deadline=None)
def test_to_json_matches_the_stdlib_encoder(tree):
    assert to_json(tree) == _stdlib_json(tree)


# Lists of same-keyed dicts take the table writer.  Each key's column is
# mostly of one kind, so the writer chosen by the first row's value is
# mostly right, but any value may be an arbitrary tree instead.
_table_keys = ["a", "b", "%s", "{x}", "m\u00e9", ""]
_column_values = [
    _json_text,
    st.integers(),
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(_json_text, min_size=1, max_size=4),
    _json_trees,
]


@st.composite
def _same_keyed_rows(draw):
    keys = draw(st.lists(st.sampled_from(_table_keys), min_size=1, unique=True))
    columns = {k: draw(st.sampled_from(_column_values)) for k in keys}
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        order = draw(st.permutations(keys))  # insertion order varies by row
        rows.append({
            k: draw(columns[k] if draw(st.integers(0, 4)) else _json_trees) for k in order
        })
    # Tables at several depths: alone, as a dict value, inside a list.
    return draw(st.sampled_from([
        rows, {"rows": rows, "n": len(rows)}, [rows, {"t": rows}],
    ]))


@given(_same_keyed_rows())
@example([{"a": [1, 2]}, {"a": [True, 1]}])  # a later row's value is not the guess
@example([{"m": ["x"]}, {"m": ["x", 1]}])
@example([{"k": 1}, {"k": True}, {"k": None}, {"k": "s"}, {"k": 2.5}])
@example([{"b": 1, "a": [1, 2]}, {"a": [3, 4], "b": 2}])  # keys in another order
@example([{"a": 1, "b": 2}, OrderedDict(b=3, a=4)])  # a row that is a dict subclass
@example([{}, {}])
@example([{"%s": 1, "%": [1, 2], "%%": "%d"}, {"%": [1, 2], "%%": "%s", "%s": 2}])
@example({"d": [{"p": [1, 2]}], "e": [[{"p": [1, 2]}]]})  # one pair in two tables
@settings(max_examples=200, deadline=None)
def test_to_json_writes_same_keyed_rows_as_the_stdlib(tree):
    assert to_json(tree) == _stdlib_json(tree)


def test_to_json_matches_the_stdlib_encoder_on_unprotected_run_reports():
    # The report-none benchmark's shape: 100 events, n=6, no protocol, so
    # the same [process, ordinal] pairs recur across many Z-cycle entries.
    for seed in range(20):
        rates = tuple(0.02 + 0.04 * ((seed + p) % 7) for p in range(6))
        scen = random_scenario(FuzzParams(n=6, events=100, p_ckpt=rates, seed=seed))
        run = run_scenario(scen, "none")
        rep = run_report(run, oracle.oracle_report(run.trace), serialize_scenario(scen))
        assert to_json(rep) == _stdlib_json(rep), f"seed {seed}"


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": [{2: 0}]}, [{2: 0}, {2: 1}]],
                         ids=["top", "nested", "table"])
def test_to_json_rejects_int_keys(tree):
    with pytest.raises(TypeError):
        to_json(tree)


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


def test_diagram_bytes_are_pinned():
    # Every built-in under every protocol, then 60 seeded scenarios (many
    # with sends still in flight at the end) under three protocols: a
    # refactor that keeps behaviour keeps both renderings' bytes.
    runs = [run_scenario(builtin(name)[0], protocol)
            for name in FIXTURE_NAMES for protocol in PROTOCOL_NAMES]
    for s in range(60):
        scen = random_scenario(FuzzParams(n=3 + s % 4, events=20 + s % 60, seed=s + 7000))
        runs += [run_scenario(scen, protocol) for protocol in ("none", "fi", "lazy-fine")]
    digest = hashlib.sha256()
    for run in runs:
        digest.update(ascii_diagram(run).encode())
        digest.update(svg_diagram(run).encode())
    assert digest.hexdigest() == (
        "d8b5e128a75679c7d7c3bab1019d59edffce74b4f1dfd5aa1e20494f9c3763db"
    )


def test_svg_escapes_message_names():
    scen = Scenario(2, (send(1, 2, "a&b<c>"), recv(2, "a&b<c>")))
    doc = svg_diagram(run_scenario(scen, "none"))
    assert "a&amp;b&lt;c&gt;" in doc
    texts = [el.text for el in ET.fromstring(doc).iter() if el.tag.endswith("text")]
    assert "a&b<c>" in texts


# -- CLI ---------------------------------------------------------------------


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils pulls these in, which doubled every command's
    # start-up time; the diagram's escape is local instead.
    src = str(Path(cli.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cicsim.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'email') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("module", ["cicsim", "cicsim.cli"])
def test_import_loads_no_introspection_modules(module):
    # dataclasses imports inspect, which imports ast, dis and tokenize:
    # about two thirds of `import cicsim`.  The value types are named
    # tuples instead.
    src = str(Path(cli.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


def test_cli_run_says_when_witness_lists_are_cut(tmp_path, capsys):
    # Unprotected, dense enough that 8 checkpoints lie on more Z-cycles
    # than the witness cap; the text output must say the lists were cut.
    path = tmp_path / "dense.scn"
    path.write_text(serialize_scenario(
        random_scenario(FuzzParams(n=6, events=100, p_ckpt=0.15, seed=3))
    ))
    assert main(["run", str(path), "none"]) == 0
    out = capsys.readouterr().out
    cut = [line for line in out.splitlines() if "witnesses cut" in line]
    assert cut == [
        "  witnesses cut: 8 checkpoint(s) lie on more than 32 Z-cycles; "
        "the first 32 of each are listed"
    ]
    assert main(["run", str(path), "none", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["stats"]["witnesses_truncated"] == 8
    # No built-in truncates, so their text has no such line.
    assert main(["run", "ccp", "none"]) == 0
    assert "witnesses cut" not in capsys.readouterr().out


def test_cli_scenario_file_reports_the_canonical_hash(tmp_path, capsys):
    # The report digests the canonical scenario text, so a file holding a
    # built-in's text, comments and blank lines included, reports the
    # built-in's hash.
    for name in FIXTURE_NAMES:
        path = tmp_path / f"{name}.scn"
        path.write_text(f"# {name}\n\n{scenarios._fixture(name).text}\n# end\n")
        hashes = []
        for ref in (name, str(path)):
            out = tmp_path / "rep.json"
            assert main(["run", ref, "none", "--json", "--out", str(out)]) == 0
            hashes.append(json.loads(out.read_text())["scenario"]["hash"])
        assert hashes[0] == hashes[1] == scenario_hash(serialize_scenario(builtin(name)[0])), name
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


def test_cli_amplify_json_without_a_violation(tmp_path, capsys):
    assert main(["amplify", "ccp", "fi", "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "amplified": null\n}\n'
    out = tmp_path / "r.json"
    assert main(["amplify", "ccp", "fi", "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"amplified": None}


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


def test_cli_fuzz_zero_runs_names_no_seed_range(capsys):
    assert main(["fuzz", "--runs", "0", "--protocols", "fi"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fuzz: 0 scenarios"


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


@pytest.mark.parametrize("argv", [
    ["run", "ccp", "none", "--json"],
    ["fuzz", "--runs", "2", "--json"],
    ["amplify", "fine-proposal", "fine", "--json"],
    ["diagram", "ccp", "none"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_output_is_usage_error(argv, where, tmp_path, capsys, monkeypatch):
    # The target is checked before the work: no scenario is generated or run.
    calls = []

    def counting(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "random_scenario", counting(cli.random_scenario))
    monkeypatch.setattr(cli, "run_scenario", counting(cli.run_scenario))
    monkeypatch.setattr(simulator, "run_scenario", counting(simulator.run_scenario))
    out = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cicsim: cannot write")
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["run", "ccp", "fi"],
    ["fuzz", "--runs", "2"],
    ["amplify", "theorem1-a", "none"],
], ids=lambda argv: argv[0])
def test_cli_out_without_json_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "f"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cicsim: ") and "--json" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "no-such-scenario", "fi", "--json"],
    ["fuzz", "--runs", "2", "--json", "--procs", "1"],
    ["diagram", "no-such-scenario", "fi"],
], ids=lambda argv: argv[0])
def test_cli_out_is_untouched_when_the_work_fails(argv, tmp_path, capsys):
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("old")
    assert main([*argv, "--out", str(kept)]) == 2
    assert main([*argv, "--out", str(fresh)]) == 2
    capsys.readouterr()
    assert kept.read_text() == "old"
    assert not fresh.exists()


def test_cli_fuzz_fine_finds_failures(capsys):
    code = main(["fuzz", "--protocols", "fine", "--runs", "300", "--check"])
    out = capsys.readouterr().out
    assert code == 1
    assert "seed " in out  # reproducer seeds are printed


@pytest.mark.parametrize("argv, digest", [
    (["fuzz", "--json"],
     "1f1e05e0e8417462ff5ede3fa1463433a294b65b5fd1b29be3053a8a2410aa5c"),
    (["fuzz", "--runs", "200", "--protocols", "none,fine,lazy-fine", "--json"],
     "cd11f515b5bb4cf7f3d4d0ec3165bb1e169f14073ffb442d36b93570ca43f2b8"),
    (["amplify", "fine-proposal", "fine", "--json"],
     "bdd686a9fcb80d3821213109700b89c20adb2ec2bf7733792676787dd0b96bc7"),
], ids=["fuzz-default", "fuzz-unsafe-200", "amplify-fine-proposal"])
def test_cli_json_bytes_are_pinned(argv, digest, capsys):
    # The other two --json outputs share to_json with run_report: a
    # refactor that keeps behaviour keeps these bytes too.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_fuzz_findings_reproduce_from_their_params(capsys):
    assert main(["fuzz", "--runs", "200", "--protocols", "none,fine,lazy-fine", "--json"]) == 0
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert len(findings) > 100
    for f in findings:
        params = FuzzParams(**{**f["params"], "p_ckpt": tuple(f["params"]["p_ckpt"])})
        assert params.seed == f["seed"]
        scen = random_scenario(params)
        assert scenario_hash(serialize_scenario(scen)) == f["hash"], f["seed"]


def test_cli_fuzz_json(tmp_path, capsys):
    out = tmp_path / "fuzz.json"
    assert main([
        "fuzz", "--protocols", "fi", "--runs", "5", "--json", "--out", str(out),
    ]) == 0
    body = json.loads(out.read_text())
    assert body["runs"] == 5
    assert "fi" in body["forced_totals"]
    capsys.readouterr()
