"""Repository hygiene: build and test outputs stay out of version control,
the protocol machines import nothing from the package, the package's
tuple types keep no instance dict, and the README's library example runs
as documented."""

import ast
import importlib
import pkgutil
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import cicsim

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    probe = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if probe.returncode != 0 or Path(probe.stdout.strip()) != ROOT:
        pytest.skip("not running from a git checkout of this repository")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert listed.stdout == "", f"tracked files matching .gitignore:\n{listed.stdout}"


def test_protocols_module_imports_nothing_from_the_package():
    # The machines decide timestamps and forcing only; the trace model and
    # the run are built on them, never the other way round.
    path = ROOT / "src" / "cicsim" / "protocols.py"
    lines = path.read_text().splitlines()
    bad = [
        f"line {node.lineno}: {lines[node.lineno - 1].strip()}"
        for node in ast.walk(ast.parse("\n".join(lines)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cicsim")
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "cicsim" for alias in node.names)
    ]
    assert bad == []


def test_package_tuple_types_keep_no_instance_dict():
    # Value and result types are named tuples with ``__slots__ = ()``: a
    # run builds many of them, and a cache on one would hide in its dict.
    with_dict = []
    for info in pkgutil.iter_modules(cicsim.__path__):
        module = importlib.import_module(f"cicsim.{info.name}")
        with_dict += [
            f"{module.__name__}.{name}" for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and obj.__module__ == module.__name__ and obj.__dictoffset__ != 0
        ]
    assert with_dict == []


def test_readme_names_the_latest_benchmark_record():
    # Each speed change commits a BENCH_N.json and points the README's
    # Benchmark section at it; the highest N is the latest record.
    text = (ROOT / "README.md").read_text()
    named = re.findall(r"The\s+latest\s+recorded\s+run\s+is\s+`(BENCH_\d+\.json)`", text)
    latest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert named == [latest.name]


def test_readme_library_example_prints_what_its_comments_say(capsys):
    # The first python block under "## Library use" runs as written.  Its
    # stated outputs are the trailing comment of each print line and each
    # comment on a line of its own, in order.
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library use\n"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    stated = []
    for line in code.splitlines():
        body, _, comment = line.partition("# ")
        if body.strip() == "" or body.lstrip().startswith("print("):
            stated.append(comment)
    stated = [s for s in stated if s]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == stated
    assert stated[:2] == ["['C_3^3']",
                          "C_3^3 [('m6', 'm3'), ('m6', 'm5', 'm4', 'm3')] False"]
