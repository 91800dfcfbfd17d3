"""Repository hygiene: build and test outputs stay out of version control,
and the README's library example runs as documented."""

import shutil
import subprocess
from pathlib import Path

import pytest

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
