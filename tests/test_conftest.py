"""The test harness: a failing property test must fail like any other
test, not abort the session."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_never_holds(x):
    assert x != x
'''


def test_failing_given_test_exits_1_not_3(tmp_path):
    """Under the project's ``filterwarnings = error``, a failing @given
    test is reported as a failure (exit 1), not an internal error (3)."""
    (tmp_path / "test_prop.py").write_text(FAILING)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_prop.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout, proc.stdout
