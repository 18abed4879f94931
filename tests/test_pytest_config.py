"""The pytest settings in ``pyproject.toml`` report a failing test as a
failure. Every warning is an error there, and a warning raised while a
plugin writes its report must not turn one failing test into an
INTERNALERROR that ends the run with nothing else reported."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a property test that fails on its first example; hypothesis's report of
#: it imports libcst, which warns on import
FAILING_GIVEN = '''\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_given_test_is_one_failure(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fails.py").write_text(FAILING_GIVEN)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED tests/test_fails.py::test_fails" in result.stdout
    assert result.stdout.splitlines()[-1].startswith("1 failed in "), output
