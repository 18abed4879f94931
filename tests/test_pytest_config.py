"""The pytest settings in ``pyproject.toml`` report a failing test as a
failure. Every warning is an error there, and a warning raised while a
plugin writes its report must not turn one failing test into an
INTERNALERROR that ends the run with nothing else reported. Every test
module imports, so a run with ``--continue-on-collection-errors`` cannot
drop one (say, one that still imports a deleted name) and report only
passes. Every xfail names the exception it expects, so a strict xfail
that fails for another reason (a renamed attribute, say) is a failure.
"""

import ast
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TEST_MODULES = sorted(path.stem for path in (ROOT / "tests").glob("test_*.py"))

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


def test_test_modules_found():
    assert {"test_bounds", "test_golden", "test_pytest_config"} <= set(TEST_MODULES)


@pytest.mark.parametrize("name", TEST_MODULES)
def test_test_module_imports(name):
    # a module that failed to collect is not in sys.modules, so this
    # imports it again and fails as it did
    importlib.import_module(name)


def xfails_without_raises(source: str) -> list:
    """Line numbers of the ``pytest.mark.xfail`` marks in ``source``, called
    or bare, that give no ``raises=``."""
    nodes = list(ast.walk(ast.parse(source)))
    named = {
        id(node.func) for node in nodes
        if isinstance(node, ast.Call) and any(keyword.arg == "raises" for keyword in node.keywords)
    }
    return sorted(
        node.lineno for node in nodes
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "pytest.mark.xfail" and id(node) not in named
    )


def test_xfail_check_sees_a_mark_without_raises():
    source = """
@pytest.mark.xfail(strict=True, raises=AssertionError)
def test_a(): ...
@pytest.mark.xfail(strict=True, reason="x")
def test_b(): ...
@pytest.mark.xfail
def test_c(): ...
CASES = [pytest.param(1, marks=pytest.mark.xfail(strict=True))]
"""
    assert xfails_without_raises(source) == [4, 6, 8]


@pytest.mark.parametrize("name", TEST_MODULES)
def test_every_xfail_names_the_exception_it_expects(name):
    assert xfails_without_raises((ROOT / "tests" / f"{name}.py").read_text()) == []
