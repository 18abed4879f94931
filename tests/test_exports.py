"""Every public name each sdpfeas module lists in ``__all__`` exists, so a
deleted function cannot linger as a stale export; and no module imports
numpy at import time, so the commands that never use it do not pay for it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sdpfeas

MODULES = sorted(info.name for info in pkgutil.iter_modules(sdpfeas.__path__))


def test_modules_found():
    assert {"bounds", "cli", "oracle", "outcome", "report"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sdpfeas.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from sdpfeas.{name} import *", namespace)
    module = importlib.import_module(f"sdpfeas.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def numpy_imports_at_import_time(nodes):
    """Line numbers of the ``import numpy`` and ``from numpy ...`` statements
    that run when the module is imported: outside function bodies and outside
    the body of ``if TYPE_CHECKING:``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from numpy_imports_at_import_time(node.orelse)
        elif isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "numpy":
            yield node.lineno
        else:
            yield from numpy_imports_at_import_time(ast.iter_child_nodes(node))


def test_numpy_guard_sees_every_import_time_statement():
    source = """
import numpy as np
if TYPE_CHECKING:
    import numpy
else:
    from numpy.random import Philox
def f():
    import numpy
class C:
    try:
        import os, numpy.linalg
    except ImportError:
        pass
"""
    assert list(numpy_imports_at_import_time(ast.parse(source).body)) == [2, 6, 11]


@pytest.mark.parametrize("path", sorted(Path(sdpfeas.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_no_numpy_import_at_import_time(path):
    lines = list(numpy_imports_at_import_time(ast.parse(path.read_text(), str(path)).body))
    assert lines == [], f"{path.name} imports numpy at import time on line(s) {lines}"
