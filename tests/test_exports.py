"""Every public name each sdpfeas module lists in ``__all__`` exists, so a
deleted function cannot linger as a stale export, and so does every name
the package resolves lazily. No module imports numpy at import time, and
the CLI imports no scenario module at import time, so the commands that
never use them do not pay for them; nor do the modules a ``metrics``
process loads import dataclasses, typing, pathlib or inspect. In the
whole package only the oracle's Monte-Carlo draw imports numpy, so no
command but a verify with Monte-Carlo trials ever loads it, and no module
imports typing at import time. The descriptor readers of the outcome and
the scenario leave each value to the object that reads it, and the
functions that run once per sweep row, oracle estimate or verification
record read no enum member through its class. No estimate, outcome or
error keeps state that no code reads, README's "Called from Python"
table names each entry point's parameters as its signature does, and its
forms table has one row per ``FORMS`` key, with that key's tag."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
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


#: the names the package re-exports, each from the module defining it
PACKAGE_EXPORTS = [
    "AssumptionViolationError", "BinomialWindow", "BoundKind", "BoundResult", "ConfusionMatrix",
    "FeasibilityReport", "HazardFamily", "HazardModel", "InvalidInputError", "NumericOverflowError",
    "ParseError", "Regime", "ScenarioConfig", "SdpFeasError", "SdpOutcome", "TailEstimate",
    "TailMethod", "VerificationRecord", "bound_sweep", "chernoff_lower_tail",
    "confusion_from_records", "false_omission_rate", "model_from_descriptor", "outcome_from_descriptor",
    "run_sweep", "sweep_to_csv", "verify_bound",
]


class TestPackageExports:
    """The package resolves its re-exports lazily; its table must not go stale."""

    def test_all_is_the_package_exports(self):
        assert sorted(sdpfeas.__all__) == PACKAGE_EXPORTS

    @pytest.mark.parametrize("name", PACKAGE_EXPORTS)
    def test_name_resolves_to_the_object_its_module_defines(self, name):
        value = sdpfeas.__getattr__(name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("sdpfeas.")
        assert getattr(module, name) is value is getattr(sdpfeas, name)

    def test_readme_states_the_number_of_names(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [stated] = re.findall(r"the package resolves its (\d+)\s+re-exported names lazily", readme)
        assert int(stated) == len(sdpfeas.__all__)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from sdpfeas import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_EXPORTS

    @pytest.mark.parametrize(
        "name",
        [
            "frobnicate", "expected_hazard_x", "expected_hazard", "expected_reliability_bound", "indented_json",
            "OutOfRegime", "binomial_window", "hazard_bound", "reliability_bound", "OutOfRegimeError",
            "hazard_at", "cumulative_hazard", "reliability_at", "reliability_tail_threshold", "DomainError",
        ],
    )
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"module 'sdpfeas' has no attribute '{name}'"):
            getattr(sdpfeas, name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("oracle", "binomial_window"), ("bounds", "SWEEP_COLUMNS"), ("errors", "read_string"),
        ("bounds", "_bound"), ("bounds", "_one"), ("bounds", "_in_regime"), ("errors", "OutOfRegimeError"),
        ("hazards", "hazard_at"), ("hazards", "cumulative_hazard"), ("hazards", "reliability_at"),
        ("hazards", "reliability_tail_threshold"), ("hazards", "check_time"), ("hazards", "_spec"),
        ("hazards", "_evaluate"), ("errors", "DomainError"), ("confusion", "_tally"), ("confusion", "_CHUNK"),
        ("confusion", "_read_header"), ("confusion", "Counter"), ("confusion", "islice"),
        ("report", "_first_fault"), ("report", "_CSV_SPECIAL"), ("report", "_KEYS"), ("report", "build_report"),
        ("report", "_kind_blocks"), ("report", "_count_threshold"),
    ],
)
def test_retired_module_name_is_gone(module, name):
    assert not hasattr(importlib.import_module(f"sdpfeas.{module}"), name)


def test_family_table_holds_only_the_columns_the_engine_reads():
    from sdpfeas.hazards import FamilySpec

    names = {field.name for field in dataclasses.fields(FamilySpec)}
    assert names == {"hazard_tag", "reliability_tag", "params", "z", "H_over_t", "max_time"}


def test_forms_table_holds_only_the_columns_the_engine_reads():
    from sdpfeas.bounds import BoundForm

    assert {field.name for field in dataclasses.fields(BoundForm)} == {"tag", "mean", "count"}


def readme_forms() -> list:
    """((variant, kind, sign mode), tag cell) of each row of README's forms
    table, in order; a sign mode of "-" is None."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| variant | kind | sign mode | tag |") :].split("\n\n")[0]
    rows = []
    for line in table.splitlines()[2:]:
        variant, kind, sign_mode, tag = [cell.strip() for cell in line.strip("|").split(" | ")][:4]
        rows.append(((variant.strip("`"), kind, None if sign_mode == "-" else sign_mode.split("`")[1]), tag))
    return rows


def test_readme_forms_table_has_one_row_per_form_with_its_tag():
    from sdpfeas.bounds import FORMS

    rows = readme_forms()
    assert [key for key, _ in rows] == [(variant, kind.value, sign_mode) for variant, kind, sign_mode in FORMS]
    for (_, tag), form in zip(rows, FORMS.values()):
        assert tag == f"`{form.tag}`" if form.tag else tag.startswith("the family's")


def test_no_write_only_state():
    # an estimate, an outcome and an error keep only what some code reads
    from sdpfeas import AssumptionViolationError, BinomialWindow, ParseError, SdpOutcome

    [estimate] = BinomialWindow(10, 0.3).mc_tails([2.0], trials=100, seed=1)
    assert not hasattr(estimate, "stderr")
    assert "n" not in SdpOutcome.__dataclass_fields__
    with pytest.raises(TypeError):
        SdpOutcome(l=10, p=0.5, n=25)
    assert not hasattr(ParseError("x"), "index")
    error = AssumptionViolationError("x", 5)
    assert not hasattr(error, "assumption") and not hasattr(error, "detail")


def readme_entry_points() -> list:
    """(name, parameter names) of each ``name(a, b, ...)`` in the first
    column of README's "Called from Python" table, but ``ScenarioConfig(...)``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| entry point | rule |") :].split("\n\n")[0]
    entries = []
    for line in table.splitlines()[2:]:
        for name, params in re.findall(r"`(\w+)\(([^)]*)\)`", line.split(" | ")[0]):
            if params != "...":
                entries.append((name, [param.strip() for param in params.split(",")]))
    return entries


README_ENTRY_POINTS = readme_entry_points()


def test_readme_entry_points_found():
    names = {name for name, _ in README_ENTRY_POINTS}
    assert {"SdpOutcome", "TailEstimate", "verify_bound", "sweep_to_csv", "exact_tail", "mc_tails"} <= names


@pytest.mark.parametrize("name, params", README_ENTRY_POINTS, ids=[name for name, _ in README_ENTRY_POINTS])
def test_readme_entry_point_names_its_parameters(name, params):
    # a name the package does not export is a BinomialWindow method
    target = getattr(sdpfeas, name) if name in sdpfeas.__all__ else getattr(sdpfeas.BinomialWindow, name)
    assert params == [param for param in inspect.signature(target).parameters if param != "self"]


def imported_modules(node) -> list:
    """The absolute names of the modules an import statement names, reading
    a relative import as one from inside the sdpfeas package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module if not node.level else ".".join(filter(None, ["sdpfeas", node.module]))
    return [f"{base}.{alias.name}" for alias in node.names] if node.module is None else [base]


def imports_at_import_time(nodes, modules):
    """Line numbers of the import statements that run when the module is
    imported (outside function bodies and outside the body of ``if
    TYPE_CHECKING:``) and name one of ``modules`` or a submodule of one."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from imports_at_import_time(node.orelse, modules)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = imported_modules(node)
            if any(name == module or name.startswith(module + ".") for name in names for module in modules):
                yield node.lineno
        else:
            yield from imports_at_import_time(ast.iter_child_nodes(node), modules)


#: the modules cli.py may import only inside the commands that use them
SCENARIO_MODULES = tuple(f"sdpfeas.{name}" for name in ("report", "bounds", "hazards", "outcome", "oracle"))


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
from .numpy import x
import numpyro
"""
    assert list(imports_at_import_time(ast.parse(source).body, ["numpy"])) == [2, 6, 11]


def test_cli_guard_sees_every_import_time_statement():
    source = """
from .report import run_sweep
from . import oracle, errors
from .confusion import records_from_csv
import sdpfeas.bounds
from sdpfeas.hazards import FAMILIES
from .reporting import x
def cmd():
    from .outcome import SdpOutcome
if TYPE_CHECKING:
    from .report import ScenarioConfig
"""
    assert list(imports_at_import_time(ast.parse(source).body, SCENARIO_MODULES)) == [2, 3, 5, 6]


SOURCES = sorted(Path(sdpfeas.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_numpy_import_at_import_time(path):
    lines = list(imports_at_import_time(ast.parse(path.read_text(), str(path)).body, ["numpy"]))
    assert lines == [], f"{path.name} imports numpy at import time on line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_typing_import_at_import_time(path):
    # annotations are strings, and collections.abc and the builtins spell them
    lines = list(imports_at_import_time(ast.parse(path.read_text(), str(path)).body, ["typing"]))
    assert lines == [], f"{path.name} imports typing at import time on line(s) {lines}"


def test_cli_imports_no_scenario_module_at_import_time():
    path = Path(sdpfeas.__file__).parent / "cli.py"
    lines = list(imports_at_import_time(ast.parse(path.read_text(), str(path)).body, SCENARIO_MODULES))
    assert lines == [], f"cli.py imports a scenario module at import time on line(s) {lines}"


#: the standard-library modules that the modules a metrics process loads
#: import only inside function bodies, if at all
STARTUP_MODULES = ("dataclasses", "typing", "pathlib", "inspect")


@pytest.mark.parametrize("name", ["__init__.py", "cli.py", "confusion.py", "errors.py"])
def test_metrics_modules_import_no_startup_module_at_import_time(name):
    path = Path(sdpfeas.__file__).parent / name
    lines = list(imports_at_import_time(ast.parse(path.read_text(), str(path)).body, STARTUP_MODULES))
    assert lines == [], f"{name} imports {'/'.join(STARTUP_MODULES)} at import time on line(s) {lines}"


def numpy_importers(tree) -> list:
    """The name of the innermost function around each statement of ``tree``
    that imports numpy, in source order ('<module>' outside any function)."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if any(name == "numpy" or name.startswith("numpy.") for name in imported_modules(child)):
                    owners.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return owners


def test_numpy_importers_sees_every_statement():
    source = """
import numpy
def f():
    def g():
        from numpy.random import Philox
    import os
if TYPE_CHECKING:
    import numpy as np
class C:
    def h(self):
        import numpy.linalg
"""
    assert numpy_importers(ast.parse(source)) == ["<module>", "g", "<module>", "h"]


def test_only_mc_tails_imports_numpy_in_the_oracle():
    importers = {path.name: numpy_importers(ast.parse(path.read_text(), str(path))) for path in SOURCES}
    assert {name: owners for name, owners in importers.items() if owners} == {"oracle.py": ["mc_tails"]}



def definition(tree, *qualname: str):
    """The definition ``qualname`` (a function, or a class and its method)
    of the module ``tree``."""
    node = tree
    for name in qualname:
        [node] = [child for child in node.body if getattr(child, "name", None) == name]
    return node


def called_names(tree, *qualname: str) -> set:
    """The names of the functions called, by name or by attribute, inside
    the definition ``qualname`` of the module ``tree``."""
    calls = (child.func for child in ast.walk(definition(tree, *qualname)) if isinstance(child, ast.Call))
    return {func.id if isinstance(func, ast.Name) else getattr(func, "attr", None) for func in calls}


def test_called_names_sees_names_and_attributes_in_the_definition_alone():
    source = """
def f(payload):
    return g(errors.read_number(payload["p"]), h=[read_list(x) for x in y])
class C:
    def f(self):
        read_choice(self)
    def g(self):
        read_number(self)
"""
    tree = ast.parse(source)
    assert called_names(tree, "f") == {"g", "read_number", "read_list"}
    assert called_names(tree, "C", "f") == {"read_choice"}


@pytest.mark.parametrize(
    "module, qualname, readers",
    [
        # SdpOutcome reads p, and HazardModel reads K_hat and m_hat
        ("outcome.py", ["outcome_from_descriptor"], {"read_number"}),
        # ScenarioConfig.__post_init__ reads the kinds
        ("report.py", ["ScenarioConfig", "from_descriptor"], {"read_choice", "read_list"}),
    ],
)
def test_descriptor_readers_leave_each_value_to_the_object_that_reads_it(module, qualname, readers):
    path = Path(sdpfeas.__file__).parent / module
    assert called_names(ast.parse(path.read_text(), str(path)), *qualname) & readers == set()


#: the enums whose members the hot paths read through module names
ENUMS = ("Regime", "TailMethod")


def enum_member_reads(node) -> list:
    """Each ``<enum>.<member>`` read of one of ``ENUMS`` inside ``node``, as
    source text. On Python 3.11 each such read runs ``EnumType.__getattr__``."""
    return [
        ast.unparse(child)
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name) and child.value.id in ENUMS
    ]


def test_enum_member_reads_sees_attribute_reads_of_the_enums_alone():
    source = """
def f(row, method):
    if row.regime is Regime.VALID and type(method) is TailMethod:
        return [TailMethod.EXACT, row.Regime.VALID, bounds.Regime, _VALID, Regime]
"""
    assert enum_member_reads(ast.parse(source)) == ["Regime.VALID", "TailMethod.EXACT"]


#: the functions that run once per sweep row, per oracle estimate or per
#: verification record
HOT_PATHS = [
    ("bounds.py", ["_kernel"]),
    ("bounds.py", ["bound_sweep"]),
    ("bounds.py", ["BoundResult", "to_dict"]),
    ("bounds.py", ["_x_count"]),
    ("bounds.py", ["_y_count"]),
    ("oracle.py", ["TailEstimate", "__post_init__"]),
    ("oracle.py", ["BinomialWindow", "exact_tail"]),
    ("oracle.py", ["BinomialWindow", "mc_tails"]),
    ("oracle.py", ["verify_bound"]),
    ("oracle.py", ["VerificationRecord", "to_dict"]),
    ("report.py", ["run_verification"]),
    ("report.py", ["FeasibilityReport", "verdict"]),
    ("report.py", ["sweep_to_csv"]),
    ("report.py", ["_csv_text"]),
]


@pytest.mark.parametrize("module, qualname", HOT_PATHS, ids=[f"{module}:{'.'.join(name)}" for module, name in HOT_PATHS])
def test_hot_path_reads_no_enum_member(module, qualname):
    path = Path(sdpfeas.__file__).parent / module
    assert enum_member_reads(definition(ast.parse(path.read_text(), str(path)), *qualname)) == []
