"""Every public name each sdpfeas module lists in ``__all__`` exists, so a
deleted function cannot linger as a stale export."""

import importlib
import pkgutil

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
