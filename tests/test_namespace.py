"""The lazy package namespace, and the object API's imports from the core."""

import ast
import importlib
from pathlib import Path

import pytest

import realtwoqubit
from realtwoqubit import _core

#: Each name the core took from an object-API module that the module still imports.
MOVED = {
    "states": "_BELL_NOUN _unit _to_bell _from_bell concurrence sign_residual",
    "gates": "_inverse",
    "simulator": "_apply",
    "geometry": "QUARTER_PI TWO_PI SHEET_V34 SHEET_V12 DEFAULT_CLASS_TOL _checked_distance _chart "
    "entropy_from_concurrence _checked_grid _mesh_rows mesh_to_csv",
    "synthesis": "_local_connect _intersection _cz_connect _prepare",
}

#: Core names a module imports without calling them: perfbench/spans.py traces them by these paths.
TRACED_REEXPORTS = {"states": {"concurrence", "sign_residual"}, "geometry": {"mesh_to_csv"}}


@pytest.mark.parametrize("name", realtwoqubit.__all__)
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"realtwoqubit.{realtwoqubit._HOME[name]}")
    assert getattr(realtwoqubit, name) is vars(home)[name]
    assert name in dir(realtwoqubit)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from realtwoqubit import *", namespace)
    assert set(realtwoqubit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(realtwoqubit, name) for name in realtwoqubit.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        realtwoqubit.frobnicate


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names.split()])
def test_moved_name_is_reexported(module, name):
    assert getattr(importlib.import_module(f"realtwoqubit.{module}"), name) is getattr(_core, name)


@pytest.mark.parametrize("module", ["states", "gates", "simulator", "geometry", "synthesis"])
def test_core_imports_are_used(module):
    # Each public name has one import path, realtwoqubit.<name>: a module imports from the core only what it calls.
    tree = ast.parse(Path(realtwoqubit.__file__).with_name(f"{module}.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "_core"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == TRACED_REEXPORTS.get(module, set())
