"""The lazy package namespace, and the modules' imports from each other."""

import ast
import importlib
from pathlib import Path

import pytest

import realtwoqubit

#: Each name the core took from an object-API module that the module still imports.
MOVED = {
    "states": "_BELL_NOUN _unit _to_bell _from_bell concurrence sign_residual",
    "geometry": "QUARTER_PI TWO_PI SHEET_V34 SHEET_V12 DEFAULT_CLASS_TOL _checked_distance _chart "
    "entropy_from_concurrence _checked_grid _mesh_rows mesh_to_csv",
    "synthesis": "_inverse _apply _intersection _connect _prepare",
}

#: The part of the core that defines each moved name.
PART = {
    name: part
    for part, names in {
        "_core": "QUARTER_PI TWO_PI SHEET_V34 SHEET_V12 _checked_distance",
        "_state": "_BELL_NOUN _unit _to_bell _from_bell concurrence sign_residual _chart",
        "_classify": "DEFAULT_CLASS_TOL entropy_from_concurrence",
        "_synthesis": "_inverse _apply _intersection _connect _prepare",
        "_mesh": "_checked_grid _mesh_rows mesh_to_csv",
    }.items()
    for name in names.split()
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


def test_private_constant_is_not_public():
    # The degenerate-angle threshold is geometry's own: no caller outside it reads it.
    with pytest.raises(AttributeError, match="no attribute 'DEGENERATE_SIN_D'"):
        realtwoqubit.DEGENERATE_SIN_D


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names.split()])
def test_moved_name_is_reexported(module, name):
    part = importlib.import_module(f"realtwoqubit.{PART[name]}")
    assert getattr(importlib.import_module(f"realtwoqubit.{module}"), name) is vars(part)[name]


@pytest.mark.parametrize("module", sorted(path.stem for path in Path(realtwoqubit.__file__).parent.glob("*.py")))
def test_core_imports_are_used(module):
    # Each public name has one import path, realtwoqubit.<name>: a module imports from the package only what it calls.
    tree = ast.parse(Path(realtwoqubit.__file__).with_name(f"{module}.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == TRACED_REEXPORTS.get(module, set())


def test_each_name_is_defined_once():
    # Each function, class and constant of the package has one definition, in one module.
    names = []
    for path in Path(realtwoqubit.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, ast.Assign):
                names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    assert sorted({name for name in names if names.count(name) > 1}) == []
