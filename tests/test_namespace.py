"""The lazy package namespace, and the modules' imports from each other."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import realtwoqubit
from realtwoqubit._argv import _COMMANDS

#: Each name the core took from an object-API module that the module still imports.
MOVED = {
    "states": "_unit _to_bell _from_bell",
    "geometry": "QUARTER_PI SHEET_V34 SHEET_V12 DEFAULT_CLASS_TOL _checked_distance _chart "
    "_checked_grid _mesh_rows _torus_state _draws",
    "synthesis": "_inverse _apply _intersection _connect _prepare",
}

#: The part of the core that defines each moved name.
PART = {
    name: part
    for part, names in {
        "_core": "QUARTER_PI SHEET_V34 SHEET_V12 _checked_distance",
        "_state": "_unit _to_bell _from_bell _chart",
        "_classify": "DEFAULT_CLASS_TOL",
        "_synthesis": "_inverse _apply _intersection _connect _prepare",
        "_mesh": "_checked_grid _mesh_rows",
        "_sample": "_torus_state _draws",
    }.items()
    for name in names.split()
}

#: Every module of the package, by name.
MODULES = sorted(path.stem for path in Path(realtwoqubit.__file__).parent.glob("*.py"))

#: The modules that read stdin, write stdout, stderr or a file, or exit: cli alone, which writes help and usage errors too.
STDOUT_WRITERS = {"cli"}


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


def test_no_public_name_is_an_unchecked_core_function():
    # _state and _synthesis read plain tuples unchecked; a public name reads its states through from_vector.
    assert sorted(name for name, home in realtwoqubit._HOME.items() if home in ("_state", "_synthesis")) == []


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


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_command_runs_on_the_core(command):
    # Each handler is a function of a core part, so no CLI run imports the object API: states, geometry or synthesis.
    part, _, name = _COMMANDS[command][1].partition(".")
    assert part.startswith("_") and part in MODULES
    assert callable(vars(importlib.import_module(f"realtwoqubit.{part}"))[name])


@pytest.mark.parametrize("module", MODULES)
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
    assert imported - used == set()


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_stdlib(module):
    # The installed package has no dependency: every absolute import, also one inside a function, is stdlib.
    tree = ast.parse(Path(realtwoqubit.__file__).with_name(f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert sorted(name for name in imported if name.split(".")[0] not in sys.stdlib_module_names) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_parses_as_python_3_10(module):
    # pyproject.toml claims requires-python >= 3.10: no module may use a later grammar.
    ast.parse(Path(realtwoqubit.__file__).with_name(f"{module}.py").read_text(), feature_version=(3, 10))


@pytest.mark.parametrize("module", MODULES)
def test_only_main_writes_stdout(module):
    # Handlers return their text, and _usage its help, and cli reads their input and writes it: no other module names
    # sys.stdin, sys.stdout, sys.stderr or sys.exit, calls print or open or raises SystemExit.
    tree = ast.parse(Path(realtwoqubit.__file__).with_name(f"{module}.py").read_text())
    names = {"stdin", "__stdin__", "stdout", "__stdout__", "stderr", "__stderr__", "exit"}
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sys" and node.attr in names
        or isinstance(node, ast.ImportFrom) and node.module == "sys" and names & {alias.name for alias in node.names}
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("print", "open")
        or isinstance(node, ast.Name) and node.id == "SystemExit"
    ]
    assert bool(writes) == (module in STDOUT_WRITERS), writes


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


def test_version_is_the_pyproject_version():
    # The version is written twice, in pyproject.toml and in the package: the two must agree.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert realtwoqubit.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]
