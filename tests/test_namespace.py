"""The lazy package namespace and the names the object API re-exports from the core."""

import importlib

import pytest

import realtwoqubit
from realtwoqubit import _core

#: Each name the core defines, with the module that defined it before the core existed.
MOVED = {
    "states": "DEFAULT_TOL NORM_SLACK _INV_SQRT2 _BELL_NOUN _unit _to_bell _from_bell _minor concurrence on_v34_side "
    "sign_residual states_equal_up_to_sign",
    "gates": "_CZ _X0 _inverse",
    "simulator": "_apply",
    "geometry": "QUARTER_PI TWO_PI SHEET_V34 SHEET_V12 SHEET_BOTH MAX_ENTANGLED GENERIC PRODUCT DEFAULT_CLASS_TOL "
    "_DOMAIN_SLACK _LN2 _checked_distance _chart entropy_from_concurrence _CIRCLE_CHUNK _angle_grid _checked_grid "
    "_mesh_rows mesh_to_csv mesh_to_json",
    "synthesis": "OrbitMismatchError _wrap_angle residual _leg _local_connect _intersection _cz_connect _arg "
    "preparation_angles _prepare",
}


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
