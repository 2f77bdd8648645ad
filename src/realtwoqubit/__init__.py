"""Orbit geometry and circuit synthesis for two-qubit states with real amplitudes.

Importing the package loads none of its modules: each public name loads the
module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: The module that defines each public name.
_HOME = {
    name: module
    for module, names in {
        "_core": "DEFAULT_CLASS_TOL DEFAULT_TOL GENERIC MAX_ENTANGLED PRODUCT SHEET_BOTH SHEET_V12 SHEET_V34 "
        "OrbitMismatchError concurrence entropy_from_concurrence mesh_to_csv mesh_to_json preparation_angles "
        "sign_residual states_equal_up_to_sign",
        "states": "BellCoords RealState bell_basis_state from_bell to_bell",
        "gates": "Circuit Gate",
        "simulator": "apply",
        "geometry": "DEGENERATE_SIN_D DegenerateAngleError MeshPoint OrbitClass TorusPoint classify "
        "entanglement_distance entropy_from_distance orbit_mesh parametrize sample_orbit_states torus_angles",
        "synthesis": "ConnectionPlan cz_connect intersection_state local_connect prepare",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
