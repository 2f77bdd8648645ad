"""Orbit geometry and circuit synthesis for two-qubit states with real amplitudes.

Importing the package loads none of its modules: each public name loads the
module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.3.0"

#: The module that defines each public name.
_HOME = {
    name: module
    for module, names in {
        "_core": "DEFAULT_TOL SHEET_BOTH SHEET_V12 SHEET_V34 OrbitMismatchError",
        "_classify": "DEFAULT_CLASS_TOL GENERIC MAX_ENTANGLED PRODUCT entropy_from_concurrence",
        "_mesh": "mesh_to_csv mesh_to_json",
        "states": "BellCoords RealState bell_basis_state concurrence from_bell sign_residual to_bell",
        "geometry": "DegenerateAngleError MeshPoint OrbitClass TorusPoint classify "
        "entanglement_distance entropy_from_distance orbit_mesh parametrize sample_orbit_states torus_angles",
        "synthesis": "Circuit ConnectionPlan Gate apply cz_connect intersection_state local_connect prepare",
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
