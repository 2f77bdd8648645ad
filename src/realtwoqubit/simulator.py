"""Exact simulator for two-qubit circuits over {Ry, X, CZ}.

Kronecker convention: the first tensor factor acts on qubit 0, the left label
of the ket, so amplitudes are ordered (|00>, |01>, |10>, |11>) and a gate on
qubit 0 lifts to kron(M, I).  The convention test in the suite pins this down
via (Ry(-2t) x I)|v3> = cos(t) v3 + sin(t) v4.

`apply` acts on the four amplitudes in closed form (`_core._apply`): Ry on
qubit 0 rotates the pairs (w1, w3) and (w2, w4), Ry on qubit 1 rotates
(w1, w2) and (w3, w4), X swaps the same pairs and CZ negates w4.
`gate_matrix` is the dense Kronecker reference the suite checks `apply`
against.  The functions that return arrays import numpy when called, so
running circuits alone never loads it.

This module doubles as the independent entropy route: reduced density
matrices, their closed-form eigenvalues, and the von Neumann entropy computed
from those eigenvalues.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._core import _apply
from .gates import Circuit, Gate
from .states import RealState

if TYPE_CHECKING:
    import numpy as np

#: Eigenvalues below this contribute 0 to the entropy (0*log2(0) = 0 branch).
EIG_FLOOR = 1e-15


def ry_matrix(theta: float) -> np.ndarray:
    """[[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    import numpy as np

    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def ry_matrix_deriv(theta: float) -> np.ndarray:
    """Entrywise derivative of ry_matrix with respect to theta."""
    import numpy as np

    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return 0.5 * np.array([[-s, -c], [c, -s]])


def _lift(single: np.ndarray, qubit: int) -> np.ndarray:
    import numpy as np

    return np.kron(single, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), single)


def gate_matrix(gate: Gate) -> np.ndarray:
    """4x4 orthogonal matrix of a gate."""
    import numpy as np

    if gate.kind == "cz":
        return np.diag([1.0, 1.0, 1.0, -1.0])
    if gate.kind == "x":
        return _lift(np.array([[0.0, 1.0], [1.0, 0.0]]), gate.qubit)
    return _lift(ry_matrix(gate.angle), gate.qubit)


def apply(circuit: Circuit, state: RealState) -> RealState:
    """Run the circuit gate by gate, left to right."""
    return RealState._wrap(_apply(circuit, state))


def reduced_density_matrix(state: RealState, qubit: int = 0) -> np.ndarray:
    """2x2 reduced state of `qubit` (partial trace over the other qubit)."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit!r}")
    w = state.vector.reshape(2, 2)
    return w @ w.T if qubit == 0 else w.T @ w


def reduced_eigenvalues(state: RealState, qubit: int = 0) -> tuple[float, float]:
    """Eigenvalues (descending) of the reduced density matrix.

    Closed-form quadratic for a symmetric 2x2 matrix, clamped to [0, 1];
    identical for either qubit.
    """
    rho = reduced_density_matrix(state, qubit)
    tr = rho[0, 0] + rho[1, 1]
    gap = math.sqrt(max((rho[0, 0] - rho[1, 1]) ** 2 + 4.0 * rho[0, 1] ** 2, 0.0))
    hi = min(max((tr + gap) / 2.0, 0.0), 1.0)
    lo = min(max((tr - gap) / 2.0, 0.0), 1.0)
    return hi, lo


def entanglement_entropy(state: RealState) -> float:
    """Von Neumann entropy (base 2) of either reduced density matrix.

    0 for product states, 1 for maximally entangled ones.
    """
    total = 0.0
    for lam in reduced_eigenvalues(state):
        if lam > EIG_FLOOR:
            total -= lam * math.log2(lam)
    return total
