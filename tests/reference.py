"""Dense numpy references the suite checks the package against.

Kronecker convention: the first tensor factor acts on qubit 0, so a gate on
qubit 0 lifts to kron(M, I).  `gate_matrix` is the 4x4 matrix the closed-form
`apply` must agree with; the partial trace, its closed-form eigenvalues and
the von Neumann entropy from them are the independent route to the entropy
of a state; `surface_gram_det` forms the Gram determinant of the
local-rotation surface from analytic tangents.
"""

import math

import numpy as np

from realtwoqubit import Circuit, Gate, RealState, apply, entanglement_distance

#: Eigenvalues below this contribute 0 to the entropy (0*log2(0) = 0 branch).
EIG_FLOOR = 1e-15


def ry_matrix(theta: float) -> np.ndarray:
    """[[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def ry_matrix_deriv(theta: float) -> np.ndarray:
    """Entrywise derivative of ry_matrix with respect to theta."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return 0.5 * np.array([[-s, -c], [c, -s]])


def _lift(single: np.ndarray, qubit: int) -> np.ndarray:
    return np.kron(single, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), single)


def gate_matrix(gate: Gate) -> np.ndarray:
    """4x4 orthogonal matrix of a gate."""
    if gate.kind == "cz":
        return np.diag([1.0, 1.0, 1.0, -1.0])
    if gate.kind == "x":
        return _lift(np.array([[0.0, 1.0], [1.0, 0.0]]), gate.qubit)
    return _lift(ry_matrix(gate.angle), gate.qubit)


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


def orbit_surface(state: RealState, s: float, t: float) -> RealState:
    """(Ry(2s) x Ry(2t)) |state|: the local-rotation surface through the state."""
    return apply(Circuit((Gate.ry(0, 2.0 * s), Gate.ry(1, 2.0 * t))), state)


def surface_gram_det(state: RealState, s: float, t: float) -> float:
    """Gram determinant |d_s phi|^2 |d_t phi|^2 - (d_s phi . d_t phi)^2.

    Tangents are analytic: d/ds Ry(2s) = 2 Ry'(2s), lifted through the
    Kronecker product.  Equals sin^2(2d) identically on the orbit at
    distance d, which is why the surface immerses exactly away from the
    maximally entangled circles.
    """
    w = state.vector
    r0, r1 = ry_matrix(2.0 * s), ry_matrix(2.0 * t)
    d0, d1 = 2.0 * ry_matrix_deriv(2.0 * s), 2.0 * ry_matrix_deriv(2.0 * t)
    tan_s = np.kron(d0, r1) @ w
    tan_t = np.kron(r0, d1) @ w
    ee = float(tan_s @ tan_s)
    gg = float(tan_t @ tan_t)
    ff = float(tan_s @ tan_t)
    return ee * gg - ff * ff


def immersion_defect(state: RealState, s: float, t: float) -> float:
    """|Gram determinant - sin^2(2d)| for the orbit surface through the state."""
    target = math.sin(2.0 * entanglement_distance(state)) ** 2
    return abs(surface_gram_det(state, s, t) - target)
