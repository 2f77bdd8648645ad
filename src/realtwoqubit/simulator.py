"""Exact simulator for two-qubit circuits over {Ry, X, CZ}.

Kronecker convention: the first tensor factor acts on qubit 0, the left label
of the ket, so amplitudes are ordered (|00>, |01>, |10>, |11>) and a gate on
qubit 0 lifts to kron(M, I).  The convention test in the suite pins this down
via (Ry(-2t) x I)|v3> = cos(t) v3 + sin(t) v4.

`apply` acts on the four amplitudes in closed form (`_synthesis._apply`): Ry on
qubit 0 rotates the pairs (w1, w3) and (w2, w4), Ry on qubit 1 rotates
(w1, w2) and (w3, w4), X swaps the same pairs and CZ negates w4.  The dense
Kronecker matrices and the partial-trace entropy it is checked against live
in the suite (`tests/reference.py`), not here.
"""

from __future__ import annotations

from ._synthesis import _apply
from .gates import Circuit
from .states import RealState


def apply(circuit: Circuit, state: RealState) -> RealState:
    """Run the circuit gate by gate, left to right."""
    return RealState._wrap(_apply(circuit, state))
