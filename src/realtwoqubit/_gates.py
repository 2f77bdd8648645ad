"""The gate action and the residual on plain tuples, the preparation, its record and the gate-list JSON."""

import math

from ._core import TWO_PI
from ._state import _sign_residual, _unit

_CZ = ("cz", None, None)
_X0 = ("x", 0, None)


def _apply(gates, state) -> tuple:
    w1, w2, w3, w4 = state
    for kind, qubit, angle in gates:
        if qubit == 1:  # a qubit-1 gate is its qubit-0 form between two w2 <-> w3 swaps (SWAP conjugation)
            w2, w3 = w3, w2
        if kind == "cz":
            w4 = -w4
        elif kind == "x":
            w1, w2, w3, w4 = w3, w4, w1, w2
        else:
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
            w1, w2, w3, w4 = c * w1 - s * w3, c * w2 - s * w4, s * w1 + c * w3, s * w2 + c * w4
        if qubit == 1:
            w2, w3 = w3, w2
    return _unit(w1, w2, w3, w4)


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    t = math.remainder(theta, TWO_PI)
    return math.pi if t <= -math.pi else t


def residual(circuit, source, target) -> float:
    """min(||out - target||, ||out + target||) for out the circuit's output on source."""
    return _sign_residual(_apply(circuit, source), target)


def _prepare(target) -> tuple:
    """The preparation template RY(q0, t1), RY(q1, t0), CZ, RY(q1, t2) for the target.

    t3 = Arg(w1 + i w2) and t4 = Arg(w3 + i w4) place each amplitude pair on its circle;
    t1 = 2 arccos(sqrt(w1^2 + w2^2)) splits the weight between the pairs, evaluated as
    2 atan2(|(w3, w4)|, |(w1, w2)|) so that a near-empty pair keeps its digits, and not wrapped,
    since it already lies in [0, pi]; t0 = t3 - t4 and t2 = t3 + t4 realize both pair angles
    with one rotation before and one after the CZ.
    """
    w1, w2, w3, w4 = target
    # Adding 0.0 turns -0.0 into 0.0 and changes no other float, so atan2 never reads the sign of a zero: Arg(0 + 0i) is 0.
    t3, t4 = math.atan2(w2 + 0.0, w1 + 0.0), math.atan2(w4 + 0.0, w3 + 0.0)
    t1 = 2.0 * math.atan2(math.hypot(w3, w4), math.hypot(w1, w2))
    return ("ry", 0, t1), ("ry", 1, _wrap_angle(t3 - t4)), _CZ, ("ry", 1, _wrap_angle(t3 + t4))


_ZERO = (1.0, 0.0, 0.0, 0.0)


def _gates_json(gates) -> str:
    # Gate.to_dict's rule, the non-None prefix of (kind, qubit, angle), as json.dumps writes it: no CLI run loads json.
    texts = [
        f'{{"kind": "{kind}", "qubit": {qubit}, "angle": {angle!r}}}' if angle is not None
        else f'{{"kind": "{kind}", "qubit": {qubit}}}' if qubit is not None else f'{{"kind": "{kind}"}}'
        for kind, qubit, angle in gates
    ]
    return f"[{', '.join(texts)}]"


def _prepare_record(args, state: tuple) -> str:
    gates = _prepare(state)
    return f'{{"gates": {_gates_json(gates)}, "residual": {residual(gates, _ZERO, state)!r}}}\n'
