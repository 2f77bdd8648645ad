"""The gate action, the connect solver and the preparation on plain tuples, and the prepare and connect records."""

import math

from ._core import _DOMAIN_SLACK, QUARTER_PI, TWO_PI, OrbitMismatchError
from ._state import _BELL_NOUN, _chart, _from_bell, _unit, on_v34_side, sign_residual, states_equal_up_to_sign

_CZ = ("cz", None, None)
_X0 = ("x", 0, None)


def _inverse(gate: tuple) -> tuple:
    # X and CZ are involutions; Ry inverts by negating the angle.
    kind, qubit, angle = gate
    return (kind, qubit, -angle) if kind == "ry" else gate


def _apply(gates, state) -> tuple:
    w1, w2, w3, w4 = state
    for kind, qubit, angle in gates:
        if kind == "cz":
            w4 = -w4
        elif kind == "x":
            if qubit == 0:
                w1, w2, w3, w4 = w3, w4, w1, w2
            else:
                w1, w2, w3, w4 = w2, w1, w4, w3
        else:
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
            if qubit == 0:
                w1, w2, w3, w4 = c * w1 - s * w3, c * w2 - s * w4, s * w1 + c * w3, s * w2 + c * w4
            else:
                w1, w2, w3, w4 = c * w1 - s * w2, s * w1 + c * w2, c * w3 - s * w4, s * w3 + c * w4
    return _unit(w1, w2, w3, w4)


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    t = math.remainder(theta, TWO_PI)
    return math.pi if t <= -math.pi else t


def residual(circuit, source, target) -> float:
    """min(||out - target||, ||out + target||) for out the circuit's output on source."""
    return sign_residual(_apply(circuit, source), target)


def _leg(source, target, tol: float, source_chart: tuple, target_chart: tuple) -> tuple:
    """Local gates from source to a target on its orbit, from both charts, not yet simulated.

    The orbit is taken to be the target's: d is not compared, since with a
    tiny tol rounding alone parts the two computed d by more than tol.
    """
    if states_equal_up_to_sign(source, target, tol):
        return ()
    prefix = ()
    v34 = on_v34_side(target)
    if on_v34_side(source) != v34:
        # Opposite sheets: X on qubit 0 maps one torus onto its mirror.
        prefix = (_X0,)
        source_chart = _chart(_apply(prefix, source))
    _, c12, c34 = source_chart
    d, t12, t34 = target_chart
    d_alpha = _wrap_angle(t12 - c12)
    d_beta = _wrap_angle(t34 - c34)
    if 2.0 * math.sin(d) <= tol:
        # Circle case.  Ry(q0, g) rotates the (x1, x2) plane by g/2 and the
        # (x3, x4) plane by -g/2; only the populated plane is matched, and the
        # other one, of radius sin d, moves the result by at most 2 sin d.
        return prefix + (("ry", 0, _wrap_angle(-2.0 * d_beta if v34 else 2.0 * d_alpha)),)
    # Common torus: rotate the (x1, x2) plane by s + t and (x3, x4) by t - s.
    # The other mod-2pi branch, (s + pi, t + pi), wraps to the same angles.
    s = (d_alpha - d_beta) / 2.0
    t = (d_alpha + d_beta) / 2.0
    return prefix + (("ry", 0, _wrap_angle(2.0 * s)), ("ry", 1, _wrap_angle(2.0 * t)))


def _intersection(d0: float, d1: float) -> tuple:
    if not (0.0 <= d1 < d0 <= QUARTER_PI + _DOMAIN_SLACK):
        raise ValueError(f"need pi/4 >= d0 > d1 >= 0, got d0 = {d0!r}, d1 = {d1!r}")
    s0, s1 = math.sin(d0), math.sin(d1)
    return _from_bell(_unit(0.0, s1, math.sqrt(max(s0 * s0 - s1 * s1, 0.0)), math.cos(d0), _BELL_NOUN))


def _connect(source, target, tol: float, local_only: bool = False) -> tuple:
    """(gates, intermediate or None, residual): one local leg at equal d, else through one CZ, or refused if local_only."""
    chart_s, chart_t = _chart(source), _chart(target)
    d_s, d_t = chart_s[0], chart_t[0]
    if local_only or abs(d_s - d_t) <= tol:
        gates = _leg(source, target, tol, chart_s, chart_t)
        # An empty leg means the states are equal within tol, whatever their computed d.
        if gates and abs(d_s - d_t) > tol:
            raise OrbitMismatchError(f"states lie on different orbits (d = {d_s!r} vs {d_t!r}); local gates preserve d")
        return gates, None, residual(gates, source, target)
    swapped = d_s < d_t
    hi, lo = (target, source) if swapped else (source, target)
    chart_hi, chart_lo = (chart_t, chart_s) if swapped else (chart_s, chart_t)
    mid = _intersection(max(d_s, d_t), min(d_s, d_t))
    mid_cz = _apply((_CZ,), mid)
    gates = _leg(hi, mid_cz, tol, chart_hi, _chart(mid_cz)) + (_CZ,) + _leg(mid, lo, tol, _chart(mid), chart_lo)
    if swapped:
        gates = tuple(map(_inverse, reversed(gates)))
    return gates, mid, residual(gates, source, target)


def preparation_angles(target) -> tuple[float, float, float]:
    """Angles (t1, t0, t2) of the preparation template.

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
    return t1, _wrap_angle(t3 - t4), _wrap_angle(t3 + t4)


def _prepare(target) -> tuple:
    t1, t0, t2 = preparation_angles(target)
    return ("ry", 0, t1), ("ry", 1, t0), _CZ, ("ry", 1, t2)


#: The JSON of each gate without an angle: only those are looked up, so no angle is hashed.
_FIXED_GATE_JSON = {
    ("cz", None, None): '{"kind": "cz"}',
    ("x", 0, None): '{"kind": "x", "qubit": 0}',
    ("x", 1, None): '{"kind": "x", "qubit": 1}',
}

_ZERO = (1.0, 0.0, 0.0, 0.0)


def _gates_json(gates) -> str:
    texts = [_FIXED_GATE_JSON[g] if g[2] is None else f'{{"kind": "ry", "qubit": {g[1]}, "angle": {g[2]!r}}}' for g in gates]
    return f"[{', '.join(texts)}]"


def _prepare_record(args, state: tuple) -> str:
    gates = _prepare(state)
    return f'{{"gates": {_gates_json(gates)}, "residual": {residual(gates, _ZERO, state)!r}}}\n'


def _connect_record(args, source: tuple, target: tuple) -> str:
    gates, mid, res = _connect(source, target, args.tol, args.local_only)
    intermediate = "null" if mid is None else f'{{"w": [{mid[0]!r}, {mid[1]!r}, {mid[2]!r}, {mid[3]!r}]}}'
    return (
        f'{{"gates": {_gates_json(gates)}, "intermediate": {intermediate}, '
        f'"cz_count": {gates.count(_CZ)}, "residual": {res!r}}}\n'
    )
