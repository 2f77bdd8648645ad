"""The connect solver on plain tuples and the connect record, over the gate layer of `_gates`."""

import math

from ._core import _DOMAIN_SLACK, QUARTER_PI, OrbitMismatchError
from ._gates import _CZ, _X0, _apply, _gates_json, _wrap_angle, residual
from ._state import _chart, _from_bell, _sign_residual, _unit


def _leg(source, target, tol: float, source_chart: tuple, target_chart: tuple) -> tuple:
    """Local gates from source to a target on its orbit, from both charts, not yet simulated.

    The orbit is taken to be the target's: d is not compared, since with a
    tiny tol rounding alone parts the two computed d by more than tol.
    Opposite sheets take an X on qubit 0, but the two Ry alone leave radii (sin d_s, cos d_s) against (cos d, sin d),
    a residual of sqrt(2 - 2 sin(d_s + d)) = 2 sin(eps/2) <= eps, with eps = (pi/4 - d_s) + (pi/4 - d).  It all but
    equals eps, so near the product torus the X is skipped when eps <= tol/2, and the other half of tol is rounding's.
    """
    if _sign_residual(source, target) <= tol:
        return ()
    prefix = ()
    d, v34, t12, t34 = target_chart
    if source_chart[1] != v34 and (QUARTER_PI - source_chart[0]) + (QUARTER_PI - d) > tol / 2.0:
        # Opposite sheets: X on qubit 0 maps one torus onto its mirror.
        prefix = (_X0,)
        source_chart = _chart(_apply(prefix, source))
    d_s, _, c12, c34 = source_chart
    d_alpha = _wrap_angle(t12 - c12)
    d_beta = _wrap_angle(t34 - c34)
    if math.sin(d_s) + math.sin(d) <= tol:
        # Circle case.  Ry(q0, g) rotates the (x1, x2) plane by g/2 and the (x3, x4) plane by -g/2; only the
        # populated plane is matched, and the other one, of radius sin d_s at the source and sin d at the target,
        # moves the result by at most their sum.
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
    return _from_bell(_unit(0.0, s1, math.sqrt(max(s0 * s0 - s1 * s1, 0.0)), math.cos(d0)))


def _connect(source, target, tol: float, local_only: bool = False) -> tuple:
    """(gates, intermediate or None, residual): one local leg at equal d, else through one CZ, or refused if local_only.

    The plan is L or L CZ L, L = [X(q0)] [Ry(q0)] [Ry(q1)], from source to target, each leg on its endpoint's torus.
    """
    chart_s, chart_t = _chart(source), _chart(target)
    d_s, d_t = chart_s[0], chart_t[0]
    if local_only or abs(d_s - d_t) <= tol:
        gates, mid = _leg(source, target, tol, chart_s, chart_t), None
        # An empty leg means the states are equal within tol, whatever their computed d.
        if gates and abs(d_s - d_t) > tol:
            raise OrbitMismatchError(f"states lie on different orbits (d = {d_s!r} vs {d_t!r}); local gates preserve d")
    else:
        mid = _intersection(max(d_s, d_t), min(d_s, d_t))  # on the lower-d torus, and CZ mid on the higher
        mid_cz = _apply((_CZ,), mid)
        near, far = (mid_cz, mid) if d_s > d_t else (mid, mid_cz)
        gates = _leg(source, near, tol, chart_s, _chart(near)) + (_CZ,) + _leg(far, target, tol, _chart(far), chart_t)
    return gates, mid, residual(gates, source, target)


def _connect_record(args, source: tuple, target: tuple) -> str:
    gates, mid, res = _connect(source, target, args.tol, args.local_only)
    intermediate = "null" if mid is None else f'{{"w": [{mid[0]!r}, {mid[1]!r}, {mid[2]!r}, {mid[3]!r}]}}'
    return (
        f'{{"gates": {_gates_json(gates)}, "intermediate": {intermediate}, '
        f'"cz_count": {gates.count(_CZ)}, "residual": {res!r}}}\n'
    )
