"""Circuit synthesis over {Ry, X, CZ}.

Three constructive results, each verified against the simulator:

* local_connect: two states on the same orbit (equal distance d) are joined
  by local gates alone.  On a common torus the Bell planes rotate by s + t
  and t - s under Ry(2s) x Ry(2t), so matching both plane angles is a linear
  solve; an X on qubit 0 first swaps the sheets when the endpoints disagree,
  and on the circles, when 2 sin d <= tol, a single Ry(q0) suffices.
* cz_connect: any two states are joined with at most one CZ.  The CZ image
  of the d0 torus meets the d1 torus (d0 > d1); one intersection point has
  Bell coordinates (0, sin d1, sqrt(sin^2 d0 - sin^2 d1), cos d0), reached
  locally from the source and left locally toward the target.
* prepare: any state is reached from |00> by the fixed template
  RY(q0, t1), RY(q1, t0), CZ, RY(q1, t2).

Plans never cancel the global sign: residuals are min over +-target.  Each
plan's residual comes from one simulation of its whole circuit on its
source.  All emitted angles are normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gates import _CZ, _X0, Circuit, Gate, _inverse
from .geometry import _DOMAIN_SLACK, _chart
from .simulator import _apply
from .states import (
    _BELL_NOUN,
    DEFAULT_TOL,
    RealState,
    _from_bell,
    _unit,
    on_v34_side,
    sign_residual,
    states_equal_up_to_sign,
)


class OrbitMismatchError(ValueError):
    """Local gates cannot connect states at different distances d."""


@dataclass(frozen=True)
class ConnectionPlan:
    """A synthesized circuit plus its verification record.

    `intermediate` is the torus-intersection state a one-CZ plan passes
    through (None for purely local plans); `residual` is the simulator's
    min(||out - target||, ||out + target||) for the whole circuit.
    """

    circuit: Circuit
    intermediate: RealState | None
    residual: float

    @property
    def cz_count(self) -> int:
        return self.circuit.cz_count

    def to_dict(self) -> dict:
        return {
            "gates": [g.to_dict() for g in self.circuit],
            "intermediate": None if self.intermediate is None else self.intermediate.to_dict(),
            "cz_count": self.cz_count,
            "residual": self.residual,
        }


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    return math.pi if t <= -math.pi else t


def residual(circuit: Circuit, source: RealState, target: RealState) -> float:
    """min(||out - target||, ||out + target||) for out the circuit's output on source."""
    return sign_residual(_apply(circuit, source), target)


def _plan(gates: tuple, intermediate: tuple | None, res: float) -> ConnectionPlan:
    # The public plan: a Gate per emitted gate, and the intermediate state wrapped as it is.
    mid = None if intermediate is None else RealState._wrap(intermediate)
    return ConnectionPlan(Circuit(tuple(Gate(*g) for g in gates)), mid, res)


def local_connect(source: RealState, target: RealState, tol: float = DEFAULT_TOL) -> ConnectionPlan:
    """Join two states on the same orbit by local gates.

    Shape is at most [X(q0)] RY(q0) RY(q1); equal states (up to sign) get an
    empty circuit.  Raises OrbitMismatchError when the distances differ by
    more than tol: the entanglement entropies differ, so no local circuit
    exists.
    """
    return _plan(*_local_connect(source, target, tol))


def _local_connect(source, target, tol: float) -> tuple:
    chart_s, chart_t = _chart(source), _chart(target)
    gates = _leg(source, target, tol, chart_s, chart_t)
    # An empty leg means the states are equal within tol, whatever their computed d.
    if gates and abs(chart_s[0] - chart_t[0]) > tol:
        raise OrbitMismatchError(
            f"states lie on different orbits (d = {chart_s[0]!r} vs {chart_t[0]!r}); local gates preserve d"
        )
    return gates, None, residual(gates, source, target)


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


def intersection_state(d0: float, d1: float) -> RealState:
    """The state where the CZ image of the d0 torus meets the d1 torus.

    Requires pi/4 >= d0 > d1 >= 0.  Bell coordinates
    (0, sin d1, sqrt(sin^2 d0 - sin^2 d1), cos d0) satisfy all four quadrics:
    x2^2 + x3^2 = sin^2 d0, x1^2 + x4^2 = cos^2 d0 (CZ image of the d0 torus)
    and x1^2 + x2^2 = sin^2 d1, x3^2 + x4^2 = cos^2 d1 (the d1 torus).
    """
    return RealState._wrap(_intersection(d0, d1))


def _intersection(d0: float, d1: float) -> tuple:
    if not (0.0 <= d1 < d0 <= math.pi / 4.0 + _DOMAIN_SLACK):
        raise ValueError(f"need pi/4 >= d0 > d1 >= 0, got d0 = {d0!r}, d1 = {d1!r}")
    s0, s1 = math.sin(d0), math.sin(d1)
    return _from_bell(_unit(0.0, s1, math.sqrt(max(s0 * s0 - s1 * s1, 0.0)), math.cos(d0), _BELL_NOUN))


def cz_connect(source: RealState, target: RealState, tol: float = DEFAULT_TOL) -> ConnectionPlan:
    """Join any two states with local gates and at most one CZ.

    Same orbit gets local_connect's plan (cz_count 0), minus its orbit check,
    which cannot fail here.  Otherwise the plan runs locally from the higher-d
    endpoint to the CZ preimage of the intersection state, applies CZ, and
    runs locally to the lower-d endpoint; when the source is the lower one the
    whole circuit is inverted, so the reported intermediate is the
    intersection state either way.  Each endpoint is charted once, for the d
    comparison and for its leg.
    """
    return _plan(*_cz_connect(source, target, tol))


def _cz_connect(source, target, tol: float) -> tuple:
    chart_s, chart_t = _chart(source), _chart(target)
    d_s, d_t = chart_s[0], chart_t[0]
    if abs(d_s - d_t) <= tol:
        gates = _leg(source, target, tol, chart_s, chart_t)
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


def _arg(re: float, im: float) -> float:
    # Arg(0 + 0i) := 0 keeps the angles finite for amplitude pairs that vanish.
    if re == 0.0 and im == 0.0:
        return 0.0
    return math.atan2(im, re)


def preparation_angles(target: RealState) -> tuple[float, float, float]:
    """Angles (t1, t0, t2) of the preparation template.

    t3 = Arg(w1 + i w2) and t4 = Arg(w3 + i w4) place each amplitude pair on
    its circle; t1 = 2 arccos(sqrt(w1^2 + w2^2)) splits the weight between
    the pairs, evaluated as 2 atan2(|(w3, w4)|, |(w1, w2)|) so that a
    near-empty pair keeps its digits; t0 = t3 - t4 and t2 = t3 + t4 realize
    both pair angles with one rotation before and one after the CZ.
    """
    w1, w2, w3, w4 = target
    t3, t4 = _arg(w1, w2), _arg(w3, w4)
    t1 = 2.0 * math.atan2(math.hypot(w3, w4), math.hypot(w1, w2))
    return _wrap_angle(t1), _wrap_angle(t3 - t4), _wrap_angle(t3 + t4)


def prepare(target: RealState) -> Circuit:
    """Circuit preparing the target from |00>: RY(q0, t1), RY(q1, t0), CZ, RY(q1, t2).

    Exact up to the global sign; the suite's convention test fixes this
    layout as the single consistent one for the simulator's conventions.
    """
    return Circuit(tuple(Gate(*g) for g in _prepare(target)))


def _prepare(target) -> tuple:
    t1, t0, t2 = preparation_angles(target)
    return ("ry", 0, t1), ("ry", 1, t0), _CZ, ("ry", 1, t2)
