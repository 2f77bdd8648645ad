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
source.  All emitted angles are normalized to (-pi, pi].  The solvers, the
preparation angles and the residual work on plain 4-tuples in `_core`; the
functions below wrap their results in Gate, Circuit, RealState and
ConnectionPlan, and each Gate is validated again on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._core import DEFAULT_TOL, _cz_connect, _intersection, _local_connect, _prepare
from .gates import Circuit, Gate
from .states import RealState


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


def intersection_state(d0: float, d1: float) -> RealState:
    """The state where the CZ image of the d0 torus meets the d1 torus.

    Requires pi/4 >= d0 > d1 >= 0.  Bell coordinates
    (0, sin d1, sqrt(sin^2 d0 - sin^2 d1), cos d0) satisfy all four quadrics:
    x2^2 + x3^2 = sin^2 d0, x1^2 + x4^2 = cos^2 d0 (CZ image of the d0 torus)
    and x1^2 + x2^2 = sin^2 d1, x3^2 + x4^2 = cos^2 d1 (the d1 torus).
    """
    return RealState._wrap(_intersection(d0, d1))


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


def prepare(target: RealState) -> Circuit:
    """Circuit preparing the target from |00>: RY(q0, t1), RY(q1, t0), CZ, RY(q1, t2).

    Exact up to the global sign; the suite's convention test fixes this
    layout as the single consistent one for the simulator's conventions.
    """
    return Circuit(tuple(Gate(*g) for g in _prepare(target)))
