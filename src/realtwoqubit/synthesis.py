"""Gates, circuits, the exact simulator and circuit synthesis over {Ry, X, CZ}.

Gates are plain value objects; `apply` runs them.  Inside the package a gate
is the tuple (kind, qubit, angle) and a state the 4-tuple of its amplitudes:
the gate action, the solvers, the preparation angles and the residual work on
them in `_synthesis`.  A Gate is that tuple as a named tuple and a Circuit a
tuple of Gates, so code that reads gates takes either form; the functions
below wrap the core's results in Gate, Circuit, RealState and ConnectionPlan,
and each Gate is validated again on construction.  CZ is symmetric between
the two qubits, so it carries neither qubit nor angle and its JSON form is
just {"kind": "cz"}.  The constructor alone checks which fields a kind takes:
`to_dict` keeps the fields that are not None, and `from_dict` passes the
dict's fields back in, once `states._checked_dict` has refused a non-dict or
an unknown key.

Three constructive results, each verified against the simulator:

* local_connect: two states on the same orbit (equal distance d) are joined
  by local gates alone.  On a common torus the Bell planes rotate by s + t
  and t - s under Ry(2s) x Ry(2t), so matching both plane angles is a linear
  solve; an X on qubit 0 first swaps the sheets when the endpoints disagree,
  and on the circles, when 2 sin d <= tol, a single Ry(q0) suffices.
* cz_connect: any two states are joined with at most one CZ.  At equal d
  the plan is local_connect's: one core solver, `_connect`, serves both
  and refuses the CZ step for local_connect.  Otherwise the CZ image
  of the d0 torus meets the d1 torus (d0 > d1); one intersection point has
  Bell coordinates (0, sin d1, sqrt(sin^2 d0 - sin^2 d1), cos d0), reached
  locally from the source and left locally toward the target.
* prepare: any state is reached from |00> by the fixed template
  RY(q0, t1), RY(q1, t0), CZ, RY(q1, t2).

Plans never cancel the global sign: residuals are min over +-target.  Each
plan's residual comes from one simulation of its whole circuit on its
source.  All emitted angles are normalized to (-pi, pi].  Both connects
refuse a tol that is not positive and finite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from ._core import DEFAULT_TOL, _checked_tol
from ._synthesis import _apply, _connect, _intersection, _inverse, _prepare
from .states import RealState, _checked_dict, _number


class Gate(namedtuple("Gate", "kind qubit angle", defaults=(None, None))):
    __slots__ = ()
    # The named tuple's own _make, which _replace calls too, would skip the constructor's check.
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, kind: str, qubit: int | None = None, angle: float | None = None):
        if kind not in ("ry", "x", "cz"):
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "cz":
            if qubit is not None or angle is not None:
                raise ValueError("cz takes neither qubit nor angle")
        # A qubit is the int 0 or 1: 0.0 and True compare equal to one but would be written back as given.
        elif type(qubit) is not int or qubit not in (0, 1):
            raise ValueError(f"{kind} gate needs qubit 0 or 1, got {qubit!r}")
        elif kind == "x":
            if angle is not None:
                raise ValueError("x gate takes no angle")
        else:
            value = _number(angle)
            if value is None or not math.isfinite(value):
                raise ValueError(f"ry gate needs a finite angle, got {angle!r}")
            angle = value
        return tuple.__new__(cls, (kind, qubit, angle))

    @classmethod
    def ry(cls, qubit: int, angle: float) -> "Gate":
        return cls("ry", qubit, angle)

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls("x", qubit)

    @classmethod
    def cz(cls) -> "Gate":
        return cls("cz")

    def inverse(self) -> "Gate":
        return Gate(*_inverse(self))

    def to_dict(self) -> dict:
        return {name: value for name, value in self._asdict().items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "Gate":
        # A missing qubit or angle reads as None, so the constructor's rule decides which a kind needs.
        return cls(**_checked_dict(data, "Gate", ("kind",), ("qubit", "angle")))


class Circuit(tuple):
    """An ordered tuple of gates, applied left to right."""

    __slots__ = ()

    def __new__(cls, gates=()):
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise ValueError(f"circuit entries must be Gate, got {g!r}")
        return tuple.__new__(cls, gates)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Circuit(gates={self.gates!r})"

    def inverse(self) -> "Circuit":
        return Circuit(g.inverse() for g in reversed(self))

    @property
    def cz_count(self) -> int:
        return sum(1 for g in self if g.kind == "cz")

    def to_dict(self) -> dict:
        return {"gates": [g.to_dict() for g in self]}

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        gates = _checked_dict(data, "Circuit", ("gates",))["gates"]
        if not isinstance(gates, list):
            raise ValueError(f"Circuit 'gates' must be a list of gate dicts, got {gates!r}")
        return cls(Gate.from_dict(g) for g in gates)


def apply(circuit: Circuit, state: RealState) -> RealState:
    """Run the circuit gate by gate, left to right, exactly.

    Kronecker convention: the first tensor factor acts on qubit 0, the left
    label of the ket, so amplitudes are ordered (|00>, |01>, |10>, |11>) and a
    gate on qubit 0 lifts to kron(M, I).  The convention test in the suite
    pins this down via (Ry(-2t) x I)|v3> = cos(t) v3 + sin(t) v4.

    The four amplitudes are acted on in closed form (`_synthesis._apply`): Ry
    on qubit 0 rotates the pairs (w1, w3) and (w2, w4), Ry on qubit 1 rotates
    (w1, w2) and (w3, w4), X swaps the same pairs and CZ negates w4.  The
    dense Kronecker matrices and the partial-trace entropy it is checked
    against live in the suite (`tests/reference.py`), not here.
    """
    return RealState._wrap(_apply(circuit, state))


class ConnectionPlan(NamedTuple):
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
            **self.circuit.to_dict(),
            "intermediate": None if self.intermediate is None else self.intermediate.to_dict(),
            "cz_count": self.cz_count,
            "residual": self.residual,
        }


def _plan(gates: tuple, intermediate: tuple | None, res: float) -> ConnectionPlan:
    # The public plan: a Gate per emitted gate, and the intermediate state wrapped as it is.
    mid = None if intermediate is None else RealState._wrap(intermediate)
    return ConnectionPlan(Circuit(Gate(*g) for g in gates), mid, res)


def local_connect(source: RealState, target: RealState, tol: float = DEFAULT_TOL) -> ConnectionPlan:
    """Join two states on the same orbit by local gates.

    Shape is at most [X(q0)] RY(q0) RY(q1); equal states (up to sign) get an
    empty circuit.  Raises OrbitMismatchError when the distances differ by
    more than tol: the entanglement entropies differ, so no local circuit
    exists.
    """
    return _plan(*_connect(source, target, _checked_tol(tol), local_only=True))


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

    Same orbit, |d_s - d_t| <= tol, gets local_connect's plan (cz_count 0),
    made by the same core solver, `_synthesis._connect`.  Otherwise the plan
    runs locally from the higher-d endpoint to the CZ preimage of the
    intersection state, applies CZ, and runs locally to the lower-d endpoint;
    when the source is the lower one the whole circuit is inverted, so the
    reported intermediate is the intersection state either way.  Each
    endpoint is charted once, for the d comparison and for its leg.
    """
    return _plan(*_connect(source, target, _checked_tol(tol)))


def prepare(target: RealState) -> Circuit:
    """Circuit preparing the target from |00>: RY(q0, t1), RY(q1, t0), CZ, RY(q1, t2).

    Exact up to the global sign; the suite's convention test fixes this
    layout as the single consistent one for the simulator's conventions.
    A target that is not a RealState is read by RealState.from_vector, which
    refuses a vector that is not a state.
    """
    target = target if isinstance(target, RealState) else RealState.from_vector(target)
    return Circuit(Gate(*g) for g in _prepare(target))
