"""Orbit geometry of real two-qubit states on the unit 3-sphere.

In Bell coordinates the sphere splits into two orthogonal planes,
span(v1, v2) and span(v3, v4).  Every circuit of Ry gates rotates each plane
rigidly (Ry(2s) x Ry(2t) rotates the (x1, x2) plane by s + t and the
(x3, x4) plane by t - s), so the plane radii are invariants.  Writing
r = sqrt(x1^2 + x2^2), the distance to the nearer maximally entangled circle

    d = min(arcsin r, pi/2 - arcsin r)  in  [0, pi/4]

labels the orbits:

* d = 0: the two circles E(v3, v4) and E(v1, v2), maximally entangled states;
* 0 < d < pi/4: a pair of tori, the sheet at distance d from E(v3, v4) and
  its mirror at distance d from E(v1, v2);
* d = pi/4: a single torus, exactly the product states.

The sign of w1*w4 - w2*w3 (half of cos 2d on the V34 sheet) tells the sheets
apart without computing distances twice (`_core.on_v34_side`).

The chart, the classification, the entropy from the concurrence and the mesh
walk with its text writers are in the plain-float core `_core`; this module
wraps them in the OrbitClass, TorusPoint and MeshPoint records and adds the
parametrization of a sheet and the sampling of an orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from ._core import DEFAULT_CLASS_TOL, QUARTER_PI, SHEET_V12, SHEET_V34, TWO_PI, _chart, _checked_distance
from ._core import _checked_grid, _classify, _mesh_rows, _to_bell, entropy_from_concurrence, on_v34_side
# Kept because perfbench/spans.py traces the mesh writer as geometry.mesh_to_csv.
from ._core import mesh_to_csv  # noqa: F401
from .states import BellCoords, RealState, from_bell

if TYPE_CHECKING:
    import numpy as np

#: Below this sin(d) the torus angle `a` is undefined (states on a circle).
DEGENERATE_SIN_D = 1e-9


class DegenerateAngleError(ValueError):
    """Torus angles requested on a maximally entangled circle, where `a` is undefined."""


@dataclass(frozen=True)
class OrbitClass:
    """Orbit label: kind in {max_entangled, generic, product}, distance d, sheet."""

    kind: str
    d: float
    sheet: str


@dataclass(frozen=True)
class TorusPoint:
    """Angles (a, b) of a state on its orbit sheet at distance d.

    On the V34 sheet, a is the angle in the (x1, x2) plane of radius sin(d)
    and b the angle in the (x3, x4) plane of radius cos(d); the V12 sheet
    mirrors the roles of the two planes.
    """

    d: float
    a: float
    b: float
    sheet: str


class MeshPoint(NamedTuple):
    """A sample of an orbit, projected into the unit ball by dropping x4 >= 0."""

    u1: float
    u2: float
    u3: float
    d: float
    sheet: str


def entanglement_distance(state: RealState) -> float:
    """Distance to the nearer maximally entangled circle, in [0, pi/4].

    Equal to min(arcsin r, pi/2 - arcsin r) with r = sqrt(x1^2 + x2^2);
    evaluated as atan2 of the smaller Bell-plane radius over the larger, the
    same fold computed stably at both circles, where the arcsin form loses
    half its digits.
    """
    return _chart(state)[0]


def classify(state: RealState, class_tol: float = DEFAULT_CLASS_TOL) -> OrbitClass:
    """Orbit class of a state.

    d <= class_tol is maximally entangled, |d - pi/4| <= class_tol is product
    (sheet BOTH, the two sheets coincide there), anything else is generic.
    The sheet comes from the sign of w1*w4 - w2*w3: V34 when it is positive
    or zero, V12 when negative.
    """
    return OrbitClass(*_classify(state, _to_bell(state), class_tol))


def entropy_from_distance(d: float) -> float:
    """Entanglement entropy (base 2) shared by every state at distance d.

    Binary entropy of (1 + sin 2d)/2, which is the closed form

        1 - log2( ((1+sin 2d)^(1+sin 2d) / (1-sin 2d)^(-1+sin 2d))^(1/2) )

    evaluated as entropy_from_concurrence(cos 2d), with cos 2d formed as
    sin(2 (pi/4 - d)) so that it is exactly 0 at d = pi/4.  Near pi/4 the
    entropy is ill-conditioned in d itself: half an ulp of d moves it by a
    relative ulp(d)/(pi/4 - d), 1e-8 at pi/4 - 1e-8.  A state's concurrence
    carries it to full precision (entropy_from_concurrence).  Raises
    ValueError outside [0, pi/4].
    """
    d = _checked_distance(d)
    return entropy_from_concurrence(math.sin(2.0 * (QUARTER_PI - d)))


def torus_angles(state: RealState) -> TorusPoint:
    """Angles of a state on its orbit sheet.

    Raises DegenerateAngleError when sin(d) < 1e-9: on the circles the
    small-radius plane carries no direction, so `a` is undefined.
    """
    d, angle12, angle34 = _chart(state)
    if math.sin(d) < DEGENERATE_SIN_D:
        raise DegenerateAngleError(
            f"state lies on a maximally entangled circle (sin d = {math.sin(d):.3e}); torus angle a is undefined"
        )
    if on_v34_side(state):
        return TorusPoint(d, angle12, angle34, SHEET_V34)
    return TorusPoint(d, angle34, angle12, SHEET_V12)


def parametrize(point: TorusPoint) -> RealState:
    """The state at angles (a, b) on the sheet at distance d.

    V34 sheet: (x1, x2, x3, x4) = (sin d cos a, sin d sin a, cos d cos b, cos d sin b);
    the V12 sheet swaps the roles of the two planes.  At d = 0 the a-plane
    has radius 0 and the point degenerates to the circle state with angle b.
    """
    d = _checked_distance(point.d)
    if point.sheet not in (SHEET_V34, SHEET_V12):
        raise ValueError(f"sheet must be {SHEET_V34!r} or {SHEET_V12!r}, got {point.sheet!r}")
    sd, cd = math.sin(d), math.cos(d)
    small = (sd * math.cos(point.a), sd * math.sin(point.a))
    large = (cd * math.cos(point.b), cd * math.sin(point.b))
    if point.sheet == SHEET_V34:
        x = (small[0], small[1], large[0], large[1])
    else:
        x = (large[0], large[1], small[0], small[1])
    return from_bell(BellCoords(*x))


def orbit_mesh(d: float, n_a: int, n_b: int) -> list[MeshPoint]:
    """Sample the whole orbit at distance d, projected into the unit ball.

    The projection keeps the x4 >= 0 half of the sphere and emits
    (u1, u2, u3) = (x1, x2, x3).  Generic d samples both sheets on an
    n_a x n_b angle grid, point (a, b) on the V34 sheet followed by its
    mirror on V12; d = pi/4 emits the single product torus; d = 0 emits the
    circle pair, where the circle lying in the x4 = 0 plane survives whole
    and the other is halved.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    return [MeshPoint(u1, u2, u3, d, sheet) for row in _mesh_rows(d, n_a, n_b, float) for u1, u2, u3, sheet in row]


def sample_orbit_states(d: float, count: int, rng: np.random.Generator) -> list[RealState]:
    """Random states on the orbit at distance d: uniform angles, fair-coin sheet."""
    d = _checked_distance(d)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    out = []
    for _ in range(count):
        sheet = SHEET_V34 if rng.random() < 0.5 else SHEET_V12
        out.append(parametrize(TorusPoint(d, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI), sheet)))
    return out
