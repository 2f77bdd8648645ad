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

The same fold tells the sheets apart: V34 when r <= sqrt(x3^2 + x4^2), else
V12 (`_state._distance`).

The chart (`_state`), the classification and the entropy from the
concurrence (`_classify`), the mesh walk (`_mesh`), the torus formula and
the draws (`_sample`) are in the plain-float core; this module wraps them in
the OrbitClass, TorusPoint, MeshPoint and RealState records.  The `sample`
subcommand runs on `_sample` and loads no object-API module.
"""

import math
from typing import NamedTuple

from ._classify import DEFAULT_CLASS_TOL, _classify, _entropy
from ._core import QUARTER_PI, SHEET_V12, SHEET_V34, _checked_distance, _number
from ._mesh import _checked_grid, _mesh_rows
from ._sample import _draws, _torus_state
from ._state import _chart, _distance, _to_bell
from .states import RealState


class DegenerateAngleError(ValueError):
    """Torus angles requested on a maximally entangled circle, where `a` is undefined."""


class OrbitClass(NamedTuple):
    """Orbit label: kind in {max_entangled, generic, product}, distance d, sheet."""

    kind: str
    d: float
    sheet: str


class TorusPoint(NamedTuple):
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
    return _distance(_to_bell(RealState.from_vector(state)))[0]


def classify(state: RealState) -> OrbitClass:
    """Orbit class of a state.

    d <= DEFAULT_CLASS_TOL is maximally entangled, |d - pi/4| <=
    DEFAULT_CLASS_TOL is product (sheet BOTH, the two sheets coincide there),
    anything else is generic.
    The sheet comes from the fold that gives d: V34 when the (x1, x2) radius
    is at most the (x3, x4) one, V12 when it is larger.
    """
    return OrbitClass(*_classify(_to_bell(RealState.from_vector(state))))


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
    return _entropy(math.sin(2.0 * (QUARTER_PI - d)))


def torus_angles(state: RealState) -> TorusPoint:
    """Angles of a state on its orbit sheet.

    Raises DegenerateAngleError where classify says max_entangled (d <=
    DEFAULT_CLASS_TOL): there the small plane carries no direction for `a`.
    """
    d, v34, angle12, angle34 = _chart(RealState.from_vector(state))
    if d <= DEFAULT_CLASS_TOL:
        raise DegenerateAngleError(f"state lies on a maximally entangled circle (d = {d:.3e}); torus angle a is undefined")
    if v34:
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
    a, b = _number(point.a), _number(point.b)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"angles must be finite numbers, got a={point.a!r}, b={point.b!r}")
    return RealState._wrap(_torus_state(d, point.sheet == SHEET_V34, a, b))


def orbit_mesh(d: float, n_a: int, n_b: int) -> list[MeshPoint]:
    """Sample the whole orbit at distance d, projected into the unit ball.

    The projection keeps the x4 >= 0 half of the sphere and emits
    (u1, u2, u3) = (x1, x2, x3).  Generic d samples both sheets on an
    n_a x n_b angle grid, point (a, b) on the V34 sheet followed by its
    mirror on V12; d = pi/4 emits the single product torus; d = 0 emits the
    circle pair as the a = 0 row of a torus of radii 0 and 1, where the
    circle lying in the x4 = 0 plane survives whole and the other is halved:
    each upper angle's V34 point then its V12 mirror, then the V12 points of
    the lower angles.  The grid is walked tile-major in a, then chunk-major
    in b: a in tiles of 1024 angles, b in chunks of 128, every a row of a
    tile for one chunk before the tile's next chunk.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    # The walk in tuples: each left + entry + right of a run is the five fields of one point, or of two in turn.
    rows = _mesh_rows(d, n_a, n_b, lambda x: (x,), (), (), lambda sheet: (d, sheet), ())
    fields = (x for row in rows for left, column, right in row for entry in column for x in left + entry + right)
    return list(map(MeshPoint, *[fields] * 5))


def sample_orbit_states(d: float, count: int, rng) -> list[RealState]:
    """Random states on the orbit at distance d: uniform angles, fair-coin sheet.

    `rng` is any object with random() and uniform(a, b), such as a
    random.Random or a numpy Generator.  Raises ValueError for a count that
    is not a non-negative integer.
    """
    return [*map(RealState._wrap, _draws(d, count, rng)[1])]
