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
apart without computing distances twice (`states.on_v34_side`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .gates import Circuit, Gate
from .simulator import apply, ry_matrix, ry_matrix_deriv
from .states import BellCoords, RealState, _to_bell, from_bell, on_v34_side

if TYPE_CHECKING:
    import numpy as np

QUARTER_PI = math.pi / 4.0
TWO_PI = 2.0 * math.pi

SHEET_V34 = "V34"
SHEET_V12 = "V12"
SHEET_BOTH = "BOTH"

MAX_ENTANGLED = "max_entangled"
GENERIC = "generic"
PRODUCT = "product"

#: Classification snaps to the orbit-family boundaries within this.
DEFAULT_CLASS_TOL = 1e-9

#: Below this sin(d) the torus angle `a` is undefined (states on a circle).
DEGENERATE_SIN_D = 1e-9

#: Slack allowed when validating a distance argument against [0, pi/4].
_DOMAIN_SLACK = 1e-12

_LN2 = math.log(2.0)


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


def _checked_distance(d: float) -> float:
    d = float(d)
    if not (-_DOMAIN_SLACK <= d <= QUARTER_PI + _DOMAIN_SLACK):
        raise ValueError(f"distance {d!r} outside [0, pi/4]")
    return min(max(d, 0.0), QUARTER_PI)


def _chart(state: RealState) -> tuple[float, float, float]:
    """d and the angles of the state in the (x1, x2) and (x3, x4) planes, from one Bell change."""
    x1, x2, x3, x4 = _to_bell(state)
    r12, r34 = math.hypot(x1, x2), math.hypot(x3, x4)
    d = math.atan2(r12, r34) if r12 <= r34 else math.atan2(r34, r12)
    return d, math.atan2(x2, x1), math.atan2(x4, x3)


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
    d = entanglement_distance(state)
    if d <= class_tol:
        kind = MAX_ENTANGLED
    elif abs(d - QUARTER_PI) <= class_tol:
        return OrbitClass(PRODUCT, d, SHEET_BOTH)
    else:
        kind = GENERIC
    return OrbitClass(kind, d, SHEET_V34 if on_v34_side(state) else SHEET_V12)


def entropy_from_concurrence(c: float) -> float:
    """Entanglement entropy (base 2) of a state with concurrence c in [0, 1].

    Binary entropy of p = (1 + sqrt(1 - c^2))/2 (Wootters, PRL 80, 2245
    (1998)).  The smaller probability is formed as
    1 - p = c^2 / (2 (1 + sqrt(1 - c^2))) and its complement's logarithm with
    log1p, so nothing cancels near the product torus, where the entropy is
    tiny; the 0*log2(0) limit at c = 0 is taken as 0.  Inputs are clamped to
    [0, 1], absorbing the rounding of a computed concurrence.
    """
    c = min(max(c, 0.0), 1.0)
    q = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    if q == 0.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log1p(-q) / _LN2


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
    import numpy as np

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


#: The d = 0 circles are walked this many angles at a time, so a long circle never makes a long row.
_CIRCLE_CHUNK = 512


def _angle_grid(n: int, indices: range) -> tuple[list[float], list[float]]:
    """cos t and sin t at t = 2 pi i / n for i in indices."""
    angles = [TWO_PI * i / n for i in indices]
    return list(map(math.cos, angles)), list(map(math.sin, angles))


def _checked_grid(d: float, n_a: int, n_b: int) -> tuple[float, int, int]:
    d, n_a, n_b = _checked_distance(d), int(n_a), int(n_b)
    if n_a < 2 or n_b < 2:
        raise ValueError(f"grid sizes must be at least 2, got ({n_a}, {n_b})")
    return d, n_a, n_b


def _mesh_rows(d: float, n_a: int, n_b: int, conv: Callable[[float], object]) -> Iterator[list[tuple]]:
    """The (u1, u2, u3, sheet) of the mesh points, one non-empty list per row, for a checked grid.

    Every orbit is a product of two circles in the Bell planes, so each
    coordinate is an entry of a per-angle table: the trigonometry runs once
    per grid angle, and `conv` once per table entry, not once per point.  A
    row is one grid row of a torus, or at most _CIRCLE_CHUNK angles of a
    d = 0 circle, whose table is made per chunk.
    """
    if d <= _DOMAIN_SLACK:
        zero = conv(0.0)

        def chunks():
            # Each circle is walked on its own, one chunk's table at a time.
            for i in range(0, n_b, _CIRCLE_CHUNK):
                yield _angle_grid(n_b, range(i, min(i + _CIRCLE_CHUNK, n_b)))

        for cos_b, sin_b in chunks():
            # E(v3,v4): (0, 0, cos t, sin t); the x4 >= 0 cut keeps half of it.
            row = [(zero, zero, conv(c), SHEET_V34) for c, s in zip(cos_b, sin_b) if s >= 0.0]
            if row:
                yield row
        for cos_b, sin_b in chunks():
            # E(v1,v2): (cos t, sin t, 0, 0) has x4 = 0 identically: kept whole.
            yield [(conv(c), conv(s), zero, SHEET_V12) for c, s in zip(cos_b, sin_b)]
        return
    cos_b, sin_b = _angle_grid(n_b, range(n_b))
    sd, cd = math.sin(d), math.cos(d)
    # The (x1, x2) circle of radius sin d and the (x3, x4) circle of radius
    # cos d, with the sign test of each circle's second coordinate.
    small = [(conv(sd * c), conv(sd * s), s >= 0.0) for c, s in zip(*_angle_grid(n_a, range(n_a)))]
    large = [(conv(cd * c), conv(cd * s), s >= 0.0) for c, s in zip(cos_b, sin_b)]
    if abs(d - QUARTER_PI) <= _DOMAIN_SLACK:
        large_upper = [b1 for b1, _, b_up in large if b_up]
        for a1, a2, _ in small:
            yield [(a1, a2, b1, SHEET_BOTH) for b1 in large_upper]
        return
    for a1, a2, a_up in small:
        row = []
        for b1, b2, b_up in large:
            # V34 sheet: x4 = cos(d) sin(b)
            if b_up:
                row.append((a1, a2, b1, SHEET_V34))
            # V12 sheet: planes swapped, x4 = sin(d) sin(a)
            if a_up:
                row.append((b1, b2, a1, SHEET_V12))
        yield row


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


def mesh_to_csv(d: float, n_a: int, n_b: int) -> Iterator[str]:
    """orbit_mesh(d, n_a, n_b) as CSV text: the header u1,u2,u3,d,sheet, then one chunk per grid row.

    Numbers in full (repr).  A bad request raises ValueError here, before any text is made.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    tail = f",{d!r},"
    rows = _mesh_rows(d, n_a, n_b, repr)
    text = ("".join([f"{u1},{u2},{u3}{tail}{sheet}\n" for u1, u2, u3, sheet in row]) for row in rows)
    return chain(["u1,u2,u3,d,sheet\n"], text)


def mesh_to_json(d: float, n_a: int, n_b: int) -> Iterator[str]:
    """orbit_mesh(d, n_a, n_b) as JSON text {"d": d, "points": [{"u": [u1, u2, u3], "sheet": ...}, ...]}.

    One chunk per grid row.  Joined, byte for byte what json.dumps writes with its default
    separators for a float d, plus a newline.  A bad request raises ValueError here, as in mesh_to_csv.
    """
    checked, n_a, n_b = _checked_grid(d, n_a, n_b)
    rows = _mesh_rows(checked, n_a, n_b, repr)
    text = (
        (", " if i else "") + ", ".join([f'{{"u": [{u1}, {u2}, {u3}], "sheet": "{s}"}}' for u1, u2, u3, s in row])
        for i, row in enumerate(rows)
    )
    return chain([f'{{"d": {d!r}, "points": ['], text, ["]}\n"])


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
