"""The plain-float core: every formula the command line runs, on 4-tuples.

A state here is the tuple (w1, w2, w3, w4) of its amplitudes, validated once
by `_unit` where it is made, and a gate the tuple (kind, qubit, angle).  This
module imports only math and itertools, so a CLI run that classifies,
prepares, connects or meshes loads nothing else of the package.  The object
API (`states`, `gates`, `simulator`, `geometry`, `synthesis`) wraps these
functions, and each of its modules re-exports the core names on its subject
(the sections below), so one formula has one implementation whichever path
imports it.
"""

import math
from itertools import chain

# ----------------------------------------------------------------- states

#: Default verification tolerance for equality predicates.
DEFAULT_TOL = 1e-10

#: Construction renormalizes inputs whose norm deviates from 1 by less than
#: this, and rejects anything worse.
NORM_SLACK = 1e-6

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_BELL_NOUN = "Bell coordinate"


def _unit(a: float, b: float, c: float, d: float, noun: str = "amplitude") -> tuple[float, float, float, float]:
    """The one validation of a 4-vector: finite, norm within NORM_SLACK of 1, divided by its norm."""
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    # A non-finite component makes the norm inf or nan, and nan fails every comparison.
    if not abs(norm - 1.0) < NORM_SLACK:
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            raise ValueError(f"{noun} components must be finite, got {(a, b, c, d)}")
        raise ValueError(f"{noun} vector has norm {norm!r}, not within {NORM_SLACK} of 1")
    return a / norm, b / norm, c / norm, d / norm


def _to_bell(state) -> tuple:
    w1, w2, w3, w4 = state
    x = (w1 - w4) * _INV_SQRT2, (w2 + w3) * _INV_SQRT2, (w1 + w4) * _INV_SQRT2, (w2 - w3) * _INV_SQRT2
    return _unit(*x, _BELL_NOUN)


def _from_bell(coords) -> tuple:
    x1, x2, x3, x4 = coords
    return _unit((x1 + x3) * _INV_SQRT2, (x2 + x4) * _INV_SQRT2, (x2 - x4) * _INV_SQRT2, (x3 - x1) * _INV_SQRT2)


def _minor(state) -> float:
    # (r34^2 - r12^2)/2 in terms of the Bell-plane radii: half of +-cos 2d.
    w1, w2, w3, w4 = state
    return w1 * w4 - w2 * w3


def concurrence(state) -> float:
    """2|w1*w4 - w2*w3|: 0 for product states, 1 for maximally entangled ones."""
    return 2.0 * abs(_minor(state))


def on_v34_side(state) -> bool:
    """True when w1*w4 - w2*w3 >= 0: the state is at least as close to E(v3, v4) as to E(v1, v2).

    The one sheet test: a zero product, which only the product torus has,
    counts as V34.
    """
    return _minor(state) >= 0.0


def sign_residual(a, b) -> float:
    """min(||a - b||, ||a + b||), the distance between states ignoring the global sign."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return min(math.hypot(a1 - b1, a2 - b2, a3 - b3, a4 - b4), math.hypot(a1 + b1, a2 + b2, a3 + b3, a4 + b4))


def states_equal_up_to_sign(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True when a equals b or -b within tol."""
    return sign_residual(a, b) <= tol


# ------------------------------------------------------------ gates, simulator

# Inside the package a gate is the plain tuple (kind, qubit, angle) of a Gate's fields,
# and a Gate iterates over them, so code that reads gates takes either form.
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


# ---------------------------------------------------------------- geometry

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

#: Slack allowed when validating a distance argument against [0, pi/4].
_DOMAIN_SLACK = 1e-12

_LN2 = math.log(2.0)


def _checked_distance(d: float) -> float:
    d = float(d)
    if not (-_DOMAIN_SLACK <= d <= QUARTER_PI + _DOMAIN_SLACK):
        raise ValueError(f"distance {d!r} outside [0, pi/4]")
    return min(max(d, 0.0), QUARTER_PI)


def _distance(bell) -> float:
    """d from Bell coordinates: atan2 of the smaller Bell-plane radius over the larger."""
    x1, x2, x3, x4 = bell
    r12, r34 = math.hypot(x1, x2), math.hypot(x3, x4)
    return math.atan2(r12, r34) if r12 <= r34 else math.atan2(r34, r12)


def _chart(state) -> tuple[float, float, float]:
    """d and the angles of the state in the (x1, x2) and (x3, x4) planes, from one Bell change."""
    x1, x2, x3, x4 = x = _to_bell(state)
    return _distance(x), math.atan2(x2, x1), math.atan2(x4, x3)


def _classify(state, bell, class_tol: float = DEFAULT_CLASS_TOL) -> tuple[str, float, str]:
    """(kind, d, sheet) of a state whose Bell coordinates are `bell`; see geometry.classify."""
    d = _distance(bell)
    if d <= class_tol:
        kind = MAX_ENTANGLED
    elif abs(d - QUARTER_PI) <= class_tol:
        return PRODUCT, d, SHEET_BOTH
    else:
        kind = GENERIC
    return kind, d, SHEET_V34 if on_v34_side(state) else SHEET_V12


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


def _mesh_rows(d: float, n_a: int, n_b: int, conv):
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


def mesh_to_csv(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as CSV text: the header u1,u2,u3,d,sheet, then one chunk per grid row.

    Numbers in full (repr).  A bad request raises ValueError here, before any text is made.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    tail = f",{d!r},"
    rows = _mesh_rows(d, n_a, n_b, repr)
    text = ("".join([f"{u1},{u2},{u3}{tail}{sheet}\n" for u1, u2, u3, sheet in row]) for row in rows)
    return chain(["u1,u2,u3,d,sheet\n"], text)


def mesh_to_json(d: float, n_a: int, n_b: int):
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


# --------------------------------------------------------------- synthesis


class OrbitMismatchError(ValueError):
    """Local gates cannot connect states at different distances d."""


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    return math.pi if t <= -math.pi else t


def residual(circuit, source, target) -> float:
    """min(||out - target||, ||out + target||) for out the circuit's output on source."""
    return sign_residual(_apply(circuit, source), target)


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


def _intersection(d0: float, d1: float) -> tuple:
    if not (0.0 <= d1 < d0 <= math.pi / 4.0 + _DOMAIN_SLACK):
        raise ValueError(f"need pi/4 >= d0 > d1 >= 0, got d0 = {d0!r}, d1 = {d1!r}")
    s0, s1 = math.sin(d0), math.sin(d1)
    return _from_bell(_unit(0.0, s1, math.sqrt(max(s0 * s0 - s1 * s1, 0.0)), math.cos(d0), _BELL_NOUN))


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


def preparation_angles(target) -> tuple[float, float, float]:
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


def _prepare(target) -> tuple:
    t1, t0, t2 = preparation_angles(target)
    return ("ry", 0, t1), ("ry", 1, t0), _CZ, ("ry", 1, t2)
