"""The state primitives on 4-tuples that classify, prepare and connect share, and their input reader."""

import math
import sys

from ._core import DEFAULT_TOL

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
        # hypot, unlike the sum of squares, neither overflows nor underflows on a far-off norm.
        raise ValueError(f"{noun} vector has norm {math.hypot(a, b, c, d)!r}, not within {NORM_SLACK} of 1")
    return a / norm, b / norm, c / norm, d / norm


def _to_bell(state) -> tuple:
    w1, w2, w3, w4 = state
    # The change is orthogonal, so the norm checked is the caller's: an amplitude vector here, Bell coordinates below.
    return _unit((w1 - w4) * _INV_SQRT2, (w2 + w3) * _INV_SQRT2, (w1 + w4) * _INV_SQRT2, (w2 - w3) * _INV_SQRT2)


def _from_bell(coords) -> tuple:
    x1, x2, x3, x4 = coords
    return _unit((x1 + x3) * _INV_SQRT2, (x2 + x4) * _INV_SQRT2, (x2 - x4) * _INV_SQRT2, (x3 - x1) * _INV_SQRT2, _BELL_NOUN)


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


def _distance(bell) -> float:
    """d from Bell coordinates: atan2 of the smaller Bell-plane radius over the larger."""
    x1, x2, x3, x4 = bell
    r12, r34 = math.hypot(x1, x2), math.hypot(x3, x4)
    return math.atan2(r12, r34) if r12 <= r34 else math.atan2(r34, r12)


def _chart(state) -> tuple[float, float, float]:
    """d and the angles of the state in the (x1, x2) and (x3, x4) planes, from one Bell change."""
    x1, x2, x3, x4 = x = _to_bell(state)
    return _distance(x), math.atan2(x2, x1), math.atan2(x4, x3)


def _states_from_values(values: list[float], per_line: int) -> list[tuple]:
    if len(values) != per_line:
        raise ValueError(f"expected {per_line} numbers, got {len(values)}")
    return [*map(_unit, *[iter(values)] * 4)]  # one iterator four times: each _unit takes the next four values


def _input_batches(args_values: list[float], per_line: int):
    """Yield lists of unit 4-tuples, one per input: argv values or stdin lines."""
    if args_values:
        yield _states_from_values(args_values, per_line)
        return
    for number, line in enumerate(sys.stdin, 1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            try:
                values = [*map(float, tokens)]
            except ValueError:
                raise ValueError(f"malformed input line {line.strip()!r}") from None
            states = _states_from_values(values, per_line)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        yield states
