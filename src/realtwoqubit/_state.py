"""The state primitives on 4-tuples that classify, prepare and connect share, and the batch step of their records."""

import math
from itertools import chain, repeat

#: Construction renormalizes inputs whose norm deviates from 1 by less than
#: this, and rejects anything worse.
NORM_SLACK = 1e-6

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    return _unit((w1 - w4) * _INV_SQRT2, (w2 + w3) * _INV_SQRT2, (w1 + w4) * _INV_SQRT2, (w2 - w3) * _INV_SQRT2)


def _from_bell(coords) -> tuple:
    x1, x2, x3, x4 = coords
    return _unit((x1 + x3) * _INV_SQRT2, (x2 + x4) * _INV_SQRT2, (x2 - x4) * _INV_SQRT2, (x3 - x1) * _INV_SQRT2)


def _concurrence(state) -> float:
    """2|w1*w4 - w2*w3|: 0 for product states, 1 for maximally entangled ones."""
    w1, w2, w3, w4 = state
    return 2.0 * abs(w1 * w4 - w2 * w3)


def _sign_residual(a, b) -> float:
    """min(||a - b||, ||a + b||), the distance between states ignoring the global sign."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return min(math.hypot(a1 - b1, a2 - b2, a3 - b3, a4 - b4), math.hypot(a1 + b1, a2 + b2, a3 + b3, a4 + b4))


def _distance(bell) -> tuple[float, bool]:
    """d and the sheet (True: V34, ties too) by one fold: atan2 of the smaller Bell-plane radius over the larger."""
    x1, x2, x3, x4 = bell
    r12, r34 = math.hypot(x1, x2), math.hypot(x3, x4)
    return (math.atan2(r12, r34), True) if r12 <= r34 else (math.atan2(r34, r12), False)


def _chart(state) -> tuple[float, bool, float, float]:
    """d, the sheet (True: V34) and the angles in the (x1, x2) and (x3, x4) planes, from one Bell change."""
    x1, x2, x3, x4 = x = _to_bell(state)
    return (*_distance(x), math.atan2(x2, x1), math.atan2(x4, x3))


def _fill(records: list, run, args, rows) -> None:
    """Extend records with run(args, *states) per non-blank row of args.per_line numbers: one pipeline of maps.

    A blank row is empty.  The rows before the first non-blank one of a wrong count are made, then it is refused.
    Each four numbers are read by float and checked by _unit, one iterator four times; `list.extend` keeps the
    records made before an error, so len(records) counts the non-blank rows that came through.
    """
    per_line, sizes = args.per_line, [*map(len, rows)]
    # The one count check: the first row of neither 0 nor per_line tokens, else the end.
    end = min(map(sizes.index, {*sizes} - {0, per_line}), default=len(rows))
    states = map(_unit, *[map(float, chain.from_iterable(rows[:end]))] * 4)
    records.extend(map(run, repeat(args), *[states] * (per_line // 4)))
    if end < len(rows):  # argv's message; a stdin line's is _usage._numbered's, which counts the whole line
        raise ValueError(f"expected {per_line} numbers, got {len(rows[end])}")
