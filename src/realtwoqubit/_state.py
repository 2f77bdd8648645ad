"""The state primitives on 4-tuples that classify, prepare and connect share, and their per-line loop."""

import codecs
import math
import sys

from ._core import DEFAULT_TOL

#: Construction renormalizes inputs whose norm deviates from 1 by less than
#: this, and rejects anything worse.
NORM_SLACK = 1e-6

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_BELL_NOUN = "Bell coordinate"

#: Bytes per stdin read: the chunk size of sys.stdin itself, so a decoding error names the same position.
_READ_SIZE = 8192


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


def _reads():
    """The stdin text, one string per read, ended by a newline so that a last line without one is complete.

    A read takes what stdin holds, waiting only when it holds nothing; its
    bytes are decoded as sys.stdin would, without newline translation.  An
    in-memory stream never waits, so its whole text is one read.
    """
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        yield sys.stdin.read() + "\n"
        return
    decode = codecs.getincrementaldecoder(sys.stdin.encoding)(sys.stdin.errors).decode
    while chunk := buffer.read1(_READ_SIZE):
        yield decode(chunk)
    yield decode(b"", True) + "\n"


def _records(run, args):
    """Yield the records of the inputs, one text per stdin read: the argv numbers, else each non-blank stdin line.

    A stdin line's errors are led by `line N: `; the records of the lines before it in its read are yielded first.
    """
    if args.values:
        yield run(args, *_states_from_values(args.values, args.per_line))
        return
    number, tail = 0, ""
    for text in _reads():
        *lines, tail = (tail + text).split("\n")  # "\n" only, as sys.stdin splits lines
        records = []
        try:
            for number, line in enumerate(lines, number + 1):
                tokens = line.split()
                if not tokens:
                    continue
                try:
                    values = [*map(float, tokens)]
                except ValueError:
                    raise ValueError(f"malformed input line {line.strip()!r}") from None
                records.append(run(args, *_states_from_values(values, args.per_line)))
        except ValueError as exc:  # parsing, checking or writing; the class is kept, so ORBIT_MISMATCH still exits 3
            yield "".join(records)
            raise type(exc)(f"line {number}: {exc}") from None
        yield "".join(records)
