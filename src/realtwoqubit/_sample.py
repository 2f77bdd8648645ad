"""Random states on an orbit: the torus formula, the draw loop and the sample subcommand, which streams its JSON."""

import math
from itertools import chain, islice

from ._core import TWO_PI, _checked_distance, _integer
from ._mesh import _CHUNK, _row_texts
from ._state import _from_bell, _unit


def _torus_state(d: float, v34: bool, a: float, b: float) -> tuple:
    """The state at angles (a, b) on the sheet at distance d: a in the plane of radius sin d, (x1, x2) on V34."""
    sd, cd = math.sin(d), math.cos(d)
    small, large = (sd * math.cos(a), sd * math.sin(a)), (cd * math.cos(b), cd * math.sin(b))
    return _from_bell(_unit(*(small + large if v34 else large + small)))


def _draws(d: float, count: int, rng):
    """The checked d and a generator of `count` states: per state rng.random() < 0.5 for V34, then a and b uniform."""
    d, n = _checked_distance(d), _integer(count)
    if n is None:
        raise ValueError(f"count must be an integer, got {count!r}")
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    return d, (_torus_state(d, rng.random() < 0.5, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)) for _ in range(n))


def _cmd_sample(args):
    """The sample text, _CHUNK states a chunk: byte for byte what json.dumps writes, the d clamped, plus a newline."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    import random
    d, states = _draws(args.d, args.count, random.Random(args.seed))
    column = (f"{w1!r}, {w2!r}, {w3!r}, {w4!r}" for w1, w2, w3, w4 in states)
    rows = ([('{"w": [', chunk, "]}")] for chunk in iter(lambda: [*islice(column, _CHUNK)], []))
    return chain([f'{{"d": {d!r}, "states": ['], _row_texts(rows, ", "), ["]}\n"])
