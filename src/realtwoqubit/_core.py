"""The shared base of the plain-float core that the command line runs, split by subcommand.

A run compiles only what it executes: `_state` with `_classify` or `_synthesis`, `_mesh` alone, or `_sample`, `_state`
and `_mesh`.  The parts import only math, operator, itertools, each other and, in `_sample` alone, random; they do no
I/O, and the object API wraps them in its records, so each formula has one implementation and each name one import path.
"""

import math
import operator

#: Default verification tolerance for equality predicates.
DEFAULT_TOL = 1e-10

QUARTER_PI = math.pi / 4.0
TWO_PI = 2.0 * math.pi

SHEET_V34 = "V34"
SHEET_V12 = "V12"
SHEET_BOTH = "BOTH"

#: Slack allowed when validating a distance argument against [0, pi/4].
_DOMAIN_SLACK = 1e-12


def _number(value) -> float | None:
    """float(value) for a number; None for anything else, also for the text and bools float() reads."""
    try:
        return None if isinstance(value, (str, bytes, bytearray, bool)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _integer(value) -> int | None:
    """operator.index(value) for an integer; None for anything else, also for a bool, which int() and index() read."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _checked_distance(d: float) -> float:
    if (value := _number(d)) is None:
        raise ValueError(f"distance must be a number, got {d!r}")
    if not (-_DOMAIN_SLACK <= value <= QUARTER_PI + _DOMAIN_SLACK):
        raise ValueError(f"distance {value!r} outside [0, pi/4]")
    return min(max(value, 0.0), QUARTER_PI)


def _checked_tol(tol: float) -> float:
    # The one tolerance rule, for the command line and the library connects; a non-number reads as 0, and nan fails too.
    if not 0.0 < (value := _number(tol) or 0.0) < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return value


class OrbitMismatchError(ValueError):
    """Local gates cannot connect states at different distances d."""
