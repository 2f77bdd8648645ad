"""The shared base of the plain-float core that the command line runs, split by subcommand.

A run compiles only what it executes: `_state`, then `_classify` or `_synthesis`, or `_mesh` alone.
The parts import only math, operator, sys, itertools and each other; the object API wraps them in its records,
so each formula has one implementation and each public name one import path.
"""

import math

#: Default verification tolerance for equality predicates.
DEFAULT_TOL = 1e-10

QUARTER_PI = math.pi / 4.0
TWO_PI = 2.0 * math.pi

SHEET_V34 = "V34"
SHEET_V12 = "V12"
SHEET_BOTH = "BOTH"

#: Slack allowed when validating a distance argument against [0, pi/4].
_DOMAIN_SLACK = 1e-12


def _checked_distance(d: float) -> float:
    d = float(d)
    if not (-_DOMAIN_SLACK <= d <= QUARTER_PI + _DOMAIN_SLACK):
        raise ValueError(f"distance {d!r} outside [0, pi/4]")
    return min(max(d, 0.0), QUARTER_PI)


def _checked_tol(tol: float) -> float:
    # The one tolerance rule, for the command line and the library connects; nan fails the comparison too.
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


class OrbitMismatchError(ValueError):
    """Local gates cannot connect states at different distances d."""
