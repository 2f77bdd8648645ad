"""Real-amplitude two-qubit states and the Bell-basis change of coordinates.

A state is a unit vector (w1, w2, w3, w4) of amplitudes for |00>, |01>, |10>,
|11>.  The Bell basis used throughout is

    v1 = (|00> - |11>)/sqrt(2),   v2 = (|01> + |10>)/sqrt(2),
    v3 = (|00> + |11>)/sqrt(2),   v4 = (|01> - |10>)/sqrt(2),

an orthonormal basis of the real span, so the coordinate change is the
orthogonal matrix with these rows.  States that differ only by a global sign
are physically identical; nothing here canonicalizes the sign, and the
equality predicate compares up to +-1 explicitly.

Inside the package a state is the plain 4-tuple of its amplitudes, validated
once by `_unit` where it is made: from input, by the Bell change or by a
circuit.  A RealState or BellCoords iterates over its four values, so every
function that only reads a state takes either form; the functions that
return one wrap the tuple without checking it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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


class _UnitVector:
    """The body RealState and BellCoords share: four finite floats of unit norm.

    Each subclass is a frozen dataclass with four float fields and sets
    `_values`, an attrgetter of the four in order; `_key` names the list in
    the dict form and `_noun` the components in error messages.
    """

    def __post_init__(self):
        self._set(_unit(*map(float, self._values(self)), self._noun))

    def _set(self, values) -> None:
        # Field by field: touching __dict__ would take the fields out of
        # CPython's inline attribute storage and slow every later read.
        n1, n2, n3, n4 = self.__dataclass_fields__
        object.__setattr__(self, n1, values[0])
        object.__setattr__(self, n2, values[1])
        object.__setattr__(self, n3, values[2])
        object.__setattr__(self, n4, values[3])

    @classmethod
    def _wrap(cls, values):
        """An instance holding a 4-tuple _unit returned, not checked or divided again."""
        self = object.__new__(cls)
        self._set(values)
        return self

    def __iter__(self):
        return iter(self._values(self))

    @classmethod
    def from_vector(cls, vec):
        values = [float(v) for v in vec]
        if len(values) != 4:
            raise ValueError(f"expected 4 {cls._noun}s, got {len(values)}")
        return cls(*values)

    @property
    def vector(self) -> np.ndarray:
        import numpy as np

        return np.array(self._values(self))

    def to_dict(self) -> dict:
        return {self._key: list(self._values(self))}

    @classmethod
    def from_dict(cls, data: dict):
        return cls.from_vector(data[cls._key])


@dataclass(frozen=True)
class RealState(_UnitVector):
    """Unit vector of real amplitudes for |00>, |01>, |10>, |11>."""

    _key = "w"
    _noun = "amplitude"
    _values = attrgetter("w1", "w2", "w3", "w4")

    w1: float
    w2: float
    w3: float
    w4: float


@dataclass(frozen=True)
class BellCoords(_UnitVector):
    """Coordinates (x1, x2, x3, x4) of a state in the Bell basis v1..v4."""

    _key = "x"
    _noun = _BELL_NOUN
    _values = attrgetter("x1", "x2", "x3", "x4")

    x1: float
    x2: float
    x3: float
    x4: float


def _to_bell(state) -> tuple:
    w1, w2, w3, w4 = state
    x = (w1 - w4) * _INV_SQRT2, (w2 + w3) * _INV_SQRT2, (w1 + w4) * _INV_SQRT2, (w2 - w3) * _INV_SQRT2
    return _unit(*x, _BELL_NOUN)


def _from_bell(coords) -> tuple:
    x1, x2, x3, x4 = coords
    return _unit((x1 + x3) * _INV_SQRT2, (x2 + x4) * _INV_SQRT2, (x2 - x4) * _INV_SQRT2, (x3 - x1) * _INV_SQRT2)


def to_bell(state: RealState) -> BellCoords:
    """Bell coordinates of a state.

    x1 = (w1 - w4)/sqrt(2), x2 = (w2 + w3)/sqrt(2),
    x3 = (w1 + w4)/sqrt(2), x4 = (w2 - w3)/sqrt(2).
    """
    return BellCoords._wrap(_to_bell(state))


def from_bell(coords: BellCoords) -> RealState:
    """The state with the given Bell coordinates (inverse of to_bell).

    w1 = (x1 + x3)/sqrt(2), w2 = (x2 + x4)/sqrt(2),
    w3 = (x2 - x4)/sqrt(2), w4 = (x3 - x1)/sqrt(2).
    """
    return RealState._wrap(_from_bell(coords))


def bell_basis_state(index: int) -> RealState:
    """The index-th Bell basis vector, index in 1..4 matching v1..v4."""
    if index not in (1, 2, 3, 4):
        raise ValueError(f"Bell basis index must be 1..4, got {index}")
    x = [0.0, 0.0, 0.0, 0.0]
    x[index - 1] = 1.0
    return from_bell(BellCoords(*x))


def _minor(state) -> float:
    # (r34^2 - r12^2)/2 in terms of the Bell-plane radii: half of +-cos 2d.
    w1, w2, w3, w4 = state
    return w1 * w4 - w2 * w3


def concurrence(state: RealState) -> float:
    """2|w1*w4 - w2*w3|: 0 for product states, 1 for maximally entangled ones."""
    return 2.0 * abs(_minor(state))


def on_v34_side(state: RealState) -> bool:
    """True when w1*w4 - w2*w3 >= 0: the state is at least as close to E(v3, v4) as to E(v1, v2).

    The one sheet test: a zero product, which only the product torus has,
    counts as V34.
    """
    return _minor(state) >= 0.0


def sign_residual(a: RealState, b: RealState) -> float:
    """min(||a - b||, ||a + b||), the distance between states ignoring the global sign."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return min(math.hypot(a1 - b1, a2 - b2, a3 - b3, a4 - b4), math.hypot(a1 + b1, a2 + b2, a3 + b3, a4 + b4))


def states_equal_up_to_sign(a: RealState, b: RealState, tol: float = DEFAULT_TOL) -> bool:
    """True when a equals b or -b within tol."""
    return sign_residual(a, b) <= tol
