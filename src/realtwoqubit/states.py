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
circuit.  `_unit`, the Bell change, the concurrence and the sheet sign live
in the core's `_state` part; this module wraps the 4-tuples in RealState and
BellCoords, and `_checked_dict` checks the dict every loader reads.  A
RealState or BellCoords iterates over its four values, so every function
that only reads a state takes either form; the functions that return one
wrap the tuple without checking it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from ._state import _BELL_NOUN, _from_bell, _to_bell, _unit
# Kept because perfbench/spans.py traces them as states.concurrence and states.sign_residual.
from ._state import concurrence, sign_residual  # noqa: F401

if TYPE_CHECKING:
    import numpy as np


def _checked_dict(data, name: str, keys: tuple, optional: tuple = ()) -> dict:
    """The one check of a loader's input: a dict with each of `keys` and no key outside `keys` and `optional`."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} dict expected, got {data!r}")
    wrong = [f"missing key {k!r}" for k in keys if k not in data]
    wrong += [f"unknown key {k!r}" for k in data if k not in keys and k not in optional]
    if wrong:
        raise ValueError(f"{name} dict: {', '.join(wrong)}; got {data!r}")
    return data


class _UnitVector:
    """The body RealState and BellCoords share: four finite floats of unit norm.

    Each subclass is a frozen dataclass with four float fields and sets
    `_values`, an attrgetter of the four in order; `_key` names the list in
    the dict form and `_noun` the components in error messages.
    """

    def __post_init__(self):
        values = self._values(self)
        # float() reads "1" and True as numbers; a state is given numbers.
        if any(isinstance(v, (str, bool)) for v in values):
            raise ValueError(f"{self._noun}s must be numbers, got {list(values)!r}")
        self._set(_unit(*map(float, values), self._noun))

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
        values = list(vec)
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
        return cls.from_vector(_checked_dict(data, cls.__name__, (cls._key,))[cls._key])


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
