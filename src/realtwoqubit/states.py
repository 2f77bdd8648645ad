"""Real-amplitude two-qubit states and the Bell-basis change of coordinates.

A state is a unit vector (w1, w2, w3, w4) of amplitudes for |00>, |01>, |10>,
|11>.  The Bell basis used throughout is

    v1 = (|00> - |11>)/sqrt(2),   v2 = (|01> + |10>)/sqrt(2),
    v3 = (|00> + |11>)/sqrt(2),   v4 = (|01> - |10>)/sqrt(2),

an orthonormal basis of the real span, so the coordinate change is the
orthogonal matrix with these rows.  States that differ only by a global sign
are physically identical; nothing here canonicalizes the sign, and
`sign_residual` measures the distance between two states up to +-1.

Inside the package a state is the plain 4-tuple of its amplitudes, validated
once by `_unit` where it is made: from input, by the Bell change or by a
circuit.  `_unit`, the Bell change, the concurrence, the sign residual and
the fold that gives d and the sheet live in the core's `_state` part; this
module makes RealState and BellCoords the same 4-tuples as named tuples, and
`_checked_dict` checks the dict every loader reads.  Every object-API
function that reads a state, `concurrence` and `sign_residual` here
included, reads it through `from_vector`, which passes a record of its class
as it is, refuses the other record class and checks anything else; the
functions that return one wrap the core's tuple without checking it again.
"""

from collections import namedtuple

from ._core import _integer, _number
from ._state import _concurrence, _from_bell, _sign_residual, _to_bell, _unit


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
    """The body RealState and BellCoords share: a named tuple of four finite floats of unit norm.

    `_key` names the list in the dict form and `_noun` the components in
    error messages.
    """

    __slots__ = ()
    #: An instance holding a 4-tuple _unit returned, not checked or divided again.
    _wrap = classmethod(tuple.__new__)

    def __new__(cls, *args, **kwargs):
        fields = super().__new__(cls, *args, **kwargs)
        values = [_number(v) for v in fields]
        if None in values:
            raise ValueError(f"{cls._noun}s must be numbers, got {list(fields)!r}")
        return cls._wrap(_unit(*values, cls._noun))

    def __reduce__(self):
        # As _wrap makes it: dividing a unit tuple by its norm again moves an ulp in about 3% of states.
        return tuple.__new__, (type(self), tuple(self))

    # A state equals only its own class: RealState(0, 0, 1, 0) is |10>, BellCoords(0, 0, 1, 0) is v3.
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def from_vector(cls, vec):
        """An instance passes as it is, the other record class is refused and anything else goes to the constructor."""
        if isinstance(vec, cls):
            return vec
        if isinstance(vec, _UnitVector):
            raise ValueError(f"expected {cls._noun}s, got {vec!r}")
        values = tuple(vec) if hasattr(vec, "__iter__") else (vec,)
        if len(values) != 4:
            raise ValueError(f"expected 4 {cls._noun}s, got {vec!r}")
        return cls(*values)

    # The named tuple's own _make, which _replace calls too, would skip the constructor's check.
    _make = from_vector

    def to_dict(self) -> dict:
        return {self._key: list(self)}

    @classmethod
    def from_dict(cls, data: dict):
        return cls.from_vector(_checked_dict(data, cls.__name__, (cls._key,))[cls._key])


class RealState(_UnitVector, namedtuple("RealState", "w1 w2 w3 w4")):
    """Unit vector of real amplitudes for |00>, |01>, |10>, |11>."""

    __slots__ = ()
    _key = "w"
    _noun = "amplitude"


class BellCoords(_UnitVector, namedtuple("BellCoords", "x1 x2 x3 x4")):
    """Coordinates (x1, x2, x3, x4) of a state in the Bell basis v1..v4."""

    __slots__ = ()
    _key = "x"
    _noun = "Bell coordinate"


def to_bell(state: RealState) -> BellCoords:
    """Bell coordinates of a state.

    x1 = (w1 - w4)/sqrt(2), x2 = (w2 + w3)/sqrt(2),
    x3 = (w1 + w4)/sqrt(2), x4 = (w2 - w3)/sqrt(2).
    """
    return BellCoords._wrap(_to_bell(RealState.from_vector(state)))


def from_bell(coords: BellCoords) -> RealState:
    """The state with the given Bell coordinates (inverse of to_bell).

    w1 = (x1 + x3)/sqrt(2), w2 = (x2 + x4)/sqrt(2),
    w3 = (x2 - x4)/sqrt(2), w4 = (x3 - x1)/sqrt(2).
    """
    return RealState._wrap(_from_bell(BellCoords.from_vector(coords)))


def concurrence(state: RealState) -> float:
    """2|w1*w4 - w2*w3|: 0 for product states, 1 for maximally entangled ones."""
    return _concurrence(RealState.from_vector(state))


def sign_residual(a: RealState, b: RealState) -> float:
    """min(||a - b||, ||a + b||), the distance between two states ignoring the global sign."""
    return _sign_residual(*map(RealState.from_vector, (a, b)))


def bell_basis_state(index: int) -> RealState:
    """The index-th Bell basis vector, index in 1..4 matching v1..v4."""
    if (k := _integer(index)) not in (1, 2, 3, 4):
        raise ValueError(f"Bell basis index must be 1..4, got {index}")
    return from_bell(BellCoords(*(float(i == k) for i in (1, 2, 3, 4))))
