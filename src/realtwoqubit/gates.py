"""Gate and circuit descriptions for the {Ry, X, CZ} gate set.

Gates are plain value objects; `simulator` applies them.  CZ is symmetric
between the two qubits, so it carries neither qubit nor angle and its JSON
form is just {"kind": "cz"}.  The constructor alone checks which fields a
kind takes: `to_dict` keeps the fields that are not None, and `from_dict`
passes the dict's fields back in, once `states._checked_dict` has refused a
non-dict or an unknown key.  Inside the package a gate is the tuple (kind,
qubit, angle), as the core's `_synthesis` works on it, and a Gate is that
tuple as a named tuple and a Circuit a tuple of Gates, so code that reads
gates takes either form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._synthesis import _inverse
from .states import _checked_dict, _number

_KINDS = ("ry", "x", "cz")


class Gate(namedtuple("Gate", "kind qubit angle", defaults=(None, None))):
    __slots__ = ()
    # The named tuple's own _make, which _replace calls too, would skip the constructor's check.
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, kind: str, qubit: int | None = None, angle: float | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "cz":
            if qubit is not None or angle is not None:
                raise ValueError("cz takes neither qubit nor angle")
        # A qubit is the int 0 or 1: 0.0 and True compare equal to one but would be written back as given.
        elif type(qubit) is not int or qubit not in (0, 1):
            raise ValueError(f"{kind} gate needs qubit 0 or 1, got {qubit!r}")
        elif kind == "x":
            if angle is not None:
                raise ValueError("x gate takes no angle")
        else:
            value = _number(angle)
            if value is None or not math.isfinite(value):
                raise ValueError(f"ry gate needs a finite angle, got {angle!r}")
            angle = value
        return tuple.__new__(cls, (kind, qubit, angle))

    @classmethod
    def ry(cls, qubit: int, angle: float) -> "Gate":
        return cls("ry", qubit, angle)

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls("x", qubit)

    @classmethod
    def cz(cls) -> "Gate":
        return cls("cz")

    def inverse(self) -> "Gate":
        return Gate(*_inverse(self))

    def to_dict(self) -> dict:
        return {name: value for name, value in self._asdict().items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "Gate":
        # A missing qubit or angle reads as None, so the constructor's rule decides which a kind needs.
        return cls(**_checked_dict(data, "Gate", ("kind",), ("qubit", "angle")))


class Circuit(tuple):
    """An ordered tuple of gates, applied left to right."""

    __slots__ = ()

    def __new__(cls, gates=()):
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise ValueError(f"circuit entries must be Gate, got {g!r}")
        return tuple.__new__(cls, gates)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Circuit(gates={self.gates!r})"

    def inverse(self) -> "Circuit":
        return Circuit(g.inverse() for g in reversed(self))

    @property
    def cz_count(self) -> int:
        return sum(1 for g in self if g.kind == "cz")

    def to_dict(self) -> dict:
        return {"gates": [g.to_dict() for g in self]}

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        gates = _checked_dict(data, "Circuit", ("gates",))["gates"]
        if not isinstance(gates, list):
            raise ValueError(f"Circuit 'gates' must be a list of gate dicts, got {gates!r}")
        return cls(Gate.from_dict(g) for g in gates)
