"""Gate and circuit descriptions for the {Ry, X, CZ} gate set.

Gates are plain value objects; the matrices live in `simulator`.  CZ is
symmetric between the two qubits, so it carries neither qubit nor angle and
its JSON form is just {"kind": "cz"}.  Inside the package a gate is the
tuple (kind, qubit, angle) of a Gate's fields, as `_core` works on it, and a
Gate iterates over them, so code that reads gates takes either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ._core import _inverse

_KINDS = ("ry", "x", "cz")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubit: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cz":
            if self.qubit is not None or self.angle is not None:
                raise ValueError("cz takes neither qubit nor angle")
            return
        # A qubit is the int 0 or 1: 0.0 and True compare equal to one but would be written back as given.
        if type(self.qubit) is not int or self.qubit not in (0, 1):
            raise ValueError(f"{self.kind} gate needs qubit 0 or 1, got {self.qubit!r}")
        if self.kind == "x":
            if self.angle is not None:
                raise ValueError("x gate takes no angle")
            return
        if self.angle is None or isinstance(self.angle, (str, bool)) or not math.isfinite(float(self.angle)):
            raise ValueError(f"ry gate needs a finite angle, got {self.angle!r}")
        object.__setattr__(self, "angle", float(self.angle))

    @classmethod
    def ry(cls, qubit: int, angle: float) -> "Gate":
        return cls("ry", qubit, angle)

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls("x", qubit)

    @classmethod
    def cz(cls) -> "Gate":
        return cls("cz")

    def __iter__(self) -> Iterator:
        return iter((self.kind, self.qubit, self.angle))

    def inverse(self) -> "Gate":
        return Gate(*_inverse(self))

    def to_dict(self) -> dict:
        if self.kind == "cz":
            return {"kind": "cz"}
        if self.kind == "x":
            return {"kind": "x", "qubit": self.qubit}
        return {"kind": "ry", "qubit": self.qubit, "angle": self.angle}

    @classmethod
    def from_dict(cls, data: dict) -> "Gate":
        kind = data.get("kind")
        if kind == "cz":
            return cls.cz()
        if kind == "x":
            return cls.x(data["qubit"])
        if kind == "ry":
            return cls.ry(data["qubit"], data["angle"])
        raise ValueError(f"unknown gate kind {kind!r}")


@dataclass(frozen=True)
class Circuit:
    """An ordered tuple of gates, applied left to right."""

    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise ValueError(f"circuit entries must be Gate, got {g!r}")
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def inverse(self) -> "Circuit":
        return Circuit(tuple(g.inverse() for g in reversed(self.gates)))

    @property
    def cz_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cz")

    def to_dict(self) -> dict:
        return {"gates": [g.to_dict() for g in self.gates]}

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        return cls(tuple(Gate.from_dict(g) for g in data["gates"]))
