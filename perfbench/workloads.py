"""Seeded input generation for the four benchmark workloads.

Every workload is a list of CLI invocations (argv after the program name,
stdin text, item count) built from the seed before any clock starts.  The
program under test sees only these inputs.  Stratum shares are fixed counts,
so two seeds differ in the draws inside each stratum, never in the mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("classify-mixed", "prepare-mixed", "connect-branches", "mesh-orbits")

#: The --tol every invocation passes, and the oracle's strict tolerance.
TOL = 1e-10
QUARTER_PI = math.pi / 4.0

# Rows are the Bell vectors v1..v4 in computational coordinates.
_S = 1.0 / math.sqrt(2.0)
BELL_ROWS = _S * np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])

#: State stream of classify-mixed and prepare-mixed: (stratum, share).
STATE_STRATA = (
    ("haar", 0.70),
    ("circle_d0", 0.05),
    ("circle_1e-9", 0.05),
    ("product", 0.05),
    ("near_product", 0.05),
    ("near_empty_pair", 0.10),
)

#: Pair stream of connect-branches: (stratum, share).
PAIR_STRATA = (
    ("identical", 0.10),
    ("circle", 0.10),
    ("torus", 0.20),
    ("sheet_swap", 0.15),
    ("cz_down", 0.15),
    ("cz_up", 0.15),
    ("cz_circle", 0.10),
    ("near_tol", 0.05),
)

STATE_LINES = 10_000
PAIRS = 2_000
MESH_GRID = 256
MESH_CIRCLE_NB = 65_536

SMOKE_STATE_LINES = 200
SMOKE_PAIRS = 80
SMOKE_MESH_GRID = 16
SMOKE_MESH_CIRCLE_NB = 64


@dataclass(frozen=True)
class Invocation:
    """One CLI run: subcommand arguments, stdin text and the items it should emit."""

    args: tuple[str, ...]
    stdin: str
    items: int
    inputs: object  # what the oracle needs: an (n, 4) / (n, 8) array, or a mesh request


@dataclass(frozen=True)
class MeshRequest:
    d: float
    na: int
    nb: int
    fmt: str


def _counts(strata, total: int) -> list[tuple[str, int]]:
    counts = [(name, int(round(share * total))) for name, share in strata]
    counts[0] = (counts[0][0], total - sum(c for _, c in counts[1:]))
    return counts


def _from_bell(x: np.ndarray) -> np.ndarray:
    return x @ BELL_ROWS


def _on_orbit(rng: np.random.Generator, d, n: int, sheet=None) -> np.ndarray:
    """n states at distance d (scalar or array) with uniform angles; sheet +1 is V34, -1 V12."""
    d = np.broadcast_to(np.asarray(d, dtype=float), (n,))
    a, b = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    if sheet is None:
        sheet = rng.choice([-1, 1], n)
    small = np.sin(d)[:, None] * np.stack([np.cos(a), np.sin(a)], axis=1)
    large = np.cos(d)[:, None] * np.stack([np.cos(b), np.sin(b)], axis=1)
    v34 = np.asarray(sheet)[:, None] > 0
    x = np.where(v34, np.hstack([small, large]), np.hstack([large, small]))
    return _from_bell(x)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal((n, 4))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _product(rng: np.random.Generator, n: int) -> np.ndarray:
    al, be = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    return np.stack([np.cos(al) * np.cos(be), np.cos(al) * np.sin(be), np.sin(al) * np.cos(be), np.sin(al) * np.sin(be)], 1)


def _near_empty_pair(rng: np.random.Generator, n: int) -> np.ndarray:
    eps = 10.0 ** rng.uniform(-10.0, -7.0, n)
    th, ps = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    small = eps[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
    large = np.sqrt(1.0 - eps * eps)[:, None] * np.stack([np.cos(ps), np.sin(ps)], 1)
    first_small = rng.random(n) < 0.5
    return np.where(first_small[:, None], np.hstack([small, large]), np.hstack([large, small]))


def _generic_d(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.02, QUARTER_PI - 0.02, n)


def state_stream(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) states: mostly Haar, fixed shares on each boundary stratum, shuffled."""
    makers = {
        "haar": lambda k: _haar(rng, k),
        "circle_d0": lambda k: _on_orbit(rng, 0.0, k),
        "circle_1e-9": lambda k: _on_orbit(rng, 1e-9, k),
        "product": lambda k: _product(rng, k),
        "near_product": lambda k: _on_orbit(rng, QUARTER_PI - 1e-8, k),
        "near_empty_pair": lambda k: _near_empty_pair(rng, k),
    }
    parts = [makers[name](k) for name, k in _counts(STATE_STRATA, n)]
    return rng.permutation(np.vstack(parts))


def pair_stream(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 8) source/target pairs with a fixed share of every synthesis branch, shuffled."""

    def same_orbit(k, d, swap_sheet):
        sheet = rng.choice([-1, 1], k)
        return np.hstack([_on_orbit(rng, d, k, sheet), _on_orbit(rng, d, k, -sheet if swap_sheet else sheet)])

    def identical(k):
        src = _haar(rng, k)
        return np.hstack([src, src * rng.choice([-1.0, 1.0], k)[:, None]])

    def circle(k):
        return same_orbit(k, np.where(rng.random(k) < 0.5, 0.0, 1e-9), swap_sheet=False)

    def cz(k, down):
        d1, d2 = _generic_d(rng, k), _generic_d(rng, k)
        hi, lo = np.maximum(d1, d2), np.minimum(d1, d2)
        src, tgt = (hi, lo) if down else (lo, hi)
        return np.hstack([_on_orbit(rng, src, k), _on_orbit(rng, tgt, k)])

    def cz_circle(k):
        edge = _on_orbit(rng, np.where(rng.random(k) < 0.5, 0.0, 1e-9), k)
        other = _on_orbit(rng, _generic_d(rng, k), k)
        edge_first = rng.random(k) < 0.5
        return np.where(edge_first[:, None], np.hstack([edge, other]), np.hstack([other, edge]))

    def near_tol(k):
        d = _generic_d(rng, k)
        gap = TOL * rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
        sheet = rng.choice([-1, 1], k)
        return np.hstack([_on_orbit(rng, d, k, sheet), _on_orbit(rng, d + gap, k, sheet)])

    makers = {
        "identical": identical,
        "circle": circle,
        "torus": lambda k: same_orbit(k, _generic_d(rng, k), swap_sheet=False),
        "sheet_swap": lambda k: same_orbit(k, _generic_d(rng, k), swap_sheet=True),
        "cz_down": lambda k: cz(k, down=True),
        "cz_up": lambda k: cz(k, down=False),
        "cz_circle": cz_circle,
        "near_tol": near_tol,
    }
    parts = [makers[name](k) for name, k in _counts(PAIR_STRATA, n)]
    return rng.permutation(np.vstack(parts))


def _lines(rows: np.ndarray) -> str:
    return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _mesh_points(req: MeshRequest) -> int:
    """Points the mesh must emit: the x4 >= 0 half of the orbit on the angle grid."""

    def upper(n):
        return sum(1 for i in range(n) if math.sin(2.0 * math.pi * i / n) >= 0.0)

    if req.d == 0.0:
        return upper(req.nb) + req.nb
    if req.d == QUARTER_PI:
        return req.na * upper(req.nb)
    return req.na * upper(req.nb) + upper(req.na) * req.nb


def build(workload: str, seed: int, smoke: bool = False) -> list[Invocation]:
    """The invocations of one round of a workload, generated from the seed."""
    rng = np.random.default_rng(seed)
    tol = ["--tol", repr(TOL)]
    if workload in ("classify-mixed", "prepare-mixed"):
        states = state_stream(rng, SMOKE_STATE_LINES if smoke else STATE_LINES)
        command = workload.split("-")[0]
        return [Invocation((command, *tol), _lines(states), len(states), states)]
    if workload == "connect-branches":
        pairs = pair_stream(rng, SMOKE_PAIRS if smoke else PAIRS)
        return [Invocation(("connect", *tol), _lines(pairs), len(pairs), pairs)]
    if workload == "mesh-orbits":
        grid = SMOKE_MESH_GRID if smoke else MESH_GRID
        circle_nb = SMOKE_MESH_CIRCLE_NB if smoke else MESH_CIRCLE_NB
        generic_d = float(rng.uniform(0.05, QUARTER_PI - 0.05))
        out = []
        for fmt in ("csv", "json"):
            for req in (
                MeshRequest(generic_d, grid, grid, fmt),
                MeshRequest(QUARTER_PI, grid, grid, fmt),
                MeshRequest(0.0, 2, circle_nb, fmt),
            ):
                args = ("mesh", "--d", repr(req.d), "--na", str(req.na), "--nb", str(req.nb), "--format", fmt, *tol)
                out.append(Invocation(args, "", _mesh_points(req), req))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def single_item(workload: str) -> Invocation:
    """The one-item invocation whose wall time is setup_s."""
    tol = ["--tol", repr(TOL)]
    if workload == "connect-branches":
        row = np.array([[1.0, 0.0, 0.0, 0.0, _S, 0.0, 0.0, _S]])
        return Invocation(("connect", *tol), _lines(row), 1, row)
    if workload == "mesh-orbits":
        req = MeshRequest(0.4, 2, 2, "json")
        args = ("mesh", "--d", repr(req.d), "--na", "2", "--nb", "2", "--format", "json", *tol)
        return Invocation(args, "", _mesh_points(req), req)
    row = np.array([[1.0, 0.0, 0.0, 0.0]])
    return Invocation((workload.split("-")[0], *tol), _lines(row), 1, row)

