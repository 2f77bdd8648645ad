"""Independent output oracle.

Nothing here imports the package under test.  Circuits are re-simulated from
their gate JSON with this file's own 4x4 matrices; classify reports are
checked against d, class, sheet and entropy computed from the input
amplitudes, through the concurrence C = 2|w1 w4 - w2 w3| (Wootters, PRL 80,
2245 (1998)) rather than the package's plane-radius route, with mpmath near
the product torus where double precision cancels.

Each item gets two verdicts:

* strict: within the run's tolerance `tol` (this is what `fail_share`
  counts; the package's known boundary-stratum defects miss it);
* gross: within LOOSE.  A gross miss, a missing or malformed output line, or
  a non-zero exit means the program is broken rather than imprecise; the
  benchmark reports it as a failed operation and `correct: false`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.spatial import cKDTree

from workloads import BELL_ROWS, QUARTER_PI, MeshRequest

LOOSE = 1e-6

#: The documented classification contract: d <= CLASS_TOL is maximally
#: entangled, |d - pi/4| <= CLASS_TOL is product.
CLASS_TOL = 1e-9

#: Width of the input-rounding interval around the reference concurrence.  A
#: double-precision evaluation of C from rounded amplitudes cannot do better,
#: so an entropy inside [H(C - DC), H(C + DC)] (widened by tol) passes.
DC = 16.0 * 2.0**-53

#: Below this concurrence the entropy reference is evaluated with mpmath.
MP_BELOW_C = 1e-3

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_CZ = np.diag([1.0, 1.0, 1.0, -1.0])
_X4 = (np.kron(_X, _I2), np.kron(_I2, _X))


@dataclass
class Verdict:
    attempted: int = 0
    strict_fail: int = 0
    gross_fail: int = 0
    reasons: Counter = field(default_factory=Counter)
    max_error: dict = field(default_factory=dict)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.strict_fail += other.strict_fail
        self.gross_fail += other.gross_fail
        self.reasons.update(other.reasons)
        for k, v in other.max_error.items():
            self.max_error[k] = max(self.max_error.get(k, 0.0), v)


def fold(verdict: Verdict, n: int, errors: dict, tol: float, scale: dict | None = None) -> None:
    """Count the items whose error on any check exceeds tol * scale (strict) or LOOSE (gross).

    `scale` makes a strict check relative (entropy near the product torus);
    the gross check is always absolute.  NaN marks an item whose output was
    missing or malformed, already counted by reason; it misses both.
    """
    scale = scale or {}
    strict = np.zeros(n, dtype=bool)
    gross = np.zeros(n, dtype=bool)
    for name, err in errors.items():
        ratio = err / scale.get(name, 1.0)
        over = ratio > tol
        if over.any():
            verdict.reasons[name] += int(over.sum())
            finite = ratio[over & np.isfinite(ratio)]
            if finite.size:
                verdict.max_error[name] = max(verdict.max_error.get(name, 0.0), float(finite.max()))
        strict |= ~(ratio <= tol)
        gross |= ~(err <= LOOSE)
    verdict.attempted += n
    verdict.strict_fail += int(strict.sum())
    verdict.gross_fail += int(gross.sum())


def _missing(verdict: Verdict, n: int, reason: str) -> None:
    verdict.attempted += n
    verdict.strict_fail += n
    verdict.gross_fail += n
    verdict.reasons[reason] += n


# --------------------------------------------------------------------- states


def _entropy_of_c(c: np.ndarray) -> np.ndarray:
    """Binary entropy of p = (1 + sqrt(1 - C^2))/2, with 1 - p formed without cancellation."""
    c = np.clip(c, 0.0, 1.0)
    q = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(1.0 - q) * np.log1p(-q) / math.log(2.0) - np.where(q > 0.0, q * np.log2(q), 0.0)
    return h


def _mp_entropy_of_c(c) -> float:
    c = min(max(c, mpmath.mpf(0)), mpmath.mpf(1))
    q = c * c / (2 * (1 + mpmath.sqrt(1 - c * c)))
    if q == 0:
        return 0.0
    return float(-(1 - q) * mpmath.log(1 - q, 2) - q * mpmath.log(q, 2))


@dataclass
class StateReference:
    w: np.ndarray  # normalized amplitudes
    bell: np.ndarray  # Bell coordinates x1..x4 of w
    c: np.ndarray  # concurrence 2|w1 w4 - w2 w3|
    d: np.ndarray
    delta_sign: np.ndarray  # +1, -1 or 0
    h_lo: np.ndarray
    h_hi: np.ndarray
    pair_min: np.ndarray  # norm of the smaller amplitude pair


def state_reference(states: np.ndarray) -> StateReference:
    w = states / np.linalg.norm(states, axis=1, keepdims=True)
    delta = w[:, 0] * w[:, 3] - w[:, 1] * w[:, 2]
    c = 2.0 * np.abs(delta)
    sign = np.sign(delta)
    r12 = np.hypot(w[:, 0] - w[:, 3], w[:, 1] + w[:, 2]) / math.sqrt(2.0)
    r34 = np.hypot(w[:, 0] + w[:, 3], w[:, 1] - w[:, 2]) / math.sqrt(2.0)
    d = 0.5 * np.arctan2(2.0 * r12 * r34, c)
    h_lo = _entropy_of_c(c - DC)
    h_hi = _entropy_of_c(c + DC)
    with mpmath.workdps(50):
        for i in np.flatnonzero(c < MP_BELOW_C):
            v = [mpmath.mpf(float(x)) for x in states[i]]
            n2 = sum(x * x for x in v)
            dl = (v[0] * v[3] - v[1] * v[2]) / n2
            cm = 2 * abs(dl)
            sign[i] = (dl > 0) - (dl < 0)
            d[i] = float(mpmath.acos(cm) / 2)
            h_lo[i] = _mp_entropy_of_c(cm - DC)
            h_hi[i] = _mp_entropy_of_c(cm + DC)
    pair_min = np.minimum(np.hypot(w[:, 0], w[:, 1]), np.hypot(w[:, 2], w[:, 3]))
    return StateReference(w, w @ BELL_ROWS.T, c, d, sign, h_lo, h_hi, pair_min)


def state_strata(ref: StateReference) -> Counter:
    """Realised strata of a state stream, from the oracle's own d."""
    gap = QUARTER_PI - ref.d
    labels = np.select(
        [ref.d < 1e-12, ref.d < 1e-6, gap < 1e-12, ref.pair_min < 1e-6, gap < 1e-6],
        ["circle_d0", "circle_1e-9", "product", "near_empty_pair", "near_product"],
        "haar",
    )
    return Counter(labels.tolist())


def _parse_lines(text: str, n: int, verdict: Verdict) -> list:
    """JSON objects of the first n output lines; missing lines are counted and None fills them."""
    lines = text.splitlines()
    out = []
    for k in range(n):
        if k >= len(lines):
            out.append(None)
            continue
        try:
            obj = json.loads(lines[k])
        except ValueError:
            obj = None
        if not isinstance(obj, dict):
            verdict.reasons["malformed"] += 1
            obj = None
        out.append(obj)
    if len(lines) != n:
        verdict.reasons["missing" if len(lines) < n else "extra_lines"] += abs(len(lines) - n)
    return out


def check_classify(text: str, ref: StateReference, tol: float) -> Verdict:
    n = len(ref.d)
    verdict = Verdict()
    objs = _parse_lines(text, n, verdict)
    err = {k: np.full(n, np.nan) for k in ("d", "class", "sheet", "entropy", "bell", "concurrence")}
    for i, obj in enumerate(objs):
        try:
            d_out, h_out, kind, sheet = float(obj["d"]), float(obj["entropy"]), obj["class"], obj["sheet"]
            bell = np.array([float(x) for x in obj["bell"]])
            if bell.shape != (4,):
                raise ValueError("bell")
            c_out = float(obj["concurrence"])
        except (TypeError, KeyError, ValueError):
            verdict.reasons["malformed"] += obj is not None
            continue  # every check stays NaN
        d_ref = ref.d[i]
        err["d"][i] = abs(d_out - d_ref)
        err["bell"][i] = float(np.max(np.abs(bell - ref.bell[i])))
        err["concurrence"][i] = abs(c_out - ref.c[i])
        err["class"][i] = _class_slack(d_ref, kind)
        if kind == "product":
            err["sheet"][i] = 0.0 if sheet == "BOTH" else math.inf
        else:
            want = "V34" if ref.delta_sign[i] > 0 else "V12"
            err["sheet"][i] = 0.0 if sheet == want else math.inf
        err["entropy"][i] = max(ref.h_lo[i] - h_out, h_out - ref.h_hi[i], 0.0)
    # Entropy is judged relative to the reference: near the product torus
    # it is tiny, and only relative error shows a cancellation.
    fold(verdict, n, err, tol, {"entropy": ref.h_hi})
    return verdict


def _class_slack(d_ref: float, kind: str) -> float:
    """How far d_ref is from the nearest distance that the contract labels `kind`."""
    lo, hi = CLASS_TOL, QUARTER_PI - CLASS_TOL
    if kind == "max_entangled":
        return max(d_ref - lo, 0.0)
    if kind == "product":
        return max(hi - d_ref, 0.0)
    if kind == "generic":
        return max(lo - d_ref, d_ref - hi, 0.0)
    return math.inf


# ------------------------------------------------------------------ circuits


def _gate_matrix(g: dict) -> np.ndarray:
    kind = g["kind"]
    if kind == "cz":
        if set(g) != {"kind"}:
            raise ValueError("cz takes no qubit or angle")
        return _CZ
    q = g["qubit"]
    if q not in (0, 1):
        raise ValueError(f"bad qubit {q!r}")
    if kind == "x":
        return _X4[q]
    if kind == "ry":
        theta = float(g["angle"])
        if not math.isfinite(theta):
            raise ValueError("angle")
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        r = np.array([[c, -s], [s, c]])
        return np.kron(r, _I2) if q == 0 else np.kron(_I2, r)
    raise ValueError(f"unknown gate kind {kind!r}")


def simulate(gates: list, start: np.ndarray) -> np.ndarray:
    vec = start
    for g in gates:
        vec = _gate_matrix(g) @ vec
    return vec


def sign_residual(a: np.ndarray, b: np.ndarray) -> float:
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


_ZERO = np.array([1.0, 0.0, 0.0, 0.0])


def check_prepare(text: str, states: np.ndarray, tol: float) -> Verdict:
    n = len(states)
    w = states / np.linalg.norm(states, axis=1, keepdims=True)
    verdict = Verdict()
    objs = _parse_lines(text, n, verdict)
    res, reported = np.full(n, np.nan), np.full(n, np.nan)
    for i, obj in enumerate(objs):
        try:
            reported[i] = float(obj["residual"])
            res[i] = sign_residual(simulate(obj["gates"], _ZERO), w[i])
        except (TypeError, KeyError, ValueError):
            verdict.reasons["malformed"] += obj is not None
    fold(verdict, n, {"residual": res, "residual_report": np.abs(reported - res)}, tol)
    return verdict


def check_connect(text: str, pairs: np.ndarray, tol: float) -> Verdict:
    n = len(pairs)
    src = pairs[:, :4] / np.linalg.norm(pairs[:, :4], axis=1, keepdims=True)
    tgt = pairs[:, 4:] / np.linalg.norm(pairs[:, 4:], axis=1, keepdims=True)
    verdict = Verdict()
    objs = _parse_lines(text, n, verdict)
    res, reported, cz = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    for i, obj in enumerate(objs):
        try:
            gates, cz_count = obj["gates"], obj["cz_count"]
            reported[i] = float(obj["residual"])
            if "intermediate" not in obj:
                raise KeyError("intermediate")
            res[i] = sign_residual(simulate(gates, src[i]), tgt[i])
        except (TypeError, KeyError, ValueError):
            verdict.reasons["malformed"] += obj is not None
            continue
        # At most one CZ, and the record must say how many it used.
        n_cz = sum(1 for g in gates if g["kind"] == "cz")
        cz[i] = 0.0 if n_cz <= 1 and cz_count == n_cz else math.inf
    fold(verdict, n, {"residual": res, "residual_report": np.abs(reported - res), "cz_count": cz}, tol)
    return verdict


def pair_branches(pairs: np.ndarray, tol: float) -> Counter:
    """Realised synthesis branch of each pair, from the oracle's own d and sheet.

    Branches partition the pairs; `near_tol` (|d_s - d_t| within a factor
    10 of tol) and `boundary` (an endpoint within 1e-6 of a circle) are
    overlapping tags, reported alongside.
    """
    rs, rt = state_reference(pairs[:, :4]), state_reference(pairs[:, 4:])
    same_sign = np.minimum(np.linalg.norm(rs.w - rt.w, axis=1), np.linalg.norm(rs.w + rt.w, axis=1)) <= tol
    gap = rs.d - rt.d
    same_orbit = np.abs(gap) <= tol
    labels = np.select(
        [
            same_sign,
            same_orbit & (np.maximum(rs.d, rt.d) < 1e-6),
            same_orbit & (rs.delta_sign * rt.delta_sign < 0),
            same_orbit,
            gap > 0,
        ],
        ["identical", "circle", "sheet_swap", "torus", "cz_down"],
        "cz_up",
    )
    out = Counter(labels.tolist())
    out["tag:near_tol"] = int(((np.abs(gap) >= tol / 10) & (np.abs(gap) <= 10 * tol)).sum())
    out["tag:boundary"] = int((np.minimum(rs.d, rt.d) < 1e-6).sum())
    return out


# ---------------------------------------------------------------------- mesh


def _mesh_rows(text: str, fmt: str) -> tuple[float | None, np.ndarray, np.ndarray]:
    """(d reported, (n, 3) points, n sheet labels) from csv or json mesh output; raises ValueError when malformed."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != "u1,u2,u3,d,sheet":
            raise ValueError("csv header")
        rows, ds = [], set()
        for line in lines[1:]:
            u1, u2, u3, d, sheet = line.split(",")
            rows.append((float(u1), float(u2), float(u3), sheet))
            ds.add(float(d))
        if len(ds) > 1:
            raise ValueError("csv d column varies")
        d_out = ds.pop() if ds else None
    else:
        data = json.loads(text)
        d_out = float(data["d"])
        rows = [(float(p["u"][0]), float(p["u"][1]), float(p["u"][2]), p["sheet"]) for p in data["points"]]
    u = np.array([r[:3] for r in rows], dtype=float).reshape(-1, 3)
    return d_out, u, np.array([r[3] for r in rows], dtype=object)


def expected_mesh(req: MeshRequest) -> tuple[np.ndarray, np.ndarray]:
    """(points, sheets) the mesh must emit, built from (d, na, nb) alone.

    A sheet point is (x1, x2, x3, x4) on the unit sphere, projected to
    u = (x1, x2, x3) where x4 >= 0.  With angles on the grid 2 pi i / n:
    V34 is (sd cos a, sd sin a, cd cos b, cd sin b) and V12 the same with
    the planes swapped, (cd cos b, cd sin b, sd cos a, sd sin a); at
    d = pi/4 the two coincide (sheet BOTH), and at d = 0 each collapses to
    a circle.  x4 >= 0 keeps the grid angles with 2i <= n.
    """

    def grid(n: int, upper: bool = False) -> np.ndarray:
        i = np.arange(n)
        return 2.0 * math.pi * (i[2 * i <= n] if upper else i) / n

    sd, cd = math.sin(req.d), math.cos(req.d)
    if req.d == 0.0:
        t, t_all = grid(req.nb, upper=True), grid(req.nb)
        v34 = np.stack([0.0 * t, 0.0 * t, np.cos(t)], axis=1)
        v12 = np.stack([np.cos(t_all), np.sin(t_all), 0.0 * t_all], axis=1)
    else:
        a, b = np.meshgrid(grid(req.na), grid(req.nb, upper=True), indexing="ij")
        v34 = np.stack([sd * np.cos(a), sd * np.sin(a), cd * np.cos(b)], axis=-1).reshape(-1, 3)
        if req.d == QUARTER_PI:
            return v34, np.full(len(v34), "BOTH", dtype=object)
        a, b = np.meshgrid(grid(req.na, upper=True), grid(req.nb), indexing="ij")
        v12 = np.stack([cd * np.cos(b), cd * np.sin(b), sd * np.cos(a)], axis=-1).reshape(-1, 3)
    sheets = np.array(["V34"] * len(v34) + ["V12"] * len(v12), dtype=object)
    return np.vstack([v34, v12]), sheets


def check_mesh(text: str, req: MeshRequest, tol: float) -> Verdict:
    """Match the emitted points, in any order, one to one with expected_mesh.

    Each emitted point is paired with the nearest expected point of its
    sheet; its error is the distance, or infinite when its sheet is unknown
    or an earlier emitted point already took that expected point.  Expected
    points left over are missing.
    """
    want, want_sheets = expected_mesh(req)
    verdict = Verdict()
    try:
        d_out, u, sheets = _mesh_rows(text, req.fmt)
    except (ValueError, KeyError, TypeError, IndexError):
        _missing(verdict, len(want), "malformed")
        return verdict
    if d_out is not None and not abs(d_out - req.d) <= tol:
        _missing(verdict, len(want), "d_field")
        return verdict
    err = np.full(len(u), np.inf)
    for sheet in set(want_sheets):
        mine = np.flatnonzero(sheets == sheet)
        if mine.size == 0:
            continue
        dist, idx = cKDTree(want[want_sheets == sheet]).query(u[mine])
        _, first = np.unique(idx, return_index=True)
        err[mine[first]] = dist[first]
    if len(u) < len(want):
        _missing(verdict, len(want) - len(u), "point_count")
    fold(verdict, len(u), {"point": err}, tol)
    return verdict


def mesh_branch(req: MeshRequest) -> str:
    if req.d == 0.0:
        return "circle"
    return "product" if req.d == QUARTER_PI else "generic"
