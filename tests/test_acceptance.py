"""End-to-end acceptance suite.

Each test verifies one library guarantee at its stated tolerance and emits a
single [PASS]/[FAIL] line with the measured figure.  Run with `pytest -s` to
see the lines on success; pytest shows them on failure regardless.
"""

import math
import time

import numpy as np

from realtwoqubit import (
    Circuit,
    Gate,
    RealState,
    SHEET_BOTH,
    SHEET_V12,
    SHEET_V34,
    TorusPoint,
    apply,
    bell_basis_state,
    concurrence,
    cz_connect,
    entanglement_distance,
    entropy_from_distance,
    intersection_state,
    orbit_mesh,
    parametrize,
    prepare,
    sample_orbit_states,
    sign_residual,
    to_bell,
)
from reference import entanglement_entropy, immersion_defect

PI4 = math.pi / 4.0
TWO_PI = 2.0 * math.pi
ZERO = RealState(1.0, 0.0, 0.0, 0.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_state(rng) -> RealState:
    v = rng.normal(size=4)
    return RealState.from_vector(v / np.linalg.norm(v))


def _random_orbit_state(rng, d: float) -> RealState:
    sheet = SHEET_V34 if rng.random() < 0.5 else SHEET_V12
    return parametrize(TorusPoint(d, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI), sheet))


def test_entropy_formula_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        d = rng.uniform(0.0, PI4)
        state = _random_orbit_state(rng, d)
        worst = max(worst, abs(entropy_from_distance(d) - entanglement_entropy(state)))
    elapsed = time.perf_counter() - start
    _report(
        "entropy formula equivalence",
        worst < 1e-10 and elapsed < 5.0,
        f"max |closed form - simulator| = {worst:.3e} over 10000 orbit states (tol 1e-10), {elapsed:.2f}s (limit 5s)",
    )


def test_entropy_extremes():
    errs = (
        abs(entropy_from_distance(0.0) - 1.0),
        abs(entropy_from_distance(PI4)),
        abs(entanglement_entropy(bell_basis_state(3)) - 1.0),
        abs(entanglement_entropy(ZERO)),
    )
    _report(
        "entropy extremes",
        max(errs) <= 1e-14,
        f"|S(0) - 1| = {errs[0]:.1e}, |S(pi/4)| = {errs[1]:.1e}, simulator route {errs[2]:.1e}/{errs[3]:.1e} (tol 1e-14)",
    )


def test_distance_concurrence_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        state = _random_state(rng)
        d = entanglement_distance(state)
        worst = max(worst, abs(abs(math.cos(2.0 * d)) - concurrence(state)))
    _report(
        "distance-concurrence identity",
        worst < 1e-10,
        f"max ||cos 2d| - concurrence| = {worst:.3e} over 10000 random states (tol 1e-10)",
    )


def test_local_gate_invariance():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        state = _random_state(rng)
        gates = []
        for _ in range(int(rng.integers(0, 21))):
            qubit = int(rng.integers(0, 2))
            if rng.random() < 0.5:
                gates.append(Gate.ry(qubit, rng.uniform(-math.pi, math.pi)))
            else:
                gates.append(Gate.x(qubit))
        moved = apply(Circuit(tuple(gates)), state)
        worst = max(
            worst,
            abs(entanglement_distance(moved) - entanglement_distance(state)),
            abs(entanglement_entropy(moved) - entanglement_entropy(state)),
        )
    _report(
        "local gate invariance",
        worst < 1e-10,
        f"max drift of d and entropy = {worst:.3e} over 1000 circuits of length <= 20 (tol 1e-10)",
    )


def test_immersion_gram_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        state = _random_state(rng)
        worst = max(worst, immersion_defect(state, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)))
    _report(
        "immersion Gram identity",
        worst < 1e-9,
        f"max |Gram det - sin^2(2d)| = {worst:.3e} over 1000 (state, s, t) triples (tol 1e-9)",
    )


def test_quadric_preservation_under_cz():
    rng = np.random.default_rng(106)
    cz = Circuit((Gate.cz(),))
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(0.0, PI4)
        state = parametrize(TorusPoint(d, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI), SHEET_V34))
        sd2, cd2 = math.sin(d) ** 2, math.cos(d) ** 2
        x = to_bell(state)
        y = to_bell(apply(cz, state))
        worst = max(
            worst,
            abs(x.x1 * x.x1 + x.x2 * x.x2 - sd2),
            abs(x.x3 * x.x3 + x.x4 * x.x4 - cd2),
            abs(y.x2 * y.x2 + y.x3 * y.x3 - sd2),
            abs(y.x1 * y.x1 + y.x4 * y.x4 - cd2),
        )
    _report(
        "torus quadrics and their CZ image",
        worst < 1e-12,
        f"max quadric residual = {worst:.3e} over 1000 V34 torus states, before and after CZ (tol 1e-12)",
    )


def test_synthesis_soundness():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst_prepare = 0.0
    for _ in range(10_000):
        target = _random_state(rng)
        worst_prepare = max(worst_prepare, sign_residual(apply(prepare(target), ZERO), target))
    worst_connect = 0.0
    counts_ok = True
    for _ in range(700):
        src, tgt = _random_state(rng), _random_state(rng)
        plan = cz_connect(src, tgt)
        worst_connect = max(worst_connect, plan.residual)
        same_orbit = abs(entanglement_distance(src) - entanglement_distance(tgt)) <= 1e-10
        counts_ok = counts_ok and plan.cz_count == (0 if same_orbit else 1)
    for _ in range(300):
        d = rng.uniform(0.0, PI4)
        src, tgt = sample_orbit_states(d, 2, rng)
        plan = cz_connect(src, tgt)
        worst_connect = max(worst_connect, plan.residual)
        counts_ok = counts_ok and plan.cz_count == 0
    elapsed = time.perf_counter() - start
    _report(
        "synthesis soundness",
        worst_prepare < 1e-9 and worst_connect < 1e-9 and counts_ok and elapsed < 30.0,
        f"max residual: prepare {worst_prepare:.3e} (10000 targets), connect {worst_connect:.3e} "
        f"(700 random + 300 same-orbit pairs, tol 1e-9); CZ counts exact: {counts_ok}; {elapsed:.2f}s (limit 30s)",
    )


def test_intersection_solution():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        lo, hi = np.sort(rng.uniform(0.0, PI4, size=2))
        if lo == hi:
            continue
        x = to_bell(intersection_state(hi, lo))
        worst = max(
            worst,
            abs(x.x1 * x.x1 + x.x2 * x.x2 - math.sin(lo) ** 2),
            abs(x.x3 * x.x3 + x.x4 * x.x4 - math.cos(lo) ** 2),
            abs(x.x2 * x.x2 + x.x3 * x.x3 - math.sin(hi) ** 2),
            abs(x.x1 * x.x1 + x.x4 * x.x4 - math.cos(hi) ** 2),
        )
    _report(
        "intersection state solves all four quadrics",
        worst < 1e-12,
        f"max residual over the four equations = {worst:.3e} for 1000 random d0 > d1 pairs (tol 1e-12)",
    )


def test_golden_connection():
    plan = cz_connect(ZERO, bell_basis_state(3))
    mid = plan.intermediate
    bell = to_bell(mid)
    isq2 = 1.0 / math.sqrt(2.0)
    bell_err = max(
        abs(bell.x1), abs(bell.x2), abs(bell.x3 - isq2), abs(bell.x4 - isq2)
    )
    amp_err = max(
        abs(mid.w1 - 0.5), abs(mid.w2 - 0.5), abs(mid.w3 + 0.5), abs(mid.w4 - 0.5)
    )
    ok = bell_err < 1e-12 and amp_err < 1e-12 and plan.cz_count == 1 and plan.residual < 1e-10
    _report(
        "golden connection (1,0,0,0) -> (|00>+|11>)/sqrt(2)",
        ok,
        f"intermediate Bell coords off by {bell_err:.1e} from (0,0,1/sqrt2,1/sqrt2), "
        f"amplitudes off by {amp_err:.1e} from (1/2,1/2,-1/2,1/2); residual {plan.residual:.1e}",
    )


def test_mesh_fidelity():
    n_a = n_b = 16
    worst = 0.0
    ball_ok = True
    structure_ok = True
    for d in (0.0, math.pi / 6.0, PI4):
        points = orbit_mesh(d, n_a, n_b)
        sd2, cd2 = math.sin(d) ** 2, math.cos(d) ** 2
        for p in points:
            rr = p.u1 * p.u1 + p.u2 * p.u2 + p.u3 * p.u3
            ball_ok = ball_ok and rr <= 1.0 + 1e-12
            x4sq = max(1.0 - rr, 0.0)
            small = p.u1 * p.u1 + p.u2 * p.u2
            large = p.u3 * p.u3 + x4sq
            if p.sheet == SHEET_V12:
                small, large = large, small
            worst = max(worst, abs(small - sd2), abs(large - cd2))
        if d == 0.0:
            v34 = [p for p in points if p.sheet == SHEET_V34]
            v12 = [p for p in points if p.sheet == SHEET_V12]
            structure_ok = (
                len(v34) == n_b // 2 + 1
                and len(v12) == n_b
                and all(p.u1 == 0.0 and p.u2 == 0.0 and abs(p.u3) <= 1.0 for p in v34)
                and all(p.u3 == 0.0 and abs(p.u1 ** 2 + p.u2 ** 2 - 1.0) < 1e-12 for p in v12)
            )
        elif d == PI4:
            structure_ok = structure_ok and all(p.sheet == SHEET_BOTH for p in points)
        else:
            structure_ok = structure_ok and {p.sheet for p in points} == {SHEET_V34, SHEET_V12}
    _report(
        "mesh fidelity",
        worst < 1e-12 and ball_ok and structure_ok,
        f"max quadric residual = {worst:.3e} for d in {{0, pi/6, pi/4}} (tol 1e-12); "
        f"all points in the closed unit ball: {ball_ok}; circle-pair structure at d = 0: {structure_ok}",
    )
