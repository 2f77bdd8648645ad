"""Seeded strata of every record branch, drawn as the benchmark's streams are (perfbench/workloads.py).

Each stratum is an array of rows: four amplitudes for a state, eight for a (source, target) pair.  They are drawn
for the CLI's default tol, 1e-10: `near_tol` parts the two d by 0.5 to 2 times it.
"""

import math

import numpy as np

ISQ2 = 1.0 / math.sqrt(2.0)
BELL_ROWS = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]]) * ISQ2
STATE_STRATA = ("haar", "circle_d0", "circle_1e-9", "product", "near_product", "near_empty_pair")
SAME_ORBIT_STRATA = ("identical", "circle", "torus", "sheet_swap")
PAIR_STRATA = (*SAME_ORBIT_STRATA, "cz_down", "cz_up", "cz_circle", "near_tol")
STRATUM_SIZE = 12


def _arc(radius, angle):
    """Rows radius * (cos angle, sin angle)."""
    return np.asarray(radius)[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)


def _either_first(rng, first, second):
    """Each row first | second or second | first, by a fair coin."""
    return np.where((rng.random(len(first)) < 0.5)[:, None], np.hstack([first, second]), np.hstack([second, first]))


def _on_orbit(rng, d, n, sheet=None):
    """n states at distance d (scalar or array) with uniform angles; sheet +1 is V34, -1 V12."""
    d = np.broadcast_to(np.asarray(d, dtype=float), (n,))
    a, b = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    small, large = _arc(np.sin(d), a), _arc(np.cos(d), b)
    sheet = rng.choice([-1, 1], n) if sheet is None else sheet
    return np.where(np.asarray(sheet)[:, None] > 0, np.hstack([small, large]), np.hstack([large, small])) @ BELL_ROWS


def _haar(rng, n):
    w = rng.standard_normal((n, 4))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _generic_d(rng, n):
    return rng.uniform(0.02, math.pi / 4 - 0.02, n)


def state_strata(rng, n=STRATUM_SIZE) -> dict:
    al, be, th, ps = rng.uniform(0.0, 2.0 * math.pi, (4, n))
    eps = 10.0 ** rng.uniform(-10.0, -7.0, n)
    ones = np.ones(n)
    return {
        "haar": _haar(rng, n),
        "circle_d0": _on_orbit(rng, 0.0, n),
        "circle_1e-9": _on_orbit(rng, 1e-9, n),
        "product": (_arc(ones, al)[:, :, None] * _arc(ones, be)[:, None, :]).reshape(n, 4),
        "near_product": _on_orbit(rng, math.pi / 4 - 1e-8, n),
        "near_empty_pair": _either_first(rng, _arc(eps, th), _arc(np.sqrt(1.0 - eps * eps), ps)),
    }


def pair_strata(rng, n=STRATUM_SIZE) -> dict:
    def same_orbit(d, swap_sheet):
        sheet = rng.choice([-1, 1], n)
        return np.hstack([_on_orbit(rng, d, n, sheet), _on_orbit(rng, d, n, -sheet if swap_sheet else sheet)])

    def cz(down):
        d1, d2 = _generic_d(rng, n), _generic_d(rng, n)
        hi, lo = np.maximum(d1, d2), np.minimum(d1, d2)
        return np.hstack([_on_orbit(rng, hi if down else lo, n), _on_orbit(rng, lo if down else hi, n)])

    def near_tol():
        d, sheet = _generic_d(rng, n), rng.choice([-1, 1], n)
        gap = 1e-10 * rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        return np.hstack([_on_orbit(rng, d, n, sheet), _on_orbit(rng, d + gap, n, sheet)])

    def circle_d():
        return np.where(rng.random(n) < 0.5, 0.0, 1e-9)

    src = _haar(rng, n)
    return {
        "identical": np.hstack([src, src * rng.choice([-1.0, 1.0], n)[:, None]]),
        "circle": same_orbit(circle_d(), swap_sheet=False),
        "torus": same_orbit(_generic_d(rng, n), swap_sheet=False),
        "sheet_swap": same_orbit(_generic_d(rng, n), swap_sheet=True),
        "cz_down": cz(down=True),
        "cz_up": cz(down=False),
        "cz_circle": _either_first(rng, _on_orbit(rng, circle_d(), n), _on_orbit(rng, _generic_d(rng, n), n)),
        "near_tol": near_tol(),
    }
