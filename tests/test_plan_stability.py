"""A connect plan's gate sequence moves under a 1-ulp nudge of an endpoint only at a threshold that picks it.

The thresholds are the ones `_synthesis._connect` and `_leg` compare: |d_s - d_t| against tol, each leg's sign
residual against tol, the circle rule sin d_s + sin d <= tol, the product rule (pi/4 - d_s) + (pi/4 - d) <= tol/2,
and each leg end's fold r12 <= r34, which picks its sheet.  A 1-ulp nudge of an amplitude moves each of these by
about one ulp of 1, so a pair whose sequence changes must lie within a few ulps of one, before or after the nudge.
"""

import math

import pytest

from realtwoqubit import (
    Circuit,
    Gate,
    RealState,
    TorusPoint,
    apply,
    cz_connect,
    entanglement_distance,
    intersection_state,
    parametrize,
    sign_residual,
    to_bell,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PI4 = math.pi / 4.0
CZ = Circuit((Gate("cz"),))

#: A few ulps of 1, the amplitudes' scale: the farthest from a threshold that a nudge may move a plan's sequence.
NEAR = 4.0 * 2.0**-52


def _shape(plan):
    return [(g.kind, g.qubit) for g in plan.circuit]


def _fold(state):
    x1, x2, x3, x4 = to_bell(state)
    return abs(math.hypot(x1, x2) - math.hypot(x3, x4))


def _leg_margin(a, b, tol):
    """The least distance to a threshold that the leg from a to b consults on its way to its shape.

    A sign residual clearly within tol ends the leg empty.  The sheets count only where the product rule may not skip
    the X, so on the product torus, where the fold is a tie of two radii, rounding of the fold picks nothing.
    """
    res = sign_residual(a, b)
    if res < tol - NEAR:
        return abs(res - tol)
    d_a, d_b = entanglement_distance(a), entanglement_distance(b)
    product = (PI4 - d_a) + (PI4 - d_b)
    margins = [abs(res - tol), abs(math.sin(d_a) + math.sin(d_b) - tol), abs(product - tol / 2.0)]
    if product > tol / 2.0 - NEAR:
        margins += [_fold(a), _fold(b)]
    return min(margins)


def _margin(src, tgt, tol):
    """The pair's least distance to a threshold that its plan consults: |d_s - d_t| against tol, then the legs'."""
    d_s, d_t = entanglement_distance(src), entanglement_distance(tgt)
    margins = [abs(abs(d_s - d_t) - tol)]
    if abs(d_s - d_t) < tol + NEAR:
        margins.append(_leg_margin(src, tgt, tol))
    if abs(d_s - d_t) > max(tol - NEAR, 0.0):  # an equal d never crosses
        mid = intersection_state(max(d_s, d_t), min(d_s, d_t))
        near, far = (apply(CZ, mid), mid) if d_s > d_t else (mid, apply(CZ, mid))
        margins += [_leg_margin(src, near, tol), _leg_margin(far, tgt, tol)]
    return min(margins)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


angles = st.floats(-math.pi, math.pi)
sheets = st.sampled_from(["V34", "V12"])
tols = st.just(1e-10) | _log_uniform(1e-16, 1.4e-15)


def distances(tol):
    """d near a circle, near the product torus, within a factor 2 of the circle rule's asin(tol/2), or anywhere."""
    return st.one_of(
        _log_uniform(1e-300, 1e-6),
        st.just(PI4) | _log_uniform(1e-17, 1e-6).map(lambda e: PI4 - e),
        st.floats(-1.0, 1.0).map(lambda v: math.asin(tol / 2.0) * 2.0**v),
        st.floats(0.0, PI4),
    )


def _on_orbit(d, a, b, sheet):
    return tuple(parametrize(TorusPoint(min(max(d, 0.0), PI4), a, b, sheet)))


@st.composite
def near_empty_pairs(draw):
    # One amplitude pair of norm eps, down to subnormal, in either place.
    eps, th, ps = draw(_log_uniform(1e-320, 1e-6)), draw(angles), draw(angles)
    small, large = (eps * math.cos(th), eps * math.sin(th)), (math.cos(ps), math.sin(ps))
    return (*small, *large) if draw(st.booleans()) else (*large, *small)


@st.composite
def products(draw):
    # An angle of 0 gives a factor (1, 0), so the minor w1 w4 - w2 w3 is exactly 0, not only within rounding.
    u, v = (draw(st.just(0.0) | angles) for _ in range(2))
    return tuple(f * g for f in (math.cos(u), math.sin(u)) for g in (math.cos(v), math.sin(v)))


@st.composite
def cases(draw):
    """(tol, source, target, nudge): a pair from one of the strata, in either order, and the amplitude to nudge."""
    tol = draw(tols)
    d, a, b, sheet = draw(distances(tol)), draw(angles), draw(angles), draw(sheets)
    source = _on_orbit(d, a, b, sheet)
    stratum = draw(st.sampled_from(["same_d", "tol_gap", "apart", "near_equal", "edge_state"]))
    if stratum == "same_d":
        target = _on_orbit(d, draw(angles), draw(angles), draw(sheets))
    elif stratum == "tol_gap":
        gap = draw(st.floats(0.5, 1.5)) * tol * draw(st.sampled_from([-1.0, 1.0]))
        target = _on_orbit(d + gap, draw(angles), draw(angles), draw(sheets))
    elif stratum == "apart":
        target = _on_orbit(draw(distances(tol)), draw(angles), draw(angles), draw(sheets))
    elif stratum == "near_equal":
        # The same torus point with b moved by about tol: a sign residual near tol.
        target = _on_orbit(d, a, b + tol * 2.0 ** draw(st.floats(-1.0, 1.0)), sheet)
    else:
        target = draw(near_empty_pairs() | products())
    if draw(st.booleans()):
        source, target = target, source
    return tol, source, target, (draw(st.integers(0, 1)), draw(st.integers(0, 3)), draw(st.booleans()))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=600)
@hypothesis.given(case=cases())
def test_ulp_nudge_moves_the_sequence_only_at_a_threshold(case):
    tol, source, target, (end, index, up) = case
    ends = [list(source), list(target)]
    ends[end][index] = math.nextafter(ends[end][index], math.inf if up else -math.inf)
    pairs = [(RealState.from_vector(source), RealState.from_vector(target)), tuple(map(RealState.from_vector, ends))]
    before, after = (_shape(cz_connect(s, t, tol)) for s, t in pairs)
    if before != after:
        assert min(_margin(s, t, tol) for s, t in pairs) <= NEAR, (before, after)
