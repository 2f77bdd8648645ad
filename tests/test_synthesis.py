"""Local connections, one-CZ connections and preparation circuits."""

import math
import re

import numpy as np
import pytest

from realtwoqubit import (
    BellCoords,
    Circuit,
    Gate,
    OrbitMismatchError,
    RealState,
    TorusPoint,
    apply,
    bell_basis_state,
    classify,
    concurrence,
    cz_connect,
    entanglement_distance,
    from_bell,
    intersection_state,
    local_connect,
    parametrize,
    prepare,
    sample_orbit_states,
    sign_residual,
    to_bell,
    torus_angles,
)
from strata import PAIR_STRATA, pair_strata

PI4 = math.pi / 4.0
TWO_PI = 2.0 * math.pi
ZERO = RealState(1.0, 0.0, 0.0, 0.0)


def _random_state(rng):
    vec = rng.normal(size=4)
    return RealState.from_vector(vec / np.linalg.norm(vec))


def _preparation_angles(target):
    # (t1, t0, t2): the angles of prepare's Ry gates, in circuit order.
    return tuple(g.angle for g in prepare(target) if g.kind == "ry")


def _wrap_diff(a, b):
    return abs(math.remainder(a - b, TWO_PI))


#: A local leg, as (kind, qubit): [X(q0)] [RY(q0)] [RY(q1)], each part present or not.
LEG = (("x", 0), ("ry", 0), ("ry", 1))


def _is_leg(gates):
    shape = [(g.kind, g.qubit) for g in gates]
    return shape == [part for part in LEG if part in shape]


class TestLocalConnect:
    def test_equal_states_empty_circuit(self):
        plan = local_connect(ZERO, ZERO)
        assert len(plan.circuit) == 0
        assert plan.cz_count == 0
        assert plan.residual < 1e-15

    def test_negated_state_empty_circuit(self, rng):
        s = _random_state(rng)
        plan = local_connect(s, RealState.from_vector(-np.array(s)))
        assert len(plan.circuit) == 0

    def test_bell_circle_crossing(self):
        plan = local_connect(bell_basis_state(3), bell_basis_state(1))
        kinds = [g.kind for g in plan.circuit]
        assert kinds == ["x", "ry"]
        assert plan.residual < 1e-12

    def test_worked_angle_example(self):
        # (a, b): (0.2, 0.4) -> (1.0, -0.5) on the pi/6 torus needs
        # s + t = 0.8 and t - s = -0.9 modulo 2pi.
        src = parametrize(TorusPoint(math.pi / 6, 0.2, 0.4, "V34"))
        tgt = parametrize(TorusPoint(math.pi / 6, 1.0, -0.5, "V34"))
        plan = local_connect(src, tgt)
        assert [g.kind for g in plan.circuit] == ["ry", "ry"]
        s = plan.circuit[0].angle / 2.0
        t = plan.circuit[1].angle / 2.0
        assert plan.circuit[0].qubit == 0 and plan.circuit[1].qubit == 1
        assert _wrap_diff(s + t, 0.8) < 1e-12
        assert _wrap_diff(t - s, -0.9) < 1e-12
        assert plan.residual < 1e-10

    def test_orbit_mismatch_raises(self):
        with pytest.raises(OrbitMismatchError):
            local_connect(ZERO, bell_basis_state(3))
        assert issubclass(OrbitMismatchError, ValueError)

    def test_cross_sheet_uses_x(self, rng):
        d = 0.3
        src = parametrize(TorusPoint(d, 0.5, 1.0, "V34"))
        tgt = parametrize(TorusPoint(d, -0.7, 2.1, "V12"))
        plan = local_connect(src, tgt)
        assert plan.circuit[0].kind == "x"
        assert plan.circuit[0].qubit == 0
        assert plan.residual < 1e-10

    def test_same_sheet_never_uses_x(self, rng):
        for _ in range(100):
            d = rng.uniform(0.02, PI4 - 0.02)
            sheet = "V34" if rng.random() < 0.5 else "V12"
            src = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            tgt = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            plan = local_connect(src, tgt)
            assert all(g.kind != "x" for g in plan.circuit)
            assert plan.residual < 1e-10

    def test_product_pairs_never_use_x(self, rng):
        # On the product torus the two sheets are one, so no sheet swap is asked for, whichever side rounding picks.
        def product(a, b):
            ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
            return RealState(ca * cb, ca * sb, sa * cb, sa * sb)

        for a, b, c, e in rng.uniform(0.0, TWO_PI, size=(20000, 4)):
            plan = local_connect(product(a, b), product(c, e), tol=1e-10)
            assert [g.kind for g in plan.circuit] in ([], ["ry", "ry"]), plan
            assert plan.residual <= 1e-10

    def test_sweep_all_orbit_families(self, rng):
        for d in (0.0, 1e-11, 0.1, math.pi / 6, PI4):
            src_states = sample_orbit_states(d, 30, rng)
            tgt_states = sample_orbit_states(d, 30, rng)
            for src, tgt in zip(src_states, tgt_states):
                plan = local_connect(src, tgt)
                assert _is_leg(plan.circuit)
                assert plan.cz_count == 0
                assert plan.residual < 1e-10
                assert sign_residual(apply(plan.circuit, src), tgt) <= 1e-10

    def test_near_circle_meets_tol(self, rng):
        # At d = 1e-9 the one-Ry circle form would miss by about 2 sin d =
        # 2e-9, so the default tol needs the torus solve.
        for _ in range(50):
            src, tgt = sample_orbit_states(1e-9, 2, rng)
            plan = local_connect(src, tgt)
            assert [g.kind for g in plan.circuit if g.kind != "x"] == ["ry", "ry"]
            assert plan.residual <= 1e-10

    def test_circle_form_kept_when_it_meets_tol(self, rng):
        for _ in range(50):
            src, tgt = sample_orbit_states(1e-9, 2, rng)
            plan = local_connect(src, tgt, tol=1e-8)
            assert [g.kind for g in plan.circuit if g.kind != "x"] == ["ry"]
            assert plan.residual <= 1e-8

    @pytest.mark.parametrize("sheet", ["V34", "V12"])
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10])
    def test_near_circle_pairs_at_different_d_meet_tol(self, rng, tol, sheet):
        # The one-Ry form leaves the small plane unmatched, radius sin d_s at the source and sin d_t at the target, so
        # it misses by up to their sum: a test of the target's d alone would let it through with a source further out.
        worst = 0.0
        for _ in range(1000):
            d_t = rng.uniform(0.5, 1.0) * math.asin(tol / 2.0)
            d_s = rng.uniform(max(d_t - tol, 0.0), d_t + tol)
            src, tgt = (parametrize(TorusPoint(d, *rng.uniform(0.0, TWO_PI, 2), sheet)) for d in (d_s, d_t))
            worst = max(worst, cz_connect(src, tgt, tol).residual / tol)
        assert worst <= 1.0

    def test_angles_normalized(self, rng):
        for _ in range(200):
            d = rng.uniform(0.0, PI4)
            src, tgt = sample_orbit_states(d, 2, rng)
            plan = local_connect(src, tgt)
            for g in plan.circuit:
                if g.kind == "ry":
                    assert -math.pi < g.angle <= math.pi


class TestIntersectionState:
    def test_all_four_quadrics(self, rng):
        for _ in range(500):
            d1, d0 = np.sort(rng.uniform(0.0, PI4, size=2))
            if d0 - d1 < 1e-9:
                continue
            x = to_bell(intersection_state(d0, d1))
            assert abs(x.x2**2 + x.x3**2 - math.sin(d0) ** 2) < 1e-12
            assert abs(x.x1**2 + x.x4**2 - math.cos(d0) ** 2) < 1e-12
            assert abs(x.x1**2 + x.x2**2 - math.sin(d1) ** 2) < 1e-12
            assert abs(x.x3**2 + x.x4**2 - math.cos(d1) ** 2) < 1e-12

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            intersection_state(0.1, 0.2)
        with pytest.raises(ValueError):
            intersection_state(0.1, 0.1)


@pytest.mark.parametrize("connect", [local_connect, cz_connect])
@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_connects_refuse_a_tol_that_is_not_positive_and_finite(connect, tol):
    # An infinite tol would pass the empty circuit between two orthogonal states, residual sqrt(2).
    with pytest.raises(ValueError, match=f"^tolerance must be positive and finite, got {re.escape(repr(tol))}$"):
        connect(RealState(1, 0, 0, 0), RealState(0, 1, 0, 0), tol=tol)


#: Every object-API function that reads a state, or Bell coordinates, with the noun of what it reads.
READERS = [
    pytest.param(classify, "amplitude", id="classify"),
    pytest.param(entanglement_distance, "amplitude", id="entanglement_distance"),
    pytest.param(torus_angles, "amplitude", id="torus_angles"),
    pytest.param(to_bell, "amplitude", id="to_bell"),
    pytest.param(concurrence, "amplitude", id="concurrence"),
    pytest.param(lambda vec: sign_residual(vec, ZERO), "amplitude", id="sign_residual-first"),
    pytest.param(lambda vec: sign_residual(ZERO, vec), "amplitude", id="sign_residual-second"),
    pytest.param(lambda vec: apply(Circuit(), vec), "amplitude", id="apply"),
    pytest.param(prepare, "amplitude", id="prepare"),
    pytest.param(lambda vec: cz_connect(vec, ZERO), "amplitude", id="cz_connect-source"),
    pytest.param(lambda vec: cz_connect(ZERO, vec), "amplitude", id="cz_connect-target"),
    pytest.param(lambda vec: local_connect(vec, ZERO), "amplitude", id="local_connect-source"),
    pytest.param(lambda vec: local_connect(ZERO, vec), "amplitude", id="local_connect-target"),
    pytest.param(from_bell, "Bell coordinate", id="from_bell"),
]


@pytest.mark.parametrize(
    "vec", [(3.0, 4.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)], ids=["5", "0", "nan", "2"]
)
@pytest.mark.parametrize("call, noun", READERS)
def test_a_vector_that_is_not_a_state_is_refused_in_the_callers_terms(call, noun, vec):
    # Each error names the kind of vector the caller passed, not the one the function turns it into.
    with pytest.raises(ValueError, match=f"^{noun} (vector has norm|components must be finite)"):
        call(vec)


@pytest.mark.parametrize("call, noun", READERS)
def test_each_reader_refuses_the_other_record_class(call, noun):
    # |10> is a product state and v3, the same four numbers as Bell coordinates, a maximally entangled one.
    other = RealState(0, 0, 1, 0) if noun == "Bell coordinate" else BellCoords(0, 0, 1, 0)
    with pytest.raises(ValueError, match=f"^expected {noun}s, got {re.escape(repr(other))}$"):
        call(other)


class TestCzConnect:
    def test_worked_golden_case(self):
        plan = cz_connect(ZERO, bell_basis_state(3))
        assert plan.cz_count == 1
        assert sum(1 for g in plan.circuit if g.kind == "cz") == 1
        x = to_bell(plan.intermediate)
        np.testing.assert_allclose(np.array(x), [0.0, 0.0, math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
        np.testing.assert_allclose(np.array(plan.intermediate), [0.5, 0.5, -0.5, 0.5], atol=1e-12)
        # the CZ preimage of the intermediate is a product state
        mid_cz = apply(Circuit((Gate("cz"),)), plan.intermediate)
        np.testing.assert_allclose(np.array(mid_cz), [0.5, 0.5, -0.5, -0.5], atol=1e-12)
        assert classify(mid_cz).kind == "product"
        assert plan.residual < 1e-9

    def test_equal_states_empty(self, rng):
        s = _random_state(rng)
        plan = cz_connect(s, s)
        assert len(plan.circuit) == 0
        assert plan.cz_count == 0
        assert plan.intermediate is None

    def test_same_orbit_delegates_to_local(self, rng):
        d = 0.31
        src, tgt = sample_orbit_states(d, 2, rng)
        plan = cz_connect(src, tgt)
        assert plan.cz_count == 0
        assert all(g.kind != "cz" for g in plan.circuit)
        assert plan.residual < 1e-10
        assert plan == local_connect(src, tgt)

    def test_upward_plan_leaves_source_for_intermediate(self, rng):
        # The source has the lower d, so its leg ends at the intersection state itself, not at its CZ image.
        src = parametrize(TorusPoint(0.1, 0.4, 1.9, "V12"))
        tgt = parametrize(TorusPoint(0.6, -1.0, 0.3, "V34"))
        plan = cz_connect(src, tgt)
        assert plan.cz_count == 1
        assert plan.residual < 1e-9
        # intermediate sits on the lower orbit in both directions
        assert abs(entanglement_distance(plan.intermediate) - 0.1) < 1e-10
        first = Circuit(plan.circuit[: plan.circuit.index(Gate("cz"))])
        assert sign_residual(apply(first, src), plan.intermediate) < 1e-10

    @pytest.mark.parametrize("stratum", [*PAIR_STRATA, "haar"])
    def test_plan_is_leg_or_leg_cz_leg(self, stratum, rng):
        # Both directions of each pair: every plan is built from source to target, L or L CZ L with L a local leg.
        # The first leg ends on the source's torus: at the intersection state when the source has the lower d, else
        # at its CZ image.
        haar = stratum == "haar"
        rows = [[*_random_state(rng), *_random_state(rng)] for _ in range(500)] if haar else pair_strata(rng)[stratum]
        tol = 1e-10
        for row in rows:
            for src, tgt in ((row[:4], row[4:]), (row[4:], row[:4])):
                src, tgt = RealState.from_vector(src), RealState.from_vector(tgt)
                plan = cz_connect(src, tgt, tol)
                assert plan.residual <= tol
                if plan.cz_count == 0:
                    assert _is_leg(plan.circuit) and plan.intermediate is None
                    continue
                cz = plan.circuit.index(Gate("cz"))
                first, second = plan.circuit[:cz], plan.circuit[cz + 1 :]
                assert _is_leg(first) and _is_leg(second)
                mid = plan.intermediate
                if entanglement_distance(src) > entanglement_distance(tgt):
                    mid = apply(Circuit((Gate("cz"),)), mid)
                assert sign_residual(apply(Circuit(first), src), mid) <= tol

    def test_plan_shape(self, rng):
        for _ in range(100):
            a, b = _random_state(rng), _random_state(rng)
            plan = cz_connect(a, b)
            kinds = [g.kind for g in plan.circuit]
            assert kinds.count("cz") == plan.cz_count <= 1
            assert kinds.count("x") <= 2
            assert len(kinds) <= 7
            assert plan.residual < 1e-9

    def test_extreme_pairs(self):
        # product <-> maximally entangled in both directions, all four circles
        for k in (1, 2, 3, 4):
            down = cz_connect(ZERO, bell_basis_state(k))
            up = cz_connect(bell_basis_state(k), ZERO)
            assert down.cz_count == up.cz_count == 1
            assert down.residual < 1e-9 and up.residual < 1e-9

    def test_to_and_from_near_circle(self, rng):
        for _ in range(50):
            (near,) = sample_orbit_states(1e-9, 1, rng)
            (far,) = sample_orbit_states(rng.uniform(0.05, PI4), 1, rng)
            for src, tgt in ((far, near), (near, far)):
                plan = cz_connect(src, tgt)
                assert plan.cz_count == 1
                assert plan.residual <= 1e-10

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_near_product_pairs_meet_tol(self, rng, tol):
        # Both ends within 10 tol of the product torus, on either sheet.  A local plan with no X between states that
        # torus_angles puts on opposite sheets skipped the sheet swap, and must meet tol by the two Ry alone.
        worst, skipped = 0.0, 0
        for _ in range(20000):
            eps = 10.0 ** rng.uniform(-16.0, math.log10(10.0 * tol), 2)
            sheets = rng.choice(["V34", "V12"], 2).tolist()
            src, tgt = (parametrize(TorusPoint(PI4 - e, *rng.uniform(0.0, TWO_PI, 2), s)) for e, s in zip(eps, sheets))
            plan = cz_connect(src, tgt, tol)
            swap = torus_angles(src).sheet != torus_angles(tgt).sheet
            if swap and plan.cz_count == 0 and all(g.kind != "x" for g in plan.circuit):
                worst, skipped = max(worst, plan.residual / tol), skipped + 1
        assert skipped > 1000
        assert worst <= 1.0

    @pytest.mark.parametrize("tol", [1e-16, 1e-17])
    def test_tiny_tol_never_mismatches_legs(self, rng, tol):
        # The legs share an orbit by construction; their d is not re-compared.
        for _ in range(300):
            plan = cz_connect(_random_state(rng), _random_state(rng), tol)
            assert plan.cz_count in (0, 1)

    def test_plan_json(self, rng):
        plan = cz_connect(ZERO, bell_basis_state(3))
        data = plan.to_dict()
        assert set(data) == {"gates", "intermediate", "cz_count", "residual"}
        assert data["cz_count"] == 1
        assert set(data["intermediate"]) == {"w"}
        local = local_connect(ZERO, ZERO)
        assert local.to_dict()["intermediate"] is None


class TestPrepare:
    def test_zero_state_identity_angles(self):
        t1, t0, t2 = _preparation_angles(ZERO)
        assert (t1, t0, t2) == (0.0, 0.0, 0.0)
        circ = prepare(ZERO)
        assert sign_residual(apply(circ, ZERO), ZERO) < 1e-15

    def test_bell_v3_angles(self):
        t1, t0, t2 = _preparation_angles(bell_basis_state(3))
        assert t1 == pytest.approx(math.pi / 2, abs=1e-12)
        assert t0 == pytest.approx(-math.pi / 2, abs=1e-12)
        assert t2 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_uniform_superposition_angle(self):
        t1, _, _ = _preparation_angles(RealState(0.5, 0.5, 0.5, 0.5))
        assert t1 == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "signed",
        [
            pytest.param((-0.0, 0.0, 0.6, 0.8), id="-0.0-0.0"),
            pytest.param((-0.0, -0.0, 0.6, 0.8), id="-0.0--0.0"),
            pytest.param((1.0, -0.0, 0.0, 0.0), id="1.0--0.0-0.0-0.0"),
            pytest.param((0.6, -0.0, 0.8, 0.0), id="0.6--0.0-0.8-0.0"),
            pytest.param((1.0, 0.0, -0.0, -0.0), id="1.0-0.0--0.0--0.0"),
        ],
    )
    def test_signed_zero_pair_prepared_like_zero(self, signed):
        # atan2 reads the sign of a zero: atan2(+-0.0, -0.0) is +-pi and atan2(-0.0, 1.0) is -0.0, which repr keeps.
        plain = tuple(0.0 if w == 0.0 else w for w in signed)
        assert repr(prepare(RealState(*signed))) == repr(prepare(RealState(*plain)))

    def test_template_shape(self, rng):
        circ = prepare(_random_state(rng))
        assert [g.kind for g in circ] == ["ry", "ry", "cz", "ry"]
        assert [g.qubit for g in circ] == [0, 1, None, 1]
        for g in circ:
            if g.kind == "ry":
                assert -math.pi < g.angle <= math.pi

    def test_random_sweep(self, rng):
        for _ in range(2000):
            s = _random_state(rng)
            assert sign_residual(apply(prepare(s), ZERO), s) < 1e-10

    def test_near_empty_pair_keeps_its_digits(self, rng):
        # A split angle from acos(|(w1, w2)|) drops a pair of size 1e-8.
        targets = [RealState(1.0, 0.0, 1e-8, 0.0), RealState(0.0, 1e-8, 0.0, 1.0)]
        for _ in range(200):
            eps = 10.0 ** rng.uniform(-12.0, -6.0)
            a, b = rng.uniform(0, TWO_PI, size=2)
            small = eps * np.array([math.cos(a), math.sin(a)])
            large = math.sqrt(1.0 - eps * eps) * np.array([math.cos(b), math.sin(b)])
            pairs = (small, large) if rng.random() < 0.5 else (large, small)
            targets.append(RealState.from_vector(np.concatenate(pairs)))
        for target in targets:
            assert sign_residual(apply(prepare(target), ZERO), target) <= 1e-10

    def test_exactly_one_template_layout_is_consistent(self, rng):
        # Candidate layouts: which wire takes t1 and which takes the
        # t0 / CZ / t2 chain.  The simulator admits exactly one.
        def layouts(t1, t0, t2):
            return {
                "t1q0_chain_q1": Circuit((Gate("ry", 0, t1), Gate("ry", 1, t0), Gate("cz"), Gate("ry", 1, t2))),
                "t1q1_chain_q0": Circuit((Gate("ry", 1, t1), Gate("ry", 0, t0), Gate("cz"), Gate("ry", 0, t2))),
                "t1q0_post_q0": Circuit((Gate("ry", 0, t1), Gate("ry", 1, t0), Gate("cz"), Gate("ry", 0, t2))),
                "t1q1_post_q1": Circuit((Gate("ry", 1, t1), Gate("ry", 0, t0), Gate("cz"), Gate("ry", 1, t2))),
            }

        passing = None
        for name in layouts(0, 0, 0):
            ok = True
            batch_rng = np.random.default_rng(99)
            for _ in range(60):
                vec = batch_rng.normal(size=4)
                target = RealState.from_vector(vec / np.linalg.norm(vec))
                circ = layouts(*_preparation_angles(target))[name]
                if sign_residual(apply(circ, ZERO), target) > 1e-9:
                    ok = False
                    break
            if ok:
                assert passing is None, f"both {passing} and {name} pass"
                passing = name
        assert passing == "t1q0_chain_q1"


class TestWrappedResults:
    """Results wrapped without a second validation are what validation would pass unchanged."""

    @staticmethod
    def _assert_unit(values):
        assert all(math.isfinite(v) for v in values)
        assert abs(math.hypot(*values) - 1.0) <= 4 * 2.0**-52

    def test_unit_norm_on_seeded_states_and_pairs(self, rng):
        strata = [0.0, 1e-9, PI4 - 1e-8, PI4]
        for k in range(1000):
            if k % 5 == 4:
                d = strata[(k // 5) % len(strata)]
                sheet = "V34" if rng.random() < 0.5 else "V12"
                s = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            else:
                s = _random_state(rng)
            t = _random_state(rng)
            x = to_bell(s)
            self._assert_unit([x.x1, x.x2, x.x3, x.x4])
            w = from_bell(x)
            self._assert_unit([w.w1, w.w2, w.w3, w.w4])
            gates = [Gate("ry", int(q), float(a)) for q, a in zip(rng.integers(0, 2, 3), rng.uniform(-7, 7, 3))]
            out = apply(Circuit((*gates, Gate("x", int(rng.integers(0, 2))), Gate("cz"))), s)
            self._assert_unit([out.w1, out.w2, out.w3, out.w4])
            d_s, d_t = entanglement_distance(s), entanglement_distance(t)
            if d_s != d_t:
                mid = intersection_state(max(d_s, d_t), min(d_s, d_t))
                self._assert_unit([mid.w1, mid.w2, mid.w3, mid.w4])
