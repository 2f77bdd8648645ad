"""State construction, Bell coordinates, concurrence and sign-blind equality."""

import math

import numpy as np
import pytest

from realtwoqubit import (
    BellCoords,
    RealState,
    bell_basis_state,
    concurrence,
    from_bell,
    sign_residual,
    states_equal_up_to_sign,
    to_bell,
)

ISQ2 = 1.0 / math.sqrt(2.0)


def _random_state(rng):
    vec = rng.normal(size=4)
    return RealState.from_vector(vec / np.linalg.norm(vec))


class TestConstruction:
    def test_small_norm_drift_is_renormalized(self):
        s = RealState(1.0 + 5e-7, 0.0, 0.0, 0.0)
        assert math.isclose(np.linalg.norm(s.vector), 1.0, abs_tol=1e-12)
        assert s.w1 == pytest.approx(1.0, abs=1e-6)

    def test_large_norm_deviation_rejected(self):
        with pytest.raises(ValueError):
            RealState(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BellCoords(0.5, 0.5, 0.5, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            RealState(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RealState(math.inf, 0.0, 0.0, 0.0)

    def test_from_vector_length_checked(self):
        for vec in [[1.0, 0.0, 0.0], "1000", ["1", 0.0, 0.0, 0.0], [True, False, False, False]]:
            with pytest.raises(ValueError):
                RealState.from_vector(vec)
            with pytest.raises(ValueError):
                RealState.from_dict({"w": vec})

    def test_immutable(self):
        s = RealState(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            s.w1 = 0.5

    def test_unit_norm_invariant(self, rng):
        for _ in range(200):
            s = _random_state(rng)
            assert abs(float(np.linalg.norm(s.vector)) - 1.0) < 1e-12


class TestBellBasis:
    def test_bell_basis_states_are_the_four_bell_vectors(self):
        np.testing.assert_allclose(bell_basis_state(1).vector, [ISQ2, 0, 0, -ISQ2], atol=1e-15)
        np.testing.assert_allclose(bell_basis_state(2).vector, [0, ISQ2, ISQ2, 0], atol=1e-15)
        np.testing.assert_allclose(bell_basis_state(3).vector, [ISQ2, 0, 0, ISQ2], atol=1e-15)
        np.testing.assert_allclose(bell_basis_state(4).vector, [0, ISQ2, -ISQ2, 0], atol=1e-15)
        with pytest.raises(ValueError):
            bell_basis_state(0)

    def test_to_bell_of_zero_ket(self):
        x = to_bell(RealState(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(x.vector, [ISQ2, 0.0, ISQ2, 0.0], atol=1e-15)

    def test_to_bell_of_bell_vectors(self):
        np.testing.assert_allclose(to_bell(bell_basis_state(3)).vector, [0, 0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(to_bell(bell_basis_state(1)).vector, [1, 0, 0, 0], atol=1e-15)

    def test_from_bell_hand_expansion(self):
        # (v3 + v4)/sqrt(2) expanded by hand in computational amplitudes.
        s = from_bell(BellCoords(0.0, 0.0, ISQ2, ISQ2))
        np.testing.assert_allclose(s.vector, [0.5, 0.5, -0.5, 0.5], atol=1e-15)

    def test_round_trip_many(self, rng):
        # Module invariant: 1e4 random unit vectors survive both round trips.
        for _ in range(10_000):
            s = _random_state(rng)
            back = from_bell(to_bell(s))
            assert float(np.linalg.norm(back.vector - s.vector)) < 1e-12

    def test_bell_coordinate_identity(self, rng):
        # x1^2 + x2^2 = (1 - 2(w1 w4 - w2 w3))/2
        for _ in range(2000):
            s = _random_state(rng)
            x = to_bell(s)
            lhs = x.x1**2 + x.x2**2
            rhs = (1.0 - 2.0 * (s.w1 * s.w4 - s.w2 * s.w3)) / 2.0
            assert abs(lhs - rhs) < 1e-12


class TestConcurrence:
    def test_product_state(self):
        assert concurrence(RealState(1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_bell_state(self):
        assert concurrence(bell_basis_state(3)) == pytest.approx(1.0, abs=1e-15)

    def test_half_amplitudes_state_is_maximally_entangled(self):
        assert concurrence(RealState(0.5, 0.5, 0.5, -0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_range(self, rng):
        for _ in range(2000):
            c = concurrence(_random_state(rng))
            assert -1e-15 <= c <= 1.0 + 1e-12


class TestSignBlindEquality:
    def test_equal_and_negated(self, rng):
        s = _random_state(rng)
        neg = RealState.from_vector(-s.vector)
        assert states_equal_up_to_sign(s, s)
        assert states_equal_up_to_sign(s, neg)
        assert sign_residual(s, neg) < 1e-15

    def test_distinct_states_detected(self):
        assert not states_equal_up_to_sign(RealState(1, 0, 0, 0), RealState(0, 1, 0, 0))

    def test_tolerance_respected(self):
        a = RealState(1.0, 0.0, 0.0, 0.0)
        b = RealState.from_vector(np.array([math.cos(1e-6), math.sin(1e-6), 0.0, 0.0]))
        assert not states_equal_up_to_sign(a, b, tol=1e-10)
        assert states_equal_up_to_sign(a, b, tol=1e-4)

    def test_no_silent_canonicalization(self):
        s = RealState(-1.0, 0.0, 0.0, 0.0)
        assert s.w1 == -1.0


class TestJson:
    def test_state_round_trip(self, rng):
        s = _random_state(rng)
        assert RealState.from_dict(s.to_dict()).vector == pytest.approx(list(s.vector))
        assert list(s.to_dict()) == ["w"]

    def test_bell_round_trip(self, rng):
        x = to_bell(_random_state(rng))
        assert BellCoords.from_dict(x.to_dict()).vector == pytest.approx(list(x.vector))
        assert list(x.to_dict()) == ["x"]
