"""Gate matrices, circuit application, reduced densities and the entropy route."""

import math

import numpy as np
import pytest

from realtwoqubit import (
    Circuit,
    Gate,
    RealState,
    apply,
    bell_basis_state,
    entanglement_distance,
    from_bell,
    parametrize,
    sign_residual,
    to_bell,
    TorusPoint,
)
from reference import entanglement_entropy, gate_matrix, reduced_density_matrix, reduced_eigenvalues, ry_matrix

ISQ2 = 1.0 / math.sqrt(2.0)

# Independent route for the frozen value below: partial trace + eigvalsh
# (see test_entropy_pi_over_6_matches_independent_oracle).
ENTROPY_AT_PI_6 = 0.3545789026652702


def _random_state(rng):
    vec = rng.normal(size=4)
    return RealState.from_vector(vec / np.linalg.norm(vec))


def _random_local_circuit(rng, max_len=8):
    gates = []
    for _ in range(rng.integers(0, max_len + 1)):
        if rng.random() < 0.25:
            gates.append(Gate.x(int(rng.integers(0, 2))))
        else:
            gates.append(Gate.ry(int(rng.integers(0, 2)), float(rng.uniform(-2 * math.pi, 2 * math.pi))))
    return Circuit(tuple(gates))


class TestGateMatrices:
    def test_identity_angle(self):
        np.testing.assert_allclose(gate_matrix(Gate.ry(0, 0.0)), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(gate_matrix(Gate.ry(1, 0.0)), np.eye(4), atol=1e-15)

    def test_cz_is_diagonal_sign_flip(self):
        np.testing.assert_allclose(gate_matrix(Gate.cz()), np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_x_structure(self):
        x2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(gate_matrix(Gate.x(0)), np.kron(x2, np.eye(2)))
        np.testing.assert_allclose(gate_matrix(Gate.x(1)), np.kron(np.eye(2), x2))

    def test_orthogonality(self, rng):
        for _ in range(300):
            g = Gate.ry(int(rng.integers(0, 2)), float(rng.uniform(-10, 10)))
            m = gate_matrix(g)
            np.testing.assert_allclose(m.T @ m, np.eye(4), atol=1e-14)
        for g in (Gate.x(0), Gate.x(1), Gate.cz()):
            m = gate_matrix(g)
            np.testing.assert_allclose(m.T @ m, np.eye(4), atol=1e-14)

    def test_ry_matrix_entries(self):
        m = ry_matrix(2.0)
        c, s = math.cos(1.0), math.sin(1.0)
        np.testing.assert_allclose(m, [[c, -s], [s, c]], atol=1e-15)


class TestApply:
    def test_kronecker_convention(self):
        # Pins qubit 0 to the left ket label: (Ry(-2t) x I)|v3> must trace
        # E(v3, v4) as cos(t) v3 + sin(t) v4.
        v3, v4 = bell_basis_state(3), bell_basis_state(4)
        for t in np.linspace(-3.0, 3.0, 13):
            out = apply(Circuit((Gate.ry(0, -2.0 * t),)), v3)
            expect = math.cos(t) * v3.vector + math.sin(t) * v4.vector
            np.testing.assert_allclose(out.vector, expect, atol=1e-14)

    def test_x_on_qubit0_sends_v1_to_minus_v4(self):
        out = apply(Circuit((Gate.x(0),)), bell_basis_state(1))
        np.testing.assert_allclose(out.vector, [0.0, -ISQ2, ISQ2, 0.0], atol=1e-15)

    def test_ry_on_qubit1(self):
        out = apply(Circuit((Gate.ry(1, math.pi / 2),)), RealState(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(out.vector, [ISQ2, ISQ2, 0.0, 0.0], atol=1e-15)

    def test_empty_circuit_is_identity(self, rng):
        s = _random_state(rng)
        assert sign_residual(apply(Circuit(()), s), s) == 0.0

    def test_left_to_right_order(self, rng):
        s = _random_state(rng)
        circ = Circuit((Gate.ry(0, 0.7), Gate.x(0), Gate.cz()))
        vec = s.vector
        for g in circ:
            vec = gate_matrix(g) @ vec
        np.testing.assert_allclose(apply(circ, s).vector, vec, atol=1e-15)

    def test_closed_form_matches_dense_kronecker_product(self, rng):
        # apply acts on the amplitudes in closed form; gate_matrix is the
        # dense kron(M, I) / kron(I, M) reference it must reproduce.
        for _ in range(500):
            s = _random_state(rng)
            gates = []
            for _ in range(rng.integers(1, 11)):
                kind = rng.choice(["ry", "ry", "x", "cz"])
                if kind == "cz":
                    gates.append(Gate.cz())
                elif kind == "x":
                    gates.append(Gate.x(int(rng.integers(0, 2))))
                else:
                    gates.append(Gate.ry(int(rng.integers(0, 2)), float(rng.uniform(-2 * math.pi, 2 * math.pi))))
            circ = Circuit(tuple(gates))
            dense = np.eye(4)
            for g in circ:
                dense = gate_matrix(g) @ dense
            np.testing.assert_allclose(apply(circ, s).vector, dense @ s.vector, rtol=0, atol=1e-14)

    def test_cz_involution(self, rng):
        twice = Circuit((Gate.cz(), Gate.cz()))
        for _ in range(50):
            s = _random_state(rng)
            assert sign_residual(apply(twice, s), s) < 1e-14

    def test_circuit_inverse(self, rng):
        for _ in range(100):
            s = _random_state(rng)
            c = _random_local_circuit(rng)
            round_trip = apply(c.inverse(), apply(c, s))
            assert float(np.linalg.norm(round_trip.vector - s.vector)) < 1e-13


class TestReducedDensity:
    def test_bell_state_is_maximally_mixed(self):
        lam = reduced_eigenvalues(bell_basis_state(3))
        assert lam == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_product_state_is_pure(self):
        lam = reduced_eigenvalues(RealState(1.0, 0.0, 0.0, 0.0))
        assert lam == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_partial_trace_symmetry(self, rng):
        for _ in range(500):
            s = _random_state(rng)
            a = reduced_eigenvalues(s, qubit=0)
            b = reduced_eigenvalues(s, qubit=1)
            assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12

    def test_reduced_matrix_is_partial_trace(self, rng):
        s = _random_state(rng)
        w = s.vector.reshape(2, 2)
        rho_full = np.outer(s.vector, s.vector).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(reduced_density_matrix(s, 0), np.einsum("ikjk->ij", rho_full), atol=1e-15)
        np.testing.assert_allclose(reduced_density_matrix(s, 1), np.einsum("kikj->ij", rho_full), atol=1e-15)
        np.testing.assert_allclose(reduced_density_matrix(s, 0), w @ w.T, atol=1e-15)
        with pytest.raises(ValueError):
            reduced_density_matrix(s, 2)

    def test_eigenvalues_match_distance_formula(self, rng):
        # (1 +- sin 2d)/2 for states on the orbit at distance d.
        for _ in range(300):
            d = rng.uniform(0.0, math.pi / 4)
            s = parametrize(TorusPoint(d, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), "V34"))
            hi, lo = reduced_eigenvalues(s)
            assert abs(hi - (1 + math.sin(2 * d)) / 2) < 1e-12
            assert abs(lo - (1 - math.sin(2 * d)) / 2) < 1e-12


class TestEntropy:
    def test_extremes(self):
        assert entanglement_entropy(bell_basis_state(3)) == pytest.approx(1.0, abs=1e-14)
        assert entanglement_entropy(RealState(1.0, 0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_entropy_pi_over_6_matches_independent_oracle(self):
        s = parametrize(TorusPoint(math.pi / 6, 0.7, -1.1, "V34"))
        # Independent oracle: numpy partial trace + eigvalsh, no closed forms.
        w = s.vector.reshape(2, 2)
        lam = np.linalg.eigvalsh(w @ w.T)
        oracle = -sum(v * math.log2(v) for v in lam if v > 1e-15)
        assert abs(oracle - ENTROPY_AT_PI_6) < 1e-13
        assert abs(entanglement_entropy(s) - oracle) < 1e-13

    def test_invariance_under_local_circuits(self, rng):
        # Module invariant: 1e4 random (state, RY/X circuit) pairs.
        for _ in range(10_000):
            s = _random_state(rng)
            before = entanglement_entropy(s)
            after = entanglement_entropy(apply(_random_local_circuit(rng), s))
            assert abs(before - after) < 1e-10

    def test_entropy_depends_only_on_distance(self, rng):
        for _ in range(200):
            d = rng.uniform(0.0, math.pi / 4)
            sheet = "V34" if rng.random() < 0.5 else "V12"
            a = parametrize(TorusPoint(d, rng.uniform(0, 7), rng.uniform(0, 7), sheet))
            b = parametrize(TorusPoint(d, rng.uniform(0, 7), rng.uniform(0, 7), "V34"))
            assert abs(entanglement_entropy(a) - entanglement_entropy(b)) < 1e-12
            assert abs(entanglement_distance(a) - d) < 1e-12


class TestGateAndCircuitValues:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("h", 0)
        with pytest.raises(ValueError):
            Gate.ry(2, 0.5)
        with pytest.raises(ValueError):
            Gate.ry(0, math.nan)
        with pytest.raises(ValueError):
            Gate("x", 0, 1.0)
        with pytest.raises(ValueError):
            Gate("cz", 0)

    def test_circuit_json_round_trip(self):
        circ = Circuit((Gate.ry(0, 0.25), Gate.x(1), Gate.cz()))
        data = circ.to_dict()
        assert data == {
            "gates": [
                {"kind": "ry", "qubit": 0, "angle": 0.25},
                {"kind": "x", "qubit": 1},
                {"kind": "cz"},
            ]
        }
        assert Circuit.from_dict(data) == circ

    def test_bad_gate_dict(self):
        for data in [
            {"kind": "swap"},
            {"kind": "ry", "qubit": True, "angle": 1.0},
            {"kind": "x", "qubit": 0.0},
            {"kind": "ry", "qubit": 0, "angle": "1.5"},
            {"kind": "ry", "qubit": 0, "angle": True},
        ]:
            with pytest.raises(ValueError):
                Gate.from_dict(data)

    def test_cz_count(self):
        circ = Circuit((Gate.cz(), Gate.ry(0, 1.0), Gate.cz()))
        assert circ.cz_count == 2
