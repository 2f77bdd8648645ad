"""State construction, Bell coordinates, concurrence and sign-blind equality."""

import contextlib
import copy
import math
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest

from realtwoqubit import (
    BellCoords,
    Circuit,
    Gate,
    RealState,
    TorusPoint,
    bell_basis_state,
    classify,
    concurrence,
    cz_connect,
    entanglement_distance,
    entropy_from_distance,
    from_bell,
    intersection_state,
    orbit_mesh,
    parametrize,
    prepare,
    sample_orbit_states,
    sign_residual,
    to_bell,
    torus_angles,
)

ISQ2 = 1.0 / math.sqrt(2.0)


def _random_state(rng):
    vec = rng.normal(size=4)
    return RealState.from_vector(vec / np.linalg.norm(vec))


class TestConstruction:
    def test_small_norm_drift_is_renormalized(self):
        s = RealState(1.0 + 5e-7, 0.0, 0.0, 0.0)
        assert math.isclose(np.linalg.norm(np.array(s)), 1.0, abs_tol=1e-12)
        assert s.w1 == pytest.approx(1.0, abs=1e-6)

    def test_large_norm_deviation_rejected(self):
        with pytest.raises(ValueError):
            RealState(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BellCoords(0.5, 0.5, 0.5, 0.0)

    @pytest.mark.parametrize("scale, norm", [(1e200, "1e+200"), (1e-200, "1e-200")])
    def test_far_off_norm_named_in_the_error(self, scale, norm):
        with pytest.raises(ValueError, match=f"norm {re.escape(norm)}, not within"):
            RealState(scale, 0.0, 0.0, 0.0)

    def test_bell_change_errors_cite_the_callers_figures(self):
        # The Bell image rounds the norm in its last digit and spreads a nan: the error shows what was passed.
        for call, vector, message in [
            (to_bell, (2, 0, 0, 0), "amplitude vector has norm 2.0,"),
            (classify, (2, 0, 0, 2), "amplitude vector has norm 2.8284271247461903,"),
            (entanglement_distance, (0, 3, 0, 0), "amplitude vector has norm 3.0,"),
            (to_bell, (math.nan, 0, 0, 0), "amplitude components must be finite, got (nan, 0.0, 0.0, 0.0)"),
            (from_bell, (2, 0, 0, 0), "Bell coordinate vector has norm 2.0,"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                call(vector)

    def test_from_vector_passes_a_record_of_its_class_as_it_is(self, rng):
        # Dividing a unit vector by its norm again would move an ulp in some states.
        s, x = _random_state(rng), to_bell(_random_state(rng))
        assert RealState.from_vector(s) is s and BellCoords.from_vector(x) is x

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

    def test_constructor_takes_only_numbers(self):
        # float() would read the first three as numbers, and fails on the last two with TypeError and OverflowError.
        for cls, values in [
            (RealState, ("1", 0, 0, 0)),
            (RealState, (True, False, False, False)),
            (BellCoords, ("0", 0, 1, 0)),
            (RealState, (1j, 0, 0, 0)),
            (RealState, (10**400, 0, 0, 0)),
        ]:
            with pytest.raises(ValueError, match="must be numbers"):
                cls(*values)

    def test_missing_key_rejected(self):
        for cls, key in [(RealState, "'w'"), (BellCoords, "'x'")]:
            with pytest.raises(ValueError, match=key):
                cls.from_dict({})

    def test_immutable(self):
        s = RealState(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            s.w1 = 0.5
        with pytest.raises(AttributeError):
            s.extra = 1

    def test_unit_norm_invariant(self, rng):
        for _ in range(200):
            s = _random_state(rng)
            assert abs(float(np.linalg.norm(np.array(s))) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: entropy_from_distance("0.3"), id="entropy-d-text"),
        pytest.param(lambda: orbit_mesh("0.3", 2, 2), id="mesh-d-text"),
        pytest.param(lambda: parametrize(TorusPoint("0.3", 0.0, 0.0, "V34")), id="parametrize-d-text"),
        pytest.param(lambda: intersection_state("0.5", 0.2), id="intersection-d0-text"),
        pytest.param(lambda: intersection_state(0.5, "0.2"), id="intersection-d1-text"),
        pytest.param(lambda: cz_connect(bell_basis_state(1), bell_basis_state(3), tol="1e-3"), id="tol-text"),
        pytest.param(lambda: cz_connect(bell_basis_state(1), bell_basis_state(3), tol=None), id="tol-None"),
        pytest.param(lambda: cz_connect(bell_basis_state(1), bell_basis_state(3), tol=True), id="tol-True"),
    ],
)
def test_d_and_tol_take_only_numbers(call):
    # One number rule for states, d and tol: float() would read the text, and True as 1; None would be a TypeError.
    with pytest.raises(ValueError, match="^(distance must be a number|tolerance must be positive and finite), got "):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: sample_orbit_states(0.3, True, random.Random(1)), "count must be an integer, got True", id="count"),
        pytest.param(lambda: orbit_mesh(0.3, True, 2), "grid sizes must be integers, got (True, 2)", id="grid-True"),
        pytest.param(lambda: bell_basis_state(True), "Bell basis index must be 1..4, got True", id="bell-True"),
        pytest.param(lambda: bell_basis_state(2.0), "Bell basis index must be 1..4, got 2.0", id="bell-float"),
        pytest.param(lambda: Gate("x", np.int64(0)), None, id="qubit-int64"),
    ],
)
def test_one_integer_rule(call, error):
    # Counts, grid sizes, Bell indices and qubits take an integer, np.int64 too, and neither a bool nor a float.
    with pytest.raises(ValueError, match=re.escape(error)) if error else contextlib.nullcontext():
        call()


def test_a_gate_keeps_its_qubit_as_an_int():
    gate = Gate("x", np.int64(1))
    assert type(gate.qubit) is int and gate == Gate("x", 1)


class TestBellBasis:
    def test_bell_basis_states_are_the_four_bell_vectors(self):
        np.testing.assert_allclose(np.array(bell_basis_state(1)), [ISQ2, 0, 0, -ISQ2], atol=1e-15)
        np.testing.assert_allclose(np.array(bell_basis_state(2)), [0, ISQ2, ISQ2, 0], atol=1e-15)
        np.testing.assert_allclose(np.array(bell_basis_state(3)), [ISQ2, 0, 0, ISQ2], atol=1e-15)
        np.testing.assert_allclose(np.array(bell_basis_state(4)), [0, ISQ2, -ISQ2, 0], atol=1e-15)
        with pytest.raises(ValueError):
            bell_basis_state(0)

    def test_to_bell_of_zero_ket(self):
        x = to_bell(RealState(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(np.array(x), [ISQ2, 0.0, ISQ2, 0.0], atol=1e-15)

    def test_to_bell_of_bell_vectors(self):
        np.testing.assert_allclose(np.array(to_bell(bell_basis_state(3))), [0, 0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(np.array(to_bell(bell_basis_state(1))), [1, 0, 0, 0], atol=1e-15)

    def test_from_bell_hand_expansion(self):
        # (v3 + v4)/sqrt(2) expanded by hand in computational amplitudes.
        s = from_bell(BellCoords(0.0, 0.0, ISQ2, ISQ2))
        np.testing.assert_allclose(np.array(s), [0.5, 0.5, -0.5, 0.5], atol=1e-15)

    def test_round_trip_many(self, rng):
        # Module invariant: 1e4 random unit vectors survive both round trips.
        for _ in range(10_000):
            s = _random_state(rng)
            back = from_bell(to_bell(s))
            assert float(np.linalg.norm(np.array(back) - np.array(s))) < 1e-12

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
        neg = RealState.from_vector(-np.array(s))
        assert sign_residual(s, s) <= 1e-10
        assert sign_residual(s, neg) <= 1e-10
        assert sign_residual(s, neg) < 1e-15

    def test_distinct_states_detected(self):
        assert not sign_residual(RealState(1, 0, 0, 0), RealState(0, 1, 0, 0)) <= 1e-10

    def test_tolerance_respected(self):
        a = RealState(1.0, 0.0, 0.0, 0.0)
        b = RealState.from_vector(np.array([math.cos(1e-6), math.sin(1e-6), 0.0, 0.0]))
        assert not sign_residual(a, b) <= 1e-10
        assert sign_residual(a, b) <= 1e-4

    def test_no_silent_canonicalization(self):
        s = RealState(-1.0, 0.0, 0.0, 0.0)
        assert s.w1 == -1.0


class TestJson:
    def test_state_round_trip(self, rng):
        s = _random_state(rng)
        assert np.array(RealState.from_dict(s.to_dict())) == pytest.approx(list(np.array(s)))
        assert list(s.to_dict()) == ["w"]

    def test_bell_round_trip(self, rng):
        x = to_bell(_random_state(rng))
        assert np.array(BellCoords.from_dict(x.to_dict())) == pytest.approx(list(np.array(x)))
        assert list(x.to_dict()) == ["x"]

    @pytest.mark.parametrize(
        "load, data, named",
        [
            (Circuit.from_dict, 5, "dict expected, got 5"),
            (RealState.from_dict, None, "dict expected, got None"),
            (RealState.from_dict, "w", "dict expected, got 'w'"),
            (Gate.from_dict, {"kind": "x", "qubit": 0, "phase": 1.0}, "unknown key 'phase'"),
            (RealState.from_dict, {"w": [1, 0, 0, 0], "x": [0, 1, 0, 0]}, "unknown key 'x'"),
            (RealState.from_dict, {"w": 5}, "expected 4 amplitudes, got 5"),
            (RealState.from_dict, {"w": None}, "expected 4 amplitudes, got None"),
            (RealState.from_dict, {"w": [None, 0, 0, 0]}, re.escape("must be numbers, got [None, 0, 0, 0]")),
            (RealState.from_dict, {"w": [[1], 0, 0, 0]}, re.escape("must be numbers, got [[1], 0, 0, 0]")),
        ],
    )
    def test_loaders_take_a_dict_of_known_keys(self, load, data, named):
        # One check for every loader: not TypeError for a non-dict, and no key dropped silently.
        with pytest.raises(ValueError, match=named):
            load(data)


def _records(rng):
    """One of each public record, built from a random state."""
    s = _random_state(rng)
    plan = cz_connect(RealState(1, 0, 0, 0), s)
    return [
        s,
        to_bell(s),
        Gate("ry", 1, rng.uniform(-4.0, 4.0)),
        prepare(s),
        classify(s),
        torus_angles(s),
        orbit_mesh(rng.uniform(0.1, 0.7), 2, 3)[1],
        plan,
    ]


class TestRecords:
    def test_copy_and_pickle_keep_every_bit(self, rng):
        # Each state must come back as made, not divided by its norm again, which moves an ulp in about 3% of them.
        for _ in range(200):
            for record in _records(rng):
                for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                    assert type(back) is type(record)
                    assert repr(back) == repr(record)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RealState._make((5, 0, 0, 0)),
            lambda: RealState(1, 0, 0, 0)._replace(w1=5.0),
            lambda: Gate("cz")._replace(qubit=0),
        ],
    )
    def test_make_and_replace_check_like_the_constructor(self, make):
        with pytest.raises(ValueError):
            make()

    def test_state_equals_only_its_own_class(self):
        # RealState(0, 0, 1, 0) is |10>, BellCoords(0, 0, 1, 0) is v3.
        assert RealState(0, 0, 1, 0) != BellCoords(0, 0, 1, 0)
        assert not RealState(0, 0, 1, 0) == BellCoords(0, 0, 1, 0)
        assert RealState(0, 0, 1, 0) != (0.0, 0.0, 1.0, 0.0)
        assert RealState(0, 0, 1, 0) == RealState(0.0, 0.0, 1.0, 0.0)
        assert hash(RealState(0, 0, 1, 0)) == hash(RealState(0.0, 0.0, 1.0, 0.0))

    def test_readme_orbit_class_repr(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        shown = repr(classify(RealState(0.5, 0.5, 0.5, -0.5)))
        assert f"# {shown}" in readme
