"""Orbit classification, torus parametrization, the immersion identity and meshes."""

import json
import math

import numpy as np
import pytest

from realtwoqubit import (
    Circuit,
    DegenerateAngleError,
    Gate,
    MeshPoint,
    RealState,
    TorusPoint,
    apply,
    bell_basis_state,
    classify,
    concurrence,
    entanglement_distance,
    entropy_from_distance,
    from_bell,
    mesh_to_csv,
    mesh_to_json,
    orbit_mesh,
    parametrize,
    sample_orbit_states,
    to_bell,
    torus_angles,
    BellCoords,
)
from reference import immersion_defect, orbit_surface, surface_gram_det

PI4 = math.pi / 4.0
TWO_PI = 2.0 * math.pi


def _random_state(rng):
    vec = rng.normal(size=4)
    return RealState.from_vector(vec / np.linalg.norm(vec))


def _wrap_diff(a, b):
    return abs(math.remainder(a - b, TWO_PI))


class TestDistance:
    def test_bell_vectors_are_at_zero(self):
        for k in (1, 2, 3, 4):
            assert entanglement_distance(bell_basis_state(k)) == pytest.approx(0.0, abs=1e-15)

    def test_product_state_at_quarter_pi(self):
        assert entanglement_distance(RealState(1, 0, 0, 0)) == pytest.approx(PI4, abs=1e-15)

    def test_parametrized_state_recovers_d(self, rng):
        s = parametrize(TorusPoint(math.pi / 6, 0.7, -1.1, "V34"))
        assert abs(entanglement_distance(s) - math.pi / 6) < 1e-12
        for _ in range(300):
            d = rng.uniform(0.0, PI4)
            sheet = "V34" if rng.random() < 0.5 else "V12"
            s = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            assert abs(entanglement_distance(s) - d) < 1e-12

    def test_rotated_circle_states_stay_at_zero(self):
        # The fold must be exact on both circles, not just at the basis points.
        for theta in np.linspace(0.0, TWO_PI, 17):
            on_v12 = from_bell(BellCoords(math.cos(theta), math.sin(theta), 0.0, 0.0))
            on_v34 = from_bell(BellCoords(0.0, 0.0, math.cos(theta), math.sin(theta)))
            assert entanglement_distance(on_v12) < 1e-12
            assert entanglement_distance(on_v34) < 1e-12

    def test_range_and_concurrence_identity(self, rng):
        for _ in range(2000):
            s = _random_state(rng)
            d = entanglement_distance(s)
            assert 0.0 <= d <= PI4 + 1e-15
            assert abs(abs(math.cos(2.0 * d)) - concurrence(s)) < 1e-10

    def test_local_gate_invariance(self, rng):
        for _ in range(500):
            s = _random_state(rng)
            gates = []
            for _ in range(rng.integers(1, 10)):
                if rng.random() < 0.3:
                    gates.append(Gate.x(int(rng.integers(0, 2))))
                else:
                    gates.append(Gate.ry(int(rng.integers(0, 2)), float(rng.uniform(-6, 6))))
            moved = apply(Circuit(tuple(gates)), s)
            assert abs(entanglement_distance(moved) - entanglement_distance(s)) < 1e-10


class TestClassify:
    def test_product_state(self):
        orbit = classify(RealState(1, 0, 0, 0))
        assert orbit.kind == "product"
        assert orbit.sheet == "BOTH"
        assert orbit.d == pytest.approx(PI4, abs=1e-15)

    def test_bell_vector_on_v12(self):
        orbit = classify(bell_basis_state(1))
        assert orbit.kind == "max_entangled"
        assert orbit.sheet == "V12"
        assert orbit.d == pytest.approx(0.0, abs=1e-15)

    def test_bell_vector_on_v34(self):
        assert classify(bell_basis_state(3)).sheet == "V34"

    def test_generic_state(self):
        s = parametrize(TorusPoint(math.pi / 6, 0.2, 0.4, "V34"))
        orbit = classify(s)
        assert orbit.kind == "generic"
        assert orbit.sheet == "V34"
        assert abs(orbit.d - math.pi / 6) < 1e-12

    def test_sheet_from_delta_sign(self, rng):
        for _ in range(500):
            d = rng.uniform(1e-3, PI4 - 1e-3)
            sheet = "V34" if rng.random() < 0.5 else "V12"
            s = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            orbit = classify(s)
            assert orbit.sheet == sheet
            delta = s.w1 * s.w4 - s.w2 * s.w3
            assert (delta > 0) == (sheet == "V34")

    def test_sheet_agrees_with_torus_angles(self, rng):
        # Product states: w1*w4 - w2*w3 often rounds to exactly 0 while the
        # computed d misses pi/4, so class_tol = 0 calls them generic.
        states = [RealState(0.13742099868349344, -0.08208131572632066, 0.8474448095753379, -0.5061772628766396)]
        for a, b in rng.uniform(0.0, TWO_PI, size=(2000, 2)):
            ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
            states.append(RealState(ca * cb, ca * sb, sa * cb, sa * sb))
        generic = [s for s in states if classify(s, class_tol=0.0).kind == "generic"]
        assert len(generic) > 1
        for s in generic:
            assert classify(s, class_tol=0.0).sheet == torus_angles(s).sheet, s

    def test_class_tol_widens_boundaries(self):
        s = parametrize(TorusPoint(PI4 - 1e-6, 0.3, 0.9, "V34"))
        assert classify(s).kind == "generic"
        assert classify(s, class_tol=1e-5).kind == "product"

    def test_sheet_swap_under_x(self, rng):
        flip = Circuit((Gate.x(0),))
        for _ in range(200):
            d = rng.uniform(1e-3, PI4 - 1e-3)
            sheet = "V34" if rng.random() < 0.5 else "V12"
            s = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            swapped = classify(apply(flip, s))
            assert swapped.sheet == ("V12" if sheet == "V34" else "V34")
            assert abs(swapped.d - d) < 1e-12


class TestEntropyFromDistance:
    def test_extremes_exact(self):
        assert abs(entropy_from_distance(0.0) - 1.0) < 1e-14
        assert abs(entropy_from_distance(PI4)) < 1e-14

    def test_matches_literal_closed_form(self):
        # 1 - log2(sqrt((1+s)^(1+s)/(1-s)^(-1+s))), s = sin 2d, 0^0 := 1.
        def literal(d):
            s = math.sin(2.0 * d)
            return 1.0 - math.log2(math.sqrt((1.0 + s) ** (1.0 + s) / (1.0 - s) ** (-1.0 + s)))

        for d in np.linspace(0.0, PI4, 101):
            assert abs(entropy_from_distance(d) - literal(d)) < 1e-12

    def test_strictly_decreasing_on_grid(self):
        grid = np.linspace(0.0, PI4, 1000)
        values = [entropy_from_distance(d) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            entropy_from_distance(-1e-6)
        with pytest.raises(ValueError):
            entropy_from_distance(PI4 + 1e-6)
        # within slack the argument is clamped, not rejected
        assert entropy_from_distance(-1e-13) == pytest.approx(1.0, abs=1e-14)


class TestTorusAngles:
    def test_product_state_angles(self):
        p = torus_angles(RealState(1, 0, 0, 0))
        assert p.d == pytest.approx(PI4, abs=1e-15)
        assert p.a == pytest.approx(0.0, abs=1e-15)
        assert p.b == pytest.approx(0.0, abs=1e-15)
        assert p.sheet == "V34"

    def test_degenerate_on_circles(self):
        with pytest.raises(DegenerateAngleError):
            torus_angles(bell_basis_state(3))
        with pytest.raises(DegenerateAngleError):
            torus_angles(bell_basis_state(1))

    def test_round_trip_angles(self):
        p = TorusPoint(0.4, 1.2, -2.0, "V34")
        q = torus_angles(parametrize(p))
        assert q.sheet == "V34"
        assert abs(q.d - 0.4) < 1e-12
        assert _wrap_diff(q.a, 1.2) < 1e-12
        assert _wrap_diff(q.b, -2.0) < 1e-12

    def test_round_trip_states(self, rng):
        for _ in range(1000):
            d = rng.uniform(1e-6, PI4)
            sheet = "V34" if rng.random() < 0.5 else "V12"
            s = parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), sheet))
            back = parametrize(torus_angles(s))
            assert float(np.linalg.norm(back.vector - s.vector)) < 1e-10


class TestParametrize:
    def test_product_corner(self):
        s = parametrize(TorusPoint(PI4, 0.0, 0.0, "V34"))
        np.testing.assert_allclose(s.vector, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_degenerate_circle_limit(self):
        for theta in (0.0, 0.9, 2.5):
            s = parametrize(TorusPoint(0.0, 123.0, theta, "V34"))
            expect = math.cos(theta) * bell_basis_state(3).vector + math.sin(theta) * bell_basis_state(4).vector
            np.testing.assert_allclose(s.vector, expect, atol=1e-15)

    def test_quadrics_hold(self, rng):
        s = parametrize(TorusPoint(math.pi / 6, 0.7, -1.1, "V34"))
        x = to_bell(s)
        assert abs(x.x1**2 + x.x2**2 - math.sin(math.pi / 6) ** 2) < 1e-12
        assert abs(x.x3**2 + x.x4**2 - math.cos(math.pi / 6) ** 2) < 1e-12
        for _ in range(300):
            d = rng.uniform(0, PI4)
            x = to_bell(parametrize(TorusPoint(d, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), "V12")))
            assert abs(x.x3**2 + x.x4**2 - math.sin(d) ** 2) < 1e-12
            assert abs(x.x1**2 + x.x2**2 - math.cos(d) ** 2) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            parametrize(TorusPoint(-0.1, 0.0, 0.0, "V34"))
        with pytest.raises(ValueError):
            parametrize(TorusPoint(0.1, 0.0, 0.0, "BOTH"))


class TestOrbitSurface:
    def test_zero_angles_identity(self, rng):
        s = _random_state(rng)
        out = orbit_surface(s, 0.0, 0.0)
        assert float(np.linalg.norm(out.vector - s.vector)) < 1e-15

    def test_stays_on_quadric(self, rng):
        base = parametrize(TorusPoint(math.pi / 6, 0.3, 1.8, "V34"))
        for _ in range(200):
            phi = orbit_surface(base, rng.uniform(-4, 4), rng.uniform(-4, 4))
            lhs = (phi.w1 - phi.w4) ** 2 / 2.0 + (phi.w2 + phi.w3) ** 2 / 2.0
            assert abs(lhs - 0.25) < 1e-12

    def test_angle_action_law(self, rng):
        # (a, b) -> (a + s + t, b - s + t) on the V34 sheet.
        for _ in range(300):
            d = rng.uniform(0.05, PI4 - 0.05)
            a, b = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
            s, t = rng.uniform(-3, 3), rng.uniform(-3, 3)
            moved = torus_angles(orbit_surface(parametrize(TorusPoint(d, a, b, "V34")), s, t))
            assert moved.sheet == "V34"
            assert _wrap_diff(moved.a, a + s + t) < 1e-10
            assert _wrap_diff(moved.b, b - s + t) < 1e-10


class TestImmersion:
    def test_gram_vanishes_on_circles(self, rng):
        assert abs(surface_gram_det(bell_basis_state(3), 0.4, -0.2)) < 1e-12

    def test_gram_is_one_on_product_torus(self):
        assert abs(surface_gram_det(RealState(1, 0, 0, 0), 0.0, 0.0) - 1.0) < 1e-12

    def test_defect_small_everywhere(self, rng):
        base = parametrize(TorusPoint(math.pi / 6, 0.0, 0.0, "V34"))
        for _ in range(200):
            assert immersion_defect(base, rng.uniform(-4, 4), rng.uniform(-4, 4)) < 1e-9
        for _ in range(200):
            s = _random_state(rng)
            assert immersion_defect(s, rng.uniform(-4, 4), rng.uniform(-4, 4)) < 1e-9


def _quadric_residual(point: MeshPoint) -> float:
    x4sq = max(1.0 - point.u1**2 - point.u2**2 - point.u3**2, 0.0)
    sd, cd = math.sin(point.d) ** 2, math.cos(point.d) ** 2
    r12 = point.u1**2 + point.u2**2
    r34 = point.u3**2 + x4sq
    if point.sheet == "V12":
        return max(abs(r12 - cd), abs(r34 - sd))
    return max(abs(r12 - sd), abs(r34 - cd))


class TestOrbitMesh:
    def test_generic_d_covers_both_sheets(self):
        points = orbit_mesh(math.pi / 6, 12, 12)
        sheets = {p.sheet for p in points}
        assert sheets == {"V34", "V12"}
        for p in points:
            assert _quadric_residual(p) < 1e-12
            assert p.u1**2 + p.u2**2 + p.u3**2 <= 1.0 + 1e-12

    def test_product_torus_single_sheet(self):
        points = orbit_mesh(PI4, 10, 10)
        assert {p.sheet for p in points} == {"BOTH"}
        for p in points:
            assert abs(p.u1**2 + p.u2**2 - 0.5) < 1e-12

    def test_circle_pair_structure(self):
        points = orbit_mesh(0.0, 8, 8)
        v34 = [p for p in points if p.sheet == "V34"]
        v12 = [p for p in points if p.sheet == "V12"]
        # the circle in the x4 = 0 plane survives whole, the other is halved
        assert len(v12) == 8
        assert len(v34) == 8 // 2 + 1
        for p in v34:
            assert p.u1 == 0.0 and p.u2 == 0.0 and abs(p.u3) <= 1.0
        for p in v12:
            assert p.u3 == 0.0
            assert abs(math.hypot(p.u1, p.u2) - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            orbit_mesh(-0.1, 8, 8)
        with pytest.raises(ValueError):
            orbit_mesh(1.0, 8, 8)
        with pytest.raises(ValueError):
            orbit_mesh(0.1, 1, 8)

    def test_csv_rendering(self):
        points = orbit_mesh(math.pi / 6, 4, 4)
        text = "".join(mesh_to_csv(math.pi / 6, 4, 4))
        lines = text.strip().split("\n")
        assert lines[0] == "u1,u2,u3,d,sheet"
        assert len(lines) == len(points) + 1
        cells = lines[1].split(",")
        assert len(cells) == 5
        assert cells[4] in ("V34", "V12")
        # full double precision round trips
        assert float(cells[3]) == points[0].d

    def test_dict_rendering(self):
        points = orbit_mesh(0.0, 4, 4)
        data = json.loads("".join(mesh_to_json(0.0, 4, 4)))
        assert data["d"] == 0.0
        assert len(data["points"]) == len(points)
        assert set(data["points"][0]) == {"u", "sheet"}
        assert len(data["points"][0]["u"]) == 3


def _per_point_mesh(d, n_a, n_b):
    """orbit_mesh with the trigonometry evaluated afresh at every point: the reference."""
    grid_a = [TWO_PI * i / n_a for i in range(n_a)]
    grid_b = [TWO_PI * i / n_b for i in range(n_b)]
    if d <= 1e-12:
        return [(0.0, 0.0, math.cos(t), d, "V34") for t in grid_b if math.sin(t) >= 0.0] + [
            (math.cos(t), math.sin(t), 0.0, d, "V12") for t in grid_b
        ]
    sd, cd = math.sin(d), math.cos(d)
    points = []
    for a in grid_a:
        for b in grid_b:
            if math.sin(b) >= 0.0:
                sheet = "BOTH" if abs(d - PI4) <= 1e-12 else "V34"
                points.append((sd * math.cos(a), sd * math.sin(a), cd * math.cos(b), d, sheet))
            if math.sin(a) >= 0.0 and abs(d - PI4) > 1e-12:
                points.append((cd * math.cos(b), cd * math.sin(b), sd * math.cos(a), d, "V12"))
    return points


MESH_CASES = [(d, n, n + 1) for d in (0.0, 1e-13, math.pi / 6, PI4 - 1e-13, PI4) for n in (6, 7)]


class TestMeshWriters:
    @pytest.mark.parametrize("d, n_a, n_b", MESH_CASES)
    def test_grid_matches_per_point_evaluation(self, d, n_a, n_b):
        assert orbit_mesh(d, n_a, n_b) == _per_point_mesh(d, n_a, n_b)

    @pytest.mark.parametrize("d, n_a, n_b", MESH_CASES)
    def test_writers_match_reference_renderings(self, d, n_a, n_b):
        points = orbit_mesh(d, n_a, n_b)
        rows = [f"{p.u1!r},{p.u2!r},{p.u3!r},{p.d!r},{p.sheet}" for p in points]
        assert "".join(mesh_to_csv(d, n_a, n_b)) == "\n".join(["u1,u2,u3,d,sheet", *rows]) + "\n"
        data = {"d": d, "points": [{"u": [p.u1, p.u2, p.u3], "sheet": p.sheet} for p in points]}
        assert "".join(mesh_to_json(d, n_a, n_b)) == json.dumps(data) + "\n"

    def test_writers_keep_signed_zeros(self):
        # The d = -0.0 circle pair: the d column and "d" keep their sign, the circle zeros stay 0.0.
        circle = [(1.0, 0.0), (-1.0, 1.2246467991473532e-16)]
        rows = ["0.0,0.0,1.0,-0.0,V34", "0.0,0.0,-1.0,-0.0,V34"] + [f"{c!r},{s!r},0.0,-0.0,V12" for c, s in circle]
        assert "".join(mesh_to_csv(-0.0, 2, 2)) == "\n".join(["u1,u2,u3,d,sheet", *rows]) + "\n"
        points = [{"u": [0.0, 0.0, 1.0], "sheet": "V34"}, {"u": [0.0, 0.0, -1.0], "sheet": "V34"}]
        points += [{"u": [c, s, 0.0], "sheet": "V12"} for c, s in circle]
        assert "".join(mesh_to_json(-0.0, 2, 2)) == json.dumps({"d": -0.0, "points": points}) + "\n"


class TestCircleChunks:
    def test_no_circle_row_exceeds_the_chunk(self):
        # The d = 0 circles are streamed a chunk of angles at a time, so memory stays flat in n_b.
        from realtwoqubit._core import _CIRCLE_CHUNK, _mesh_rows

        rows = list(_mesh_rows(0.0, 2, 65536, float))
        assert all(rows)
        assert max(map(len, rows)) <= _CIRCLE_CHUNK
        assert sum(map(len, rows)) == 65536 // 2 + 1 + 65536

    def test_chunked_circles_match_per_point_evaluation(self):
        # 1500 angles leave a short last chunk on both circles.
        points = orbit_mesh(0.0, 2, 1500)
        assert points == _per_point_mesh(0.0, 2, 1500)
        rows = [f"{p.u1!r},{p.u2!r},{p.u3!r},{p.d!r},{p.sheet}" for p in points]
        assert "".join(mesh_to_csv(0.0, 2, 1500)) == "\n".join(["u1,u2,u3,d,sheet", *rows]) + "\n"
        data = {"d": 0.0, "points": [{"u": [p.u1, p.u2, p.u3], "sheet": p.sheet} for p in points]}
        assert "".join(mesh_to_json(0.0, 2, 1500)) == json.dumps(data) + "\n"


class TestSampling:
    def test_states_land_on_requested_orbit(self, rng):
        for d in (0.0, 0.2, math.pi / 6, PI4):
            for s in sample_orbit_states(d, 25, rng):
                assert abs(classify(s).d - d) < 1e-10

    def test_deterministic_under_seed(self):
        a = sample_orbit_states(0.3, 5, np.random.default_rng(42))
        b = sample_orbit_states(0.3, 5, np.random.default_rng(42))
        assert all(np.array_equal(x.vector, y.vector) for x, y in zip(a, b))

    def test_domain_and_count_checked(self, rng):
        with pytest.raises(ValueError):
            sample_orbit_states(1.0, 3, rng)
        with pytest.raises(ValueError):
            sample_orbit_states(0.1, -1, rng)
