"""Orbit classification, torus parametrization, the immersion identity and meshes."""

import json
import math
import re
import tracemalloc

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
from realtwoqubit import _mesh
from realtwoqubit._mesh import _CHUNK, _mesh_rows, _row_texts
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
                    gates.append(Gate("x", int(rng.integers(0, 2))))
                else:
                    gates.append(Gate("ry", int(rng.integers(0, 2)), float(rng.uniform(-6, 6))))
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

    def test_sheet_agrees_with_torus_angles(self, rng, monkeypatch):
        # Product states: w1*w4 - w2*w3 often rounds to exactly 0 while the
        # computed d misses pi/4, so a class tolerance of 0 calls them generic.
        monkeypatch.setattr("realtwoqubit._classify.DEFAULT_CLASS_TOL", 0.0)
        states = [RealState(0.13742099868349344, -0.08208131572632066, 0.8474448095753379, -0.5061772628766396)]
        for a, b in rng.uniform(0.0, TWO_PI, size=(2000, 2)):
            ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
            states.append(RealState(ca * cb, ca * sb, sa * cb, sa * sb))
        generic = [s for s in states if classify(s).kind == "generic"]
        assert len(generic) > 1
        for s in generic:
            assert classify(s).sheet == torus_angles(s).sheet, s

    def test_sheet_swap_under_x(self, rng):
        flip = Circuit((Gate("x", 0),))
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

    @pytest.mark.parametrize(
        "d", [0.0, math.nextafter(1e-9, 0.0), 1e-9, math.nextafter(1e-9, 1.0)], ids=["0", "below-1e-9", "1e-9", "above-1e-9"]
    )
    def test_degenerate_exactly_where_classify_says_max_entangled(self, d):
        # One circle rule: classify's band, d <= DEFAULT_CLASS_TOL = 1e-9, decides both.
        state = from_bell(BellCoords(0.0, math.sin(d), math.cos(d), 0.0))
        orbit = classify(state)
        assert (orbit.d, orbit.kind) == (d, "max_entangled" if d <= 1e-9 else "generic")  # the float itself, not a neighbour
        try:
            torus_angles(state)
            raised = False
        except DegenerateAngleError:
            raised = True
        assert raised == (orbit.kind == "max_entangled")

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
            assert float(np.linalg.norm(np.array(back) - np.array(s))) < 1e-10


class TestParametrize:
    def test_product_corner(self):
        s = parametrize(TorusPoint(PI4, 0.0, 0.0, "V34"))
        np.testing.assert_allclose(np.array(s), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_degenerate_circle_limit(self):
        for theta in (0.0, 0.9, 2.5):
            s = parametrize(TorusPoint(0.0, 123.0, theta, "V34"))
            expect = math.cos(theta) * np.array(bell_basis_state(3)) + math.sin(theta) * np.array(bell_basis_state(4))
            np.testing.assert_allclose(np.array(s), expect, atol=1e-15)

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

    @pytest.mark.parametrize("angle", ["0.5", True, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b"])
    def test_angles_are_read_by_the_number_rule(self, field, angle):
        # Text and bools are not angles, and no state lies at a non-finite one: each is refused with the caller's a, b.
        point = TorusPoint(0.3, 0.5, 0.5, "V34")._replace(**{field: angle})
        with pytest.raises(ValueError, match=re.escape(f"finite numbers, got a={point.a!r}, b={point.b!r}")):
            parametrize(point)


class TestOrbitSurface:
    def test_zero_angles_identity(self, rng):
        s = _random_state(rng)
        out = orbit_surface(s, 0.0, 0.0)
        assert float(np.linalg.norm(np.array(out) - np.array(s))) < 1e-15

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

    @pytest.mark.parametrize("make", [orbit_mesh, mesh_to_csv, mesh_to_json])
    @pytest.mark.parametrize("n_a, n_b", [(2.9, 3.7), ("3", 2)])
    def test_grid_sizes_must_be_integers(self, make, n_a, n_b):
        # int() would make 2.9 the 2-point grid and read "3"; both are refused, by name.
        with pytest.raises(ValueError, match=re.escape(f"grid sizes must be integers, got ({n_a!r}, {n_b!r})")):
            make(0.3, n_a, n_b)

    def test_numpy_integer_grid_sizes(self):
        assert orbit_mesh(0.3, np.int64(4), 3) == orbit_mesh(0.3, 4, 3)
        assert "".join(mesh_to_csv(0.3, 3, np.int64(4))) == "".join(mesh_to_csv(0.3, 3, 4))

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
    """orbit_mesh with the trigonometry evaluated afresh at every point: the reference.

    x4 >= 0 keeps the grid angle 2 pi j / n exactly when 2j <= n; a sine of the rounded angle would drop t = pi
    for some even n, where the angle rounds past pi.  The walk is tile-major in a, then chunk-major in b: a in tiles
    of _A_CHUNK angles on the outside, then b in chunks of _CHUNK angles, every a row of a tile for one chunk before
    the tile's next chunk.
    """
    grid_a = [(TWO_PI * i / n_a, 2 * i <= n_a) for i in range(n_a)]
    grid_b = [(TWO_PI * j / n_b, 2 * j <= n_b) for j in range(n_b)]
    sd, cd = math.sin(d), math.cos(d)
    if d <= 1e-12:
        # The circle pair is the a = 0 row of the torus of radii 0 and 1.
        grid_a, sd, cd = grid_a[:1], 0.0, 1.0
    points = []
    for tile in range(0, len(grid_a), _mesh._A_CHUNK):
        for start in range(0, n_b, _CHUNK):
            for a, a_upper in grid_a[tile : tile + _mesh._A_CHUNK]:
                for b, b_upper in grid_b[start : start + _CHUNK]:
                    if b_upper:
                        sheet = "BOTH" if abs(d - PI4) <= 1e-12 else "V34"
                        points.append((sd * math.cos(a), sd * math.sin(a), cd * math.cos(b), d, sheet))
                    if a_upper and abs(d - PI4) > 1e-12:
                        points.append((cd * math.cos(b), cd * math.sin(b), sd * math.cos(a), d, "V12"))
    return points


# With n_b = 2 every b is upper, so a row has no V12-only run; with n_a = 2 every row is an upper-a row.  At n_b = 300
# the b walk takes three chunks, the last of them lower angles only.
GRIDS = [(6, 7), (7, 8), (2, 2), (2, 3), (3, 2), (3, 300)]
MESH_CASES = [(d, n_a, n_b) for d in (0.0, 1e-13, math.pi / 6, PI4 - 1e-13, PI4) for n_a, n_b in GRIDS]


def _assert_writers_render(d, n_a, n_b, points):
    """Both writers render the points, in their order, as the reference renderings do."""
    rows = [f"{p[0]!r},{p[1]!r},{p[2]!r},{p[3]!r},{p[4]}" for p in points]
    assert "".join(mesh_to_csv(d, n_a, n_b)) == "\n".join(["u1,u2,u3,d,sheet", *rows]) + "\n"
    data = {"d": d, "points": [{"u": [*p[:3]], "sheet": p[4]} for p in points]}
    assert "".join(mesh_to_json(d, n_a, n_b)) == json.dumps(data) + "\n"


class TestMeshWriters:
    @pytest.mark.parametrize("d, n_a, n_b", MESH_CASES)
    def test_grid_matches_per_point_evaluation(self, d, n_a, n_b):
        assert orbit_mesh(d, n_a, n_b) == _per_point_mesh(d, n_a, n_b)

    @pytest.mark.parametrize("d, n_a, n_b", MESH_CASES)
    def test_writers_match_reference_renderings(self, d, n_a, n_b):
        _assert_writers_render(d, n_a, n_b, orbit_mesh(d, n_a, n_b))

    @pytest.mark.parametrize("d", [0.3, PI4])
    def test_tiles_of_a_match_per_point_evaluation(self, d, monkeypatch):
        # In tiles of 3 a rows, 7 rows take three tiles, each walked over the three chunks of 300 b angles.  Rows 0 to 3
        # are upper by their grid index, so row 3, the first of the second tile, still gets its V12 points.
        whole = _per_point_mesh(d, 7, 300)
        monkeypatch.setattr(_mesh, "_A_CHUNK", 3)
        points = _per_point_mesh(d, 7, 300)
        assert points != whole and sorted(points) == sorted(whole)
        assert orbit_mesh(d, 7, 300) == points
        _assert_writers_render(d, 7, 300, points)

    def test_writers_keep_signed_zeros(self):
        # The d = -0.0 circle pair: the d column and "d" keep their sign, the circle zeros stay 0.0.  Both angles are
        # upper, so each V34 point is followed by its V12 mirror.
        circle = [(1.0, 0.0), (-1.0, 1.2246467991473532e-16)]
        rows = [row for c, s in circle for row in (f"0.0,0.0,{c!r},-0.0,V34", f"{c!r},{s!r},0.0,-0.0,V12")]
        assert "".join(mesh_to_csv(-0.0, 2, 2)) == "\n".join(["u1,u2,u3,d,sheet", *rows]) + "\n"
        pairs = [({"u": [0.0, 0.0, c], "sheet": "V34"}, {"u": [c, s, 0.0], "sheet": "V12"}) for c, s in circle]
        points = [point for pair in pairs for point in pair]
        assert "".join(mesh_to_json(-0.0, 2, 2)) == json.dumps({"d": -0.0, "points": points}) + "\n"

    def test_circle_pair_order(self):
        # The circle pair comes out as an upper-`a` torus row: each upper angle's V34 point then its V12 mirror, then
        # the V12 points of the lower angles; n_a plays no part.
        t = [TWO_PI * j / 5 for j in range(5)]
        v34 = [(0.0, 0.0, math.cos(b), 0.0, "V34") for b in t[:3]]
        v12 = [(math.cos(b), math.sin(b), 0.0, 0.0, "V12") for b in t]
        want = [v34[0], v12[0], v34[1], v12[1], v34[2], v12[2], v12[3], v12[4]]
        assert orbit_mesh(0.0, 3, 5) == orbit_mesh(0.0, 2, 5) == want


def _peak(write, d, n_a, n_b):
    """The tracemalloc peak of a writer's text, consumed a chunk at a time as the mesh command writes it."""
    tracemalloc.start()
    try:
        for _ in write(d, n_a, n_b):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunks:
    @pytest.mark.parametrize("d", [0.0, 0.3, PI4])
    def test_no_row_exceeds_the_chunk(self, d):
        # Every orbit is streamed a chunk of b at a time, so memory stays flat in n_b: no table holds more than a chunk
        # of entries, and no text more than two points per entry.  From b = 768 of 1500 on, whole chunks hold lower
        # angles only: their product-torus and lower-a rows have no point and are dropped, not written empty.
        rows = list(_mesh_rows(d, 3, 1500, repr, "", ",", lambda sheet: f",{d!r},{sheet}\n", ""))
        assert all(rows) and all(column for row in rows for _, column, _ in row)
        assert max(len(column) for row in rows for _, column, _ in row) <= _CHUNK
        points = [text.count("\n") for text in _row_texts(rows, "")]
        assert max(points) <= 2 * _CHUNK
        assert sum(points) == _point_count(d, 3, 1500)

    @pytest.mark.parametrize(
        "d, n_a, n_b, texts",
        [(0.3, 1000, 2, 16), (PI4, 1000, 2, 16), (0.3, 4, 256, 8), (PI4, 4, 256, 8), (0.3, 4, 130, 5),
         (PI4, 4, 130, 4)],
    )
    def test_short_rows_share_a_text(self, d, n_a, n_b, texts):
        # A chunk of m angles of b is written _CHUNK // m a rows a text: 1000 a rows of two angles make 16 texts, not
        # 1000 writes.  A whole chunk keeps a text per a row, and the two angles of b after one make one text, or
        # none at pi/4, where both are lower angles and have no point.
        rows = _mesh_rows(d, n_a, n_b, repr, "", ",", lambda sheet: f",{d!r},{sheet}\n", "")
        points = [text.count("\n") for text in _row_texts(rows, "")]
        assert len(points) == texts and max(points) <= 2 * _CHUNK
        assert sum(points) == _point_count(d, n_a, n_b)

    @pytest.mark.parametrize("write", [mesh_to_csv, mesh_to_json])
    @pytest.mark.parametrize("d", [0.3, PI4])
    def test_writers_run_in_flat_memory(self, write, d):
        # Consumed a chunk at a time, as the mesh command writes it, a 2 x 65536 torus never holds more than a chunk's
        # tables and text: a whole row of b would be tens of MiB.
        assert _peak(write, d, 2, 65536) < 2**20

    @pytest.mark.parametrize("write", [mesh_to_csv, mesh_to_json])
    @pytest.mark.parametrize("d", [0.3, PI4])
    def test_writers_run_in_flat_memory_in_a(self, write, d):
        # A 65536 x 2 torus holds one tile of a at a time, so its peak is within the 2 x 65536 torus's bound: a table
        # over all of a would be about 13 MiB.
        assert _peak(write, d, 65536, 2) < 2**20

    @pytest.mark.parametrize(
        "n_b",
        [1500, 2, 3, 4, 5, 22, 26, 52, 94, 127, 128, 129, 254, 255, 256, 511, 512, 513, 1022, 1023, 1024, 1025, 4097],
    )
    def test_chunked_circles_match_per_point_evaluation(self, n_b):
        # 1500 angles leave a short last chunk.  An even n_b puts a grid angle on pi, kept by index however it
        # rounds (22 just below pi, 26, 52 and 94 just past it), an odd one straddles pi, 127 to 4097 straddle
        # _CHUNK (128), at 254, 255, 511, 1022 and 1023 the upper angles end on a chunk, and at 256, 512
        # and 1024 a chunk starts on pi.
        points = orbit_mesh(0.0, 2, n_b)
        assert points == _per_point_mesh(0.0, 2, n_b)
        rows = [f"{p.u1!r},{p.u2!r},{p.u3!r},{p.d!r},{p.sheet}" for p in points]
        assert "".join(mesh_to_csv(0.0, 2, n_b)) == "\n".join(["u1,u2,u3,d,sheet", *rows]) + "\n"
        data = {"d": 0.0, "points": [{"u": [p.u1, p.u2, p.u3], "sheet": p.sheet} for p in points]}
        assert "".join(mesh_to_json(0.0, 2, n_b)) == json.dumps(data) + "\n"


#: Every grid size up to 64, and three even sizes whose angle 2 pi (n/2) / n rounds past pi.
COUNT_SIZES = [*range(2, 65), 94, 104, 166]


def _point_count(d, n_a, n_b):
    """The points of the x4 >= 0 half of the grid, where an n-point circle has n // 2 + 1 upper angles."""
    if d == 0.0:
        return n_b // 2 + 1 + n_b
    if d == PI4:
        return n_a * (n_b // 2 + 1)
    return n_a * (n_b // 2 + 1) + (n_a // 2 + 1) * n_b


class TestMeshPointCounts:
    @pytest.mark.parametrize("n_b", COUNT_SIZES)
    @pytest.mark.parametrize("d", [0.0, 0.3, PI4])
    def test_every_writer_keeps_the_upper_half_by_index(self, d, n_b):
        for n_a in COUNT_SIZES:
            count = _point_count(d, n_a, n_b)
            assert len(orbit_mesh(d, n_a, n_b)) == count, n_a
            assert "".join(mesh_to_csv(d, n_a, n_b)).count("\n") == 1 + count, n_a
            assert "".join(mesh_to_json(d, n_a, n_b)).count('"sheet"') == count, n_a

    def test_t_pi_points_are_kept(self):
        # 2 pi 13 / 26 rounds past pi, where its sine is about -3e-16: the circle still reaches u3 = -1.
        v34 = [p.u3 for p in orbit_mesh(0.0, 2, 26) if p.sheet == "V34"]
        assert (len(v34), min(v34)) == (14, -1.0)
        assert sum(p.sheet == "V34" for p in orbit_mesh(0.3, 4, 26)) == 56


class TestSampling:
    def test_states_land_on_requested_orbit(self, rng):
        for d in (0.0, 0.2, math.pi / 6, PI4):
            for s in sample_orbit_states(d, 25, rng):
                assert abs(classify(s).d - d) < 1e-10

    def test_deterministic_under_seed(self):
        a = sample_orbit_states(0.3, 5, np.random.default_rng(42))
        b = sample_orbit_states(0.3, 5, np.random.default_rng(42))
        assert all(np.array_equal(np.array(x), np.array(y)) for x, y in zip(a, b))

    def test_numpy_generator_stream_pinned(self):
        # The states `sample --d 0.3 --seed 7 --count 5` printed while it drew from numpy's default_rng.
        assert [list(s) for s in sample_orbit_states(0.3, 5, np.random.default_rng(7))] == [
            [0.2754286229598019, -0.792513313677788, -0.5409798925851104, 0.058330756179924136],
            [0.40852592414261607, -0.2833206432108774, 0.680659292049593, 0.5380881996295246],
            [0.28731348187644123, -0.8345812358820117, 0.457812756758129, 0.10645470208127067],
            [-0.1883587922644001, 0.8622497406558056, -0.46730861597040213, -0.05166243853632784],
            [-0.8718935311825223, 0.05138765281739033, 0.08999209674201047, -0.47860464053743573],
        ]

    def test_domain_and_count_checked(self, rng):
        with pytest.raises(ValueError):
            sample_orbit_states(1.0, 3, rng)
        with pytest.raises(ValueError, match="count must be non-negative, got -1"):
            sample_orbit_states(0.1, -1, rng)
        for count in (2.5, "3", None):
            with pytest.raises(ValueError, match=re.escape(f"count must be an integer, got {count!r}")):
                sample_orbit_states(0.1, count, rng)
