"""CLI behavior: golden equivalence with the library, exit codes, batch stdin."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import select
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from realtwoqubit import (
    Gate,
    RealState,
    apply,
    bell_basis_state,
    classify,
    concurrence,
    cz_connect,
    entropy_from_concurrence,
    entanglement_distance,
    entropy_from_distance,
    local_connect,
    parametrize,
    prepare,
    sample_orbit_states,
    sign_residual,
    to_bell,
    TorusPoint,
)
from realtwoqubit._argv import _Usage, parse_args
from realtwoqubit._sample import _cmd_sample
from realtwoqubit._synthesis import _gates_json
from realtwoqubit.cli import _READ_SIZE, main

ISQ2 = 1.0 / math.sqrt(2.0)
V3_ARGS = [repr(ISQ2), "0", "0", repr(ISQ2)]
PAIR = ["1", "0", "0", "0", "0", "1", "0", "0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_golden_equivalence_with_library(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1", "0", "0", "0")
        assert code == 0
        report = json.loads(out)
        state = RealState(1, 0, 0, 0)
        orbit = classify(state)
        coords = to_bell(state)
        assert report["class"] == orbit.kind == "product"
        assert report["sheet"] == orbit.sheet == "BOTH"
        assert report["d"] == orbit.d
        assert report["entropy"] == entropy_from_distance(orbit.d) == 0.0
        assert report["concurrence"] == concurrence(state)
        assert report["bell"] == [coords.x1, coords.x2, coords.x3, coords.x4]

    def test_bell_state(self, capsys):
        code, out, _ = run_cli(capsys, "classify", *V3_ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "max_entangled"
        assert report["sheet"] == "V34"
        assert report["entropy"] == 1.0

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "classify", *V3_ARGS)
        assert json.loads(out)["bell"][2] == 1.0

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0\n0 1 0 0\n\n"))
        code, out, _ = run_cli(capsys, "classify")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["class"] == "product"
        assert json.loads(lines[1])["class"] == "product"

    def test_malformed_stdin_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 zero\n"))
        code, _, err = run_cli(capsys, "classify")
        assert code == 2
        assert "error" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run_cli(capsys, "classify", "1", "0", "0")
        assert code == 2
        assert "expected 4" in err

    def test_non_unit_norm(self, capsys):
        code, _, err = run_cli(capsys, "classify", "2", "0", "0", "0")
        assert code == 2
        assert "norm" in err

    def test_non_numeric_argument_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "a", "b", "c", "d"])
        assert exc.value.code == 2

    def test_tolerance_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--tol", "0", "1", "0", "0", "0")
        assert code == 2
        assert "tolerance" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_tolerance_must_be_finite(self, tol, capsys):
        # An infinite tol would pass any circuit, the empty one included.
        assert run_cli(capsys, "connect", "--tol", tol, *PAIR) == (
            2, "", f"error: tolerance must be positive and finite, got {tol}\n"
        )

    def test_tabs_and_crlf_line_endings(self, capsys, monkeypatch):
        expected = run_cli(capsys, "classify", "1", "0", "0", "0")[1] + run_cli(capsys, "classify", "0", "1", "0", "0")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO("1\t0\t0\t0\r\n\t0 1\t0\t0\r\n"))
        assert run_cli(capsys, "classify") == (0, expected, "")


def _mp_entropy(c):
    """Binary entropy of (1 + sqrt(1 - c^2))/2 at 50 digits."""
    with mpmath.workdps(50):
        c = mpmath.mpf(c)
        q = c * c / (2 * (1 + mpmath.sqrt(1 - c * c)))
        return float(-q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2))


def _mp_concurrence(w):
    """2|w1 w4 - w2 w3| of the input amplitudes, normalized at 50 digits."""
    with mpmath.workdps(50):
        v = [mpmath.mpf(x) for x in w]
        return float(2 * abs(v[0] * v[3] - v[1] * v[2]) / sum(x * x for x in v))


class TestClassifyEntropyNearProductTorus:
    """The reported entropy keeps its digits where it is tiny, against mpmath."""

    @staticmethod
    def _inputs(rng):
        d = math.pi / 4 - 1e-8
        for _ in range(100):
            sheet = "V34" if rng.random() < 0.5 else "V12"
            s = parametrize(TorusPoint(d, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), sheet))
            yield [s.w1, s.w2, s.w3, s.w4]
        for eps in map(float, np.geomspace(1e-10, 1e-7, 100)):
            big, small = rng.uniform(0, 2 * math.pi, size=2)
            w = [math.cos(big), math.sin(big), eps * math.cos(small), eps * math.sin(small)]
            yield w if rng.random() < 0.5 else w[2:] + w[:2]

    def test_relative_accuracy(self, capsys, monkeypatch, rng):
        inputs = list(self._inputs(rng))
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(" ".join(map(repr, w)) + "\n" for w in inputs)))
        code, out, _ = run_cli(capsys, "classify")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == len(inputs)
        for w, report in zip(inputs, reports):
            c = report["concurrence"]
            # C carries only the rounding of double-precision products; the
            # entropy of that C must then hold to relative 1e-10.
            assert abs(c - _mp_concurrence(w)) <= 2.0**-50
            assert 0.0 < c < 1e-6
            ref = _mp_entropy(c)
            assert abs(report["entropy"] - ref) <= 1e-10 * ref

    def test_extremes_exact(self):
        assert entropy_from_concurrence(0.0) == entropy_from_distance(math.pi / 4) == 0.0
        assert entropy_from_concurrence(1.0) == entropy_from_distance(0.0) == 1.0

    @pytest.mark.parametrize(
        "c, expected",
        [
            (math.nan, "concurrence must be a number in [0, 1], got nan"),
            ("0.5", "concurrence must be a number in [0, 1], got '0.5'"),
            (True, "concurrence must be a number in [0, 1], got True"),
            (-1.0, "concurrence must be a number in [0, 1], got -1.0"),
            (5.0, "concurrence must be a number in [0, 1], got 5.0"),
            (1 + 1e-13, 1.0),
            (0.0, 0.0),
            (1.0, 1.0),
        ],
    )
    def test_concurrence_is_read_by_the_number_rule(self, c, expected):
        # A number within 1e-12 of [0, 1] is clamped into it; nan, a number beyond it and a non-number are refused.
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                entropy_from_concurrence(c)
        else:
            assert entropy_from_concurrence(c) == expected


class TestPrepare:
    def test_circuit_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "prepare", *V3_ARGS)
        assert code == 0
        data = json.loads(out)
        expect = prepare(bell_basis_state(3)).to_dict()
        assert data["gates"] == expect["gates"]
        assert data["residual"] < 1e-10

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0\n0.5 0.5 0.5 0.5\n"))
        code, out, _ = run_cli(capsys, "prepare")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["residual"] < 1e-10

    @pytest.mark.parametrize(
        "zeros", [["-0", "0", "0.6", "0.8"], ["-0", "-0", "0.6", "0.8"], ["1", "-0", "0", "0"], ["0.6", "-0", "0.8", "0"]]
    )
    def test_signed_zero_pair_emits_the_gates_of_zero(self, zeros, capsys, monkeypatch):
        # An input with a -0 amplitude prints the bytes of its +0 twin: atan2 reads the sign of a zero.
        expected = run_cli(capsys, "prepare", *("0" if float(t) == 0.0 else t for t in zeros))
        assert expected[0] == 0
        assert run_cli(capsys, "prepare", *zeros) == expected
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(zeros) + "\n"))
        assert run_cli(capsys, "prepare") == expected


class TestConnect:
    def test_cross_orbit_plan(self, capsys):
        code, out, _ = run_cli(capsys, "connect", "1", "0", "0", "0", *V3_ARGS)
        assert code == 0
        data = json.loads(out)
        assert data["cz_count"] == 1
        assert data["residual"] < 1e-9
        np.testing.assert_allclose(data["intermediate"]["w"], [0.5, 0.5, -0.5, 0.5], atol=1e-12)
        expect = cz_connect(RealState(1, 0, 0, 0), bell_basis_state(3)).to_dict()
        assert data == json.loads(json.dumps(expect))

    def test_local_only_same_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "connect", "--local-only", *V3_ARGS, "0", ".7071067811865476", ".7071067811865476", "0")
        assert code == 0
        data = json.loads(out)
        assert data["cz_count"] == 0
        assert data["residual"] < 1e-10

    def test_local_only_cross_orbit_exits_3(self, capsys, rng):
        (a,), (b,) = sample_orbit_states(0.2, 1, rng), sample_orbit_states(0.5, 1, rng)
        for args in (["1", "0", "0", "0", *V3_ARGS], [repr(w) for w in (*a, *b)]):
            code, out, err = run_cli(capsys, "connect", "--local-only", *args)
            # The message names the d of each state as read from its text, the values the orbit check compared.
            d_s, d_t = (entanglement_distance(RealState(*map(float, half))) for half in (args[:4], args[4:]))
            assert (code, out) == (3, "")
            assert err == f"error: ORBIT_MISMATCH: states lie on different orbits (d = {d_s!r} vs {d_t!r}); local gates preserve d\n"

    def test_local_only_prints_connect_on_same_orbit_pairs(self, capsys, monkeypatch, rng):
        # One solver serves both: on a same-orbit pair --local-only only refuses a CZ that is never needed.
        pairs = [sample_orbit_states(d, 2, rng) for d in (0.0, 1e-9, 0.2, 0.31, 0.6, math.pi / 4 - 1e-9, math.pi / 4) for _ in range(6)]
        stdin = "".join(" ".join(repr(w) for w in (*a, *b)) + "\n" for a, b in pairs)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, "connect")
        assert (code, err, out.count('"cz_count": 0')) == (0, "", len(pairs))
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert run_cli(capsys, "connect", "--local-only") == (code, out, err)
        for a, b in pairs:
            assert local_connect(a, b) == cz_connect(a, b)

    def test_near_circle_pair_meets_the_default_tol(self, capsys):
        # Both ends lie near a circle, the source further out: the one-Ry form would miss by 1.6e-10.
        src = ["0.6755249098675884", "0.20896434210788314", "-0.20896434210788314", "0.6755249096837406"]
        tgt = ["0.32074089334812256", "0.6301787677428021", "-0.6301787677428021", "0.32074089341176215"]
        code, out, err = run_cli(capsys, "connect", *src, *tgt)
        assert (code, err) == (0, "")
        assert json.loads(out)["residual"] <= 1e-10

    def test_wrong_arity(self, capsys):
        code, _, _ = run_cli(capsys, "connect", "1", "0", "0", "0")
        assert code == 2

    def test_tiny_tol_cross_orbit(self, capsys):
        # Rounding parts the two computed d of this pair's second leg by more than 1e-17.
        src = ["0.34073915986166803", "0.7439569242138125", "0.12413159065545062", "-0.56126310056197"]
        tgt = ["-0.3752917860211544", "0.6266261345732076", "0.07945620170582766", "-0.6783675072004668"]
        code, out, err = run_cli(capsys, "connect", "--tol", "1e-17", *src, *tgt)
        assert code == 0, err
        assert json.loads(out)["cz_count"] == 1

    def test_stdin_pairs(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0 0 1 0 0\n"))
        code, out, _ = run_cli(capsys, "connect")
        assert code == 0
        assert json.loads(out)["cz_count"] == 0


# Seeded strata of every record branch, drawn as the benchmark's streams are
# (perfbench/workloads.py), at the CLI's default tol.
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


def _state_strata(rng, n=STRATUM_SIZE) -> dict:
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


def _pair_strata(rng, n=STRATUM_SIZE) -> dict:
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


#: Signed zeros and a subnormal amplitude, which the strata never draw.
EDGE_STATES = [(-0.0, 0.0, 0.6, 0.8), (1.0, -0.0, 0.0, -0.0), (0.6, -0.0, 0.8, 5e-324), (5e-324, 1.0, -0.0, 0.0)]


def _records(capsys, monkeypatch, rows, *argv) -> list:
    """The stdout lines of one CLI run over the rows, given as repr text on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(" ".join(repr(float(w)) for w in row) + "\n" for row in rows)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines(keepends=True)
    assert len(lines) == len(rows)
    return lines


def _ends(row) -> tuple:
    return RealState(*map(float, row[:4])), RealState(*map(float, row[4:]))


#: Every shape a Gate takes: Ry on each qubit at signed zeros, +-pi and extreme magnitudes, X on each qubit, CZ.
GATE_SHAPES = [("ry", q, a) for q in (0, 1) for a in (0.0, -0.0, math.pi, -math.pi, 5e-324, 1e300)] + [
    ("x", 0, None), ("x", 1, None), ("cz", None, None)
]


class TestRecordBytes:
    @pytest.mark.parametrize("gate", GATE_SHAPES, ids=lambda gate: "-".join(map(str, gate)))
    def test_gates_json_is_gate_to_dict(self, gate):
        # The records write Gate.to_dict's rule by hand; json.dumps of the dict is the reference.
        assert _gates_json([gate]) == json.dumps([Gate(*gate).to_dict()])

    def test_gates_json_of_a_list(self):
        assert _gates_json(GATE_SHAPES) == json.dumps([Gate(*g).to_dict() for g in GATE_SHAPES])
        assert _gates_json([]) == "[]"

    @pytest.mark.parametrize("stratum", [*STATE_STRATA, "edge"])
    def test_classify_record(self, stratum, capsys, monkeypatch, rng):
        rows = EDGE_STATES if stratum == "edge" else _state_strata(rng)[stratum]
        for row, line in zip(rows, _records(capsys, monkeypatch, rows, "classify")):
            state = RealState(*map(float, row))
            orbit, c = classify(state), concurrence(state)
            assert line == json.dumps(json.loads(line)) + "\n"
            expected = {
                "d": orbit.d,
                "entropy": entropy_from_concurrence(c),
                "class": orbit.kind,
                "sheet": orbit.sheet,
                "bell": list(to_bell(state)),
                "concurrence": c,
            }
            # Through json.dumps, so a zero of the other sign shows too.
            assert line == json.dumps(expected) + "\n"

    @pytest.mark.parametrize("stratum", [*STATE_STRATA, "edge"])
    def test_prepare_record(self, stratum, capsys, monkeypatch, rng):
        rows = EDGE_STATES if stratum == "edge" else _state_strata(rng)[stratum]
        for row, line in zip(rows, _records(capsys, monkeypatch, rows, "prepare")):
            state = RealState(*map(float, row))
            circuit = prepare(state)
            res = sign_residual(apply(circuit, RealState(1, 0, 0, 0)), state)
            assert line == json.dumps({**circuit.to_dict(), "residual": res}) + "\n"

    @pytest.mark.parametrize("stratum", PAIR_STRATA)
    def test_connect_record(self, stratum, capsys, monkeypatch, rng):
        rows = _pair_strata(rng)[stratum]
        lines = _records(capsys, monkeypatch, rows, "connect")
        plans = [cz_connect(*_ends(row)) for row in rows]
        assert lines == [json.dumps(plan.to_dict()) + "\n" for plan in plans]
        # --local-only on the pairs the library joins without CZ: every pair of a same-orbit stratum.
        same = [row for row, plan in zip(rows, plans) if plan.cz_count == 0]
        if stratum in SAME_ORBIT_STRATA:
            assert len(same) == len(rows)
        lines = _records(capsys, monkeypatch, same, "connect", "--local-only")
        assert lines == [json.dumps(local_connect(*_ends(row)).to_dict()) + "\n" for row in same]


MESH_GOLDEN = [json.loads(line) for line in (Path(__file__).parent / "mesh_golden.jsonl").read_text().splitlines()]


def _sorted_digest(out: str, fmt: str) -> str:
    """sha256 of the mesh text with its points sorted, which no walk order changes.

    CSV: the header, then the sorted data lines.  JSON: d, then each point's json.dumps, sorted.  Parted by newlines.
    """
    if fmt == "csv":
        header, *lines = out.splitlines()
        parts = [header, *sorted(lines)]
    else:
        data = json.loads(out)
        parts = [json.dumps(data["d"]), *sorted(map(json.dumps, data["points"]))]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class TestMesh:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "mesh", "--d", "0", "--na", "4", "--nb", "8", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "u1,u2,u3,d,sheet"
        assert len(lines) == 1 + 8 + (8 // 2 + 1)

    def test_json_output(self, capsys):
        d = math.pi / 6
        code, out, _ = run_cli(capsys, "mesh", "--d", repr(d), "--na", "6", "--nb", "6")
        assert code == 0
        data = json.loads(out)
        assert data["d"] == d
        assert all(set(p) == {"u", "sheet"} for p in data["points"])
        for p in data["points"]:
            assert sum(c * c for c in p["u"]) <= 1.0 + 1e-12

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "mesh.csv"
        code, out, _ = run_cli(capsys, "mesh", "--d", "0.3", "--na", "4", "--nb", "4", "--format", "csv", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("u1,u2,u3,d,sheet")

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "mesh", "--d", "1.0")
        assert code == 2
        assert "outside" in err

    def test_grid_validation(self, capsys):
        code, _, _ = run_cli(capsys, "mesh", "--d", "0.3", "--na", "1")
        assert code == 2

    def test_bad_request_writes_nothing(self, capsys, tmp_path):
        # The output is streamed, so the request must be checked before the first byte.
        for argv in (["--d", "0.3", "--na", "1", "--format", "csv"], ["--d", "1.0"]):
            assert run_cli(capsys, "mesh", *argv)[:2] == (2, "")
        path = tmp_path / "mesh.json"
        path.write_text("kept")
        assert run_cli(capsys, "mesh", "--d", "1.0", "--out", str(path))[:2] == (2, "")
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("case", MESH_GOLDEN, ids=lambda c: f"{c['d']}-{c['na']}x{c['nb']}-{c['format']}")
    def test_golden_stdout(self, case, capsys):
        argv = [f"--d={case['d']}", "--na", str(case["na"]), "--nb", str(case["nb"]), "--format", case["format"]]
        code, out, _ = run_cli(capsys, "mesh", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
        assert _sorted_digest(out, case["format"]) == case["sorted_sha256"]

    @pytest.mark.parametrize("d", ["-1e-13", "0.7853981633974484"])
    def test_json_d_is_the_csv_d(self, d, capsys):
        # Both formats write the d the mesh is walked at: the caller's, clamped into [0, pi/4].
        grid = [f"--d={d}", "--na", "2", "--nb", "2"]
        csv_d = run_cli(capsys, "mesh", *grid, "--format", "csv")[1].splitlines()[1].split(",")[3]
        json_d = json.loads(run_cli(capsys, "mesh", *grid)[1])["d"]
        assert (json_d, csv_d) == (min(max(float(d), 0.0), math.pi / 4), repr(json_d))

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "mesh.csv"
        code, out, err = run_cli(capsys, "mesh", "--d", "0.3", "--na", "2", "--nb", "2", "--out", str(path))
        assert (code, out, err) == (2, "", f"error: cannot write {path}: No such file or directory\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_unwritable_out_device_is_a_usage_error(self, capsys):
        # The write is checked as the open is: a full device is the same usage error, not a traceback.
        argv = ["mesh", "--d", "0.3", "--na", "2", "--nb", "2", "--out", "/dev/full"]
        assert run_cli(capsys, *argv) == (2, "", "error: cannot write /dev/full: No space left on device\n")

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        argv = ["mesh", "--d", "0.3", "--na", "7", "--nb", "9", "--format", "json"]
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "mesh.json"
        assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_text() == out


class TestSample:
    @pytest.mark.parametrize(
        "d, count",
        [("0.3", 5)] + [(d, n) for d in ("0", "0.3", "0.7853981633974483", "-1e-13") for n in (0, 1, 127, 128, 129)],
    )
    def test_seeded_output_pinned(self, d, count, capsys):
        # --seed N draws from random.Random(N); the numpy stream stays pinned in the library tests.  The text comes 128
        # states at a time, so 127 to 129 straddle a chunk; joined, it is json.dumps of the library's states.
        code, out, _ = run_cli(capsys, "sample", "--d", d, "--seed", "7", "--count", str(count))
        assert code == 0
        states = sample_orbit_states(float(d), count, random.Random(7))
        header = min(max(float(d), 0.0), math.pi / 4)
        assert out == json.dumps({"d": header, "states": [s.to_dict() for s in states]}) + "\n"
        if (d, count) != ("0.3", 5):
            return
        assert json.loads(out) == {
            "d": 0.3,
            "states": [
                {"w": [-0.2719255166071195, -0.3791244086942572, 0.7185416799647768, -0.5157703464756164]},
                {"w": [-0.6525978807965953, 0.45806664623604254, -0.5514938496760442, -0.24524576929144762]},
                {"w": [0.4481280809416084, 0.14792095843968106, -0.16743952142707288, 0.8656007276973318]},
                {"w": [0.7578945635162125, 0.45331683230492203, -0.2757150411136822, 0.3795798944165529]},
                {"w": [0.5782784006245316, 0.28898708773697296, -0.6591311076717579, 0.3842222499958044]},
            ],
        }

    def test_deterministic_under_seed(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "--d", "0.5", "--count", "4", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "sample", "--d", "0.5", "--count", "4", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sampled_states_on_orbit(self, capsys):
        d = 0.5235987755982988
        code, out, _ = run_cli(capsys, "sample", "--d", repr(d), "--count", "6", "--seed", "3")
        assert code == 0
        data = json.loads(out)
        assert data["d"] == d
        assert len(data["states"]) == 6
        for entry in data["states"]:
            s = RealState.from_vector(entry["w"])
            assert abs(classify(s).d - d) < 1e-10

    def test_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--d", "2.0")
        assert code == 2

    def test_negative_count(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--d", "0.1", "--count", "-1")
        assert code == 2

    def test_negative_seed(self, capsys):
        assert run_cli(capsys, "sample", "--d", "0.1", "--seed", "-1") == (
            2, "", "error: seed must be non-negative, got -1\n"
        )

    def test_runs_in_flat_memory(self):
        # The states are drawn and written a chunk at a time, as main writes them: the peak does not grow with the count.
        peaks = []
        for count in (1_000, 100_000):
            args = parse_args(["sample", "--d", "0.3", "--count", str(count), "--seed", "1"])
            tracemalloc.start()
            try:
                assert sum(map(len, _cmd_sample(args))) > 90 * count
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**16, peaks

    @pytest.mark.parametrize("d, header", [("-1e-13", "0.0"), ("0.7853981633974484", "0.7853981633974483")])
    def test_header_d_is_the_clamped_d(self, d, header, capsys):
        # The header writes the d the states are drawn at: the caller's, clamped into [0, pi/4], as mesh does.
        code, out, _ = run_cli(capsys, "sample", "--d", d, "--seed", "1")
        assert code == 0
        assert out.startswith(f'{{"d": {header}, "states": [')


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--seed", "3", "1", "0", "0", "0"],
            ["prepare", "--format", "csv", "1", "0", "0", "0"],
            ["sample", "--tol", "1e-10", "--d", "0.3"],
        ],
    )
    def test_option_of_another_subcommand_rejected(self, argv):
        # --seed belongs to sample and --format to mesh, and sample has no circuit to check against --tol;
        # each would be ignored.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, values",
        [
            ("classify", ["0.6", "0.8", "3e-09", "-4e-09"]),
            ("connect", ["0.6", "0.8", "3e-09", "-4e-09", "-1E-3", "0.6", "-8e-1", "0"]),
        ],
    )
    def test_negative_scientific_notation_on_argv(self, command, values, capsys, monkeypatch):
        # argv takes the same numbers as stdin; argparse alone reads -4e-09 as an option.
        code, out, err = run_cli(capsys, command, *values)
        assert code == 0, err
        monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(values) + "\n"))
        assert run_cli(capsys, command) == (0, out, "")

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["classify", "--tol=1e-3", "1", "0", "0", "0"], ["classify", "--tol", "1e-3", "1", "0", "0", "0"]),
            (["connect", "--local", *PAIR], ["connect", "--local-only", *PAIR]),
            (
                ["mesh", "--d=0.3", "--na", "2", "--nb", "3", "--form", "csv"],
                ["mesh", "--d", "0.3", "--na", "2", "--nb", "3", "--format", "csv"],
            ),
            (["classify", "--", "-1", "0", "0", "0"], ["classify", "-1", "0", "0", "0"]),
            (["classify", "--tol", "0", "--tol", "1e-3", "1", "0", "0", "0"], ["classify", "1", "0", "0", "0"]),
            (["connect", "1", "0", "0", "--local-only", "0", "0", "1", "0", "0"], ["connect", "--local-only", *PAIR]),
            (["classify", "0.6", "--tol", "1e-3", "0.8", "--", "0", "-0"], ["classify", "--tol", "1e-3", "0.6", "0.8", "0", "-0"]),
        ],
    )
    def test_argv_forms(self, argv, same_as, capsys):
        # Abbreviations, --flag=value, `--` before negative numbers, the last of a repeated flag,
        # and numbers between flags: each prints what the plain form prints.
        expected = run_cli(capsys, *same_as)
        assert expected[0] == 0, expected[2]
        assert run_cli(capsys, *argv) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["mesh", "--d", "0.3", "--n", "4"],
            ["mesh", "--d", "0.3", "--na", "2.5"],
            ["mesh", "--d", "0.3", "--format", "xml"],
            ["mesh", "--d", "0.3", "--out"],
            ["mesh", "--d", "0.3", "--out", "--nb", "4"],
            ["classify", "--tol"],
            ["classify", "--tol", "x", "1", "0", "0", "0"],
            ["classify", "-x", "1", "0", "0", "0"],
            ["connect", "--local-only=yes", *PAIR],
            ["mesh", "--na", "4"],
            ["sample", "--count", "2"],
            ["mesh", "--d", "0.3", "1", "0", "0", "0"],
            ["sample", "--d", "0.3", "1"],
            ["classify", "--", "--tol", "1", "0", "0", "0"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: realtwoqubit ") and error.startswith("realtwoqubit: error: ")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize(
        "command, listed",
        [
            (None, ["classify", "prepare", "connect", "mesh", "sample"]),
            ("classify", ["--tol"]),
            ("prepare", ["--tol"]),
            ("connect", ["--tol", "--local-only"]),
            ("mesh", ["--tol", "--d", "--na", "--nb", "--out", "--format"]),
            ("sample", ["--d", "--count", "--seed"]),
        ],
    )
    def test_help(self, command, listed, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag] if command is None else [command, flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: realtwoqubit ") and err == ""
        # Each row of the help names one subcommand, or one flag of this subcommand.
        rows = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert [r for r in rows if r != "W"] == listed

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["classify", "--tol=1e-3", "1", "0", "0", "0"], None),
            (["--help"], ("", "")),
            (["mesh", "-h"], ("mesh", "")),
            (["mesh", "--d"], ("mesh", "--d expects a value")),
        ],
    )
    def test_parse_args_does_no_io(self, argv, usage, monkeypatch):
        # The grammar only parses: help and usage errors come back as _Usage, and main writes them.
        class Refusing:
            def write(self, text):
                raise AssertionError(f"parse_args wrote {text!r}")

        monkeypatch.setattr("sys.stdout", Refusing())
        monkeypatch.setattr("sys.stderr", Refusing())
        if usage is None:
            assert vars(parse_args(argv)) == {
                "tol": 1e-3, "handler": "_classify._classify_record", "per_line": 4, "values": [1.0, 0.0, 0.0, 0.0]
            }
        else:
            with pytest.raises(_Usage) as exc:
                parse_args(argv)
            assert (exc.value.command, exc.value.error) == usage

    def test_prepare_residual_verified_against_simulator(self, capsys):
        # the reported residual is exactly the simulator's, not a recomputation
        _, out, _ = run_cli(capsys, "prepare", "0", "0", "1", "0")
        data = json.loads(out)
        state = RealState(0, 0, 1, 0)
        circ = prepare(state)
        assert data["residual"] == sign_residual(apply(circ, RealState(1, 0, 0, 0)), state)


GOLDEN = [json.loads(line) for line in (Path(__file__).parent / "cli_golden.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["command"])
def test_golden_stdout(case, capsys, monkeypatch):
    # Exact stdout of classify, prepare and connect on the boundary strata and
    # on every connect branch; see cli_golden.jsonl for the inputs.
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    code, out, _ = run_cli(capsys, case["command"])
    assert code == 0
    assert out == case["stdout"]


STREAMS = [json.loads(line) for line in (Path(__file__).parent / "stream_golden.jsonl").read_text().splitlines()]


def _replay(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    return run_cli(capsys, *case["argv"])


@pytest.mark.parametrize("case", STREAMS, ids=lambda case: case["argv"][0])
def test_stream_golden(case, capsys, monkeypatch):
    # The sha256 of stdout on the benchmark's smoke streams (seed 1), captured
    # before the plain-float core: every printed bit stays the same.
    code, out, err = _replay(case, capsys, monkeypatch)
    assert code == 0, err
    assert out.count("\n") == case["items"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


#: The refused lines of classify and prepare, and their messages.
STATE_LINE_ERRORS = [
    ("1 0 zero 0", "malformed input line '1 0 zero 0'"),
    ("1 0 0", "expected 4 numbers, got 3"),
    ("nan 0 0 0", "amplitude components must be finite, got (nan, 0.0, 0.0, 0.0)"),
    ("2 0 0 0", "amplitude vector has norm 2.0, not within 1e-06 of 1"),
    ("1 0 0 0 0", "expected 4 numbers, got 5"),
    ("1 0 0 0 0 1 0 0", "expected 4 numbers, got 8"),
    ("1 0 0 0 0 1 zero 0", "malformed input line '1 0 0 0 0 1 zero 0'"),
    ("1 " + "0 " * 36 + "zero", f"malformed input line {'1 ' + '0 ' * 36 + 'zero'!r}"),
    ("1 " + "0 " * 36 + "zero0", "malformed input line of 81 characters: 'zero0' at column 77"),
    ("1 0 " + "x" * 100 + " 0", f"malformed input line of 108 characters: '{'x' * 40}'... at column 7"),
]
#: connect's refused lines: a short one and three whose second state is bad.
PAIR_LINE_ERRORS = [
    ("1 0 0 0 0 1 0", "expected 8 numbers, got 7"),
    ("1 0 0 0 2 0 0 0", "amplitude vector has norm 2.0, not within 1e-06 of 1"),
    ("1 0 0 0 nan 0 0 0", "amplitude components must be finite, got (nan, 0.0, 0.0, 0.0)"),
    ("1 0 0 0 0 zero 0 0", "malformed input line '1 0 0 0 0 zero 0 0'"),
]
#: Per command line, its good input line and its refused lines, each with its exit code and message.
BATCH_ERRORS = {
    "classify": ("1 0 0 0", [(bad, 2, text) for bad, text in STATE_LINE_ERRORS]),
    "prepare": ("1 0 0 0", [(bad, 2, text) for bad, text in STATE_LINE_ERRORS]),
    "connect": (" ".join(PAIR), [(bad, 2, text) for bad, text in PAIR_LINE_ERRORS]),
    "connect --local-only": (" ".join(PAIR), [
        *((bad, 2, text) for bad, text in PAIR_LINE_ERRORS),
        (" ".join(["1", "0", "0", "0", *V3_ARGS]), 3,
         "states lie on different orbits (d = 0.7853981633974483 vs 0.0); local gates preserve d"),
    ]),
}


def _filled(line: str, size: int) -> str:
    """Copies of a line, the last one padded with spaces, of exactly `size` UTF-8 bytes with their newlines."""
    count, extra = divmod(size, len(line) + 1)
    return f"{line}\n" * (count - 1) + line + " " * extra + "\n"


class TestBatchErrors:
    @pytest.mark.parametrize("bad, message", STATE_LINE_ERRORS)
    @pytest.mark.parametrize("command", ["classify", "prepare"])
    def test_line_numbered(self, command, bad, message, capsys, monkeypatch):
        # Line 2 is blank and still counts; line 1's record is already written.  With its indent, a line of up to 80
        # characters is quoted whole; a longer one is named by its length and its first bad token, cut to 40 characters.
        first = run_cli(capsys, command, "1", "0", "0", "0")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1 0 0 0\n\n  {bad}\n0 1 0 0\n"))
        assert run_cli(capsys, command) == (2, first, f"error: line 3: {message}\n")

    def test_connect_line_numbered(self, capsys, monkeypatch):
        first = run_cli(capsys, "connect", "1", "0", "0", "0", "0", "1", "0", "0")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0 0 1 0 0\n1 0 0 0 0 1 0\n"))
        assert run_cli(capsys, "connect") == (2, first, "error: line 2: expected 8 numbers, got 7\n")

    @pytest.mark.parametrize("bad, message", PAIR_LINE_ERRORS[1:])
    def test_connect_second_state_line_numbered(self, bad, message, capsys, monkeypatch):
        first = run_cli(capsys, "connect", *PAIR)[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{' '.join(PAIR)}\n{bad}\n"))
        assert run_cli(capsys, "connect") == (2, first, f"error: line 2: {message}\n")

    @pytest.mark.parametrize("scale, norm", [("1e200", "1e+200"), ("1e-200", "1e-200")])
    def test_far_off_norm_reported(self, scale, norm, capsys):
        # The sum of squares overflows to inf or underflows to 0.0; the message names the norm itself.
        assert run_cli(capsys, "classify", scale, "0", "0", "0") == (
            2, "", f"error: amplitude vector has norm {norm}, not within 1e-06 of 1\n"
        )

    def test_argv_errors_unnumbered(self, capsys):
        assert run_cli(capsys, "classify", "1", "0", "0") == (2, "", "error: expected 4 numbers, got 3\n")
        assert run_cli(capsys, "prepare", "0", "0", "0", "0")[2] == (
            "error: amplitude vector has norm 0.0, not within 1e-06 of 1\n"
        )

    def test_orbit_mismatch_message_kept(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0 " + " ".join(V3_ARGS) + "\n"))
        code, out, err = run_cli(capsys, "connect", "--local-only")
        assert (code, out) == (3, "")
        assert err == (
            "error: ORBIT_MISMATCH: line 1: states lie on different orbits (d = 0.7853981633974483 vs 0.0); "
            "local gates preserve d\n"
        )

    def test_orbit_mismatch_names_its_line(self, capsys, monkeypatch):
        # The record writer's error is numbered like a reader's: line 2 is blank and still counts, line 4 never runs.
        first = run_cli(capsys, "connect", "--local-only", *PAIR)[1]
        cross = " ".join(["1", "0", "0", "0", *V3_ARGS])
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{' '.join(PAIR)}\n\n{cross}\n{' '.join(PAIR)}\n"))
        assert run_cli(capsys, "connect", "--local-only") == (
            3,
            first,
            "error: ORBIT_MISMATCH: line 3: states lie on different orbits (d = 0.7853981633974483 vs 0.0); "
            "local gates preserve d\n",
        )

    @pytest.mark.parametrize("place", ["first", "last", "straddling", "after-blanks"])
    @pytest.mark.parametrize(
        "command, good, bad, code, message",
        [
            # Each bad line indented, as in test_line_numbered, which the messages of the longer ones count.
            pytest.param(command, good, f"  {bad}", code, message, id=f"{command}-{i}")
            for command, (good, errors) in BATCH_ERRORS.items()
            for i, (bad, code, message) in enumerate(errors)
        ],
    )
    def test_at_read_boundaries(self, command, good, bad, code, message, place, capsys, monkeypatch):
        # Stdin comes _READ_SIZE bytes a read.  The bad line opens the second read, closes the first, straddles the
        # two, or follows blank lines of whitespace that str.split() drops, the first of whose \u3000 bytes straddle.
        # Its error names its line and keeps its exit code, and the records of the lines before it are all written.
        size = len(bad) + 1
        head = {"first": _READ_SIZE, "last": _READ_SIZE - size, "straddling": _READ_SIZE - size // 2}.get(place)
        before = _filled(good, head) if head else _filled(good, _READ_SIZE - 4) + "\x1c\x1c\n\u3000\n\r\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(before))
        first = run_cli(capsys, *command.split())[1]
        assert first.count("\n") == before.count(good)
        data = f"{before}{bad}\n{good}\n".encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        error = f"error: {'ORBIT_MISMATCH: ' * (code == 3)}line {before.count(chr(10)) + 1}: {message}\n"
        assert run_cli(capsys, *command.split()) == (code, first, error)


def test_classify_makes_one_bell_change_per_line(capsys, monkeypatch):
    # The printed Bell coordinates are the ones d, class and sheet come from.
    from realtwoqubit import _classify, _state

    calls = []
    original = _state._to_bell

    def counted(state):
        calls.append(state)
        return original(state)

    for module in (_classify, _state):
        monkeypatch.setattr(module, "_to_bell", counted)
    case = next(c for c in STREAMS if c["argv"][0] == "classify")
    code, out, err = _replay(case, capsys, monkeypatch)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    assert len(calls) == case["items"]


def test_prepare_validates_each_input_once(capsys, monkeypatch):
    # Only the reader calls _state._unit on prepare's path; the simulator's own _unit is _synthesis's import.
    from realtwoqubit import _state

    calls = []
    original = _state._unit

    def counted(*values):
        calls.append(values)
        return original(*values)

    monkeypatch.setattr(_state, "_unit", counted)
    case = next(c for c in STREAMS if c["argv"][0] == "prepare")
    code, out, err = _replay(case, capsys, monkeypatch)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    assert len(calls) == case["items"]


SRC = str(Path(__file__).resolve().parent.parent / "src")
ENTRY = "import sys; from realtwoqubit.cli import main; sys.exit(main())"
BUFFERING = pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])


def _child_env(unbuffered: bool) -> dict:
    """A CLI child's environment: the package from src/, UTF-8 stdio, and a raw (python -u) or buffered stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONIOENCODING"] = "utf-8"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@BUFFERING
@pytest.mark.parametrize(
    "argv, stdin",
    [(["mesh", "--d", "0.3", "--na", "256", "--nb", "256", "--format", "csv"], ""), (["classify"], "1 0 0 0\n" * 5000)],
)
def test_closed_stdout_ends_the_run_quietly(argv, stdin, unbuffered, tmp_path):
    # The reader goes away after one line; the run stops with exit 1 and no traceback.
    (tmp_path / "stdin").write_text(stdin)
    with open(tmp_path / "stdin") as fin:
        cmd = [sys.executable, "-c", ENTRY, *argv]
        proc = subprocess.Popen(cmd, env=_child_env(unbuffered), stdin=fin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@BUFFERING
def test_closed_stdout_during_the_last_mesh_write(unbuffered):
    # Two rows of about 390 KB, each one write; the reader leaves during the second.  Under python -u a raw write
    # into the pipe then takes only part of the row, and the rest must raise, not vanish with exit 0.
    cmd = [sys.executable, "-c", ENTRY, "mesh", "--d", "0.3", "--na", "2", "--nb", "4000", "--format", "csv"]
    pipes = {"stdin": subprocess.DEVNULL, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    proc = subprocess.Popen(cmd, env=_child_env(unbuffered), **pipes)
    assert len(proc.stdout.read(400_000)) == 400_000
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@BUFFERING
def test_closed_stdout_after_one_large_read(unbuffered, tmp_path):
    # 1,000 lines are one stdin read, so their records are one write, larger than the pipe buffer.  The reader
    # goes away after one line: the write takes part of the text, and the rest must raise, not vanish.
    (tmp_path / "stdin").write_text("1 0 0 0\n" * 1000)
    with open(tmp_path / "stdin") as fin:
        cmd = [sys.executable, "-c", ENTRY, "classify"]
        proc = subprocess.Popen(cmd, env=_child_env(unbuffered), stdin=fin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@BUFFERING
@pytest.mark.parametrize("argv", [["--help"], ["mesh", "-h"]], ids=["help", "mesh-h"])
def test_help_into_a_closed_pipe_ends_quietly(argv, unbuffered):
    # Help is one small write, so a reader that first reads a line would race: the read end is closed before the run.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        pipes = {"stdin": subprocess.DEVNULL, "stdout": write_end, "stderr": subprocess.PIPE}
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=_child_env(unbuffered), timeout=60, **pipes)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _to_dev_full(*fds):
    def rewire():
        full = os.open("/dev/full", os.O_WRONLY)
        for fd in fds:
            os.dup2(full, fd)
        os.close(full)

    return rewire


def _stderr_read_only():
    read_only = os.open(os.devnull, os.O_RDONLY)
    os.dup2(read_only, 2)
    os.close(read_only)


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
NO_SPACE, BAD_FD = (f"error: cannot write stdout: {os.strerror(code)}\n".encode() for code in (errno.ENOSPC, errno.EBADF))


@BUFFERING
@pytest.mark.parametrize(
    "argv, rewire, code, err",
    [
        pytest.param(["classify", "1", "0", "0", "0"], _to_dev_full(1), 1, NO_SPACE, marks=NO_DEV_FULL, id="dev-full"),
        pytest.param(["classify", "1", "0", "0", "0"], lambda: os.close(1), 1, BAD_FD, id="closed"),
        pytest.param(["--help"], _to_dev_full(1), 1, NO_SPACE, marks=NO_DEV_FULL, id="help-dev-full"),
        pytest.param(["classify", "1", "0", "0"], _stderr_read_only, 2, b"", id="bad-input-stderr-read-only"),
        pytest.param(["classify", "1", "0", "0", "0"], _to_dev_full(1, 2), 1, b"", marks=NO_DEV_FULL, id="both-dev-full"),
    ],
)
def test_failing_streams_keep_the_exit_code(argv, rewire, code, err, unbuffered):
    # fd 1 or fd 2 is rewired in the child, away from its pipe: stderr names a stdout error once, a stderr that
    # fails drops the text, and the exit code is the one the exit table gives for the run.
    pipes = {"stdin": subprocess.DEVNULL, "capture_output": True, "timeout": 60}
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=_child_env(unbuffered), preexec_fn=rewire, **pipes)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", err)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "1", "0", "0"], 2),
        (["connect", "--local-only", "1", "0", "0", "0", "0.6", "0", "0", "0.8"], 3),
        (["classify", "--bogus"], 2),
    ],
    ids=["bad-input", "orbit-mismatch", "usage"],
)
def test_closed_stderr_drops_the_error_text(argv, code):
    # With fd 2 closed at start-up sys.stderr is None: the error text is dropped, never sent to stdout, and the code stays.
    cmd = [sys.executable, "-c", ENTRY, *argv]
    pipes = {"stdin": subprocess.DEVNULL, "stdout": subprocess.PIPE}
    proc = subprocess.run(cmd, env=_child_env(False), preexec_fn=lambda: os.close(2), timeout=60, **pipes)
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_closed_stdin_is_a_usage_error(capsys):
    # With fd 0 closed at start-up sys.stdin is None: a run that must read stdin exits 2, and states on argv need none.
    def child(*argv):
        cmd = [sys.executable, "-c", ENTRY, *argv]
        closed = {"preexec_fn": lambda: os.close(0), "capture_output": True, "text": True, "timeout": 60}
        proc = subprocess.run(cmd, env=_child_env(False), **closed)
        return proc.returncode, proc.stdout, proc.stderr

    assert child("classify") == (2, "", "error: no stdin\n")
    assert child("classify", "1", "0", "0", "0") == run_cli(capsys, "classify", "1", "0", "0", "0")


@BUFFERING
def test_each_record_arrives_before_the_next_line_is_sent(unbuffered, capsys):
    # A co-process: the record of a line is on stdout while the program waits for the next line.
    cmd = [sys.executable, "-c", ENTRY, "classify"]
    pipes = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(cmd, env=_child_env(unbuffered), **pipes) as proc:
        for line in ("1 0 0 0", "0 1 0 0", "0.6 0 0 0.8"):
            proc.stdin.write(f"{line}\n".encode())
            proc.stdin.flush()
            assert select.select([proc.stdout], [], [], 5)[0], f"no record for {line!r} within 5 s"
            assert proc.stdout.readline().decode() == run_cli(capsys, "classify", *line.split())[1]
        proc.stdin.close()
        assert (proc.wait(timeout=60), proc.stdout.read(), proc.stderr.read()) == (0, b"", b"")


CROSS = " ".join(["1", "0", "0", "0", *V3_ARGS])
MISMATCH = "states lie on different orbits (d = 0.7853981633974483 vs 0.0); local gates preserve d"
#: Per case: argv, the stdin bytes, and the exit code, the inputs whose records make stdout, and stderr.
BYTE_CASES = {
    "crlf": (["classify"], b"1 0 0 0\r\n\r\n0 1 0 0\r\n", 0, ["1 0 0 0", "0 1 0 0"], ""),
    "lone-cr-inside-its-line": (
        ["classify"], b"1 0 0 0\n1 0 0 0\r0 1 0 0\n", 2, ["1 0 0 0"], "error: line 2: expected 4 numbers, got 8\n"
    ),
    "blank-lines-counted": (["classify"], b"\n\n1 0 0 0\n\n1 0 0\n", 2, ["1 0 0 0"], "error: line 5: expected 4 numbers, got 3\n"),
    "last-line-without-newline": (["classify"], b"1 0 0 0\n\n0 1 0 0", 0, ["1 0 0 0", "0 1 0 0"], ""),
    "bad-last-line-without-newline": (["classify"], b"1 0 0 0\n1 0 0", 2, ["1 0 0 0"], "error: line 2: expected 4 numbers, got 3\n"),
    # The 2 bytes of the e-acute straddle the end of the first 8 KiB read.
    "utf8-split-across-reads": (
        ["classify"], b"1 0 0 0\n" * 1023 + "1 0 0 x\u00e9\n".encode(), 2, ["1 0 0 0"] * 1023,
        "error: line 1024: malformed input line '1 0 0 x\u00e9'\n",
    ),
    "invalid-utf8": (
        ["classify"], b"1 0 0 0\n\xff 0 0 0\n", 2, [], "error: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"
    ),
    "bad-line-mid-read": (
        ["classify"], b"1 0 0 0\n0 1 0 0\n1 0 zero 0\n0 0 1 0\n", 2, ["1 0 0 0", "0 1 0 0"],
        "error: line 3: malformed input line '1 0 zero 0'\n",
    ),
    "orbit-mismatch-mid-read": (
        ["connect", "--local-only"], f"{' '.join(PAIR)}\n{CROSS}\n{' '.join(PAIR)}\n".encode(), 3, [" ".join(PAIR)],
        f"error: ORBIT_MISMATCH: line 2: {MISMATCH}\n",
    ),
}


@BUFFERING
@pytest.mark.parametrize("case", BYTE_CASES)
def test_stdin_bytes_through_a_process(case, unbuffered, capsys, tmp_path):
    # A file on stdin, so each read is a full 8 KiB: lines split on "\n" alone, as sys.stdin splits them.
    argv, data, code, inputs, err = BYTE_CASES[case]
    assert "utf8-split" not in case or data.index("\u00e9".encode()) == 8191
    records = {line: run_cli(capsys, *argv, *line.split())[1] for line in set(inputs)}
    (tmp_path / "stdin").write_bytes(data)
    with open(tmp_path / "stdin") as fin:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=_child_env(unbuffered), stdin=fin, capture_output=True)
    assert (proc.returncode, proc.stderr.decode()) == (code, err)
    assert proc.stdout.decode() == "".join(records[line] for line in inputs)


@pytest.mark.parametrize(
    "argv, stdin, code, lines",
    [
        (["classify"], "1 0 0 0\n0 1 0 0\n1 0 zero 0\n0 0 1 0\n", 2, 2),
        (["mesh", "--d", "0.3", "--na", "3", "--nb", "4", "--format", "csv"], "", 0, 18),
        (["sample", "--d", "0.3", "--seed", "7"], "", 0, 1),
        (["--help"], "", 0, 9),
    ],
    ids=["classify-bad-third-line", "mesh-csv", "sample", "help"],
)
def test_in_memory_stdout_gets_the_same_text(argv, stdin, code, lines, capsys, monkeypatch):
    # An in-memory stdout, as perfbench's traced rounds set, has no bytes below it: _write_all writes the text to it.
    def run():
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    expected = (run(), *capsys.readouterr())
    assert expected[0] == code and expected[1].count("\n") == lines
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert (run(), out.getvalue(), capsys.readouterr().err) == expected


def test_one_stdout_write_per_stdin_read(capsys, monkeypatch):
    # As under python -u, each text reaches the bytes below stdout at once: a write per record would show here.
    class CountingBytesIO(io.BytesIO):
        writes = 0

        def write(self, data):
            self.writes += 1
            return super().write(data)

    text = "".join(f"{math.cos(i)!r} {math.sin(i)!r} 0 0\n" for i in range(10_000))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    expected = run_cli(capsys, "classify")[1].encode()
    out = CountingBytesIO()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8"))
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(out, encoding="utf-8", write_through=True))
    assert main(["classify"]) == 0
    assert out.getvalue() == expected
    assert 1 < out.writes <= -(-len(text) // _READ_SIZE) + 1


def test_in_memory_stdin_is_taken_a_read_size_at_a_time(monkeypatch):
    # A StringIO never waits, but it is read _READ_SIZE characters at a time, as a file is: a run holds one read's
    # lines and records, not the whole input's, and writes each read's records as one text.
    class CountingStringIO(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    text = "".join(f"{math.cos(i)!r} {math.sin(i)!r} 0 0\n" for i in range(10_000))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    with contextlib.redirect_stdout(CountingStringIO()) as out:
        assert main(["classify"]) == 0
    assert out.getvalue().count("\n") == 10_000
    assert out.writes == -(-len(text) // _READ_SIZE) + 1


def test_a_line_longer_than_many_reads_takes_linear_time(capsys, monkeypatch):
    # One 8 MB line with no newline spans about a thousand reads; copying it again at each read took seconds.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1" * 8_000_000), encoding="utf-8"))
    start = time.perf_counter()
    result = run_cli(capsys, "classify")
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", "error: line 1: expected 4 numbers, got 1\n")


@pytest.mark.parametrize("last", ["0.5", "zero"], ids=["count", "malformed"])
def test_a_long_line_is_refused_without_splitting_it(last, capsys, monkeypatch):
    # A line of 100,000 numbers is refused as a string plus its rest: a list of its tokens and floats took 12 times
    # the line.  The malformed message names the line by its length and its bad token, so it holds no copy of the line.
    line = " ".join([*(f"{i}.25" for i in range(99_999)), last])
    message = "expected 4 numbers, got 100000"
    if last == "zero":
        message = f"malformed input line of {len(line)} characters: 'zero' at column {len(line) - 3}"
    first = run_cli(capsys, "classify", "1", "0", "0", "0")[1]
    monkeypatch.setattr("realtwoqubit.cli._READ_SIZE", 4096)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f"1 0 0 0\n{line}\n".encode()), encoding="utf-8"))
    tracemalloc.start()
    try:
        result = run_cli(capsys, "classify")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, first, f"error: line 2: {message}\n")
    assert peak < 3 * len(line)


def test_text_written_to_stdout_before_stays_first(capsys, monkeypatch):
    # The records go below a buffered text layer: what a caller wrote to it before main must come out before them.
    record = run_cli(capsys, "classify", "1", "0", "0", "0")[1]
    out = io.BytesIO()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1 0 0 0\n"), encoding="utf-8"))
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(io.BufferedWriter(out), encoding="utf-8"))
    print("header")
    assert main(["classify"]) == 0
    assert out.getvalue().decode() == "header\n" + record


def test_full_nonblocking_stdout_raises(capsys, monkeypatch):
    # A raw non-blocking stdout that is full takes nothing and returns None; the run ends with exit 1 instead of spinning.
    class FullOnce(io.RawIOBase):
        full = True

        def writable(self):
            return True

        def write(self, data):
            if self.full:
                self.full = False
                return None
            return len(data)

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1 0 0 0\n"), encoding="utf-8"))
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(FullOnce(), encoding="utf-8", write_through=True))
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert (exc.value.code, capsys.readouterr().err) == (1, "error: cannot write stdout: stdout is full\n")


#: Per subcommand, the runs of the start-up test and the part modules of the core they may load.
START_UP_RUNS = {
    "classify": ([["classify", "1", "0", "0", "0"]], "_argv _classify _core _state"),
    "prepare": ([["prepare", "0.5", "0.5", "0.5", "0.5"]], "_argv _core _state _synthesis"),
    "connect": (
        [
            ["connect", "1", "0", "0", "0", "0", "0", "0", "1"],
            ["connect", "--local-only", "1", "0", "0", "0", "0", "1", "0", "0"],
            ["connect", "--local-only", "1", "0", "0", "0", "0.7071067811865476", "0", "0", "0.7071067811865476"],
        ],
        "_argv _core _state _synthesis",
    ),
    "mesh": (
        [
            ["mesh", "--d", "0.3", "--na", "4", "--nb", "4"],
            ["mesh", "--d", "0.3", "--na", "4", "--nb", "4", "--format", "csv"],
        ],
        "_argv _core _mesh",
    ),
    "sample": ([["sample", "--d", "0.3", "--count", "200", "--seed", "7"]], "_argv _core _mesh _sample _state"),
}


#: Clean stdin lines of the batch commands, each run 3000 times: a batch of several reads that compiles no error text.
BATCHES = [("classify", "0.6 0.8 0 0\n"), ("prepare", "0.5 0.5 0.5 0.5\n"), ("connect", "1 0 0 0 0 1 0 0\n")]


def test_start_up_imports_only_the_core():
    # Modules already loaded before the package (by a site hook, say) are not held against it.  Neither the argv runs,
    # the ORBIT_MISMATCH among them, nor the clean stdin batches load `_usage`, which only a failed line or help needs.
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from realtwoqubit.cli import main\n"
        f"runs = {[argv for runs, _ in START_UP_RUNS.values() for argv in runs]!r}\n"
        "codes = [main(argv) for argv in runs]\n"
        f"for command, line in {BATCHES!r}:\n"  # clean batches of several reads each
        "    sys.stdin = io.TextIOWrapper(io.BytesIO(line.encode() * 3000), encoding='utf-8')\n"
        "    codes.append(main([command]))\n"
        "watched = ['argparse', 'dataclasses', 'inspect', 'json', 'numpy'] + [\n"
        "    f'realtwoqubit.{m}' for m in ('states', 'geometry', 'synthesis', '_usage')\n"
        "]\n"
        "early = sorted(m for m in watched if m in sys.modules and m not in before)\n"
        "codes.append(main(['sample', '--d', '0.3', '--seed', '7']))\n"
        "late = sorted(m for m in ('numpy', 'realtwoqubit.geometry', 'dataclasses') if m in sys.modules)\n"
        "print(codes, early, late, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0] [] []"
    # Each subcommand, in a fresh interpreter, compiles only its own part of the core.
    for command, (runs, parts) in START_UP_RUNS.items():
        script = (
            "import sys\n"
            "from realtwoqubit.cli import main\n"
            f"[main(argv) for argv in {runs!r}]\n"
            "print(sorted(m for m in sys.modules if m.startswith('realtwoqubit.')), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = sorted(f"realtwoqubit.{m}" for m in ["cli", *parts.split()])
        assert proc.stderr.splitlines()[-1] == str(loaded), command


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11), reason="CPython 3.11's peak")
def test_cli_compiles_below_its_cliff():
    # With no bytecode written every run compiles cli.py, and its compile() peak sets the run's peak memory.  It is
    # about 366 KiB; a dozen more statements take it past 420 KiB, so a change that crosses that step fails here.
    path = Path(sys.modules[main.__module__].__file__)
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024, peak
