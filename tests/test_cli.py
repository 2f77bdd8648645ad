"""CLI behavior: golden equivalence with the library, exit codes, batch stdin."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from realtwoqubit import (
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
from realtwoqubit.cli import main

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


MESH_GOLDEN = [json.loads(line) for line in (Path(__file__).parent / "mesh_golden.jsonl").read_text().splitlines()]


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

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "mesh.csv"
        code, out, err = run_cli(capsys, "mesh", "--d", "0.3", "--na", "2", "--nb", "2", "--out", str(path))
        assert (code, out, err) == (2, "", f"error: cannot write {path}: No such file or directory\n")

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        argv = ["mesh", "--d", "0.3", "--na", "7", "--nb", "9", "--format", "json"]
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "mesh.json"
        assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_text() == out


class TestSample:
    def test_seeded_output_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--d", "0.3", "--seed", "7", "--count", "5")
        assert code == 0
        assert json.loads(out) == {
            "d": 0.3,
            "states": [
                {"w": [0.2754286229598019, -0.792513313677788, -0.5409798925851104, 0.058330756179924136]},
                {"w": [0.40852592414261607, -0.2833206432108774, 0.680659292049593, 0.5380881996295246]},
                {"w": [0.28731348187644123, -0.8345812358820117, 0.457812756758129, 0.10645470208127067]},
                {"w": [-0.1883587922644001, 0.8622497406558056, -0.46730861597040213, -0.05166243853632784]},
                {"w": [-0.8718935311825223, 0.05138765281739033, 0.08999209674201047, -0.47860464053743573]},
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


class TestBatchErrors:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1 0 zero 0", "malformed input line '1 0 zero 0'"),
            ("1 0 0", "expected 4 numbers, got 3"),
            ("nan 0 0 0", "amplitude components must be finite, got (nan, 0.0, 0.0, 0.0)"),
            ("2 0 0 0", "amplitude vector has norm 2.0, not within 1e-06 of 1"),
            ("1 0 0 0 0", "expected 4 numbers, got 5"),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "prepare"])
    def test_line_numbered(self, command, bad, message, capsys, monkeypatch):
        # Line 2 is blank and still counts; line 1's record is already written.
        first = run_cli(capsys, command, "1", "0", "0", "0")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1 0 0 0\n\n  {bad}\n0 1 0 0\n"))
        assert run_cli(capsys, command) == (2, first, f"error: line 3: {message}\n")

    def test_connect_line_numbered(self, capsys, monkeypatch):
        first = run_cli(capsys, "connect", "1", "0", "0", "0", "0", "1", "0", "0")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0 0 1 0 0\n1 0 0 0 0 1 0\n"))
        assert run_cli(capsys, "connect") == (2, first, "error: line 2: expected 8 numbers, got 7\n")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1 0 0 0 2 0 0 0", "amplitude vector has norm 2.0, not within 1e-06 of 1"),
            ("1 0 0 0 nan 0 0 0", "amplitude components must be finite, got (nan, 0.0, 0.0, 0.0)"),
            ("1 0 0 0 0 zero 0 0", "malformed input line '1 0 0 0 0 zero 0 0'"),
        ],
    )
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
            "error: ORBIT_MISMATCH: states lie on different orbits (d = 0.7853981633974483 vs 0.0); "
            "local gates preserve d\n"
        )


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


@pytest.mark.parametrize(
    "argv, stdin",
    [(["mesh", "--d", "0.3", "--na", "256", "--nb", "256", "--format", "csv"], ""), (["classify"], "1 0 0 0\n" * 5000)],
)
def test_closed_stdout_ends_the_run_quietly(argv, stdin, tmp_path):
    # The reader goes away after one line; the run stops with exit 1 and no traceback.
    (tmp_path / "stdin").write_text(stdin)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(tmp_path / "stdin") as fin:
        cmd = [sys.executable, "-c", "import sys; from realtwoqubit.cli import main; sys.exit(main())", *argv]
        proc = subprocess.Popen(cmd, env=env, stdin=fin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


#: Per subcommand, the runs of the start-up test and the part modules of the core they may load.
START_UP_RUNS = {
    "classify": ([["classify", "1", "0", "0", "0"]], "_classify _core _state"),
    "prepare": ([["prepare", "0.5", "0.5", "0.5", "0.5"]], "_core _state _synthesis"),
    "connect": (
        [
            ["connect", "1", "0", "0", "0", "0", "0", "0", "1"],
            ["connect", "--local-only", "1", "0", "0", "0", "0", "1", "0", "0"],
            ["connect", "--local-only", "1", "0", "0", "0", "0.7071067811865476", "0", "0", "0.7071067811865476"],
        ],
        "_core _state _synthesis",
    ),
    "mesh": (
        [
            ["mesh", "--d", "0.3", "--na", "4", "--nb", "4"],
            ["mesh", "--d", "0.3", "--na", "4", "--nb", "4", "--format", "csv"],
        ],
        "_core _mesh",
    ),
}


def test_start_up_imports_only_the_core():
    # Modules already loaded before the package (by a site hook, say) are not held against it.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from realtwoqubit.cli import main\n"
        f"runs = {[argv for runs, _ in START_UP_RUNS.values() for argv in runs]!r}\n"
        "codes = [main(argv) for argv in runs]\n"
        "watched = ['argparse', 'dataclasses', 'inspect', 'numpy'] + [\n"
        "    f'realtwoqubit.{m}' for m in ('states', 'geometry', 'synthesis')\n"
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
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 3, 0, 0, 0] [] ['numpy', 'realtwoqubit.geometry']"
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
