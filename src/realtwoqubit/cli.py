"""Command line interface.

Subcommands: classify, prepare, connect, mesh, sample.  All numeric work
happens in the library; this layer only parses arguments, shuttles JSON/CSV,
and maps errors to exit codes (0 ok, 2 malformed input, 3 orbit mismatch
under --local-only).  States can also be piped on stdin, one
whitespace-separated state per line, for batch runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .geometry import (
    classify,
    entropy_from_concurrence,
    mesh_to_csv,
    mesh_to_json,
    sample_orbit_states,
)
from .states import DEFAULT_TOL, RealState, concurrence, to_bell
from .synthesis import OrbitMismatchError, cz_connect, local_connect, prepare, residual


class _ArgumentParser(argparse.ArgumentParser):
    # argparse reads only -N and -N.N as negative numbers and takes -4e-09 for an option;
    # here every token float() accepts is a value, as on stdin.  Subparsers inherit the class.
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="verification tolerance (default 1e-10)")
    parser = _ArgumentParser(
        prog="realtwoqubit",
        description="Orbit classification and circuit synthesis for real-amplitude two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="orbit class, distance, entropy and Bell coordinates")
    p.add_argument("state", nargs="*", type=float, metavar="W", help="four amplitudes (omit to read lines from stdin)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("prepare", parents=[common], help="preparation circuit from |00>")
    p.add_argument("state", nargs="*", type=float, metavar="W", help="four amplitudes (omit to read lines from stdin)")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("connect", parents=[common], help="circuit taking the source state to the target state")
    p.add_argument("states", nargs="*", type=float, metavar="W", help="eight numbers: source then target (omit to read lines from stdin)")
    p.add_argument("--local-only", action="store_true", help="refuse to use CZ; exit 3 if the orbits differ")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("mesh", parents=[common], help="sample an orbit into the unit ball")
    p.add_argument("--d", type=float, required=True, help="orbit distance in [0, pi/4]")
    p.add_argument("--na", type=int, default=64, help="grid size for angle a (default 64)")
    p.add_argument("--nb", type=int, default=64, help="grid size for angle b (default 64)")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format (default json)")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("sample", parents=[common], help="random states on an orbit")
    p.add_argument("--d", type=float, required=True, help="orbit distance in [0, pi/4]")
    p.add_argument("--count", type=int, default=1, help="number of states (default 1)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.set_defaults(func=_cmd_sample)

    return parser


def _states_from_values(values: list[float], per_line: int):
    if len(values) != per_line:
        raise ValueError(f"expected {per_line} numbers, got {len(values)}")
    return [RealState.from_vector(values[i : i + 4]) for i in range(0, per_line, 4)]


def _input_batches(args_values: list[float], per_line: int):
    """Yield lists of states, one per input: argv values or stdin lines."""
    if args_values:
        yield _states_from_values(args_values, per_line)
        return
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"malformed input line {line!r}") from exc
        yield _states_from_values(values, per_line)


def _classify_report(state: RealState) -> dict:
    orbit = classify(state)
    coords = to_bell(state)
    c = concurrence(state)
    return {
        "d": orbit.d,
        # From C rather than d: near the product torus d has too few digits.
        "entropy": entropy_from_concurrence(c),
        "class": orbit.kind,
        "sheet": orbit.sheet,
        "bell": [coords.x1, coords.x2, coords.x3, coords.x4],
        "concurrence": c,
    }


def _cmd_classify(args) -> int:
    for (state,) in _input_batches(args.state, 4):
        print(json.dumps(_classify_report(state)))
    return 0


def _cmd_prepare(args) -> int:
    zero = RealState(1.0, 0.0, 0.0, 0.0)
    for (state,) in _input_batches(args.state, 4):
        circuit = prepare(state)
        print(json.dumps({**circuit.to_dict(), "residual": residual(circuit, zero, state)}))
    return 0


def _cmd_connect(args) -> int:
    for src, tgt in _input_batches(args.states, 8):
        plan = local_connect(src, tgt, args.tol) if args.local_only else cz_connect(src, tgt, args.tol)
        print(json.dumps(plan.to_dict()))
    return 0


def _cmd_mesh(args) -> int:
    # The writers check the request when called, so a bad one opens no --out and writes nothing.
    chunks = (mesh_to_csv if args.format == "csv" else mesh_to_json)(args.d, args.na, args.nb)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return 0


def _cmd_sample(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    states = sample_orbit_states(args.d, args.count, rng)
    print(json.dumps({"d": args.d, "states": [s.to_dict() for s in states]}))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand takes --tol, so it is checked once, here.
        if not (args.tol > 0.0):
            raise ValueError(f"tolerance must be positive, got {args.tol!r}")
        return args.func(args)
    except OrbitMismatchError as exc:
        print(f"error: ORBIT_MISMATCH: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
