"""Command line interface.

Subcommands: classify, prepare, connect, mesh, sample.  All numeric work
happens in the library; this layer only parses arguments, shuttles JSON/CSV,
and maps errors to exit codes (0 ok, 2 malformed input, 3 orbit mismatch
under --local-only).  States can also be piped on stdin, one
whitespace-separated state per line, for batch runs; an error on a stdin
line names its line number.  Each input state is validated once, as it is
read; the work then runs on plain 4-tuples, and each record is one f-string
of reprs, byte for byte what json.dumps writes.

Only argparse and the plain-float core `_core` are imported at start-up, so
classify, prepare, connect and mesh load neither dataclasses nor numpy nor
the object API; `sample` imports `geometry` and numpy when it runs.
"""

import argparse
import sys

from ._core import _CZ, DEFAULT_TOL, OrbitMismatchError, _classify, _cz_connect, _local_connect, _prepare, _to_bell
from ._core import _unit, concurrence, entropy_from_concurrence, mesh_to_csv, mesh_to_json, residual


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
    p.add_argument("values", nargs="*", type=float, metavar="W", help="four amplitudes (omit to read lines from stdin)")
    p.set_defaults(func=_cmd_records, record=_classify_record, per_line=4)

    p = sub.add_parser("prepare", parents=[common], help="preparation circuit from |00>")
    p.add_argument("values", nargs="*", type=float, metavar="W", help="four amplitudes (omit to read lines from stdin)")
    p.set_defaults(func=_cmd_records, record=_prepare_record, per_line=4)

    p = sub.add_parser("connect", parents=[common], help="circuit taking the source state to the target state")
    p.add_argument("values", nargs="*", type=float, metavar="W", help="eight numbers: source then target (omit to read lines from stdin)")
    p.add_argument("--local-only", action="store_true", help="refuse to use CZ; exit 3 if the orbits differ")
    p.set_defaults(func=_cmd_records, record=_connect_record, per_line=8)

    p = sub.add_parser("mesh", parents=[common], help="sample an orbit into the unit ball")
    p.add_argument("--d", type=float, required=True, help="orbit distance in [0, pi/4]")
    p.add_argument("--na", type=int, default=64, help="grid size for angle a (default 64)")
    p.add_argument("--nb", type=int, default=64, help="grid size for angle b (default 64)")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format (default json)")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("sample", help="random states on an orbit")
    p.add_argument("--d", type=float, required=True, help="orbit distance in [0, pi/4]")
    p.add_argument("--count", type=int, default=1, help="number of states (default 1)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.set_defaults(func=_cmd_sample)

    return parser


def _states_from_values(values: list[float], per_line: int) -> list[tuple]:
    if len(values) != per_line:
        raise ValueError(f"expected {per_line} numbers, got {len(values)}")
    return [_unit(*values[i : i + 4]) for i in range(0, per_line, 4)]


def _input_batches(args_values: list[float], per_line: int):
    """Yield lists of unit 4-tuples, one per input: argv values or stdin lines."""
    if args_values:
        yield _states_from_values(args_values, per_line)
        return
    for number, line in enumerate(sys.stdin, 1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            try:
                values = list(map(float, tokens))
            except ValueError:
                raise ValueError(f"malformed input line {line.strip()!r}") from None
            states = _states_from_values(values, per_line)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        yield states


#: The JSON of each gate without an angle.
_FIXED_GATE_JSON = {
    ("cz", None, None): '{"kind": "cz"}',
    ("x", 0, None): '{"kind": "x", "qubit": 0}',
    ("x", 1, None): '{"kind": "x", "qubit": 1}',
}

_ZERO = (1.0, 0.0, 0.0, 0.0)


def _gates_json(gates) -> str:
    texts = (_FIXED_GATE_JSON.get(g) or f'{{"kind": "ry", "qubit": {g[1]}, "angle": {g[2]!r}}}' for g in gates)
    return f"[{', '.join(texts)}]"


def _classify_record(args, state: tuple) -> str:
    x1, x2, x3, x4 = bell = _to_bell(state)
    kind, d, sheet = _classify(state, bell)
    c = concurrence(state)
    # The entropy comes from C rather than d: near the product torus d has too few digits.
    return (
        f'{{"d": {d!r}, "entropy": {entropy_from_concurrence(c)!r}, "class": "{kind}", '
        f'"sheet": "{sheet}", "bell": [{x1!r}, {x2!r}, {x3!r}, {x4!r}], "concurrence": {c!r}}}\n'
    )


def _prepare_record(args, state: tuple) -> str:
    gates = _prepare(state)
    return f'{{"gates": {_gates_json(gates)}, "residual": {residual(gates, _ZERO, state)!r}}}\n'


def _connect_record(args, source: tuple, target: tuple) -> str:
    gates, mid, res = (_local_connect if args.local_only else _cz_connect)(source, target, args.tol)
    intermediate = "null" if mid is None else f'{{"w": [{mid[0]!r}, {mid[1]!r}, {mid[2]!r}, {mid[3]!r}]}}'
    return (
        f'{{"gates": {_gates_json(gates)}, "intermediate": {intermediate}, '
        f'"cz_count": {gates.count(_CZ)}, "residual": {res!r}}}\n'
    )


def _cmd_records(args) -> int:
    # classify, prepare and connect: one JSON line per input, written as soon as it is made.
    sys.stdout.writelines(args.record(args, *states) for states in _input_batches(args.values, args.per_line))
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
    import json

    import numpy as np

    from .geometry import sample_orbit_states

    rng = np.random.default_rng(args.seed)
    states = sample_orbit_states(args.d, args.count, rng)
    print(json.dumps({"d": args.d, "states": [s.to_dict() for s in states]}))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --tol is checked once, here, for every subcommand that takes it.
        if "tol" in args and not (args.tol > 0.0):
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
