"""Command line interface.

Subcommands: classify, prepare, connect, mesh, sample.  All numeric work
happens in the library; this layer only parses arguments, shuttles JSON/CSV,
and maps errors to exit codes (0 ok, 1 stdout closed early, 2 malformed
input or usage, 3 orbit mismatch under --local-only).  States can also be
piped on stdin, one whitespace-separated state per line, for batch runs; an
error on a stdin line names its line number.  Each input state is validated
once, as it is read; the work then runs on plain 4-tuples, and each record
is one f-string of reprs, byte for byte what json.dumps writes.

One table, `_COMMANDS`, gives each subcommand's help line, numbers per input
and flags.  `parse_args` walks argv once against it: a token that starts
with `--` (or is `-h`) is a flag, given as `--flag value`, `--flag=value` or
a unique abbreviation, and the last of a repeated flag wins; every other
token, and every token after `--`, is a number, wherever it stands.  Help
and usage errors are printed from the same table.

Only `sys` and the plain-float core `_core` are imported at start-up, so
classify, prepare, connect and mesh load neither argparse nor dataclasses
nor numpy nor the object API; `sample` imports `geometry` and numpy when it
runs.
"""

import sys

from ._core import _CZ, DEFAULT_TOL, OrbitMismatchError, _classify, _cz_connect, _local_connect, _prepare, _to_bell
from ._core import _unit, concurrence, entropy_from_concurrence, mesh_to_csv, mesh_to_json, residual


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
    if not args.out:
        sys.stdout.writelines(chunks)
        return 0
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    with fh:
        fh.writelines(chunks)
    return 0


def _cmd_sample(args) -> int:
    import json

    import numpy as np

    from .geometry import sample_orbit_states

    rng = np.random.default_rng(args.seed)
    states = sample_orbit_states(args.d, args.count, rng)
    print(json.dumps({"d": args.d, "states": [s.to_dict() for s in states]}))
    return 0


#: Per subcommand: help line, handler, record writer, numbers per input (0: none) and flags,
#: name -> (dest, converter or None for a switch, default or ... if required, help).
_TOL = {"--tol": ("tol", float, DEFAULT_TOL, "verification tolerance (default 1e-10)")}
_D = {"--d": ("d", float, ..., "orbit distance in [0, pi/4] (required)")}
_COMMANDS = {
    "classify": ("orbit class, distance, entropy and Bell coordinates", _cmd_records, _classify_record, 4, _TOL),
    "prepare": ("preparation circuit from |00>", _cmd_records, _prepare_record, 4, _TOL),
    "connect": ("circuit taking the source state to the target state", _cmd_records, _connect_record, 8, {
        **_TOL, "--local-only": ("local_only", None, False, "refuse to use CZ; exit 3 if the orbits differ")}),
    "mesh": ("sample an orbit into the unit ball", _cmd_mesh, None, 0, {
        **_TOL, **_D, "--na": ("na", int, 64, "grid size for angle a (default 64)"),
        "--nb": ("nb", int, 64, "grid size for angle b (default 64)"),
        "--out": ("out", str, None, "write to this path instead of stdout"),
        "--format": ("format", {"json": "json", "csv": "csv"}.__getitem__, "json", "json or csv (default json)")}),
    "sample": ("random states on an orbit", _cmd_sample, None, 0, {
        **_D, "--count": ("count", int, 1, "number of states (default 1)"), "--seed": ("seed", int, None, "RNG seed")}),
}
_HELP = ("-h", "--help")


class _Args:
    """The parsed command line: one attribute per field that main and the handlers read."""


def _stop(command: str, error: str = ""):
    """Print help to stdout and exit 0, or a usage error to stderr and exit 2."""
    if command:
        blurb, _, _, per_line, flags = _COMMANDS[command]
        rows = [(f"{f} {dest.upper()}" if convert else f, text) for f, (dest, convert, _, text) in flags.items()]
        rows += [("W ...", f"{per_line} numbers, or none to read lines from stdin")] * bool(per_line)
        usage = f"usage: realtwoqubit {command} [-h] {' '.join(f'[{a}]' for a, _ in rows)}"
    else:
        blurb = "Orbit classification and circuit synthesis for real-amplitude two-qubit states."
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
        usage = f"usage: realtwoqubit [-h] {{{','.join(_COMMANDS)}}} ..."
    help_text = "\n".join([usage, "", blurb, "", *(f"  {a:<16} {b}" for a, b in rows)])
    print(f"{usage}\nrealtwoqubit: error: {error}" if error else help_text, file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)


def _flag(command: str, token: str, names) -> str:
    """The flag a token names: itself, or the one flag that a --token abbreviates."""
    found = [token] if token in names else [n for n in names if token[:2] == "--" and token[2:] and n.startswith(token)]
    if len(found) != 1:
        _stop(command, f"ambiguous option {token}: {' or '.join(found)}" if found else f"unrecognized argument {token}")
    return found[0]


def parse_args(argv: list[str]) -> _Args:
    """Walk argv once against _COMMANDS: flags and numbers in any order, and only numbers after `--`."""
    command = argv[0] if argv else ""
    if command[:1] == "-" and _flag("", command, _HELP):
        _stop("")
    if command not in _COMMANDS:
        _stop("", f"unknown subcommand {command!r}" if command else "missing subcommand")
    _, func, record, per_line, flags = _COMMANDS[command]
    args, tokens, options = _Args(), iter(argv[1:]), True
    vars(args).update({dest: default for dest, _, default, _ in flags.values()}, func=func, record=record, per_line=per_line, values=[])
    for token in tokens:
        if options and token == "--":
            options = False
        elif options and (token[:2] == "--" or token in _HELP):  # every other token is a number, as on stdin
            name, eq, value = token.partition("=")
            flag = _flag(command, name, [*flags, *_HELP])
            dest, convert, _, _ = flags.get(flag) or _stop(command)  # -h, --help
            if convert is None and eq:
                _stop(command, f"{flag} takes no value")
            if convert is not None and not eq:
                value = next(tokens, "--")
                if value[:2] == "--" or value in _HELP:
                    _stop(command, f"{flag} expects a value")
            try:
                setattr(args, dest, True if convert is None else convert(value))
            except (KeyError, ValueError):
                _stop(command, f"invalid {flag} value {value!r}")
        elif not per_line:
            _stop(command, f"{command} takes no numbers, got {token!r}")
        else:
            try:
                args.values.append(float(token))
            except ValueError:
                _stop(command, f"not a number: {token!r}")
    for flag, (dest, _, _, _) in flags.items():
        if getattr(args, dest) is ...:
            _stop(command, f"{command} requires {flag}")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # --tol is checked once, here, for every subcommand that takes it.
        if "tol" in vars(args) and not (args.tol > 0.0):
            raise ValueError(f"tolerance must be positive, got {args.tol!r}")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # As the signal module's docs advise: stdout goes to devnull, so the interpreter's last flush is silent.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OrbitMismatchError as exc:
        print(f"error: ORBIT_MISMATCH: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
