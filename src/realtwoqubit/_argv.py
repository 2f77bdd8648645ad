"""The command line's argv grammar: one table of subcommands and the parser that walks argv against it.

One table, `_COMMANDS`, gives each subcommand's help line, handler, numbers
per input and flags.  `parse_args` walks argv once against it: a token that
starts with `--` (or is `-h`) is a flag, given as `--flag value`,
`--flag=value` or a unique abbreviation, and the last of a repeated flag
wins; every other token, and every token after `--`, is a number, wherever
it stands.  This module does no I/O: help and usage errors are raised as
`_Usage`, and `cli` formats them from the same table with `_usage`, writes
them and exits.
"""

import types

from ._core import DEFAULT_TOL

#: Per subcommand: help line, "part.handler" (a record maker if it reads states, else it returns its output texts),
#: numbers per input (0: none) and flags, name -> (dest, converter or None for a switch, default or ... if required, help).
_TOL = {"--tol": ("tol", float, DEFAULT_TOL, "verification tolerance (default 1e-10)")}
_D = {"--d": ("d", float, ..., "orbit distance in [0, pi/4] (required)")}
_COMMANDS = {
    "classify": ("orbit class, distance, entropy and Bell coordinates", "_classify._classify_record", 4, _TOL),
    "prepare": ("preparation circuit from |00>", "_synthesis._prepare_record", 4, _TOL),
    "connect": ("circuit taking the source state to the target state", "_synthesis._connect_record", 8, {
        **_TOL, "--local-only": ("local_only", None, False, "refuse to use CZ; exit 3 if the orbits differ")}),
    "mesh": ("sample an orbit into the unit ball", "_mesh._cmd_mesh", 0, {
        **_TOL, **_D, "--na": ("na", int, 64, "grid size for angle a (default 64)"),
        "--nb": ("nb", int, 64, "grid size for angle b (default 64)"),
        "--out": ("out", str, None, "write to this path instead of stdout"),
        "--format": ("format", {"json": "json", "csv": "csv"}.__getitem__, "json", "json or csv (default json)")}),
    "sample": ("random states on an orbit", "_sample._cmd_sample", 0, {
        **_D, "--count": ("count", int, 1, "number of states (default 1)"), "--seed": ("seed", int, None, "RNG seed")}),
}
_HELP = ("-h", "--help")


class _Usage(Exception):
    """Help for a subcommand ("" for the program), or with an error its usage error: exit 0 or 2."""

    def __init__(self, command: str, error: str = ""):
        super().__init__(command, error)
        self.command, self.error = command, error


def _flag(command: str, token: str, names) -> str:
    """The flag a token names: itself, or the one flag that a --token abbreviates."""
    found = [token] if token in names else [n for n in names if token[:2] == "--" and token[2:] and n.startswith(token)]
    if len(found) != 1:
        error = f"ambiguous option {token}: {' or '.join(found)}" if found else f"unrecognized argument {token}"
        raise _Usage(command, error)
    return found[0]


def parse_args(argv: list[str]) -> types.SimpleNamespace:
    """Walk argv once against _COMMANDS: flags and numbers in any order, and only numbers after `--`."""
    command = argv[0] if argv else ""
    if command[:1] == "-" and _flag("", command, _HELP):
        raise _Usage("")
    if command not in _COMMANDS:
        raise _Usage("", f"unknown subcommand {command!r}" if command else "missing subcommand")
    _, handler, per_line, flags = _COMMANDS[command]
    defaults = {dest: default for dest, _, default, _ in flags.values()}
    args = types.SimpleNamespace(**defaults, handler=handler, per_line=per_line, values=[])
    tokens, options = iter(argv[1:]), True
    for token in tokens:
        if options and token == "--":
            options = False
        elif options and (token[:2] == "--" or token in _HELP):  # every other token is a number, as on stdin
            name, eq, value = token.partition("=")
            flag = _flag(command, name, [*flags, *_HELP])
            if flag in _HELP:
                raise _Usage(command)
            dest, convert, _, _ = flags[flag]
            if convert is None and eq:
                raise _Usage(command, f"{flag} takes no value")
            if convert is not None and not eq:
                value = next(tokens, "--")
                if value[:2] == "--" or value in _HELP:
                    raise _Usage(command, f"{flag} expects a value")
            try:
                setattr(args, dest, True if convert is None else convert(value))
            except (KeyError, ValueError):
                raise _Usage(command, f"invalid {flag} value {value!r}") from None
        elif not per_line:
            raise _Usage(command, f"{command} takes no numbers, got {token!r}")
        else:
            try:
                args.values.append(float(token))
            except ValueError:
                raise _Usage(command, f"not a number: {token!r}") from None
    for flag, (dest, _, _, _) in flags.items():
        if getattr(args, dest) is ...:
            raise _Usage(command, f"{command} requires {flag}")
    return args
