"""Command line interface.

Subcommands: classify, prepare, connect, mesh, sample.  All numeric work
happens in the library; this layer only parses arguments, shuttles JSON/CSV,
and maps errors to exit codes:

    0  ok
    1  stdout did not take the output: silent when its reader left early
       (EPIPE), else `error: cannot write stdout: <strerror>`
    2  bad input, usage, no stdin or an unwritable --out
    3  ORBIT_MISMATCH: the orbits differ under --local-only

With no stderr, or one that fails, error text is dropped, never sent to
stdout, and the exit code stays.  States can also be piped on stdin, one
whitespace-separated state per line, for batch runs.  Any error on a stdin
line, in reading, checking or making its record, names the line and keeps its
exit code, as in `error: ORBIT_MISMATCH: line 2: states lie on different
orbits (...)`; errors in argv name no line.  One loop, `_records`, does that
per-line work: each input state is validated once, as it is read; the work
then runs on plain 4-tuples, and each record is one f-string of reprs, byte
for byte what json.dumps writes.  Stdin is taken a read at a time, as much as
it holds, and the records of each read are one text; mesh returns its chunks
and sample its JSON line.  This module alone reads stdin and writes stdout,
stderr and --out, so the core does no I/O: `main` writes each text in full
and flushed at once by `_write_all`, help too, so no record is held while the
program waits for input, the records before a bad line stay, and a stdout
that fails ends every run with exit 1, under `python -u` too.

One table, `_COMMANDS`, gives each subcommand's help line, handler, numbers
per input and flags.  `parse_args` walks argv once against it: a token that
starts with `--` (or is `-h`) is a flag, given as `--flag value`,
`--flag=value` or a unique abbreviation, and the last of a repeated flag
wins; every other token, and every token after `--`, is a number, wherever
it stands.  Help and usage errors are formatted from the same table.

At start-up only `codecs`, `errno`, `importlib`, `os`, `sys`, `types` (all
loaded by the interpreter already) and the core's base `_core` are imported.
A subcommand imports its part of the core as it runs: `_state` with
`_classify` or `_synthesis`, or `_mesh` alone, and help and usage errors
`_usage`.  So a run compiles no part it does not run and loads neither argparse
nor dataclasses nor the object API; `sample` imports `geometry`.
"""

import codecs
import errno
import importlib
import os
import sys
import types

from ._core import DEFAULT_TOL, OrbitMismatchError, _checked_tol

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
    "sample": ("random states on an orbit", "geometry._cmd_sample", 0, {
        **_D, "--count": ("count", int, 1, "number of states (default 1)"), "--seed": ("seed", int, None, "RNG seed")}),
}
_HELP = ("-h", "--help")

#: Bytes per stdin read: the chunk size of sys.stdin itself, so a decoding error names the same position.
_READ_SIZE = 8192


def _stop(command: str, error: str = ""):
    """Write help to stdout and exit 0, or a usage error to stderr and exit 2; `_usage` is loaded only then."""
    from ._usage import _help_or_error

    (_error if error else _write_all)(_help_or_error(_COMMANDS, command, error))
    raise SystemExit(2 if error else 0)


def _error(text: str) -> None:
    """Write text to stderr; with no stderr (fd 2 closed at start-up) or a failing one it is dropped, never sent to stdout."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
    except OSError:  # the exit code stays the one the error asks for
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """As the signal module's docs advise: a failed stream's fd goes to devnull, so the interpreter's last flush is silent."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError):  # no stream, or one without a file descriptor
        return
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _flag(command: str, token: str, names) -> str:
    """The flag a token names: itself, or the one flag that a --token abbreviates."""
    found = [token] if token in names else [n for n in names if token[:2] == "--" and token[2:] and n.startswith(token)]
    if len(found) != 1:
        _stop(command, f"ambiguous option {token}: {' or '.join(found)}" if found else f"unrecognized argument {token}")
    return found[0]


def parse_args(argv: list[str]) -> types.SimpleNamespace:
    """Walk argv once against _COMMANDS: flags and numbers in any order, and only numbers after `--`."""
    command = argv[0] if argv else ""
    if command[:1] == "-" and _flag("", command, _HELP):
        _stop("")
    if command not in _COMMANDS:
        _stop("", f"unknown subcommand {command!r}" if command else "missing subcommand")
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


def _write_all(text: str) -> None:
    """Write text to stdout in full and flush it, so that no record waits while stdin does; exit 1 if stdout fails."""
    try:
        if sys.stdout is None:  # fd 1 closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # an in-memory stream
            sys.stdout.write(text)
            return
        sys.stdout.flush()  # the bytes go below the text layer: what was written to it before goes first
        # Under python -u, out is the raw file: a write into a pipe that its reader closed may take only part,
        # and one into a full non-blocking stdout takes nothing and returns None.
        view = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while view:
            written = out.write(view)
            if written is None:
                raise BlockingIOError(errno.EAGAIN, "stdout is full")
            view = view[written:]
        out.flush()
    except OSError as exc:  # the output is incomplete; a reader that left early (EPIPE) is no error to report
        if exc.errno != errno.EPIPE:
            _error(f"error: cannot write stdout: {exc.strerror}\n")
        _to_devnull(sys.stdout)
        raise SystemExit(1) from None


def _reads():
    """The stdin text, one string per read, ended by a newline so that a last line without one is complete.

    A read takes what stdin holds, waiting only when it holds nothing; its
    bytes are decoded as sys.stdin would, without newline translation.  An
    in-memory stream never waits, so its whole text is one read.
    """
    if sys.stdin is None:  # fd 0 closed at start-up
        raise ValueError("no stdin")
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        yield sys.stdin.read() + "\n"
        return
    decode = codecs.getincrementaldecoder(sys.stdin.encoding)(sys.stdin.errors).decode
    while chunk := buffer.read1(_READ_SIZE):
        yield decode(chunk)
    yield decode(b"", True) + "\n"


def _records(run, args):
    """Yield the records of the inputs, one text per stdin read: the argv numbers, else each non-blank stdin line.

    A stdin line's errors are led by `line N: `; the records of the lines before it in its read are yielded first.
    """
    from ._state import _states_from_values

    if args.values:
        yield run(args, *_states_from_values(args.values, args.per_line))
        return
    number, pieces = 0, []  # the pieces of a line longer than a read, joined once at its newline
    for text in _reads():
        *lines, tail = text.split("\n")  # "\n" only, as sys.stdin splits lines
        if lines:
            lines[0], pieces = "".join([*pieces, lines[0]]), []
        pieces.append(tail)
        records = []
        try:
            for number, line in enumerate(lines, number + 1):
                tokens = line.split()
                if not tokens:
                    continue
                try:
                    values = [*map(float, tokens)]
                except ValueError:
                    raise ValueError(f"malformed input line {line.strip()!r}") from None
                records.append(run(args, *_states_from_values(values, args.per_line)))
        except ValueError as exc:  # parsing, checking or writing; the class is kept, so ORBIT_MISMATCH still exits 3
            yield "".join(records)
            raise type(exc)(f"line {number}: {exc}") from None
        yield "".join(records)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)  # help, too, is written inside the try
        # --tol is checked once, here, for every subcommand that takes it.
        if "tol" in vars(args):
            _checked_tol(args.tol)
        # The subcommand's part is imported only now, so a run compiles none of the others.
        part, _, name = args.handler.partition(".")
        run = getattr(importlib.import_module(f".{part}", __package__), name)
        # classify, prepare and connect make one text per stdin read in _records; mesh and sample return theirs.
        texts = _records(run, args) if args.per_line else run(args)
        if getattr(args, "out", None):
            try:
                with open(args.out, "w", newline="") as fh:  # no newline translation: the file holds stdout's bytes
                    fh.writelines(texts)
            except OSError as exc:  # in opening or in writing: a missing directory and a full disk alike
                raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
            return 0
        for text in texts:  # the one writer of stdout: each text in full and flushed, so a failing stdout shows here
            _write_all(text)
        return 0
    except OrbitMismatchError as exc:
        _error(f"error: ORBIT_MISMATCH: {exc}\n")
        return 3
    except ValueError as exc:
        _error(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
