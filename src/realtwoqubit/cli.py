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
orbits (...)`; errors in argv name no line.  `_records` splits each line of
a read once, and `_state._fill` makes the read's records in one pipeline of
maps, with no Python loop per line: float, `_unit`, which validates each
input state once, and the record maker on plain 4-tuples.  Each record is one
f-string of reprs, byte for byte what json.dumps writes.  Only when a line
fails does `_usage` find its number and word its error.  Stdin is taken a
read at a time, as much as it holds, and the records of each read are one
text; mesh and sample return their chunks.  This module alone reads stdin and
writes stdout, stderr and --out, so the core does no I/O: `main` writes each
text in full and flushed at once by `_write_all`, help too, so no record is
held while the program waits for input, the records before a bad line stay,
and a stdout that fails ends every run with exit 1, under `python -u` too.

The argv grammar is `_argv`'s, which does no I/O: `main` writes the help or
usage error that `parse_args` raises, formatted by `_usage`.

At start-up only `codecs`, `errno`, `importlib`, `os`, `sys`, `types` (all
loaded by the interpreter already), the core's base `_core` and the grammar
`_argv` are imported.  A subcommand imports its part of the core as it runs:
`_state` with `_classify` or `_synthesis`, `_mesh` alone, or `_sample` with
`_mesh` and `_state`, and help, usage errors and a failed stdin line
`_usage`.  So a run compiles no part it does not run and loads neither
argparse nor dataclasses nor the object API.
"""

import codecs
import errno
import importlib
import os
import sys

from ._argv import _COMMANDS, _Usage, parse_args
from ._core import OrbitMismatchError, _checked_tol

#: Bytes per stdin read: the chunk size of sys.stdin itself, so a decoding error names the same position.
_READ_SIZE = 8192


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
    in-memory stream never waits, and is read _READ_SIZE characters at a time.
    """
    if sys.stdin is None:  # fd 0 closed at start-up
        raise ValueError("no stdin")
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        while text := sys.stdin.read(_READ_SIZE):
            yield text
        yield "\n"
        return
    decode = codecs.getincrementaldecoder(sys.stdin.encoding)(sys.stdin.errors).decode
    while chunk := buffer.read1(_READ_SIZE):
        yield decode(chunk)
    yield decode(b"", True) + "\n"


def _records(run, args):
    """Yield the records of the inputs, one text per stdin read: the argv numbers, else each non-blank stdin line.

    Each line is split once, into at most per_line + 1 tokens, so a long line keeps its rest in one piece.  The rows
    before the first non-blank one of a wrong count go through `_state._fill` in one pipeline; then that row is refused.
    A stdin line's errors are led by `line N: `; the records of the lines before it in its read are yielded first.
    """
    from ._state import _fill

    per_line, number, pieces = args.per_line, 0, []  # pieces: those of a line longer than a read, joined at its newline
    if args.values:  # one row, whose errors name no line
        records = []
        _fill(records, run, args, [args.values])
        yield records[0]
        return
    for text in _reads():
        *lines, tail = text.split("\n")  # "\n" only, as sys.stdin splits lines
        del text  # like the tokens below: a read's text, its tokens and its joined records are not all held at once
        if lines:
            lines[0], pieces = "".join([*pieces, lines[0]]), []
        pieces.append(tail)
        rows = [line.split(None, per_line) for line in lines]
        records = []
        try:
            _fill(records, run, args, rows)
        except ValueError as exc:  # parsing, checking or writing; the class is kept, so ORBIT_MISMATCH still exits 3
            yield "".join(records)
            from ._usage import _numbered  # compiled only when a line fails

            raise _numbered(exc, lines, rows, len(records), per_line, number) from None
        number += len(rows)
        del rows
        yield "".join(records)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
    except _Usage as exc:  # help to stdout and exit 0, or a usage error to stderr and exit 2; `_usage` is loaded only now
        from ._usage import _help_or_error

        (_error if exc.error else _write_all)(_help_or_error(_COMMANDS, exc.command, exc.error))
        raise SystemExit(2 if exc.error else 0) from None
    except OrbitMismatchError as exc:
        _error(f"error: ORBIT_MISMATCH: {exc}\n")
        return 3
    except ValueError as exc:
        _error(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
