"""The command line's longer error texts, loaded only when one is written: help and usage errors, formatted from
`_argv`'s subcommand table, and a failed stdin line's error, numbered; `cli` writes them and exits.  A failed line
is malformed if a token is no number, else refused for its count, else keeps its error; a malformed line of over
80 characters is named by its length and its first bad token, cut to 40 characters, at its 1-based column."""

import re

from ._argv import _COMMANDS


def _help_or_error(command: str, error: str = "") -> str:
    """The help text, or the usage line and the error line, each line ending in a newline."""
    if command:
        blurb, _, per_line, flags = _COMMANDS[command]
        rows = [(f"{f} {dest.upper()}" if convert else f, text) for f, (dest, convert, _, text) in flags.items()]
        rows += [("W ...", f"{per_line} numbers, or none to read lines from stdin")] * bool(per_line)
        usage = f"usage: realtwoqubit {command} [-h] {' '.join(f'[{a}]' for a, _ in rows)}"
    else:
        blurb = "Orbit classification and circuit synthesis for real-amplitude two-qubit states."
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
        usage = f"usage: realtwoqubit [-h] {{{','.join(_COMMANDS)}}} ..."
    if error:
        return f"{usage}\nrealtwoqubit: error: {error}\n"
    return "\n".join([usage, "", blurb, "", *(f"  {a:<16} {b}" for a, b in rows), ""])


def _numbered(exc: ValueError, lines: list, rows: list, done: int, per_line: int, number: int) -> ValueError:
    """The error of the first stdin line past `done` non-blank rows (a blank row is empty), led by `line N: `, N
    counted from `number`.  Its tokens are read and floated once, the line not split in full: a token that is no
    number makes it malformed, else a count other than per_line is refused, else exc keeps its text and class.
    """
    index = [i for i, row in enumerate(rows) if row][done]
    line, count = lines[index], 0
    try:
        for count, match in enumerate(re.finditer(r"\S+", line), 1):  # \S+ splits as str.split() does
            float(match[0])
        if count != per_line:
            exc = ValueError(f"expected {per_line} numbers, got {count}")
    except ValueError:
        token = f"{match[0][:40]!r}{'...' * (len(match[0]) > 40)}"
        where = repr(line.strip()) if len(line) <= 80 else f"of {len(line)} characters: {token} at column {match.start() + 1}"
        exc = ValueError(f"malformed input line {where}")
    return type(exc)(f"line {number + index + 1}: {exc}")
