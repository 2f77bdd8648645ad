"""The command line's longer error texts, loaded only when one is written: help and usage errors, formatted from its
subcommand table, and a failed stdin line's error, numbered; `cli` writes them and exits."""

import re


def _help_or_error(commands: dict, command: str, error: str = "") -> str:
    """The help text, or the usage line and the error line, each line ending in a newline."""
    if command:
        blurb, _, per_line, flags = commands[command]
        rows = [(f"{f} {dest.upper()}" if convert else f, text) for f, (dest, convert, _, text) in flags.items()]
        rows += [("W ...", f"{per_line} numbers, or none to read lines from stdin")] * bool(per_line)
        usage = f"usage: realtwoqubit {command} [-h] {' '.join(f'[{a}]' for a, _ in rows)}"
    else:
        blurb = "Orbit classification and circuit synthesis for real-amplitude two-qubit states."
        rows = [(name, entry[0]) for name, entry in commands.items()]
        usage = f"usage: realtwoqubit [-h] {{{','.join(commands)}}} ..."
    if error:
        return f"{usage}\nrealtwoqubit: error: {error}\n"
    return "\n".join([usage, "", blurb, "", *(f"  {a:<16} {b}" for a, b in rows), ""])


def _refusal(line: str, per_line: int) -> str:
    """Why a stdin line is refused: a token that is no number, else its count, read a token at a time, not split in full.

    A line of more than 80 characters is named by its length and its first bad token, cut to 40 characters, at its
    1-based column, so that the message stays short however long the line.
    """
    count = 0
    try:
        for count, match in enumerate(re.finditer(r"\S+", line), 1):  # \S+ splits as str.split() does
            float(match[0])
    except ValueError:
        if len(line) <= 80:
            return f"malformed input line {line.strip()!r}"
        token = f"{match[0][:40]!r}{'...' * (len(match[0]) > 40)}"
        return f"malformed input line of {len(line)} characters: {token} at column {match.start() + 1}"
    return f"expected {per_line} numbers, got {count}"


def _numbered(exc: ValueError, lines: list, rows: list, done: int, per_line: int, number: int) -> ValueError:
    """The error of the first stdin line past `done` non-blank rows, led by `line N: `, N counted from `number`.

    Blank rows are empty lists, as str.split() makes of a line that is empty or all whitespace.  A line of a wrong
    count, or with a token that is no number, is refused by _refusal; any other error keeps its text and class.
    """
    index = [i for i, row in enumerate(rows) if row][done]
    try:
        if len(rows[index]) != per_line:
            raise ValueError
        [*map(float, rows[index])]
    except ValueError:
        return ValueError(f"line {number + index + 1}: {_refusal(lines[index], per_line)}")
    return type(exc)(f"line {number + index + 1}: {exc}")
