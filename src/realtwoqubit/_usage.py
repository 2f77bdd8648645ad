"""The command line's longer error texts, loaded only when one is written: help and usage errors, formatted from its
subcommand table, and why a stdin line is refused; `cli` writes them and exits."""

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
    """Why a stdin line is refused: a token that is no number, else its count, read a token at a time, not split in full."""
    count = 0
    try:
        for count, match in enumerate(re.finditer(r"\S+", line), 1):  # \S+ splits as str.split() does
            float(match[0])
    except ValueError:
        return f"malformed input line {line.strip()!r}"
    return f"expected {per_line} numbers, got {count}"
