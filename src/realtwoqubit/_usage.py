"""Help and usage errors of the command line, printed from its subcommand table."""

import sys


def _help_or_error(commands: dict, command: str, error: str = ""):
    """Print help to stdout and exit 0, or a usage error to stderr and exit 2."""
    if command:
        blurb, _, per_line, flags = commands[command]
        rows = [(f"{f} {dest.upper()}" if convert else f, text) for f, (dest, convert, _, text) in flags.items()]
        rows += [("W ...", f"{per_line} numbers, or none to read lines from stdin")] * bool(per_line)
        usage = f"usage: realtwoqubit {command} [-h] {' '.join(f'[{a}]' for a, _ in rows)}"
    else:
        blurb = "Orbit classification and circuit synthesis for real-amplitude two-qubit states."
        rows = [(name, entry[0]) for name, entry in commands.items()]
        usage = f"usage: realtwoqubit [-h] {{{','.join(commands)}}} ..."
    help_text = "\n".join([usage, "", blurb, "", *(f"  {a:<16} {b}" for a, b in rows)])
    print(f"{usage}\nrealtwoqubit: error: {error}" if error else help_text, file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)
