"""Help and usage errors of the command line, formatted from its subcommand table; `cli` writes them and exits."""


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
