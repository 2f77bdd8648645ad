"""The orbit mesh walk, its CSV and JSON text writers, and the mesh subcommand's choice of one: no state code."""

import math
from itertools import chain

from ._core import _DOMAIN_SLACK, QUARTER_PI, SHEET_BOTH, SHEET_V12, SHEET_V34, TWO_PI, _checked_distance, _integer

#: The d = 0 circles are walked this many angles at a time, so a long circle never makes a long row.
_CIRCLE_CHUNK = 512


def _angle_grid(n: int, indices: range) -> tuple[list[float], list[float]]:
    """cos t and sin t at t = 2 pi i / n for i in indices."""
    angles = [TWO_PI * i / n for i in indices]
    return list(map(math.cos, angles)), list(map(math.sin, angles))


def _checked_grid(d: float, n_a: int, n_b: int) -> tuple[float, int, int]:
    d = _checked_distance(d)
    # An integer only: int() would truncate 2.9 to 2 and read the string "3".
    if None in (sizes := (_integer(n_a), _integer(n_b))):
        raise ValueError(f"grid sizes must be integers, got ({n_a!r}, {n_b!r})")
    if min(sizes) < 2:
        raise ValueError(f"grid sizes must be at least 2, got {sizes}")
    return (d, *sizes)


def _mesh_rows(d: float, n_a: int, n_b: int, conv):
    """The (u1, u2, u3, sheet) of the mesh points, one non-empty list per row, for a checked grid.

    Every orbit is a product of two circles in the Bell planes, so each
    coordinate is an entry of a per-angle table: the trigonometry runs once
    per grid angle, and `conv` once per table entry, not once per point.  A
    row is one grid row of a torus, or at most _CIRCLE_CHUNK angles of a
    d = 0 circle, whose table is made per chunk.
    """
    if d <= _DOMAIN_SLACK:
        zero = conv(0.0)

        def chunks():
            # Each circle is walked on its own, one chunk's table at a time.
            for i in range(0, n_b, _CIRCLE_CHUNK):
                yield _angle_grid(n_b, range(i, min(i + _CIRCLE_CHUNK, n_b)))

        for cos_b, sin_b in chunks():
            # E(v3,v4): (0, 0, cos t, sin t); the x4 >= 0 cut keeps half of it.
            row = [(zero, zero, conv(c), SHEET_V34) for c, s in zip(cos_b, sin_b) if s >= 0.0]
            if row:
                yield row
        for cos_b, sin_b in chunks():
            # E(v1,v2): (cos t, sin t, 0, 0) has x4 = 0 identically: kept whole.
            yield [(conv(c), conv(s), zero, SHEET_V12) for c, s in zip(cos_b, sin_b)]
        return
    cos_b, sin_b = _angle_grid(n_b, range(n_b))
    sd, cd = math.sin(d), math.cos(d)
    # The (x1, x2) circle of radius sin d and the (x3, x4) circle of radius
    # cos d, with the sign test of each circle's second coordinate.
    small = [(conv(sd * c), conv(sd * s), s >= 0.0) for c, s in zip(*_angle_grid(n_a, range(n_a)))]
    large = [(conv(cd * c), conv(cd * s), s >= 0.0) for c, s in zip(cos_b, sin_b)]
    if abs(d - QUARTER_PI) <= _DOMAIN_SLACK:
        large_upper = [b1 for b1, _, b_up in large if b_up]
        for a1, a2, _ in small:
            yield [(a1, a2, b1, SHEET_BOTH) for b1 in large_upper]
        return
    for a1, a2, a_up in small:
        row = []
        for b1, b2, b_up in large:
            # V34 sheet: x4 = cos(d) sin(b)
            if b_up:
                row.append((a1, a2, b1, SHEET_V34))
            # V12 sheet: planes swapped, x4 = sin(d) sin(a)
            if a_up:
                row.append((b1, b2, a1, SHEET_V12))
        yield row


def mesh_to_csv(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as CSV text: the header u1,u2,u3,d,sheet, then one chunk per grid row.

    Numbers in full (repr).  A bad request raises ValueError here, before any text is made.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    tail = f",{d!r},"
    rows = _mesh_rows(d, n_a, n_b, repr)
    text = ("".join([f"{u1},{u2},{u3}{tail}{sheet}\n" for u1, u2, u3, sheet in row]) for row in rows)
    return chain(["u1,u2,u3,d,sheet\n"], text)


def mesh_to_json(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as JSON text {"d": d, "points": [{"u": [u1, u2, u3], "sheet": ...}, ...]}.

    d is clamped into [0, pi/4], as in the CSV d column.  One chunk per grid row.  Joined, byte for byte what
    json.dumps writes with its default separators for a float d, plus a newline.  A bad request raises ValueError
    here, as in mesh_to_csv.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    rows = _mesh_rows(d, n_a, n_b, repr)
    text = (
        (", " if i else "") + ", ".join([f'{{"u": [{u1}, {u2}, {u3}], "sheet": "{s}"}}' for u1, u2, u3, s in row])
        for i, row in enumerate(rows)
    )
    return chain([f'{{"d": {d!r}, "points": ['], text, ["]}\n"])


def _cmd_mesh(args):
    """The mesh text for main to write to stdout or --out; the writer checks the request now, before --out is opened."""
    return (mesh_to_csv if args.format == "csv" else mesh_to_json)(args.d, args.na, args.nb)
