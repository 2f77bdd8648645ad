"""The orbit mesh walk in runs, its CSV and JSON writers (one join per run) and the mesh subcommand: no state code.

The x4 >= 0 cut keeps the upper half of an n-point grid circle by index, not by the sign of a rounded sine: its first
n // 2 + 1 angles 2 pi j / n, those with 2j <= n.  One torus walk serves every d, b a chunk of angles at a time: the
d = 0 circle pair is the a = 0 row of the torus of radii 0 and 1.
"""

import math
from itertools import chain, islice

from ._core import _DOMAIN_SLACK, QUARTER_PI, SHEET_BOTH, SHEET_V12, SHEET_V34, TWO_PI, _checked_distance, _integer

#: Every orbit is walked this many angles of b at a time: a row holds at most twice this many points.
_CHUNK = 128
#: And this many angles of a at a time, each tile's table made once and walked over every chunk of b.
_A_CHUNK = 1024


def _checked_grid(d: float, n_a: int, n_b: int) -> tuple[float, int, int]:
    d = _checked_distance(d)
    # An integer only: int() would truncate 2.9 to 2 and read the string "3".
    if None in (sizes := (_integer(n_a), _integer(n_b))):
        raise ValueError(f"grid sizes must be integers, got ({n_a!r}, {n_b!r})")
    if min(sizes) < 2:
        raise ValueError(f"grid sizes must be at least 2, got {sizes}")
    return (d, *sizes)


def _mesh_rows(d: float, n_a: int, n_b: int, conv, open_, comma, close, between):
    """The points of a checked grid as rows of runs: one non-empty list of non-empty runs per row.

    Every orbit is a product of two circles in the Bell planes, so each
    coordinate is an entry of a per-angle table: the trigonometry runs once
    per grid angle (per tile, for b), and `conv` once per table entry, not
    once per point.  A point is open_ + u1 + comma + u2 + comma + u3 +
    close(sheet), and `between` parts two points: text for the writers,
    tuples for orbit_mesh.
    A run (left, column, right) is the points left + c + right, one per entry
    c of its column, so a writer renders it without code per point.  Either
    u3 varies (V34 and BOTH points), or u1 and u2 do (V12 points), or an entry
    holds a V34 point's u3 and the next point's u1 and u2: the V34/V12
    interleave of an upper-`a` row.  Every d walks a in tiles of _A_CHUNK
    angles and, in each tile, b _CHUNK angles at a time: tile-major in a,
    then chunk-major in b.  A row is, for one chunk of m angles of b, the
    next _CHUNK // m a rows of the tile, so a grid of a few angles of b is not
    written a short row at a time and no row holds more than _CHUNK entries;
    all rows of a tile's chunk come before its next chunk, and a row with no
    point is skipped.  The d = 0 circle pair is the a = 0 row of
    the torus of radii 0 and 1: each upper angle's V34 point, its V12 mirror,
    then the lower V12s.
    """
    if d <= _DOMAIN_SLACK:
        n_a, sd, cd = 1, 0.0, 1.0
    else:
        sd, cd = math.sin(d), math.cos(d)
    # The product torus has no mirror: its one sheet is BOTH.
    mirror = abs(d - QUARTER_PI) > _DOMAIN_SLACK
    v34, v12 = close(SHEET_V34 if mirror else SHEET_BOTH), close(SHEET_V12)
    half_b = n_b // 2 + 1
    for tile in range(0, n_a, _A_CHUNK):
        # A tile of the (x1, x2) circle of radius sin d, and per chunk the x3 entries of the (x3, x4) circle of cos d.
        angles_a = [TWO_PI * i / n_a for i in range(tile, min(tile + _A_CHUNK, n_a))]
        small = [(conv(sd * math.cos(t)), conv(sd * math.sin(t))) for t in angles_a]
        for start in range(0, n_b, _CHUNK):
            angles = [TWO_PI * j / n_b for j in range(start, min(start + _CHUNK, n_b))]
            b1s = [conv(cd * c) for c in map(math.cos, angles)]
            upper = b1s[: max(half_b - start, 0)]
            if mirror:
                # V34 sheet: x4 = cos(d) sin(b); V12 sheet, the planes swapped: x4 = sin(d) sin(a).  In an upper-`a`
                # row an upper b's V34 point comes before its V12 point, and a lower b has its V12 point only.
                pairs = [b1 + comma + conv(cd * s) for b1, s in zip(b1s, map(math.sin, angles))]
                interleave = [b1 + v34 + between + open_ + p for b1, p in zip(upper, pairs)]
                lower = pairs[len(upper) :]
            per = _CHUNK // len(angles)  # a rows to a row of runs, so that it holds at most _CHUNK entries
            for first in range(0, len(small), per):
                row = []
                for i, (a1, a2) in enumerate(small[first : first + per], tile + first):
                    left = open_ + a1 + comma + a2 + comma
                    if mirror and 2 * i <= n_a:
                        row += [
                            (lead, run, comma + a1 + v12) for lead, run in ((left, interleave), (open_, lower)) if run
                        ]
                    elif upper:
                        row.append((left, upper, v34))
                if row:
                    yield row


def _row_texts(rows, between: str):
    """The text of each row of runs, points parted by `between`: a run (left, column, right) in one join.

    map holds no row once its text is made, so a row's strings are freed before the text is written.
    """
    texts = map(
        lambda row: between.join([left + (right + between + left).join(column) + right for left, column, right in row]),
        rows,
    )
    return chain(islice(texts, 1), map(between.__add__, texts))


def mesh_to_csv(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as CSV text: the header u1,u2,u3,d,sheet, then one chunk per row of the walk.

    The points come in orbit_mesh's order, tile-major in a, then chunk-major in b, numbers in full (repr).  A bad
    request raises ValueError here, before any text is made.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    rows = _mesh_rows(d, n_a, n_b, repr, "", ",", lambda sheet: f",{d!r},{sheet}\n", "")
    return chain(["u1,u2,u3,d,sheet\n"], _row_texts(rows, ""))


def mesh_to_json(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as JSON text {"d": d, "points": [{"u": [u1, u2, u3], "sheet": ...}, ...]}.

    d is clamped into [0, pi/4], as in the CSV d column.  One chunk per row of the walk, points tile-major in a, then
    chunk-major in b, as in orbit_mesh.  Joined, byte for byte what json.dumps writes with its default separators for a
    float d, plus a newline.  A bad request raises ValueError here, as in mesh_to_csv.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    rows = _mesh_rows(d, n_a, n_b, repr, '{"u": [', ", ", lambda sheet: f'], "sheet": "{sheet}"}}', ", ")
    return chain([f'{{"d": {d!r}, "points": ['], _row_texts(rows, ", "), ["]}\n"])


def _cmd_mesh(args):
    """The mesh text for main to write to stdout or --out; the writer checks the request now, before --out is opened."""
    return (mesh_to_csv if args.format == "csv" else mesh_to_json)(args.d, args.na, args.nb)
