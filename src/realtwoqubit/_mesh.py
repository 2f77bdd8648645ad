"""The orbit mesh walk in runs, its CSV and JSON writers (one join per run) and the mesh subcommand: no state code.

The x4 >= 0 cut keeps the upper half of an n-point grid circle by index, not by the sign of a rounded sine: its first
n // 2 + 1 angles 2 pi j / n, those with 2j <= n.  At d = 0 the circles are walked a chunk of angles at a time.
"""

import math
from itertools import chain, islice

from ._core import _DOMAIN_SLACK, QUARTER_PI, SHEET_BOTH, SHEET_V12, SHEET_V34, TWO_PI, _checked_distance, _integer

#: The d = 0 circles are walked this many angles at a time, so a long circle never makes a long row.
_CIRCLE_CHUNK = 512


def _angle_grid(n: int) -> tuple[list[float], list[float]]:
    """cos t and sin t at the n grid angles t = 2 pi i / n."""
    angles = [TWO_PI * i / n for i in range(n)]
    return list(map(math.cos, angles)), list(map(math.sin, angles))


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
    per grid angle, and `conv` once per table entry, not once per point.  A
    point is open_ + u1 + comma + u2 + comma + u3 + close(sheet), and
    `between` parts two points: text for the writers, tuples for orbit_mesh.
    A run (left, columns, right) is the points left + c_1 + ... + c_k + right,
    one per index of its k equal-length columns, whose entries are made once
    per table, so a writer renders it without code per point.  A torus run
    has one column: either u3 varies (V34 and BOTH points), or u1 and u2 do
    (V12 points), or an entry holds a V34 point's u3 and the next point's u1
    and u2: the V34/V12 interleave of an upper-`a` row.  A row is one grid
    row of a torus, or at most _CIRCLE_CHUNK angles of a d = 0 circle, whose
    table is made per chunk.  The halved circle's walk covers its upper
    angles only; the whole circle's runs are the columns cos t, comma and sin t.
    """
    v34, v12 = close(SHEET_V34), close(SHEET_V12)
    half_b = n_b // 2 + 1
    if d <= _DOMAIN_SLACK:
        zero = conv(0.0)
        # Each circle is walked on its own, one chunk's table at a time.
        left = open_ + zero + comma + zero + comma
        for i in range(0, half_b, _CIRCLE_CHUNK):
            # E(v3,v4): (0, 0, cos t, sin t), halved.
            angles = [TWO_PI * j / n_b for j in range(i, min(i + _CIRCLE_CHUNK, half_b))]
            yield [(left, ([*map(conv, map(math.cos, angles))],), v34)]
        right = comma + zero + v12
        for i in range(0, n_b, _CIRCLE_CHUNK):
            # E(v1,v2): (cos t, sin t, 0, 0) has x4 = 0 identically: kept whole.
            angles = [TWO_PI * j / n_b for j in range(i, min(i + _CIRCLE_CHUNK, n_b))]
            # No local holds a column, so it dies with its row; each cosine and sine dies with its repr.
            cos_t, sin_t = map(conv, map(math.cos, angles)), map(conv, map(math.sin, angles))
            yield [(open_, ([*cos_t], [comma] * len(angles), [*sin_t]), right)]
        return
    cos_b, sin_b = _angle_grid(n_b)
    sd, cd = math.sin(d), math.cos(d)
    # The (x1, x2) circle of radius sin d, and the x3 entries of the (x3, x4) circle of radius cos d.
    small = [(conv(sd * c), conv(sd * s)) for c, s in zip(*_angle_grid(n_a))]
    b1s = [conv(cd * c) for c in cos_b]
    upper = b1s[:half_b]
    if abs(d - QUARTER_PI) <= _DOMAIN_SLACK:
        for a1, a2 in small:
            yield [(open_ + a1 + comma + a2 + comma, (upper,), close(SHEET_BOTH))]
        return
    # V34 sheet: x4 = cos(d) sin(b); V12 sheet, the planes swapped: x4 = sin(d) sin(a).  In an upper-`a` row an upper
    # b's V34 point comes before its V12 point, and a lower b has its V12 point only.
    pairs = [b1 + comma + conv(cd * s) for b1, s in zip(b1s, sin_b)]
    interleave = [b1 + v34 + between + open_ + p for b1, p in zip(upper, pairs)]
    lower = pairs[half_b:]
    for i, (a1, a2) in enumerate(small):
        left = open_ + a1 + comma + a2 + comma
        if 2 * i <= n_a:
            yield [(lead, (pieces,), comma + a1 + v12) for lead, pieces in ((left, interleave), (open_, lower)) if pieces]
        else:
            yield [(left, (upper,), v34)]


def _run_text(left: str, columns, right: str, between: str) -> str:
    """A run's points parted by `between`, in one join."""
    sep = right + between + left
    if len(columns) == 1:
        return left + sep.join(columns[0]) + right
    # Each point is its column entries then sep: slice them into one parts list, the last sep made right.
    k = len(columns) + 1
    parts = [sep] * (k * len(columns[0]))
    for j, column in enumerate(columns):
        parts[j::k] = column
    parts[-1] = right
    return left + "".join(parts)


def _row_texts(rows, between: str):
    """The text of each row of runs, points parted by `between`.

    map holds no row once its text is made, so a row's strings are freed before the text is written.
    """
    texts = map(lambda row: between.join([_run_text(*run, between) for run in row]), rows)
    return chain(islice(texts, 1), map(between.__add__, texts))


def mesh_to_csv(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as CSV text: the header u1,u2,u3,d,sheet, then one chunk per grid row.

    Numbers in full (repr).  A bad request raises ValueError here, before any text is made.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    rows = _mesh_rows(d, n_a, n_b, repr, "", ",", lambda sheet: f",{d!r},{sheet}\n", "")
    return chain(["u1,u2,u3,d,sheet\n"], _row_texts(rows, ""))


def mesh_to_json(d: float, n_a: int, n_b: int):
    """orbit_mesh(d, n_a, n_b) as JSON text {"d": d, "points": [{"u": [u1, u2, u3], "sheet": ...}, ...]}.

    d is clamped into [0, pi/4], as in the CSV d column.  One chunk per grid row.  Joined, byte for byte what
    json.dumps writes with its default separators for a float d, plus a newline.  A bad request raises ValueError
    here, as in mesh_to_csv.
    """
    d, n_a, n_b = _checked_grid(d, n_a, n_b)
    rows = _mesh_rows(d, n_a, n_b, repr, '{"u": [', ", ", lambda sheet: f'], "sheet": "{sheet}"}}', ", ")
    return chain([f'{{"d": {d!r}, "points": ['], _row_texts(rows, ", "), ["]}\n"])


def _cmd_mesh(args):
    """The mesh text for main to write to stdout or --out; the writer checks the request now, before --out is opened."""
    return (mesh_to_csv if args.format == "csv" else mesh_to_json)(args.d, args.na, args.nb)
