"""Classification of a plain-float state, the entropy from the concurrence, and the classify record."""

import math

from ._core import _DOMAIN_SLACK, QUARTER_PI, SHEET_BOTH, SHEET_V12, SHEET_V34, _number
from ._state import _concurrence, _distance, _to_bell, on_v34_side

MAX_ENTANGLED = "max_entangled"
GENERIC = "generic"
PRODUCT = "product"

#: Classification snaps to the orbit-family boundaries within this.
DEFAULT_CLASS_TOL = 1e-9

_LN2 = math.log(2.0)


def _classify(state, bell) -> tuple[str, float, str]:
    """(kind, d, sheet) of a state whose Bell coordinates are `bell`; see geometry.classify."""
    d = _distance(bell)
    if d <= DEFAULT_CLASS_TOL:
        kind = MAX_ENTANGLED
    elif abs(d - QUARTER_PI) <= DEFAULT_CLASS_TOL:
        return PRODUCT, d, SHEET_BOTH
    else:
        kind = GENERIC
    return kind, d, SHEET_V34 if on_v34_side(state) else SHEET_V12


def entropy_from_concurrence(c: float) -> float:
    """Entanglement entropy (base 2) of a state with concurrence c in [0, 1].

    Binary entropy of p = (1 + sqrt(1 - c^2))/2 (Wootters, PRL 80, 2245
    (1998)).  The smaller probability is formed as
    1 - p = c^2 / (2 (1 + sqrt(1 - c^2))) and its complement's logarithm with
    log1p, so nothing cancels near the product torus, where the entropy is
    tiny; the 0*log2(0) limit at c = 0 is taken as 0.  A number within
    _DOMAIN_SLACK of [0, 1] is clamped into it; nan or anything else raises ValueError.
    """
    if (value := _number(c)) is None or not -_DOMAIN_SLACK <= value <= 1.0 + _DOMAIN_SLACK:
        raise ValueError(f"concurrence must be a number in [0, 1], got {c!r}")
    return _entropy(value)


def _entropy(c: float) -> float:
    # entropy_from_concurrence unchecked, for a concurrence the package computed: its rounding is clamped away.
    c = min(max(c, 0.0), 1.0)
    q = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    if q == 0.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log1p(-q) / _LN2


def _classify_record(args, state: tuple) -> str:
    x1, x2, x3, x4 = bell = _to_bell(state)
    kind, d, sheet = _classify(state, bell)
    c = _concurrence(state)
    # The entropy comes from C rather than d: near the product torus d has too few digits.
    return (
        f'{{"d": {d!r}, "entropy": {_entropy(c)!r}, "class": "{kind}", '
        f'"sheet": "{sheet}", "bell": [{x1!r}, {x2!r}, {x3!r}, {x4!r}], "concurrence": {c!r}}}\n'
    )
