"""The rule for a failed stdin line, as a property: malformed, else a wrong count, else the line's own error."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from realtwoqubit.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Per command line, its numbers per line and the good line that goes first.
COMMANDS = {"classify": 4, "connect": 8, "connect --local-only": 8}
GOOD = {4: "1 0 0 0", 8: "1 0 0 0 0 1 0 0"}
#: Whole states, so that some drawn lines run: a product state, a maximally entangled one and one between them.
STATES = ["1 0 0 0".split(), ["0.7071067811865476", "0", "0", "0.7071067811865476"], "0.6 0 0 -0.8".split()]
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "1e-3", "+0.25", "-0", "nan", "-inf", "inf", "1_0"]),
    st.floats(-2, 2).map(repr),
)
WORDS = st.text("xyz,.-_é", min_size=1, max_size=45)  # no letter of nan or inf, so never a number
#: Whitespace that str.split() drops: ASCII, a file separator, the ideographic space and a carriage return.
SEPARATORS = st.sampled_from([" ", "\t", "\x1c", "\u3000", "\r"])


@st.composite
def lines(draw):
    """Whole states or any mix of numbers, words and states, one token of it perhaps redrawn, and a separator before
    each token; some lines are led past 80 characters."""
    flat = st.lists(st.sampled_from(STATES), min_size=1, max_size=2).map(lambda states: sum(states, []))
    mixed = st.lists(st.one_of(NUMBERS.map(lambda t: [t]), WORDS.map(lambda t: [t]), st.sampled_from(STATES)))
    tokens = draw(st.one_of(flat, mixed.map(lambda groups: sum(groups, [])[:30])))
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.one_of(NUMBERS, WORDS))
    lead = draw(SEPARATORS) * draw(st.sampled_from([0, 0, 0, 81]))
    return lead + "".join(draw(SEPARATORS) + token for token in tokens)


def _run(argv: list, stdin: str = "") -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# On a failure, Hypothesis's pytest plugin loads libcst to write a patch, and libcst may warn on import.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.parametrize("command", COMMANDS)
@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(line=lines())
def test_a_failed_line_is_judged_by_one_rule(command, line):
    per_line, tokens = COMMANDS[command], line.split()
    good = GOOD[per_line]
    first = _run([*command.split(), *good.split()])[1]
    code, out, err = _run(command.split(), f"{good}\n{line}\n")
    if not tokens:
        assert (code, out, err) == (0, first, "")
        return
    two = first + _run([*command.split(), *tokens])[1] if code == 0 else first
    assert out == two
    if not all(map(_is_number, tokens)):
        assert code == 2
        assert err.startswith("error: line 2: malformed input line")
    elif len(tokens) != per_line:
        assert (code, err) == (2, f"error: line 2: expected {per_line} numbers, got {len(tokens)}\n")
        # argv words the count as stdin does, with no line number.
        alone = _run(command.split(), f"{line}\n")
        assert _run([*command.split(), *tokens]) == (2, "", alone[2].replace("line 1: ", "", 1))
    elif code == 2:
        assert err.startswith(("error: line 2: amplitude components must be finite", "error: line 2: amplitude vector"))
    elif code == 3:
        assert command == "connect --local-only"
        assert err.startswith("error: ORBIT_MISMATCH: line 2: states lie on different orbits")
    else:
        assert (code, err) == (0, "")
