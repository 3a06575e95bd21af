"""The input policy: one set of field checks, in errors.py and nowhere else."""

import enum
import re
from pathlib import Path

import pytest

from covertower import errors
from covertower.errors import (
    DimensionMismatch,
    NonIntegerWeights,
    integer,
    integers,
    integral,
    need,
    rational,
    sequence,
    words,
)

# an isinstance test against bool, or an exact type test against int
POLICY = re.compile(r"isinstance\(.*\bbool\b|\btype\(.*\)\s+is\s+(not\s+)?int\b")


def test_only_errors_spells_the_integer_policy():
    package = Path(errors.__file__).resolve().parent
    spelled = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if POLICY.search(line)
    ]
    assert spelled == []


def test_the_guard_pattern_sees_each_spelling():
    for line in (
        "if isinstance(x, bool) or not isinstance(x, int):",
        "if not isinstance(value, (bool, float)):",
        "if type(x) is int:",
        "if type(v) is not int:",
    ):
        assert POLICY.search(line), line
    assert not POLICY.search("if is_int(x) and type(x) is Fraction:")


@pytest.mark.parametrize("check, message", [
    (lambda: need(5, str, "name", DimensionMismatch), "^name must be a str, got 5$"),
    (lambda: integer(True, "genus", DimensionMismatch), "^genus must be an integer, got True$"),
    (lambda: integer(2.0, "genus", DimensionMismatch), r"^genus must be an integer, got 2\.0$"),
    (lambda: integer(1, "genus", DimensionMismatch, low=2),
     "^genus must be an integer at least 2, got 1$"),
    (lambda: sequence(5, "weights", DimensionMismatch), "^weights must be a sequence, got 5$"),
    (lambda: sequence((1, 2), "weights", DimensionMismatch, 3), "^expected 3 weights, got 2$"),
    (lambda: integers((1, "2"), "perms[0]", DimensionMismatch),
     r"^perms\[0\]\[1\] must be an integer, got '2'$"),
    (lambda: words(((1,), (0,)), "fwd", 2, DimensionMismatch),
     r"^fwd\[1\] must be a word in letters 0 < \|x\| <= 4, got \(0,\)$"),
    (lambda: words(((1,), (-5,)), "fwd", 2, DimensionMismatch), r"^fwd\[1\] must be a word"),
    (lambda: words(((1,), 5), "fwd", 2, DimensionMismatch),
     r"^fwd\[1\] must be a sequence, got 5$"),
    (lambda: integer("x" * 60, "genus", DimensionMismatch),
     "^genus must be an integer, got 'x{39}$"),  # the value is cut to 40 characters
])
def test_messages_begin_with_the_field(check, message):
    with pytest.raises(DimensionMismatch, match=message):
        check()


def test_checks_return_the_value_as_read():
    assert integer(3, "n", DimensionMismatch, low=3) == 3
    assert sequence([1, 2], "xs", DimensionMismatch, 2) == (1, 2)
    assert integers([0, -4], "xs", DimensionMismatch) == (0, -4)
    assert words([[1, -4], []], "w", 2, DimensionMismatch) == ((1, -4), ())


def test_int_subclasses_pass_the_per_entry_path():
    """The bulk paths take plain ints only; an int subclass other than bool
    is still an integer, as is_int says."""
    one = enum.IntEnum("Letter", "A").A
    assert integers([one, 2], "xs", DimensionMismatch) == (one, 2)
    assert words([[one, -1]], "w", 1, DimensionMismatch) == ((one, -1),)
    with pytest.raises(DimensionMismatch, match=r"^xs\[1\] must be an integer, got True$"):
        integers([one, True], "xs", DimensionMismatch)


@pytest.mark.parametrize("value, expected", [(2, 2), (2.0, 2), (-3.0, -3)])
def test_integral_numbers_are_read_as_ints(value, expected):
    got = integral(value, "x")
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [True, 1.5, "1", None, float("nan"), float("inf")])
def test_integral_rejects_everything_else(value):
    with pytest.raises(NonIntegerWeights, match="^x must be"):
        integral(value, "x")
    if value != 1.5:
        with pytest.raises(NonIntegerWeights, match="^x must be a number"):
            rational(value, "x")
