"""The input policy: one set of field checks, in errors.py and nowhere else."""

import ast
import enum
import re
from pathlib import Path

import pytest

from covertower import errors
from covertower.errors import (
    BadDegree,
    DimensionMismatch,
    IncompatibleTower,
    NonIntegerWeights,
    checked_cache,
    genus_key,
    integer,
    integers,
    integral,
    need,
    rational,
    sequence,
    words,
)
from covertower.covers import trivial_cover
from covertower.homology import surface_complex
from covertower.limits import (
    base_class_element,
    homology_shadow,
    limit_equal,
    normalized_pairing,
    pairing_table,
)
from covertower.traintrack import (
    CarryingMatrix,
    carrying_compose,
    lift_track,
    three_branch_example,
)
from covertower.vauts import (
    identity_vaut,
    pairing_preserved,
    restrict_vaut,
    vaut_act_track,
    vaut_from_automorphism,
)
from conftest import double_cover_from_signs

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
    value = object()
    assert need(value, object, "x", DimensionMismatch) is value
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


ELEMENT = base_class_element(2, (1, 0, 0, 0))
VAUT = identity_vaut(2)
MATRIX = lift_track(three_branch_example(), trivial_cover(2))[1]


@pytest.mark.parametrize("function, args, message", [
    (limit_equal, (1, 2), "e1 must be a LimitElement"),
    (limit_equal, (ELEMENT, 2), "e2 must be a LimitElement"),
    (normalized_pairing, ("e", ELEMENT), "e1 must be a LimitElement"),
    (normalized_pairing, (ELEMENT, None), "e2 must be a LimitElement"),
    (pairing_table, ([ELEMENT, 1], [ELEMENT]), r"rows\[1\] must be a LimitElement"),
    (pairing_table, ([ELEMENT], (ELEMENT, "x")), r"cols\[1\] must be a LimitElement"),
    (pairing_table, (1, [ELEMENT]), "rows must be a sequence"),
    (pairing_preserved, (1, ELEMENT, ELEMENT), "vaut must be a TwoArrowVaut"),
    (pairing_preserved, (VAUT, 1, ELEMENT), "e1 must be a LimitElement"),
    (pairing_preserved, (VAUT, ELEMENT, [1]), "e2 must be a LimitElement"),
    (homology_shadow, (1,), "element must be a LimitElement"),
    (VAUT.forward_word, (5,), "word must be a sequence"),
    (vaut_from_automorphism, (1,), "aut must be a degree-1 TwoArrowVaut"),
    (vaut_act_track, ("vaut", ELEMENT), "vaut must be a TwoArrowVaut"),
    (carrying_compose, (1, MATRIX), "first must be a CarryingMatrix"),
    (carrying_compose, (MATRIX, 1), "second must be a CarryingMatrix"),
    (CarryingMatrix, ("x", MATRIX.target, MATRIX.matrix), "source must be a TrainTrack"),
    (CarryingMatrix, (MATRIX.source, None, MATRIX.matrix), "target must be a TrainTrack"),
])
def test_public_functions_name_an_argument_of_the_wrong_type(function, args, message):
    """IncompatibleTower names the parameter; no bare AttributeError or TypeError."""
    with pytest.raises(IncompatibleTower, match=f"^{message}, got "):
        function(*args)


# a1 moves sheet 0 of the left cover, so the word (1,) is no stabilizer word
RESTRICTED = restrict_vaut(VAUT, double_cover_from_signs(2, (1, 0, 0, 0)))


@pytest.mark.parametrize("word, message", [
    ((0,), r"word must be a word in letters 0 < \|x\| <= 4, got \(0,\)"),
    ((9,), r"word must be a word in letters 0 < \|x\| <= 4, got \(9,\)"),
    ((1,), r"word must fix the {side} cover's basepoint, got \(1,\)"),
], ids=["letter-zero", "letter-out-of-range", "not-a-stabilizer-word"])
def test_vaut_words_name_a_word_they_cannot_push(word, message):
    """Never read as another letter, an IndexError or a bare ValueError."""
    for push, side in ((RESTRICTED.forward_word, "left"), (RESTRICTED.backward_word, "right")):
        with pytest.raises(IncompatibleTower, match=f"^{message.format(side=side)}$"):
            push(word)


@pytest.mark.parametrize("chain, error, message", [
    (5, DimensionMismatch, "chain must be a sequence, got 5"),
    ([1, 0, 0], DimensionMismatch, "chain has wrong length"),
    ([1.5] * 4, NonIntegerWeights, r"chain\[0\] must be an integer, got 1\.5"),
    ([0, "a", 0, 0], NonIntegerWeights, r"chain\[1\] must be a number, got 'a'"),
    ([0, 0, True, 0], NonIntegerWeights, r"chain\[2\] must be a number, got True"),
], ids=["int", "short", "float", "str", "bool"])
def test_pushforward_names_a_chain_entry_that_is_not_an_integer(chain, error, message):
    """Never a float image, a bool read as 1, or a bare TypeError."""
    cx = surface_complex(trivial_cover(2))
    with pytest.raises(error, match=f"^{message}$"):
        cx.pushforward(chain)
    got = cx.pushforward([2.0, 0, 0, -1])
    assert got == [2, 0, 0, -1] and all(type(x) is int for x in got)


def test_checked_cache_keys_a_call_by_what_check_returns():
    """Positional and keyword calls share one entry, because the key is the
    check's return value; a rejected call is no lookup."""
    @checked_cache(genus_key)
    def build(genus: int) -> list:
        return [genus]

    assert build(2) is build(genus=2)
    with pytest.raises(BadDegree, match=r"^genus must be an integer at least 2, got \[2\]$"):
        build([2])
    info = build.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert build.__wrapped__(3) == [3] and build.cache_info() == info
    build.cache_clear()
    assert build.cache_info().currsize == 0


def test_lru_cache_only_behind_checked_cache():
    """The package caches only through errors.checked_cache, apart from
    covers._enumerate_cached, which perfbench reads by that name; so a new
    cached builder checks its arguments before the cache hashes them."""
    package = Path(errors.__file__).resolve().parent
    uses = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in ("lru_cache", "cache"):
                    uses.add((path.name, getattr(top, "name", None)))
    assert uses == {("errors.py", "checked_cache"), ("covers.py", "_enumerate_cached")}
