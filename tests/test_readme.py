"""The README's Quick tour runs as written and gives the values in its comments."""

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_block() -> str:
    text = README.read_text()
    section = text[text.index("## Quick tour") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_quick_tour_values():
    ns: dict = {}
    exec(compile(quick_tour_block(), str(README), "exec"), ns)
    assert len(ns["covers"]) == 15
    cx = ns["cx"]
    assert cx.genus == 3
    assert cx.pushforward(ns["t"]) == [2, 0, 0, 0]
    u, v = ns["u"], ns["v"]
    assert ns["normalized_pairing"](u, v) == Fraction(1)
    table = ns["pairing_table"]([u, v], [u, v])
    assert table == [[0, 1], [-1, 0]]
    assert all(type(x) is Fraction for row in table for x in row)
    matrix, track = ns["matrix"], ns["track"]
    assert all(x in (0, 1) for row in matrix.matrix for x in row)
    assert [sum(row[b] for row in matrix.matrix) for b in range(track.n_branches)] == [2, 2, 2]
    lifted = ns["lifted"]
    lifted.track.validate_weights(matrix.apply((2, 1, 1)))
