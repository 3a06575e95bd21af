import json
import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covertower import documents
from covertower.characteristic import is_characteristic, shipped_automorphisms
from covertower.covers import arrow_to_trivial, enumerate_covers, trivial_cover
from covertower.documents import (
    DocumentError,
    counterexample_document,
    cover_document,
    cycle_document,
    dumps_canonical,
    element_document,
    lifted_track_document,
    parse_automorphisms,
    parse_counterexample,
    parse_cover,
    parse_cycle,
    parse_element,
    parse_rational,
    parse_track,
    parse_track_element,
    parse_vaut,
    rational_str,
    track_document,
    track_element_document,
    vaut_document,
)
from covertower.errors import CovertowerError
from covertower.homology import surface_complex
from covertower.limits import (
    base_class_element,
    cycle_element,
    lift_element,
    limit_equal,
    track_element,
)
from covertower.traintrack import lift_track, three_branch_example
from covertower.vauts import (
    identity_vaut,
    restrict_vaut,
    vaut_act,
)
from covertower.verify import SUITES, replay_counterexample
from conftest import double_cover_from_signs


def test_rational_round_trip():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(-4)) == "-4"
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    with pytest.raises(DocumentError):
        parse_rational("x/y")
    with pytest.raises(DocumentError):
        parse_rational("1/0")


def test_dumps_canonical_is_deterministic():
    doc = {"b": 1, "a": [3, 2], "c": {"y": 0, "x": 1}}
    out = dumps_canonical(doc)
    assert out == dumps_canonical(json.loads(out))
    assert out.endswith("\n")
    assert out == '{"a":[3,2],"b":1,"c":{"x":1,"y":0}}\n'


# Both encoder paths: the C encoder built at import, and the JSONEncoder
# fallback that runs where Python has no _json accelerator.
ENCODER_PATHS = {"c": documents._ITERENCODE, "fallback": None}

# Strings lean towards what JSON must escape: quotes, backslashes, control
# characters, non-ASCII and astral characters.
ESCAPES = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\té\u2028\U0001f600'))
ENCODABLE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64), 10**100])
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
    | ESCAPES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(ESCAPES, inner, max_size=4),
    max_leaves=10,
)


def test_cyclic_input_ends_in_recursion_error():
    """The C encoder is built, and keeps no circular-reference markers:
    documents are trees.  The fallback would raise ValueError here."""
    loop = []
    loop.append({"a": loop})
    with pytest.raises(RecursionError):
        dumps_canonical(loop)
    assert dumps_canonical([{"a": []}]) == '[{"a":[]}]\n'


@pytest.mark.parametrize("path", sorted(ENCODER_PATHS))
@settings(max_examples=100)
@given(ENCODABLE)
def test_dumps_canonical_matches_json_dumps(path, value):
    with mock.patch.object(documents, "_ITERENCODE", ENCODER_PATHS[path]):
        out = dumps_canonical(value)
    assert out == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("path", sorted(ENCODER_PATHS))
@pytest.mark.parametrize("bad", [object(), {1, 2}, Fraction(1, 3)], ids=type)
def test_unencodable_values_raise_json_dumps_type_error(path, bad):
    for value in (bad, [1, {"a": bad}]):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, sort_keys=True, separators=(",", ":"))
        with mock.patch.object(documents, "_ITERENCODE", ENCODER_PATHS[path]):
            with pytest.raises(TypeError) as got:
                dumps_canonical(value)
        assert str(got.value) == str(expected.value)


def test_cover_round_trip_is_one_based():
    cover = double_cover_from_signs(2, (1, 0, 1, 0))
    doc = cover_document(cover)
    assert doc["type"] == "cover"
    assert doc["perms"][0] == [2, 1]
    assert doc["perms"][1] == [1, 2]
    assert parse_cover(doc) == cover
    assert parse_cover(json.loads(dumps_canonical(doc))) == cover


def test_parse_cover_rejects_malformed():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    doc = cover_document(cover)
    bad = dict(doc)
    bad["schema"] = "covertower/999"
    with pytest.raises(DocumentError):
        parse_cover(bad)
    bad = dict(doc)
    bad["type"] = "cycle"
    with pytest.raises(DocumentError):
        parse_cover(bad)
    bad = dict(doc)
    bad["perms"] = [[2, "x"]] + doc["perms"][1:]
    with pytest.raises(DocumentError):
        parse_cover(bad)
    with pytest.raises(DocumentError):
        parse_cover([1, 2, 3])


@pytest.mark.parametrize("degree, perms, message", [
    (1, [[0], [1], [1], [1]], r"^perms\[0\] must be a permutation of 1\.\.1, got \[0\]$"),
    (1, [[1], [1], [-1], [1]], r"^perms\[2\] must be a permutation of 1\.\.1, got \[-1\]$"),
    (2, [[2, 1], [2, 2], [1, 2], [1, 2]], r"^perms\[1\] must be a permutation of 1\.\.2, got \[2, 2\]$"),
    (2, [[2, 1], [1, 2], [1, 2], [1, 2, 3]],
     r"^perms\[3\] must be a permutation of 1\.\.2, got \[1, 2, 3\]$"),
    (10**30, [[1], [1], [1], [1]], r"^perms\[0\] must be a permutation of 1\.\.10{30}, got \[1\]$"),
    (0, [[], [], [], []], r"^degree must be an integer at least 1, got 0$"),
], ids=["zero", "negative", "repeat", "long", "huge-degree", "zero-degree"])
def test_parse_cover_names_a_row_that_is_no_permutation(degree, perms, message):
    """Rows are read as the 1-based wire values they are, and named."""
    doc = dict(cover_document(trivial_cover(2)), degree=degree, perms=perms)
    with pytest.raises(DocumentError, match=message):
        parse_cover(doc)


def test_cycle_round_trip():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cx = surface_complex(cover)
    element = cycle_element(cover, cx.transfer((1, 0, -2, 0)))
    doc = cycle_document(element)
    assert doc["type"] == "cycle"
    for gen, sheet, coeff in doc["edges"]:
        assert gen >= 1 and sheet >= 1
    back = parse_cycle(doc)
    assert back.cover == cover
    assert back.payload == element.payload
    assert limit_equal(back, element)


def test_cycle_document_builds_no_complex():
    """Edges are indexed by the cover's own degree, so writing a cycle, such
    as the image of vaut_act, builds no complex of its cover."""
    cover = enumerate_covers(2, 3)[5]
    element = lift_element(base_class_element(2, (0, -2, 0, 0)), arrow_to_trivial(cover))
    surface_complex.cache_clear()
    doc = cycle_document(element)
    assert surface_complex.cache_info().currsize == 0
    assert doc["edges"] == [[2, s, -2] for s in (1, 2, 3)]
    assert parse_cycle(doc) == element


def test_cycle_document_rejects_open_chains():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    element = cycle_element(cover, surface_complex(cover).transfer((1, 0, 0, 0)))
    doc = cycle_document(element)
    doc["edges"] = [[1, 1, 1]]  # a single lift of a1 is an open path here
    with pytest.raises(Exception):
        parse_cycle(doc)


def test_cycle_document_rejects_out_of_range_edges():
    # generator 0 or sheet 3 used to wrap around to another edge of the
    # degree-2 cover and parse silently as a different cycle
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    doc = cycle_document(cycle_element(cover, surface_complex(cover).transfer((1, 0, 0, 0))))
    for edges, bad in (
        ([[0, 1, 1], [0, 2, 1]], 0),
        ([[1, 3, 1]], 0),
        ([[1, 1, 1], [1, 2, 1], [2, 3, 1]], 2),
        ([[5, 1, 1]], 0),
        ([[1, 0, 1]], 0),
    ):
        doc["edges"] = edges
        with pytest.raises(DocumentError, match=rf"edges\[{bad}\]"):
            parse_cycle(doc)


def test_track_round_trip():
    track = three_branch_example()
    doc = track_document(track)
    back = parse_track(doc)
    assert back == track
    assert back.switch_matrix() == track.switch_matrix()


def test_track_element_round_trip():
    track = three_branch_example()
    element = track_element(
        track, trivial_cover(2), (Fraction(3, 2), Fraction(1, 2), 1)
    )
    doc = track_element_document(element)
    assert doc["weights"] == ["3/2", "1/2", "1"]
    back = parse_track_element(doc)
    assert limit_equal(back, element)


def test_element_document_dispatch():
    track = three_branch_example()
    te = track_element(track, trivial_cover(2), (2, 1, 1))
    ce = cycle_element(trivial_cover(2), (1, 0, 0, 0))
    for element in (te, ce):
        doc = element_document(element)
        assert limit_equal(parse_element(doc), element)
    with pytest.raises(DocumentError):
        parse_element({"schema": "covertower/1", "type": "cover"})


def test_lifted_track_document():
    track = three_branch_example()
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    lifted, matrix = lift_track(track, cover)
    doc = lifted_track_document(lifted, matrix)
    assert doc["chart_dimension"] == 3
    assert len(doc["branches"]) == 6
    assert doc["branches"][0] == [1, 1]
    assert all(sum(col) == 2 for col in zip(*doc["matrix"]))


def test_vaut_word_table_round_trip():
    twist = shipped_automorphisms(2)[0]
    doc = vaut_document(twist)
    assert set(doc["identification"]) == {"fwd", "bwd"}
    back = parse_vaut(doc)
    assert back == twist


def test_vaut_restricted_round_trip():
    cover = double_cover_from_signs(2, (0, 1, 0, 0))
    restricted = restrict_vaut(identity_vaut(2), cover)
    back = parse_vaut(json.loads(dumps_canonical(vaut_document(restricted))))
    assert back.left == restricted.left
    assert back.right == restricted.right
    element = cycle_element(
        trivial_cover(2), (0, 1, 1, 0)
    )
    assert limit_equal(vaut_act(back, element), vaut_act(restricted, element))


def test_vaut_sheet_map_form():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    doc = {
        "schema": "covertower/1",
        "type": "vaut",
        "left": cover_document(cover),
        "right": cover_document(cover),
        "identification": [1, 2],
    }
    vaut = parse_vaut(doc)
    assert vaut.left == cover
    element = cycle_element(trivial_cover(2), (1, 2, 0, 0))
    assert limit_equal(vaut_act(vaut, element), element)
    # the nontrivial deck transformation is also a valid identification
    doc["identification"] = [2, 1]
    swapped = parse_vaut(doc)
    assert limit_equal(vaut_act(swapped, element), element)


def test_vaut_sheet_map_rejects_nonequivariant():
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 1, 0, 0))
    doc = {
        "schema": "covertower/1",
        "type": "vaut",
        "left": cover_document(a),
        "right": cover_document(b),
        "identification": [1, 2],
    }
    with pytest.raises(DocumentError):
        parse_vaut(doc)
    doc["identification"] = [1, 1]
    with pytest.raises(DocumentError):
        parse_vaut(doc)
    doc["identification"] = "nonsense"
    with pytest.raises(DocumentError):
        parse_vaut(doc)


def test_vaut_base_genus_cross_check():
    doc = vaut_document(identity_vaut(2))
    del doc["base_genus"]
    assert parse_vaut(doc) == identity_vaut(2)
    doc["base_genus"] = 3
    with pytest.raises(DocumentError):
        parse_vaut(doc)
    # a JSON integer only, as every other wire integer
    for value in (2.0, "2", True, None, [2]):
        doc["base_genus"] = value
        with pytest.raises(DocumentError, match="base_genus"):
            parse_vaut(doc)


def automorphisms_document(automorphisms) -> dict:
    """Writer for the automorphism lists that parse_automorphisms reads."""
    return {
        "schema": "covertower/1",
        "type": "automorphisms",
        "genus": automorphisms[0].base_genus,
        "items": [
            {
                "name": aut.name,
                "images": [list(w) for w in aut.fwd],
                "inverse_images": [list(w) for w in aut.bwd],
            }
            for aut in automorphisms
        ],
    }


def test_automorphisms_round_trip():
    auts = shipped_automorphisms(2)
    doc = automorphisms_document(auts)
    back = parse_automorphisms(json.loads(dumps_canonical(doc)))
    assert back == auts
    broken = json.loads(dumps_canonical(doc))
    broken["items"][0]["inverse_images"] = broken["items"][1]["inverse_images"]
    from covertower.errors import InvalidAutomorphism

    with pytest.raises(InvalidAutomorphism, match=r"^bwd does not undo fwd\[0\]$"):
        parse_automorphisms(broken)


def test_automorphism_tables_are_read_before_any_cover():
    """A table of the wrong length is named before the trivial cover of the
    document's genus is built, which at genus 10**9 would not fit in memory."""
    item = {"images": [[1]], "inverse_images": [[1]]}
    doc = {"schema": "covertower/1", "type": "automorphisms", "genus": 10**9, "items": [item]}
    with pytest.raises(DocumentError, match=r"^expected 2000000000 items\[0\]\.images, got 1$"):
        parse_automorphisms(doc)
    doc = automorphisms_document(shipped_automorphisms(2))
    doc["items"][2]["inverse_images"].pop()
    with pytest.raises(DocumentError, match=r"^expected 4 items\[2\]\.inverse_images, got 3$"):
        parse_automorphisms(doc)
    assert parse_automorphisms(dict(doc, items=[])) == ()


@pytest.mark.parametrize("name", [["x"], None, 5])
def test_automorphism_names_are_strings(name):
    doc = automorphisms_document(shipped_automorphisms(2))
    del doc["items"][1]["name"]  # a missing name reads as ""
    assert parse_automorphisms(doc)[1].name == ""
    doc["items"][0]["name"] = name
    message = rf"^items\[0\]\.name must be a str, got {re.escape(repr(name))}$"
    with pytest.raises(DocumentError, match=message):
        parse_automorphisms(doc)


def test_counterexample_round_trip():
    doc = counterexample_document("transfer-scaling", {"cover": [1, 2], "detail": "x"})
    suite, data = parse_counterexample(doc)
    assert suite == "transfer-scaling"
    assert data["detail"] == "x"
    with pytest.raises(DocumentError):
        parse_counterexample({"schema": "covertower/1", "type": "counterexample"})


def _replaced(doc, path, value):
    """A deep copy of doc with the entry at path (keys and indices) set to value."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def _integer_fields():
    """(parser, valid document, path to an integer, field the error names)."""
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cover_doc = cover_document(cover)
    cycle_doc = cycle_document(cycle_element(cover, surface_complex(cover).transfer((1, 0, 0, 0))))
    track_doc = track_document(three_branch_example())
    tables = vaut_document(identity_vaut(2))
    sheet_map = dict(vaut_document(identity_vaut(2)), left=cover_doc, right=cover_doc,
                     identification=[1, 2])
    auts = automorphisms_document(shipped_automorphisms(2))
    return [
        (parse_cover, cover_doc, ["genus"], r"genus"),
        (parse_cover, cover_doc, ["degree"], r"degree"),
        (parse_cover, cover_doc, ["perms", 0, 1], r"perms\[0\]\[1\]"),
        (parse_cycle, cycle_doc, ["edges", 0, 0], r"edges\[0\]\[0\]"),
        (parse_cycle, cycle_doc, ["edges", 1, 1], r"edges\[1\]\[1\]"),
        (parse_cycle, cycle_doc, ["edges", 0, 2], r"edges\[0\]\[2\]"),
        (parse_cycle, cycle_doc, ["cover", "perms", 0, 0], r"perms\[0\]\[0\]"),
        (parse_track, track_doc, ["genus"], r"genus"),
        (parse_track, track_doc, ["branch_words", 0, 0], r"branch_words\[0\]\[0\]"),
        (parse_track, track_doc, ["switches", 1, "side_b", 0, 0],
         r"switches\[1\]\.side_b\[0\]\[0\]"),
        (parse_track, track_doc, ["switches", 0, "side_a", 0, 1],
         r"switches\[0\]\.side_a\[0\]\[1\]"),
        (parse_vaut, tables, ["identification", "fwd", 0, 0], r"identification\.fwd\[0\]\[0\]"),
        (parse_vaut, sheet_map, ["identification", 1], r"identification\[1\]"),
        (parse_automorphisms, auts, ["genus"], r"genus"),
        (parse_automorphisms, auts, ["items", 0, "images", 0, 0], r"items\[0\]\.images\[0\]\[0\]"),
    ]


@pytest.mark.parametrize("bad", [2.7, 1.9, 1.0, True, "2", None])
def test_wire_readers_take_json_integers_only(bad):
    for parse, doc, path, field in _integer_fields():
        parse(doc)  # the valid document parses
        with pytest.raises(DocumentError, match=field):
            parse(_replaced(doc, path, bad))


# -- fuzzing the input boundary: arbitrary JSON raises only CovertowerError

# Leaves lean towards values next to valid ones: small and huge integers,
# the non-finite floats json.load accepts, and numbers spelled as strings.
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, "1", "-1", "1/0", "x", ""])
    | st.text(max_size=8)
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _seed_documents():
    """Valid documents of every kind the parsers and replays read."""
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cx = surface_complex(cover)
    twist = shipped_automorphisms(2)[0]
    e = base_class_element(2, (1, 0, 0, 0))
    c1 = cycle_document(cycle_element(cover, cx.transfer((1, 0, 0, 0))))
    c2 = cycle_document(cycle_element(cover, cx.transfer((0, 1, 0, 0))))
    track = track_element_document(
        track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    )
    sheet_map = dict(vaut_document(identity_vaut(2)), identification=[1])
    vauts = [vaut_document(restrict_vaut(twist, cover)), sheet_map]
    elements = [c1, track, element_document(e)]
    tracks = [track_document(three_branch_example())]
    automorphisms = [automorphisms_document(shipped_automorphisms(2))]
    replays = [
        ("riemann-hurwitz", {"cover": cover_document(cover)}),
        ("transfer-scaling", {"cover": cover_document(cover)}),
        ("pairing-invariance",
         {"cover": cover_document(cover), "c1": c1, "c2": c2, "moved1": c1, "moved2": c2}),
        ("vaut-laws", {"law": "identity", "element": c1}),
        ("vaut-laws", {"law": "inverse", "vaut": vauts[0], "element": c2}),
        ("vaut-laws", {"law": "representative-independence", "vaut": vauts[1],
                       "element": element_document(e), "fine": c1}),
        ("vaut-laws", {"law": "composition", "vaut1": vauts[0], "vaut2": vauts[1],
                       "element": c1}),
        ("theorem3", {"what": "lift-invariance", "cover": cover_document(cover)}),
        ("theorem3", {"what": "vaut-preservation", "vaut": vauts[0], "e1": c1, "e2": c2}),
    ]
    return [cover_document(cover)] + elements + vauts + tracks + automorphisms, replays


SEED_DOCUMENTS, SEED_REPLAYS = _seed_documents()
# Valid covers to swap in, so that documents join covers that do not fit.
OTHER_COVERS = [
    cover_document(c)
    for c in (trivial_cover(2), trivial_cover(3), double_cover_from_signs(2, (0, 0, 0, 1)))
]


FUZZ_COVERS = (double_cover_from_signs(2, (1, 0, 0, 0)), trivial_cover(3))


def _lift_parsed_track(doc, cover):
    lift_track(parse_track(doc), cover)


def _check_parsed_automorphisms(doc, cover):
    is_characteristic(cover, parse_automorphisms(doc))


def _mutated(data, doc):
    """doc with one value somewhere inside replaced, or dropped.

    The new value is arbitrary JSON or a valid cover document.
    """
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        keys = sorted(doc) if isinstance(doc, dict) else list(range(len(doc)))
        key = data.draw(st.sampled_from(keys))
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        if isinstance(doc, dict) and data.draw(st.integers(0, 5)) == 0:
            del out[key]
        else:
            out[key] = _mutated(data, doc[key])
        return out
    return data.draw(JSON | st.sampled_from(OTHER_COVERS))


def _only_covertower_errors(fn, *args):
    try:
        fn(*args)
    except CovertowerError:
        pass


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_parsers_raise_only_covertower_errors(data):
    doc = _mutated(data, data.draw(st.sampled_from(SEED_DOCUMENTS)))
    for parse in (parse_cover, parse_element, parse_vaut):
        _only_covertower_errors(parse, doc)
    cover = data.draw(st.sampled_from(FUZZ_COVERS))
    _only_covertower_errors(_lift_parsed_track, doc, cover)
    _only_covertower_errors(_check_parsed_automorphisms, doc, cover)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_replays_raise_only_covertower_errors(data):
    suite, seed = data.draw(st.sampled_from(SEED_REPLAYS))
    suite = data.draw(st.sampled_from([suite, *SUITES]))
    _only_covertower_errors(replay_counterexample, suite, _mutated(data, seed))


@settings(max_examples=100)
@given(JSON, st.sampled_from(sorted(SUITES)))
def test_arbitrary_json_raises_only_covertower_errors(doc, suite):
    for parse in (parse_cover, parse_element, parse_vaut):
        _only_covertower_errors(parse, doc)
    _only_covertower_errors(replay_counterexample, suite, doc)
