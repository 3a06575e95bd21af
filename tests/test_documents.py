import json
from fractions import Fraction

import pytest

from covertower.characteristic import shipped_automorphisms
from covertower.covers import double_cover_from_signs, enumerate_covers, trivial_cover
from covertower.documents import (
    DocumentError,
    automorphisms_document,
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
from covertower.homology import surface_complex
from covertower.limits import cycle_element, limit_equal, track_element
from covertower.traintrack import lift_track, three_branch_example
from covertower.vauts import (
    identity_vaut,
    restrict_vaut,
    vaut_act,
    vaut_from_automorphism,
)


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
    twist = vaut_from_automorphism(shipped_automorphisms(2)[0])
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
    doc["base_genus"] = 3
    with pytest.raises(DocumentError):
        parse_vaut(doc)


def test_automorphisms_round_trip():
    auts = shipped_automorphisms(2)
    doc = automorphisms_document(auts)
    back = parse_automorphisms(json.loads(dumps_canonical(doc)))
    assert back == auts
    broken = json.loads(dumps_canonical(doc))
    broken["items"][0]["inverse_images"] = broken["items"][1]["inverse_images"]
    from covertower.errors import InvalidAutomorphism

    with pytest.raises(InvalidAutomorphism):
        parse_automorphisms(broken)


def test_counterexample_round_trip():
    doc = counterexample_document("transfer-scaling", {"cover": [1, 2], "detail": "x"})
    suite, data = parse_counterexample(doc)
    assert suite == "transfer-scaling"
    assert data["detail"] == "x"
    with pytest.raises(DocumentError):
        parse_counterexample({"schema": "covertower/1", "type": "counterexample"})
