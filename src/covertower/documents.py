"""JSON document formats for covers, cycles, tracks, vauts, and certificates.

All documents carry the schema tag "covertower/1".  Sheets, generators,
and branches are 1-based on the wire and 0-based in memory.  Serialized
output is deterministic: sorted keys, compact separators, one trailing
newline.  Rationals travel as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii

from .covers import FiberProduct, SurfaceCover, _equivariant, trivial_cover
from .errors import CovertowerError, integer, integers, need, sequence, words
from .limits import LimitElement, cycle_element, track_element
from .surface import free_reduce, inverse_word
from .traintrack import LiftedTrack, Switch, TrainTrack
from .vauts import TwoArrowVaut

SCHEMA = "covertower/1"

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The C encoder behind _ENCODER.encode, built once instead of per document.
# It keeps no circular-reference markers, since documents are trees: a cyclic
# input ends in RecursionError.  None where Python has no _json accelerator.
_ITERENCODE = None if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, True
)


class DocumentError(CovertowerError):
    """Malformed or mistyped input document."""


def dumps_canonical(doc) -> str:
    if _ITERENCODE is None:
        return _ENCODER.encode(doc) + "\n"
    return "".join(_ITERENCODE(doc, 0)) + "\n"


def _expect(doc, doc_type: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("type") != doc_type:
        raise DocumentError(f"expected a {doc_type!r} document, got {doc.get('type')!r}")


def _word_out(word) -> list[int]:
    return [int(x) for x in word]


def rational_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {text!r}") from exc


# -- covers

def cover_document(cover: SurfaceCover) -> dict:
    return {
        "schema": SCHEMA,
        "type": "cover",
        "genus": cover.genus,
        "degree": cover.degree,
        "perms": [[s + 1 for s in p] for p in cover.perms],
    }


def parse_cover(doc) -> SurfaceCover:
    _expect(doc, "cover")
    try:
        genus = integer(doc["genus"], "genus", DocumentError)
        degree = integer(doc["degree"], "degree", DocumentError, low=1)
        rows = [integers(p, f"perms[{i}]", DocumentError) for i, p in enumerate(doc["perms"])]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"bad cover document: {exc}") from exc
    for i, row in enumerate(rows):
        if len(row) != degree or sorted(row) != list(range(1, degree + 1)):
            raise DocumentError(
                f"perms[{i}] must be a permutation of 1..{degree}, got {list(row)!r:.40}"
            )
    return SurfaceCover(genus, degree, tuple(tuple(s - 1 for s in row) for row in rows))


def fiber_product_document(fp: FiberProduct) -> dict:
    return {
        "schema": SCHEMA,
        "type": "fiber-product",
        "cover": cover_document(fp.cover),
        "to_first": [s + 1 for s in fp.to_first.sheet_map],
        "to_second": [s + 1 for s in fp.to_second.sheet_map],
    }


# -- cycle elements

def cycle_document(element: LimitElement) -> dict:
    if element.kind != "cycle":
        raise DocumentError("cycle document needs a cycle-kind element")
    d = element.cover.degree
    edges = []
    for e, coeff in enumerate(element.payload):
        if coeff:
            i, s = divmod(e, d)
            edges.append([i + 1, s + 1, int(coeff)])
    return {
        "schema": SCHEMA,
        "type": "cycle",
        "cover": cover_document(element.cover),
        "edges": edges,
    }


def parse_cycle(doc) -> LimitElement:
    _expect(doc, "cycle")
    cover = parse_cover(doc.get("cover"))
    d = cover.degree
    chain = [0] * (2 * cover.genus * d)
    try:
        for k, edge in enumerate(doc["edges"]):
            i, s, coeff = integers(edge, f"edges[{k}]", DocumentError)
            if not (0 < i <= 2 * cover.genus and 0 < s <= d):
                raise DocumentError(f"edges[{k}]: generator {i} or sheet {s} out of range")
            chain[(i - 1) * d + s - 1] += coeff
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad cycle document: {exc}") from exc
    return cycle_element(cover, chain)


# -- train tracks

def _side_in(data, field: str):
    """Switch side from [branch, end] pairs, branches 1-based on the wire."""
    halves = (integers(half, f"{field}[{j}]", DocumentError) for j, half in enumerate(data))
    return tuple((b - 1, end) for b, end in halves)


def track_document(track: TrainTrack) -> dict:
    return {
        "schema": SCHEMA,
        "type": "track",
        "genus": track.genus,
        "branch_words": [_word_out(w) for w in track.branch_words],
        "switches": [
            {
                "side_a": [[b + 1, end] for b, end in sw.side_a],
                "side_b": [[b + 1, end] for b, end in sw.side_b],
            }
            for sw in track.switches
        ],
    }


def parse_track(doc) -> TrainTrack:
    _expect(doc, "track")
    try:
        genus = integer(doc["genus"], "genus", DocumentError)
        branch_words = words(doc["branch_words"], "branch_words", genus, DocumentError)
        switches = tuple(
            Switch(*(_side_in(sw[name], f"switches[{k}].{name}") for name in ("side_a", "side_b")))
            for k, sw in enumerate(doc["switches"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad track document: {exc}") from exc
    return TrainTrack(genus, switches, branch_words)


def lifted_track_document(lifted: LiftedTrack, matrix) -> dict:
    return {
        "schema": SCHEMA,
        "type": "lifted-track",
        "base": track_document(lifted.base),
        "cover": cover_document(lifted.cover),
        "branches": [[b + 1, s + 1] for b, s in lifted.branches],
        "matrix": [list(row) for row in matrix.matrix],
        "chart_dimension": lifted.track.chart_dimension(),
    }


# -- weighted track elements

def track_element_document(element: LimitElement) -> dict:
    if element.kind != "track":
        raise DocumentError("track-element document needs a track-kind element")
    track, weights = element.payload
    return {
        "schema": SCHEMA,
        "type": "track-element",
        "cover": cover_document(element.cover),
        "track": track_document(track),
        "weights": [rational_str(w) for w in weights],
    }


def parse_track_element(doc) -> LimitElement:
    _expect(doc, "track-element")
    cover = parse_cover(doc.get("cover"))
    track = parse_track(doc.get("track"))
    try:
        weights = tuple(parse_rational(w) for w in doc["weights"])
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"bad track-element document: {exc}") from exc
    return track_element(track, cover, weights)


def parse_element(doc) -> LimitElement:
    """Cycle or track element, dispatched on the type field."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("type")
    if kind == "cycle":
        return parse_cycle(doc)
    if kind == "track-element":
        return parse_track_element(doc)
    raise DocumentError(f"not a limit element document: {kind!r}")


def element_document(element: LimitElement) -> dict:
    return (
        cycle_document(element)
        if element.kind == "cycle"
        else track_element_document(element)
    )


# -- vauts

def vaut_document(vaut: TwoArrowVaut) -> dict:
    return {
        "schema": SCHEMA,
        "type": "vaut",
        "base_genus": vaut.base_genus,
        "left": cover_document(vaut.left),
        "right": cover_document(vaut.right),
        "identification": {
            "fwd": [_word_out(w) for w in vaut.fwd],
            "bwd": [_word_out(w) for w in vaut.bwd],
        },
    }


def _tables_from_sheet_map(left: SurfaceCover, right: SurfaceCover, sheet_map):
    """Word tables for a cellular identification given as a sheet bijection.

    The list sends left sheet s to right sheet sheet_map[s] and must be
    equivariant for the two actions; the induced subgroup isomorphism is
    conjugation by the right tree word reaching sheet_map[0].
    """
    same_shape = (left.genus, left.degree) == (right.genus, right.degree)
    if not same_shape or sorted(sheet_map) != list(range(left.degree)):
        raise DocumentError("identification list is not a sheet bijection")
    if not _equivariant(left, right, sheet_map):
        raise DocumentError("identification list does not commute with the actions")
    conj = right.schreier.words[sheet_map[0]]
    conj_inv = inverse_word(conj)
    fwd = tuple(free_reduce(conj + w + conj_inv) for w in left.loops)
    bwd = tuple(free_reduce(conj_inv + w + conj) for w in right.loops)
    return fwd, bwd


def parse_vaut(doc) -> TwoArrowVaut:
    _expect(doc, "vaut")
    left = parse_cover(doc.get("left"))
    right = parse_cover(doc.get("right"))
    ident = doc.get("identification")
    if isinstance(ident, dict):
        try:
            fwd = words(ident["fwd"], "identification.fwd", left.genus, DocumentError)
            bwd = words(ident["bwd"], "identification.bwd", left.genus, DocumentError)
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"bad identification tables: {exc}") from exc
    elif isinstance(ident, list):
        sheet_map = [t - 1 for t in integers(ident, "identification", DocumentError)]
        fwd, bwd = _tables_from_sheet_map(left, right, sheet_map)
    else:
        raise DocumentError("identification must be word tables or a sheet map")
    vaut = TwoArrowVaut(left, right, fwd, bwd)
    base_genus = integer(doc.get("base_genus", vaut.base_genus), "base_genus", DocumentError)
    if base_genus != vaut.base_genus:
        raise DocumentError("base_genus disagrees with the covers")
    return vaut


# -- automorphism lists

def _generator_table(item, j: int, key: str, genus: int):
    """items[j][key] as one word per generator, read before any cover is built."""
    name = f"items[{j}].{key}"
    table = sequence(item[key], name, DocumentError, length=2 * genus)
    return words(table, name, genus, DocumentError)


def parse_automorphisms(doc) -> tuple[TwoArrowVaut, ...]:
    """The listed automorphisms, as degree-1 vauts."""
    _expect(doc, "automorphisms")
    try:
        genus = integer(doc["genus"], "genus", DocumentError, low=2)
        items = [
            (
                _generator_table(item, j, "images", genus),
                _generator_table(item, j, "inverse_images", genus),
                need(item.get("name", ""), str, f"items[{j}].name", DocumentError),
            )
            for j, item in enumerate(doc["items"])
        ]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"bad automorphisms document: {exc}") from exc
    cover = trivial_cover(genus) if items else None
    return tuple(TwoArrowVaut(cover, cover, *item) for item in items)


# -- counterexamples

def counterexample_document(suite: str, data: dict) -> dict:
    return {
        "schema": SCHEMA,
        "type": "counterexample",
        "suite": suite,
        "data": data,
    }


def parse_counterexample(doc) -> tuple[str, dict]:
    _expect(doc, "counterexample")
    suite = doc.get("suite")
    data = doc.get("data")
    if not isinstance(suite, str) or not isinstance(data, dict):
        raise DocumentError("counterexample document needs suite and data fields")
    return suite, data
