"""Elements of the direct limit over the tower of pointed covers.

An element is a representative pair (cover, payload); two representatives
are the same limit element when their pullbacks to a common refinement
agree.  Pullback is injective on homology and the normalized pairing does
not change under it, so any common refinement decides equality and gives
the pairing.  ``common_refinement`` takes the cover itself when the two
covers are equal or one of them is the trivial cover, and their fiber
product, which is initial among pointed common refinements, otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Union

from .covers import (
    CoverArrow,
    SurfaceCover,
    _trusted,
    arrow_to_trivial,
    fiber_product,
    pull_back,
    trivial_cover,
)
from .errors import BaseMismatch, IncompatibleTower, KindMismatch
from .errors import integral, need, sequence
from .homology import surface_complex, transfer_along_arrow
from .traintrack import LiftedTrack, TrainTrack

Chain = tuple[int, ...]
TrackPayload = tuple[TrainTrack, tuple[Fraction, ...]]


@dataclass(frozen=True)
class LimitElement:
    """Tower element presented over one cover.

    kind "cycle": payload is an integer edge chain on the cover, in the
    edge layout of SurfaceCover.chain, and must be a cycle.
    kind "track": payload is (base track, weights on the track's lift to
    the cover), weights in branch order (b, sheet), nonnegative, satisfying
    the lifted switch conditions.
    """

    kind: str
    cover: SurfaceCover
    payload: Union[Chain, TrackPayload]

    def __post_init__(self) -> None:
        need(self.cover, SurfaceCover, "cover", IncompatibleTower)
        if self.kind == "cycle":
            cx = surface_complex(self.cover)
            entries = sequence(self.payload, "payload", KindMismatch)
            chain = tuple(integral(c, f"payload[{k}]") for k, c in enumerate(entries))
            if len(chain) != cx.n_edges:
                raise KindMismatch("chain length does not match the cover")
            if not cx.is_cycle(chain):
                raise KindMismatch("payload chain has nonzero boundary")
            object.__setattr__(self, "payload", chain)
        elif self.kind == "track":
            track, weights = sequence(self.payload, "payload", KindMismatch, length=2)
            need(track, TrainTrack, "payload[0]", KindMismatch)
            if track.genus != self.cover.genus:
                raise BaseMismatch(
                    f"track has genus {track.genus}, cover has base genus {self.cover.genus}"
                )
            weights = LiftedTrack(track, self.cover).track.validate_weights(weights)
            object.__setattr__(self, "payload", (track, weights))
        else:
            raise KindMismatch(f"unknown limit element kind {self.kind!r}")

    @property
    def base_genus(self) -> int:
        return self.cover.genus


def cycle_element(cover: SurfaceCover, chain) -> LimitElement:
    return LimitElement("cycle", cover, chain)


def base_class_element(genus: int, class_vector) -> LimitElement:
    """Homology class of the base surface, over the trivial cover."""
    cover = trivial_cover(genus)
    return LimitElement("cycle", cover, class_vector)


def track_element(track: TrainTrack, cover: SurfaceCover, weights) -> LimitElement:
    return LimitElement("track", cover, (track, weights))


def lift_element(element: LimitElement, arrow: CoverArrow) -> LimitElement:
    """Pull a representative back along an arrow into a finer cover; the
    pullback of a checked payload passes the checks, so it skips them."""
    need(element, LimitElement, "element", IncompatibleTower)
    need(arrow, CoverArrow, "arrow", IncompatibleTower)
    if arrow.target != element.cover:
        raise IncompatibleTower("arrow target is not the element's cover")
    if element.kind == "cycle":
        chain = tuple(transfer_along_arrow(arrow, element.payload))
        return _trusted(LimitElement, kind="cycle", cover=arrow.source, payload=chain)
    track, weights = element.payload
    lifted = tuple(pull_back(arrow, weights))
    return _trusted(LimitElement, kind="track", cover=arrow.source, payload=(track, lifted))


def common_refinement(first: SurfaceCover, second: SurfaceCover):
    """(cover, arrow to first, arrow to second) for a common refinement.

    An arrow is None where the refinement is that cover itself: equal
    covers refine each other, and a cover refines the trivial cover by the
    constant arrow.  Any other pair takes its fiber product.
    """
    need(first, SurfaceCover, "first", IncompatibleTower)
    need(second, SurfaceCover, "second", IncompatibleTower)
    if first.genus != second.genus:
        raise BaseMismatch("covers have different base surfaces")
    if first == second:
        return first, None, None
    if first.degree == 1:
        return second, arrow_to_trivial(second), None
    if second.degree == 1:
        return first, None, arrow_to_trivial(first)
    fp = fiber_product(first, second)
    return fp.cover, fp.to_first, fp.to_second


def _lift(element: LimitElement, arrow: CoverArrow | None) -> LimitElement:
    return element if arrow is None else lift_element(element, arrow)


def _common_refinement(e1: LimitElement, e2: LimitElement):
    if e1.kind != e2.kind:
        raise KindMismatch(f"cannot compare {e1.kind!r} with {e2.kind!r}")
    if e1.base_genus != e2.base_genus:
        raise BaseMismatch("elements live over different base surfaces")
    _, to_first, to_second = common_refinement(e1.cover, e2.cover)
    return _lift(e1, to_first), _lift(e2, to_second)


def limit_equal(e1: LimitElement, e2: LimitElement) -> bool:
    """Equality in the direct limit.

    Cycle payloads are compared by homology class on a common refinement;
    pullback of chains is injective on homology, so agreement there is
    agreement at every deeper level.  Track payloads must share the base
    track and are compared weight by weight.
    """
    if e1.kind == "track" and e2.kind == "track":
        if e1.payload[0] != e2.payload[0]:
            raise IncompatibleTower("track elements over different base tracks")
    f1, f2 = _common_refinement(e1, e2)
    if e1.kind == "cycle":
        cx = surface_complex(f1.cover)
        return cx.class_coordinates(f1.payload) == cx.class_coordinates(f2.payload)
    return f1.payload[1] == f2.payload[1]


def pairing_table(rows, cols) -> list[list[Fraction]]:
    """Normalized pairing of every row element with every column element.

    Entry [i][j] is normalized_pairing(rows[i], cols[j]).  The pairing is
    bilinear, so each row lift becomes one pairing covector and each entry
    one dot product.  Each pair of covers gets one common refinement (a
    fiber product only when the covers differ and neither is trivial), and
    each element one lift per refinement that is not its own cover.
    """
    rows, cols = tuple(rows), tuple(cols)
    if any(e.kind != "cycle" for e in (*rows, *cols)):
        raise KindMismatch("normalized pairing is defined for cycle elements")
    if len({e.base_genus for e in (*rows, *cols)}) > 1:
        raise IncompatibleTower("elements live over different base surfaces")
    table = [[None] * len(cols) for _ in rows]
    for row_cover, row_at in _by_cover(rows):
        for col_cover, col_at in _by_cover(cols):
            cover, to_row, to_col = common_refinement(row_cover, col_cover)
            cx, scale = surface_complex(cover), cover.total_genus - 1
            lifts = [_lift(cols[j], to_col).payload for j in col_at]
            for i in row_at:
                covector = cx.pairing_covector(_lift(rows[i], to_row).payload)
                for j, chain in zip(col_at, lifts):
                    table[i][j] = Fraction(-sum(map(mul, covector, chain)), scale)
    return table


def _by_cover(elements):
    """(cover, positions) for each cover among the elements, by identity."""
    groups = {}
    for k, e in enumerate(elements):
        groups.setdefault(id(e.cover), (e.cover, []))[1].append(k)
    return groups.values()


def normalized_pairing(e1: LimitElement, e2: LimitElement) -> Fraction:
    """Intersection pairing divided by (genus of the total surface - 1).

    The geometric pairing scales by the degree under pullback and so does
    genus(total) - 1, making the ratio independent of the representative
    level.  Exact rational output.
    """
    return pairing_table((e1,), (e2,))[0][0]


def homology_shadow(element: LimitElement) -> LimitElement:
    """Cycle-kind element carried by an integrally weighted track element."""
    if element.kind != "track":
        raise KindMismatch("homology shadow takes a track element")
    track, weights = element.payload
    chain = LiftedTrack(track, element.cover).cycle_chain(weights)
    return LimitElement("cycle", element.cover, chain)
