"""Elements of the direct limit over the tower of pointed covers.

An element is a representative pair (cover, payload); two representatives
are the same limit element when their pullbacks to a common refinement
agree.  The fiber product of the two covers is a common refinement and is
initial among pointed ones, so comparing there decides equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Union

from .covers import CoverArrow, SurfaceCover, _trusted, fiber_product, trivial_cover
from .errors import BaseMismatch, IncompatibleTower, KindMismatch
from .homology import surface_complex, transfer_along_arrow
from .traintrack import LiftedTrack, TrainTrack

Chain = tuple[int, ...]
TrackPayload = tuple[TrainTrack, tuple[Fraction, ...]]


@dataclass(frozen=True)
class LimitElement:
    """Tower element presented over one cover.

    kind "cycle": payload is an integer edge chain on the cover, indexed
    edge (i, s) at i*degree + s, and must be a cycle.
    kind "track": payload is (base track, weights on the track's lift to
    the cover), weights in branch order (b, sheet), nonnegative, satisfying
    the lifted switch conditions.
    """

    kind: str
    cover: SurfaceCover
    payload: Union[Chain, TrackPayload]

    def __post_init__(self) -> None:
        if self.kind == "cycle":
            cx = surface_complex(self.cover)
            chain = tuple(int(c) for c in self.payload)
            if len(chain) != cx.n_edges:
                raise KindMismatch("chain length does not match the cover")
            if not cx.is_cycle(chain):
                raise KindMismatch("payload chain has nonzero boundary")
            object.__setattr__(self, "payload", chain)
        elif self.kind == "track":
            track, weights = self.payload
            weights = LiftedTrack(track, self.cover).track.validate_weights(weights)
            object.__setattr__(self, "payload", (track, weights))
        else:
            raise KindMismatch(f"unknown limit element kind {self.kind!r}")

    @property
    def base_genus(self) -> int:
        return self.cover.genus


def cycle_element(cover: SurfaceCover, chain) -> LimitElement:
    return LimitElement("cycle", cover, tuple(chain))


def base_class_element(genus: int, class_vector) -> LimitElement:
    """Homology class of the base surface, over the trivial cover."""
    cover = trivial_cover(genus)
    return LimitElement("cycle", cover, tuple(int(c) for c in class_vector))


def track_element(track: TrainTrack, cover: SurfaceCover, weights) -> LimitElement:
    return LimitElement("track", cover, (track, tuple(weights)))


def lift_element(element: LimitElement, arrow: CoverArrow) -> LimitElement:
    """Pull a representative back along an arrow into a finer cover; the
    pullback of a checked payload passes the checks, so it skips them."""
    if arrow.target != element.cover:
        raise IncompatibleTower("arrow target is not the element's cover")
    if element.kind == "cycle":
        chain = tuple(transfer_along_arrow(arrow, element.payload))
        return _trusted(LimitElement, kind="cycle", cover=arrow.source, payload=chain)
    track, weights = element.payload
    lifted = tuple(weights[k] for k in LiftedTrack(track, element.cover).branches_under(arrow))
    return _trusted(LimitElement, kind="track", cover=arrow.source, payload=(track, lifted))


def _common_refinement(e1: LimitElement, e2: LimitElement):
    if e1.kind != e2.kind:
        raise KindMismatch(f"cannot compare {e1.kind!r} with {e2.kind!r}")
    if e1.base_genus != e2.base_genus:
        raise BaseMismatch("elements live over different base surfaces")
    fp = fiber_product(e1.cover, e2.cover)
    return lift_element(e1, fp.to_first), lift_element(e2, fp.to_second)


def limit_equal(e1: LimitElement, e2: LimitElement) -> bool:
    """Equality in the direct limit.

    Cycle payloads are compared by homology class on the fiber product;
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
    one dot product.  Each pair of distinct covers gets one fiber product
    and each element one lift per fiber product.
    """
    rows, cols = tuple(rows), tuple(cols)
    if any(e.kind != "cycle" for e in (*rows, *cols)):
        raise KindMismatch("normalized pairing is defined for cycle elements")
    if len({e.base_genus for e in (*rows, *cols)}) > 1:
        raise IncompatibleTower("elements live over different base surfaces")
    table = [[None] * len(cols) for _ in rows]
    for row_cover, row_at in _by_cover(rows):
        for col_cover, col_at in _by_cover(cols):
            fp = fiber_product(row_cover, col_cover)
            cx, scale = surface_complex(fp.cover), fp.cover.total_genus - 1
            lifts = [lift_element(cols[j], fp.to_second).payload for j in col_at]
            for i in row_at:
                covector = cx.pairing_covector(lift_element(rows[i], fp.to_first).payload)
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
