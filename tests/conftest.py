from functools import lru_cache

from hypothesis import settings

from covertower.characteristic import shipped_automorphisms
from covertower.covers import SurfaceCover, _induced_cover, enumerate_covers, trivial_cover
from covertower.surface import generator_count
from covertower.traintrack import CarryingMatrix, TrainTrack, _gather
from covertower.vauts import TwoArrowVaut, restrict_vaut

settings.register_profile("covertower", deadline=None)
settings.load_profile("covertower")


def double_cover_from_signs(genus: int, signs) -> SurfaceCover:
    """Degree-2 cover from a nonzero vector of Z/2 sign bits, one per generator."""
    signs = tuple(int(x) % 2 for x in signs)
    assert len(signs) == generator_count(genus) and any(signs), signs
    swap, ident = (1, 0), (0, 1)
    return SurfaceCover(genus, 2, tuple(swap if b else ident for b in signs))


def automorphism(genus, images, inverse_images, name="") -> TwoArrowVaut:
    """The automorphism with these generator images: the degree-1 vaut."""
    cover = trivial_cover(genus)
    return TwoArrowVaut(cover, cover, images, inverse_images, name)


def identity_carrying(track: TrainTrack) -> CarryingMatrix:
    """The identity matrix of a track, gathered unchecked as lifts are."""
    return _gather(track, track, range(track.n_branches))


def face_boundary_chain(cx, face):
    """Edge chain of a face of a complex: +1 for a forward dart, -1 for a reversed one."""
    chain = cx.zero_chain()
    for dart in face:
        e, rev = divmod(dart, 2)
        chain[e] += -1 if rev else 1
    return chain


@lru_cache(maxsize=None)
def induced_corpus():
    """(outer, table, target, induced) for each shipped vaut restricted to each
    degree-2 cover, induced through its backward table over every cover of
    degree <= 3: 90 tables, 21,240 induced covers.  They are built unchecked,
    as the package builds them, so that rebuilding them through SurfaceCover
    runs the relator check the builder leaves to its caller."""
    vauts = [
        restrict_vaut(aut, cover)
        for aut in shipped_automorphisms(2)
        for cover in enumerate_covers(2, 2)
    ]
    targets = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    return tuple(
        (v.right, v.bwd, t, _induced_cover(v.right, v.bwd, t)) for v in vauts for t in targets
    )
