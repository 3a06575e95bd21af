"""Cell structure and integral homology of a covering surface.

The base surface has one vertex, 2g edge loops, and one 4g-gon face whose
boundary spells the relator.  A degree-d cover lifts this to d vertices
(sheets), 2gd edges, and d faces, the lifts of the relator (Hatcher,
Algebraic Topology, 1.3).

Edges are indexed e = i*d + s for generator i and source sheet s, the
layout of SurfaceCover.chain, which builds every path chain; the edge
runs from sheet s to the sheet the generator sends s to.  Each edge has two
darts, 2e (forward) and 2e+1 (reverse).  The rotation at a vertex lists the
darts leaving it in the cyclic order inherited from the base polygon.  The
faces come from the rotation alone: block_genera counts them, a block of
covers at a time, for the genus, and the complex traces them for the
homology; the tests check both against the relator read from each sheet, so
the genus is a computation rather than a definition.
"""

from __future__ import annotations

from operator import countOf, mul

import numpy as np

from .covers import SurfaceCover, schreier_loop
from .errors import ComplexMismatch, DimensionMismatch, IncompatibleTower
from .errors import checked_cache, integrals, need, sequence
from .surface import generator_count


def _handle_darts(d: int, k: int, v, into_a, into_b):
    """The one rotation rule: darts of handle k at sheet v of a degree-d cover,
    in the order of the relator's 4g-gon: a = 2k leaving, b = 2k + 1 arriving
    from into_b, a arriving from into_a, b leaving; on ints or arrays of sheets."""
    a, b = 2 * k * d, (2 * k + 1) * d
    return 2 * (a + v), 2 * (b + into_b) + 1, 2 * (a + into_a) + 1, 2 * (b + v)


def _rotation_block(covers) -> np.ndarray:
    """[n, d, 4g] rotations of covers of one genus and degree, as CoverComplex's."""
    g, d = covers[0].genus, covers[0].degree
    perms = np.array([c.perms for c in covers], dtype=np.intp)
    sheet, into = np.arange(d), np.empty_like(perms)
    np.put_along_axis(into, perms, np.broadcast_to(sheet, perms.shape), axis=2)
    handles = (_handle_darts(d, k, sheet, into[:, 2 * k], into[:, 2 * k + 1]) for k in range(g))
    return np.stack(np.broadcast_arrays(*(darts for handle in handles for darts in handle)), axis=2)


def block_genera(covers) -> list[int]:
    """Genus of each cover's surface, for covers of one genus and degree, from
    its rotation's faces: min-label pointer doubling (Wyllie 1979) on the face
    successor dart -> after[dart ^ 1] labels each dart with the least of its
    face in ceil(log2 4gd) rounds, and a face counts at the dart it labels."""
    ring = _rotation_block(covers)
    n, d, m = ring.shape
    darts = d * m
    # Flat indices stay below n * 4gd, twice the 2gd permutation entries of each
    # cover, which the search budget gates in a census: intp cannot overflow.
    after = np.zeros((n, darts), dtype=np.intp)
    np.put_along_axis(after, ring.reshape(n, darts), np.roll(ring, -1, 2).reshape(n, darts), 1)
    succ = (after[:, np.arange(darts) ^ 1] + darts * np.arange(n)[:, None]).ravel()
    label = own = np.arange(n * darts)
    for _ in range((darts - 1).bit_length()):
        label, succ = np.minimum(label, label[succ]), succ[succ]
    chi = d - darts // 2 + (label == own).reshape(n, darts).sum(axis=1)
    if (odd := np.flatnonzero(chi % 2)).size:
        raise ComplexMismatch(f"odd Euler characteristic {chi[odd[0]]}")
    return ((2 - chi) // 2).tolist()


class CoverComplex:
    """Lifted cell structure with rotation system and homology data."""

    def __init__(self, cover: SurfaceCover):
        self.cover = cover
        g, d = cover.genus, cover.degree
        self.n_generators = generator_count(g)
        self.n_vertices = d
        self.n_edges = self.n_generators * d
        self._tails = list(range(d)) * self.n_generators
        self._heads = [t for perm in cover.perms for t in perm]
        into = cover.inverse_perms  # into[i][v]: the sheet that generator i sends to v
        rings = ([_handle_darts(d, k, v, into[2 * k][v], into[2 * k + 1][v]) for k in range(g)]
                 for v in range(d))
        self.rotation = [[dart for handle in ring for dart in handle] for ring in rings]
        self._faces = None
        self._homology = None

    # -- indexing helpers

    def edge_index(self, gen: int, sheet: int) -> int:
        return gen * self.cover.degree + sheet

    def edge_of_index(self, e: int) -> tuple[int, int]:
        return divmod(e, self.cover.degree)

    # -- cell structure

    @property
    def faces(self):
        """The faces traced from the rotation, built on first read and then
        kept: the genus, transfer and pairing never read them."""
        if self._faces is None:
            self._faces = self._trace_faces()
        return self._faces

    def _trace_faces(self):
        """Faces of the rotation system, each from its smallest dart and in their
        order: a dart is followed by the dart after its reverse in the rotation
        (Mohar and Thomassen, Graphs on Surfaces); block_genera only counts them."""
        after = [0] * (2 * self.n_edges)
        for ring in self.rotation:
            for dart, nxt in zip(ring, ring[1:] + ring[:1]):
                after[dart] = nxt
        faces, seen = [], bytearray(len(after))
        for start in range(len(after)):
            if not seen[start]:
                face = [start]
                seen[start] = 1
                while (dart := after[face[-1] ^ 1]) != start:
                    face.append(dart)
                    seen[dart] = 1
                faces.append(tuple(face))
        return faces

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus

    @property
    def genus(self) -> int:
        return block_genera((self.cover,))[0]

    # -- chains

    def zero_chain(self):
        return [0] * self.n_edges

    def _chain(self, chain, error, name="chain", length=None):
        """The one chain reader: chain as ints, length (n_edges by default) of them;
        error for a non-sequence or a wrong length, NonIntegerWeights naming name[k]
        for an entry that is not integral.  Plain ints pass in one count of types."""
        items = sequence(chain, name, error)
        if len(items) != (self.n_edges if length is None else length):
            raise error(f"{name} has wrong length")
        return items if countOf(map(type, items), int) == len(items) else integrals(items, name)

    def _closed(self, chain) -> bool:
        """Whether a read chain has zero boundary."""
        out = [0] * self.n_vertices
        for coeff, tail, head in zip(chain, self._tails, self._heads):
            if coeff:
                out[head] += coeff
                out[tail] -= coeff
        return not any(out)

    def is_cycle(self, chain) -> bool:
        return self._closed(self._chain(chain, ComplexMismatch))

    def transfer(self, base_class):
        """Sum of all lifts of each base generator loop, as a cycle."""
        base_class = self._chain(base_class, DimensionMismatch, "base_class", self.n_generators)
        return [coeff for coeff in base_class for _ in range(self.cover.degree)]

    def pushforward(self, chain):
        """Image of a cover chain in the base: forget the sheet of every edge."""
        chain = self._chain(chain, DimensionMismatch)
        d = self.cover.degree
        return [sum(chain[e : e + d]) for e in range(0, self.n_edges, d)]

    # -- homology

    def _homology_data(self):
        """Tree-cotree split of the nontree edges (Eppstein, SODA 2003).

        The cotree is the breadth-first tree, from face 0, of the dual graph
        whose edges are the nontree edges between two distinct faces.  The
        2g' nontree edges outside it index the classes.  Each non-root face
        holds its cotree parent edge once, with sign +-1, so subtracting
        face boundaries in discovery order clears every cotree coordinate of
        a cycle; the class edges' coordinates are then its class.
        """
        if self._homology is not None:
            return self._homology
        nontree = {self.edge_index(i, s) for (i, s) in self.cover.schreier.nontree}
        face_of = [0] * (2 * self.n_edges)
        for f, face in enumerate(self.faces):
            for dart in face:
                face_of[dart] = f
        steps = []  # (cotree parent edge, its sign in the face, face darts)
        order, seen = [0], {0}
        for f in order:  # the search appends to order as it discovers faces
            for dart in self.faces[f]:
                g = face_of[dart ^ 1]
                if g not in seen and dart >> 1 in nontree:
                    seen.add(g)
                    order.append(g)
                    steps.append((dart >> 1, 1 if dart & 1 else -1, self.faces[g]))
        cotree = {e for e, _, _ in steps}
        self._homology = {"steps": steps, "class_edges": sorted(nontree - cotree)}
        return self._homology

    def homology_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integral homology basis, one edge chain per class, built on each
        call and not kept: a sweep reads it once per cover."""
        edges = self._homology_data()["class_edges"]
        loops = (schreier_loop(self.cover, self.edge_of_index(e)) for e in edges)
        return tuple(tuple(self.cover.chain([(w, 0, 1)])) for w in loops)

    def class_coordinates(self, chain):
        """Coordinates of a cycle's homology class in the homology_basis."""
        chain = self._chain(chain, DimensionMismatch)
        if not self._closed(chain):
            raise ComplexMismatch("chain is not a cycle")
        return self._coordinates(chain)

    def _coordinates(self, chain):
        """class_coordinates of a read cycle."""
        data = self._homology_data()
        x = list(chain)
        for p, sign, face in data["steps"]:
            c = x[p] * sign
            if c:
                for dart in face:
                    x[dart >> 1] += c if dart & 1 else -c
        return tuple(x[e] for e in data["class_edges"])

    # -- intersection pairing

    def pairing_covector(self, chain):
        """B_x[e] = x_e + R_x(2e) - R_x(2e+1), R_x(dart) the running sum of phi_x
        before the dart in its rotation; intersection(x, y) = -B_x . y for cycles."""
        return self._covector(self._chain(chain, ComplexMismatch))[0]

    def _covector(self, chain):
        """(pairing_covector, whether it is a cycle) of a read chain: a ring's sum
        is the chain's net outflow at its vertex, 0 at every vertex for a cycle."""
        before, ends = [0] * (2 * self.n_edges), 0
        for ring in self.rotation:
            run = 0
            for dart in ring:
                before[dart] = run
                run += -chain[dart >> 1] if dart & 1 else chain[dart >> 1]
            ends |= run  # 0 while every ring's sum is 0
        darts = iter(before)  # R_x(2e), then R_x(2e+1), for each edge e
        return [c + fwd - rev for c, fwd, rev in zip(chain, darts, darts)], not ends

    def intersection(self, chain1, chain2) -> int:
        """Signed crossing count of two cycles, pushing the second off the first.

        Let phi_c(v, p) be the net outflow of a chain c at position p of the
        rotation at vertex v: c[e] for the forward dart 2e, -c[e] for the
        reverse dart 2e+1.  Then

            intersection(x, y) = -sum_e x_e*y_e
                                 - sum_v sum_{p' < p} phi_x(v, p')*phi_y(v, p).

        This is the closed form of the strand count that the tests keep as
        the oracle: split both cycles into strands through each vertex and
        push y's ends a quarter slot off x's (departures later, arrivals
        earlier).  A chord of x from an arrival at a to a departure at b
        meets y's departures minus arrivals inside it, that is
        S(b) - S(a) - phi_y(a) + dep_y(a) - arr_y(b), S(p) the sum of phi_y
        before p.  As y is balanced at v, this holds for chords that wrap
        too, so no matching of ends matters.  Over x's chords it sums to
        sum_p S(p)*phi_x(p) - sum_p arr_y(p)*phi_x(p); the second sum is
        max(-y_e, 0)*x_e at the tail of e plus max(y_e, 0)*(-x_e) at its
        head, -x_e*y_e per edge.  Both cycles are balanced and
        sum_p phi_x*phi_y = 2*sum_e x_e*y_e, so moving the running sum onto
        phi_x gives the form above.  Collecting y_e from phi_y(2e) = y_e and
        phi_y(2e+1) = -y_e turns it into -B_x . y with pairing_covector's B_x.
        """
        x, y = self._chain(chain1, ComplexMismatch), self._chain(chain2, ComplexMismatch)
        covector, closed = self._covector(x)
        if not (closed and self._closed(y)):
            raise ComplexMismatch("chain is not a cycle")
        return -sum(map(mul, covector, y))


@checked_cache(lambda cover: (need(cover, SurfaceCover, "cover", IncompatibleTower),))
def surface_complex(cover: SurfaceCover) -> CoverComplex:
    return CoverComplex(cover)
