"""Cell structure and integral homology of a covering surface.

The base surface has one vertex, 2g edge loops, and one 4g-gon face whose
boundary spells the relator.  A degree-d cover lifts this to d vertices
(sheets), 2gd edges, and d faces.

Edges are indexed e = i*d + s for generator i and source sheet s; the edge
runs from sheet s to the sheet the generator sends s to.  Each edge has two
darts, 2e (forward) and 2e+1 (reverse).  The rotation at a vertex lists the
darts leaving it in the cyclic order inherited from the base polygon; faces
are traced from the rotation system, which keeps the Euler characteristic an
independent computation rather than a definition.
"""

from __future__ import annotations

from functools import lru_cache

from .covers import SurfaceCover, nontree_edges, schreier_loop
from .errors import ComplexMismatch, DimensionMismatch
from .exact_linalg import mat_mul, smith_normal_form
from .surface import generator_count, surface_relator


class CoverComplex:
    """Lifted cell structure with rotation system and homology data."""

    def __init__(self, cover: SurfaceCover):
        self.cover = cover
        g, d = cover.genus, cover.degree
        self.n_generators = generator_count(g)
        self.n_vertices = d
        self.n_edges = self.n_generators * d
        self.rotation = self._build_rotation()
        self.rotation_position = {}
        for v, darts in enumerate(self.rotation):
            for pos, dart in enumerate(darts):
                self.rotation_position[dart] = (v, pos)
        self.faces = self._trace_faces()
        self._homology = None

    # -- indexing helpers

    def edge_index(self, gen: int, sheet: int) -> int:
        return gen * self.cover.degree + sheet

    def edge_of_index(self, e: int) -> tuple[int, int]:
        return divmod(e, self.cover.degree)

    def edge_ends(self, e: int) -> tuple[int, int]:
        i, s = self.edge_of_index(e)
        return s, self.cover.perms[i][s]

    def dart_tail(self, dart: int) -> int:
        e, rev = divmod(dart, 2)
        tail, head = self.edge_ends(e)
        return head if rev else tail

    # -- cell structure

    def _build_rotation(self):
        """Darts leaving each vertex, in the cyclic order of the base polygon.

        Per handle the order of ends around the vertex is: a leaving, b
        arriving, a arriving, b leaving.  This is the one-vertex rotation of
        the 4g-gon whose boundary spells the relator; tracing faces with it
        recovers exactly the lifted relator faces.
        """
        cover = self.cover
        d = cover.degree
        rotation = []
        for v in range(d):
            darts = []
            for k in range(cover.genus):
                a, b = 2 * k, 2 * k + 1
                darts.append(2 * self.edge_index(a, v))
                darts.append(2 * self.edge_index(b, cover.inverse_perms[b][v]) + 1)
                darts.append(2 * self.edge_index(a, cover.inverse_perms[a][v]) + 1)
                darts.append(2 * self.edge_index(b, v))
            rotation.append(darts)
        return rotation

    def _next_dart(self, dart: int) -> int:
        reverse = dart ^ 1
        v, pos = self.rotation_position[reverse]
        ring = self.rotation[v]
        return ring[(pos + 1) % len(ring)]

    def _trace_faces(self):
        faces = []
        seen = set()
        for start in range(2 * self.n_edges):
            if start in seen:
                continue
            face = []
            dart = start
            while True:
                face.append(dart)
                seen.add(dart)
                dart = self._next_dart(dart)
                if dart == start:
                    break
            faces.append(tuple(face))
        return faces

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + len(self.faces)

    @property
    def genus(self) -> int:
        chi = self.euler_characteristic
        if chi % 2 != 0:
            raise ComplexMismatch(f"odd Euler characteristic {chi}")
        return (2 - chi) // 2

    def face_word(self, face) -> tuple[int, ...]:
        out = []
        for dart in face:
            e, rev = divmod(dart, 2)
            i, _ = self.edge_of_index(e)
            out.append(-(i + 1) if rev else i + 1)
        return tuple(out)

    def validate(self) -> None:
        d, g = self.cover.degree, self.cover.genus
        if len(self.faces) != d:
            raise ComplexMismatch(f"expected {d} faces, traced {len(self.faces)}")
        if self.euler_characteristic != d * (2 - 2 * g):
            raise ComplexMismatch("Euler characteristic disagrees with the degree")
        relator = surface_relator(g)
        marks = set()
        for face in self.faces:
            if len(face) != 4 * g:
                raise ComplexMismatch("face boundary has wrong length")
            word = self.face_word(face)
            doubled = word + word
            if not any(
                doubled[k : k + len(relator)] == relator for k in range(len(word))
            ):
                raise ComplexMismatch("face boundary does not spell the relator")
            # the relator uses the letter a1 exactly once, so each face holds
            # exactly one forward a1-dart; those darts separate the faces
            first_gen = [dart for dart, letter in zip(face, word) if letter == 1]
            if len(first_gen) != 1:
                raise ComplexMismatch("face does not cross a1 exactly once")
            marks.add(self.dart_tail(first_gen[0]))
        if len(marks) != d:
            raise ComplexMismatch("faces are not separated by their a1 edges")

    # -- chains

    def zero_chain(self):
        return [0] * self.n_edges

    def chain_boundary(self, chain):
        out = [0] * self.n_vertices
        for e, coeff in enumerate(chain):
            if coeff:
                tail, head = self.edge_ends(e)
                out[head] += coeff
                out[tail] -= coeff
        return out

    def is_cycle(self, chain) -> bool:
        return all(x == 0 for x in self.chain_boundary(chain))

    def face_boundary_chain(self, face):
        chain = self.zero_chain()
        for dart in face:
            e, rev = divmod(dart, 2)
            chain[e] += -1 if rev else 1
        return chain

    def transfer(self, base_class):
        """Sum of all lifts of each base generator loop, as a cycle."""
        if len(base_class) != self.n_generators:
            raise DimensionMismatch("base class has wrong length")
        chain = self.zero_chain()
        for i, coeff in enumerate(base_class):
            if coeff:
                for s in range(self.cover.degree):
                    chain[self.edge_index(i, s)] = coeff
        return chain

    def pushforward(self, chain):
        """Image of a cover chain in the base: forget the sheet of every edge."""
        if len(chain) != self.n_edges:
            raise DimensionMismatch("chain has wrong length")
        out = [0] * self.n_generators
        for e, coeff in enumerate(chain):
            if coeff:
                i, _ = self.edge_of_index(e)
                out[i] += coeff
        return out

    def word_path_chain(self, word, sheet: int):
        """Edge chain of the lift of a base path word starting at a sheet."""
        chain = self.zero_chain()
        s = sheet
        for letter in word:
            i = abs(letter) - 1
            if letter > 0:
                chain[self.edge_index(i, s)] += 1
                s = self.cover.perms[i][s]
            else:
                s = self.cover.inverse_perms[i][s]
                chain[self.edge_index(i, s)] -= 1
        return chain

    # -- homology

    def _homology_data(self):
        if self._homology is not None:
            return self._homology
        cover = self.cover
        nontree = nontree_edges(cover)
        r = len(nontree)
        face_rows = []
        for face in self.faces:
            full = self.face_boundary_chain(face)
            face_rows.append([full[self.edge_index(i, s)] for (i, s) in nontree])
        divisors, v, vinv = smith_normal_form(face_rows)
        rank = len(divisors)
        if any(e != 1 for e in divisors):
            raise ComplexMismatch("face lattice is not primitive; homology has torsion")
        # Fundamental cycles: the chain of each Schreier loop, the unique
        # cycle with a single nontree coordinate.
        fundamental = [self.word_path_chain(schreier_loop(cover, e), 0) for e in nontree]
        basis = []
        for j in range(rank, r):
            chain = self.zero_chain()
            for k in range(r):
                c = vinv[j][k]
                if c:
                    for e, val in enumerate(fundamental[k]):
                        chain[e] += c * val
            basis.append(chain)
        self._homology = {
            "nontree": nontree,
            "rank": rank,
            "v": v,
            "vinv": vinv,
            "basis": basis,
        }
        return self._homology

    def homology_rank(self) -> int:
        data = self._homology_data()
        return len(data["basis"])

    def homology_basis(self):
        return [list(c) for c in self._homology_data()["basis"]]

    def class_coordinates(self, chain):
        """Coordinates of a cycle's homology class in the Smith basis."""
        if len(chain) != self.n_edges:
            raise DimensionMismatch("chain has wrong length")
        if not self.is_cycle(chain):
            raise ComplexMismatch("chain is not a cycle")
        data = self._homology_data()
        nontree = data["nontree"]
        x = [chain[self.edge_index(i, s)] for (i, s) in nontree]
        v = data["v"]
        r = len(nontree)
        y = [sum(x[k] * v[k][j] for k in range(r)) for j in range(data["rank"], r)]
        return tuple(y)

    def loop_map(self, images):
        """Matrix of the homology map that sends each Schreier loop to a class.

        images[k] holds the class coordinates, on the target surface, of the
        image of the loop through nontree edge k.  The class of that loop is
        row k of V[:, rank:], and Vinv[rank:] is a left inverse of that
        block, so a map X with V[:, rank:] @ X = images can only be
        Vinv[rank:] @ images, an integer matrix.  Returns X, or None when no
        linear map sends the loops to these classes.
        """
        data = self._homology_data()
        rank = data["rank"]
        x = mat_mul(data["vinv"][rank:], images)
        loops = [row[rank:] for row in data["v"]]
        return x if mat_mul(loops, x) == [list(row) for row in images] else None

    # -- intersection pairing

    def intersection(self, chain1, chain2) -> int:
        """Signed crossing count of two cycles, pushing the second off the first.

        Both cycles are split into strands through each vertex: arriving ends
        are matched to departing ends in rotation order.  The second cycle's
        ends are nudged a quarter slot (later for departures, earlier for
        arrivals), which is the parallel-copy shift; crossings then only
        happen between strand chords inside vertices, counted with the sign
        of the rotation order.
        """
        for chain in (chain1, chain2):
            if len(chain) != self.n_edges:
                raise ComplexMismatch("chain has wrong length")
            if not self.is_cycle(chain):
                raise ComplexMismatch("chain is not a cycle")
        total = 0
        m = 4 * len(self.rotation[0])
        for v in range(self.n_vertices):
            strands1 = self._vertex_strands(chain1, v, 0)
            strands2 = self._vertex_strands(chain2, v, 1)
            for x1, x2 in strands1:
                arc = (x2 - x1) % m
                for y1, y2 in strands2:
                    in1 = (y1 - x1) % m < arc
                    in2 = (y2 - x1) % m < arc
                    if in2 and not in1:
                        total += 1
                    elif in1 and not in2:
                        total -= 1
        return total

    def _vertex_strands(self, chain, v: int, offset: int):
        """Strands of a cycle through vertex v as (arrive, depart) positions.

        offset 0 keeps ends on integer rotation slots; offset 1 shifts
        departures +1/4 and arrivals -1/4 slot, producing the parallel copy.
        """
        arrive = []
        depart = []
        ring = self.rotation[v]
        for pos, dart in enumerate(ring):
            e, rev = divmod(dart, 2)
            coeff = chain[e]
            if coeff == 0:
                continue
            # Forward dart at its tail: traversals leave v along it (count
            # +coeff); its reverse appears at the head vertex where forward
            # traversals arrive.
            if rev == 0:
                leaving, arriving = max(coeff, 0), max(-coeff, 0)
            else:
                leaving, arriving = max(-coeff, 0), max(coeff, 0)
            for _ in range(leaving):
                depart.append(4 * pos + offset)
            for _ in range(arriving):
                arrive.append(4 * pos - offset)
        arrive.sort()
        depart.sort()
        if len(arrive) != len(depart):
            raise ComplexMismatch("cycle has unbalanced ends at a vertex")
        return list(zip(arrive, depart))

    def pairing_matrix(self):
        basis = self._homology_data()["basis"]
        return [
            [self.intersection(b1, b2) for b2 in basis]
            for b1 in basis
        ]


@lru_cache(maxsize=None)
def surface_complex(cover: SurfaceCover) -> CoverComplex:
    cplx = CoverComplex(cover)
    cplx.validate()
    return cplx


def transfer_along_arrow(arrow, chain):
    """Pull a chain on the arrow's target back to the full preimage chain."""
    src = surface_complex(arrow.source)
    dst = surface_complex(arrow.target)
    if len(chain) != dst.n_edges:
        raise DimensionMismatch("chain does not fit the arrow's target")
    out = src.zero_chain()
    for e in range(src.n_edges):
        i, s = src.edge_of_index(e)
        out[e] = chain[dst.edge_index(i, arrow.sheet_map[s])]
    return out
