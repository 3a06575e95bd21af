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
from operator import mul

from .covers import SurfaceCover, schreier_loop
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
        self._tails = list(range(d)) * self.n_generators
        self._heads = [t for perm in cover.perms for t in perm]
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
            marks.add(self._tails[first_gen[0] // 2])
        if len(marks) != d:
            raise ComplexMismatch("faces are not separated by their a1 edges")

    # -- chains

    def zero_chain(self):
        return [0] * self.n_edges

    def chain_boundary(self, chain):
        out = [0] * self.n_vertices
        for coeff, tail, head in zip(chain, self._tails, self._heads):
            if coeff:
                out[head] += coeff
                out[tail] -= coeff
        return out

    def is_cycle(self, chain) -> bool:
        return not any(self.chain_boundary(chain))

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
        return [coeff for coeff in base_class for _ in range(self.cover.degree)]

    def pushforward(self, chain):
        """Image of a cover chain in the base: forget the sheet of every edge."""
        if len(chain) != self.n_edges:
            raise DimensionMismatch("chain has wrong length")
        d = self.cover.degree
        return [sum(chain[e : e + d]) for e in range(0, self.n_edges, d)]

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
        nontree = cover.schreier.nontree
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
            basis.append(tuple(chain))
        self._homology = {
            "rank": rank,
            "v": v,
            "vinv": vinv,
            "basis": tuple(basis),
        }
        return self._homology

    def homology_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integral homology basis, one edge chain per class."""
        return self._homology_data()["basis"]

    def class_coordinates(self, chain):
        """Coordinates of a cycle's homology class in the Smith basis."""
        if len(chain) != self.n_edges:
            raise DimensionMismatch("chain has wrong length")
        if not self.is_cycle(chain):
            raise ComplexMismatch("chain is not a cycle")
        data = self._homology_data()
        nontree = self.cover.schreier.nontree
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

    def pairing_covector(self, chain):
        """B_x[e] = x_e + R_x(2e) - R_x(2e+1), R_x(dart) the running sum of phi_x
        before the dart in its rotation; intersection(x, y) = -B_x . y for cycles."""
        if len(chain) != self.n_edges:
            raise ComplexMismatch("chain has wrong length")
        before = [0] * (2 * self.n_edges)
        for ring in self.rotation:
            run = 0
            for dart in ring:
                before[dart] = run
                run += -chain[dart >> 1] if dart & 1 else chain[dart >> 1]
        darts = iter(before)  # R_x(2e), then R_x(2e+1), for each edge e
        return [c + fwd - rev for c, fwd, rev in zip(chain, darts, darts)]

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
        for chain in (chain1, chain2):
            if len(chain) != self.n_edges:
                raise ComplexMismatch("chain has wrong length")
            if not self.is_cycle(chain):
                raise ComplexMismatch("chain is not a cycle")
        return -sum(map(mul, self.pairing_covector(chain1), chain2))


@lru_cache(maxsize=None)
def surface_complex(cover: SurfaceCover) -> CoverComplex:
    cplx = CoverComplex(cover)
    cplx.validate()
    return cplx


def transfer_along_arrow(arrow, chain):
    """Pull a chain on the arrow's target back to the full preimage chain."""
    d = arrow.target.degree
    if len(chain) != len(arrow.target.perms) * d:
        raise DimensionMismatch("chain does not fit the arrow's target")
    return [chain[i + t] for i in range(0, len(chain), d) for t in arrow.sheet_map]
