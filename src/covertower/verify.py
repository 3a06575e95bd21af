"""Verification sweeps over enumerated covers, with replayable counterexamples.

Each suite checks one family of exact identities across all covers up to a
degree bound.  On failure it stops at the first counterexample (in
enumeration order, so deterministic) and packages enough data to re-run
that single instance later.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul

from .characteristic import shipped_automorphisms
from .covers import SurfaceCover, enumerate_covers, factors_through, trivial_cover
from .documents import (
    counterexample_document,
    cover_document,
    cycle_document,
    element_document,
    parse_cover,
    parse_cycle,
    parse_element,
    parse_vaut,
    rational_str,
    vaut_document,
    DocumentError,
)
from .errors import CovertowerError
from .homology import surface_complex
from .limits import (
    base_class_element,
    cycle_element,
    lift_element,
    limit_equal,
    pairing_table,
)
from .surface import generator_count, standard_symplectic
from .vauts import (
    identity_vaut,
    pairing_preserved,
    restrict_vaut,
    vaut_act,
    vaut_compose,
    vaut_from_automorphism,
    vaut_inverse,
)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    ok: bool
    lines: tuple[str, ...]
    counterexample: dict | None = None

    def report(self) -> str:
        status = "ok" if self.ok else "FAILED"
        body = "\n".join(self.lines)
        return f"suite {self.suite}: {status}\n{body}\n"


def _sweep(suite: str, worker, genus: int, max_degree: int) -> SuiteResult:
    lines = []
    for degree in range(1, max_degree + 1):
        covers = enumerate_covers(genus, degree)
        for cover in covers:
            failure = worker(cover)
            if failure is not None:
                return SuiteResult(
                    suite,
                    False,
                    tuple(lines + [f"degree {degree}: counterexample found"]),
                    counterexample_document(suite, failure),
                )
        lines.append(f"degree {degree}: {len(covers)} covers checked")
    return SuiteResult(suite, True, tuple(lines))


# -- riemann-hurwitz

def _rh_one(cover: SurfaceCover):
    got = surface_complex(cover).genus
    if got != cover.total_genus:
        return {
            "cover": cover_document(cover),
            "expected_genus": cover.total_genus,
            "got_genus": got,
        }
    return None


def suite_riemann_hurwitz(genus: int, max_degree: int, seed: int):
    return _sweep("riemann-hurwitz", _rh_one, genus, max_degree)


def _field(data, key: str, parse):
    """Parse one counterexample field; a missing or malformed one is named."""
    if key not in data:
        raise DocumentError(f"counterexample data lacks the {key!r} field")
    try:
        return parse(data[key])
    except (CovertowerError, ValueError) as exc:
        raise DocumentError(f"counterexample field {key!r}: {exc}") from exc


def _replay_riemann_hurwitz(data) -> bool:
    cover = _field(data, "cover", parse_cover)
    return surface_complex(cover).genus == cover.total_genus


# -- transfer-scaling

def _ts_one(cover: SurfaceCover):
    cx = surface_complex(cover)
    g, d = cover.genus, cover.degree
    n = generator_count(g)
    form = standard_symplectic(g)
    basis = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    transfers = [cx.transfer(v) for v in basis]
    covectors = [cx.pairing_covector(t) for t in transfers]
    for i in range(n):
        pushed = cx.pushforward(transfers[i])
        expected = tuple(d * v for v in basis[i])
        if tuple(pushed) != expected:
            return {
                "cover": cover_document(cover),
                "what": "pushforward",
                "class_index": i,
                "expected": list(expected),
                "got": list(pushed),
            }
        for j in range(n):
            got = -sum(map(mul, covectors[i], transfers[j]))
            want = d * form[i][j]
            if got != want:
                return {
                    "cover": cover_document(cover),
                    "what": "pairing",
                    "pair": [i, j],
                    "expected": want,
                    "got": got,
                }
    return None


def suite_transfer_scaling(genus: int, max_degree: int, seed: int):
    return _sweep("transfer-scaling", _ts_one, genus, max_degree)


def _replay_transfer_scaling(data) -> bool:
    return _ts_one(_field(data, "cover", parse_cover)) is None


# -- pairing-invariance

def _random_cycle(cx, rng):
    chain = cx.zero_chain()
    for row in cx.homology_basis():
        c = rng.randint(-2, 2)
        if c:
            for k, v in enumerate(row):
                chain[k] += c * v
    return chain


def _random_boundary(cx, rng):
    chain = cx.zero_chain()
    for face in cx.faces:
        c = rng.randint(-1, 1)
        if c:
            for k, v in enumerate(cx.face_boundary_chain(face)):
                chain[k] += c * v
    return chain


def _pi_witness(cx, c1, c2, moved1, moved2):
    """Cycles of the first failing check, or None when all hold.

    Boundary moves must keep the pairing and the class, and a cycle must
    pair to zero with itself.
    """
    if cx.intersection(moved1, moved2) != cx.intersection(c1, c2) or (
        cx.class_coordinates(moved1) != cx.class_coordinates(c1)
    ):
        return c1, c2, moved1, moved2
    if cx.intersection(c1, c1) != 0:
        return c1, c1, c1, c1
    return None


def _pi_one(cover: SurfaceCover, seed: int):
    cx = surface_complex(cover)
    rng = random.Random(f"{seed}:{cover.genus}:{cover.perms}")
    for _ in range(3):
        c1 = _random_cycle(cx, rng)
        c2 = _random_cycle(cx, rng)
        p1 = _random_boundary(cx, rng)
        p2 = _random_boundary(cx, rng)
        moved1 = [a + b for a, b in zip(c1, p1)]
        moved2 = [a + b for a, b in zip(c2, p2)]
        witness = _pi_witness(cx, c1, c2, moved1, moved2)
        if witness is not None:
            data = {"cover": cover_document(cover)}
            for key, chain in zip(("c1", "c2", "moved1", "moved2"), witness):
                data[key] = cycle_document(cycle_element(cover, chain))
            return data
    return None


def suite_pairing_invariance(genus: int, max_degree: int, seed: int):
    return _sweep("pairing-invariance", partial(_pi_one, seed=seed), genus, max_degree)


def _replay_pairing_invariance(data) -> bool:
    cover = _field(data, "cover", parse_cover)
    cycles = []
    for key in ("c1", "c2", "moved1", "moved2"):
        element = _field(data, key, parse_cycle)
        if element.cover != cover:
            raise DocumentError(f"counterexample field {key!r} lies on another cover")
        cycles.append(element.payload)
    return _pi_witness(surface_complex(cover), *cycles) is None


# -- vaut-laws

def _law_pool(genus: int, max_degree: int):
    vauts = [identity_vaut(genus)]
    if genus == 2:
        for aut in shipped_automorphisms(2):
            vauts.append(vaut_from_automorphism(aut))
    degree = min(2, max_degree)
    covers = list(enumerate_covers(genus, degree)) or [trivial_cover(genus)]
    covers = covers[:3]
    unrestricted = vauts[-1]
    for cover in covers[:2]:
        vauts.append(restrict_vaut(unrestricted, cover))
    n = generator_count(genus)
    elements = [
        base_class_element(genus, tuple(1 if k == i else 0 for k in range(n)))
        for i in range(n)
    ]
    for cover in covers[:2]:
        cx = surface_complex(cover)
        elements.append(cycle_element(cover, cx.transfer(elements[0].payload)))
    return vauts, elements, covers


def _identity_law(e) -> bool:
    return limit_equal(vaut_act(identity_vaut(e.base_genus), e), e)


def _inverse_law(v, e) -> bool:
    return limit_equal(vaut_act(v, vaut_act(vaut_inverse(v), e)), e)


def _independence_law(v, e, fine) -> bool:
    return limit_equal(vaut_act(v, fine), vaut_act(v, e))


def _composition_law(v1, v2, e) -> bool:
    return limit_equal(vaut_act(vaut_compose(v1, v2), e), vaut_act(v1, vaut_act(v2, e)))


# Law name -> (check, counterexample field of each argument); fields named
# vaut* hold vauts, the others limit elements.
_LAWS = {
    "identity": (_identity_law, ("element",)),
    "inverse": (_inverse_law, ("vaut", "element")),
    "representative-independence": (_independence_law, ("vaut", "element", "fine")),
    "composition": (_composition_law, ("vaut1", "vaut2", "element")),
}


def _law_failure(law: str, args):
    """Counterexample data when the law fails on args, else None."""
    check, fields = _LAWS[law]
    if check(*args):
        return None
    data = {"law": law}
    for field, value in zip(fields, args):
        dump = vaut_document if field.startswith("vaut") else element_document
        data[field] = dump(value)
    return data


def suite_vaut_laws(genus: int, max_degree: int, seed: int):
    suite = "vaut-laws"
    vauts, elements, covers = _law_pool(genus, max_degree)
    e = elements[0]
    rng = random.Random(seed)
    triples = [
        (rng.randrange(len(vauts)), rng.randrange(len(vauts)), rng.randrange(len(elements)))
        for _ in range(20)
    ]
    base = trivial_cover(genus)
    fines = [lift_element(e, factors_through(cover, base)) for cover in covers[:2]]
    stages = (
        ("identity", [(x,) for x in elements], f"identity law: {len(elements)} elements"),
        ("inverse", [(v, e) for v in vauts], f"inverse law: {len(vauts)} vauts"),
        ("representative-independence", [(v, e, f) for v in vauts[:4] for f in fines],
         "representative independence: checked"),
        ("composition", [(vauts[a], vauts[b], elements[c]) for a, b, c in triples],
         "composition functoriality: 20 seeded triples"),
    )
    lines = []
    for law, cases, line in stages:
        for args in cases:
            data = _law_failure(law, args)
            if data is not None:
                return SuiteResult(suite, False, tuple(lines), counterexample_document(suite, data))
        lines.append(line)
    return SuiteResult(suite, True, tuple(lines))


def _replay_vaut_laws(data) -> bool:
    law = data.get("law")
    if not isinstance(law, str) or law not in _LAWS:
        raise DocumentError(f"unknown vaut law {law!r}")
    check, fields = _LAWS[law]
    args = [
        _field(data, f, parse_vaut if f.startswith("vaut") else parse_element)
        for f in fields
    ]
    return check(*args)


# -- theorem3 (normalized-pairing invariance; the suite name is part of the CLI)

def _t3_one(cover: SurfaceCover, genus: int):
    cx = surface_complex(cover)
    n = generator_count(genus)
    form = standard_symplectic(genus)
    basis = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    base_elements = [base_class_element(genus, v) for v in basis]
    lifted = [cycle_element(cover, cx.transfer(v)) for v in basis]
    tables = (pairing_table(lifted, lifted), pairing_table(base_elements, lifted))
    for i in range(n):
        for j in range(n):
            want = Fraction(form[i][j], genus - 1)
            for after in (table[i][j] for table in tables):
                if after != want:
                    return {
                        "what": "lift-invariance",
                        "cover": cover_document(cover),
                        "pair": [i, j],
                        "before": rational_str(want),
                        "after": rational_str(after),
                    }
    return None


def suite_theorem3(genus: int, max_degree: int, seed: int):
    suite = "theorem3"
    result = _sweep(suite, partial(_t3_one, genus=genus), genus, max_degree)
    if not result.ok:
        return result
    lines = list(result.lines)
    n = generator_count(genus)
    e1 = base_class_element(genus, tuple(1 if k == 0 else 0 for k in range(n)))
    e2 = base_class_element(genus, tuple(1 if k == 1 else 0 for k in range(n)))
    vauts = [identity_vaut(genus)]
    if genus == 2:
        # the pairing is only preserved by orientation-preserving elements
        for aut in shipped_automorphisms(2):
            if aut.is_orientation_preserving():
                vauts.append(vaut_from_automorphism(aut))
        degree2 = enumerate_covers(2, min(2, max_degree))
        if degree2:
            vauts.append(restrict_vaut(vauts[-1], degree2[0]))
    for v in vauts:
        if not pairing_preserved(v, e1, e2):
            data = {
                "what": "vaut-preservation",
                "vaut": vaut_document(v),
                "e1": element_document(e1),
                "e2": element_document(e2),
            }
            return SuiteResult(suite, False, tuple(lines), counterexample_document(suite, data))
    lines.append(f"vaut preservation: {len(vauts)} vauts on the (a1, b1) pair")
    return SuiteResult(suite, True, tuple(lines))


def _replay_theorem3(data) -> bool:
    if data.get("what") == "vaut-preservation":
        v = _field(data, "vaut", parse_vaut)
        e1, e2 = (_field(data, key, parse_element) for key in ("e1", "e2"))
        return pairing_preserved(v, e1, e2)
    cover = _field(data, "cover", parse_cover)
    return _t3_one(cover, cover.genus) is None


SUITES = {
    "riemann-hurwitz": suite_riemann_hurwitz,
    "transfer-scaling": suite_transfer_scaling,
    "pairing-invariance": suite_pairing_invariance,
    "vaut-laws": suite_vaut_laws,
    "theorem3": suite_theorem3,
}

_REPLAYS = {
    "riemann-hurwitz": _replay_riemann_hurwitz,
    "transfer-scaling": _replay_transfer_scaling,
    "pairing-invariance": _replay_pairing_invariance,
    "vaut-laws": _replay_vaut_laws,
    "theorem3": _replay_theorem3,
}


def run_suite(
    suite: str, genus: int = 2, max_degree: int = 3, seed: int = 0, jobs: int = 1
) -> SuiteResult:
    """Run one suite serially; ``jobs`` stays only for positional callers and must be 1."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: sweeps run serially")
    if suite not in SUITES:
        raise DocumentError(f"unknown suite {suite!r}")
    return SUITES[suite](genus, max_degree, seed)


def replay_counterexample(suite: str, data: dict) -> bool:
    """Re-run one packaged counterexample; True when the property now holds."""
    if suite not in _REPLAYS:
        raise DocumentError(f"unknown suite {suite!r}")
    if not isinstance(data, dict):
        raise DocumentError("counterexample data must be a JSON object")
    return _REPLAYS[suite](data)
