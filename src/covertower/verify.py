"""Verification sweeps over enumerated covers, with replayable counterexamples.

A suite is an ordered tuple of stages in ``SUITES``.  A stage draws its
cases from the census (every cover up to the degree bound, one report line
per degree) or from a fixed pool (one report line), and runs its check on
each.  A check returns counterexample data, or None when the property
holds.  ``run_suite`` stops at the first failure (in enumeration order, so
deterministic) and writes each of the check's arguments by its kind (cover,
cycle, element or vaut, one writer and reader each in ``_KINDS``), and in a
suite of several stages the stage's name under the suite's key in ``_TAGS``;
``replay_counterexample`` picks the stage by that name, reads the arguments
back by kind and reruns the check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable

from .characteristic import shipped_automorphisms
from .covers import arrow_to_trivial, enumerate_covers
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
from .errors import BadDegree, CovertowerError, integer
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


@dataclass(frozen=True)
class Stage:
    """One row of a suite: check(*case, **constants(genus)) on each case
    returns None when the property holds, else data to add to the written
    case (an entry may replace a written argument).

    fields gives the key and kind of each check argument.  A census stage
    (pool None) takes cases(cover, seed) for every cover; a pool stage takes
    pool(genus, max_degree, seed)[name], the pool built once per run for all
    stages that share it, and reports line with {n} its case count.
    """

    name: str
    check: Callable
    fields: tuple[tuple[str, str], ...]
    cases: Callable = lambda cover, seed: ((cover,),)
    constants: Callable = lambda genus: {}
    pool: Callable | None = None
    line: str = ""


_COVER = (("cover", "cover"),)


def _unit_basis(genus: int) -> tuple[tuple[int, ...], ...]:
    n = generator_count(genus)
    return tuple(tuple(int(k == i) for k in range(n)) for i in range(n))


def _base_elements(genus: int) -> list:
    """The standard homology basis of the base, as limit elements."""
    return [base_class_element(genus, v) for v in _unit_basis(genus)]


# -- riemann-hurwitz

def _rh_one(cover):
    got = surface_complex(cover).genus
    if got != cover.total_genus:
        return {"expected_genus": cover.total_genus, "got_genus": got}
    return None


# -- transfer-scaling

def _ts_constants(genus: int):
    return {"form": standard_symplectic(genus), "basis": _unit_basis(genus)}


def _ts_one(cover, form, basis):
    cx = surface_complex(cover)
    d, n = cover.degree, len(basis)
    transfers = [cx.transfer(v) for v in basis]
    covectors = [cx.pairing_covector(t) for t in transfers]
    for i in range(n):
        pushed = cx.pushforward(transfers[i])
        expected = tuple(d * v for v in basis[i])
        if tuple(pushed) != expected:
            return {
                "what": "pushforward",
                "class_index": i,
                "expected": list(expected),
                "got": list(pushed),
            }
        for j in range(n):
            got = -sum(map(mul, covectors[i], transfers[j]))
            want = d * form[i][j]
            if got != want:
                return {"what": "pairing", "pair": [i, j], "expected": want, "got": got}
    return None


# -- pairing-invariance

def _random_cycle(cx, rng, basis):
    """Random combination of the basis cycles, each an (edge, coefficient) list."""
    chain = cx.zero_chain()
    for row in basis:
        c = rng.randint(-2, 2)
        if c:
            for k, v in row:
                chain[k] += c * v
    return chain


def _random_boundary(cx, rng):
    chain = cx.zero_chain()
    for face in cx.faces:
        c = rng.randint(-1, 1)
        if c:
            for dart in face:
                chain[dart // 2] += -c if dart % 2 else c
    return chain


def _pi_cases(cover, seed):
    """Three seeded pairs of cycles on the cover, each moved by a boundary."""
    cx = surface_complex(cover)
    rng = random.Random(f"{seed}:{cover.genus}:{cover.perms}")
    basis = [[(k, v) for k, v in enumerate(row) if v] for row in cx.homology_basis()]
    for _ in range(3):
        c1 = _random_cycle(cx, rng, basis)
        c2 = _random_cycle(cx, rng, basis)
        p1 = _random_boundary(cx, rng)
        p2 = _random_boundary(cx, rng)
        yield cover, c1, c2, [a + b for a, b in zip(c1, p1)], [a + b for a, b in zip(c2, p2)]


def _pi_one(cover, c1, c2, moved1, moved2):
    """Boundary moves must keep the pairing and the class, and a cycle must
    pair to zero with itself; a failure of the latter names c1 alone."""
    cx = surface_complex(cover)
    if cx.intersection(moved1, moved2) != cx.intersection(c1, c2) or (
        cx.class_coordinates(moved1) != cx.class_coordinates(c1)
    ):
        return {}
    if cx.intersection(c1, c1) != 0:
        alone = cycle_document(cycle_element(cover, c1))
        return {"c2": alone, "moved1": alone, "moved2": alone}
    return None


# -- vaut-laws

def _law_pool(genus: int, max_degree: int, seed: int):
    """The cases of each law: the identity, the shipped automorphisms at
    genus 2 and their restrictions to the first covers of degree at most 2,
    acting on the base classes, their transfers and 20 seeded triples."""
    vauts = [identity_vaut(genus)]
    if genus == 2:
        vauts += shipped_automorphisms(2)
    covers = enumerate_covers(genus, min(2, max_degree))[:2]
    unrestricted = vauts[-1]
    for cover in covers:
        vauts.append(restrict_vaut(unrestricted, cover))
    elements = _base_elements(genus)
    for cover in covers:
        cx = surface_complex(cover)
        elements.append(cycle_element(cover, cx.transfer(elements[0].payload)))
    e = elements[0]
    rng = random.Random(seed)
    triples = [
        (rng.randrange(len(vauts)), rng.randrange(len(vauts)), rng.randrange(len(elements)))
        for _ in range(20)
    ]
    fines = [lift_element(e, arrow_to_trivial(cover)) for cover in covers]
    return {
        "identity": [(x,) for x in elements],
        "inverse": [(v, e) for v in vauts],
        "representative-independence": [(v, e, f) for v in vauts[:4] for f in fines],
        "composition": [(vauts[a], vauts[b], elements[c]) for a, b, c in triples],
    }


def _identity_law(e):
    return None if limit_equal(vaut_act(identity_vaut(e.base_genus), e), e) else {}


def _inverse_law(v, e):
    return None if limit_equal(vaut_act(v, vaut_act(vaut_inverse(v), e)), e) else {}


def _independence_law(v, e, fine):
    return None if limit_equal(vaut_act(v, fine), vaut_act(v, e)) else {}


def _composition_law(v1, v2, e):
    same = limit_equal(vaut_act(vaut_compose(v1, v2), e), vaut_act(v1, vaut_act(v2, e)))
    return None if same else {}


# -- theorem3 (normalized-pairing invariance; the suite name is part of the CLI)

def _t3_constants(genus: int):
    """The base elements and the expected normalized pairings."""
    wants = [[Fraction(x, genus - 1) for x in row] for row in standard_symplectic(genus)]
    return {"wants": wants, "base": _base_elements(genus)}


def _t3_one(cover, wants, base):
    # lifting along the constant arrow is the transfer, valid by construction
    down = arrow_to_trivial(cover)
    lifted = [lift_element(e, down) for e in base]
    tables = (pairing_table(lifted, lifted), pairing_table(base, lifted))
    for i, row in enumerate(wants):
        for j, want in enumerate(row):
            for after in (table[i][j] for table in tables):
                if after != want:
                    return {"pair": [i, j], "before": rational_str(want), "after": rational_str(after)}
    return None


def _preservation_pool(genus: int, max_degree: int, seed: int):
    e1, e2 = _base_elements(genus)[:2]
    vauts = [identity_vaut(genus)]
    if genus == 2:
        # the pairing is only preserved by orientation-preserving elements
        vauts += (v for v in shipped_automorphisms(2) if v.is_orientation_preserving())
        vauts.append(restrict_vaut(vauts[-1], enumerate_covers(2, min(2, max_degree))[0]))
    return {"vaut-preservation": [(v, e1, e2) for v in vauts]}


def _preserves(v, e1, e2):
    return None if pairing_preserved(v, e1, e2) else {}


def _law(name: str, check, fields, line: str) -> Stage:
    return Stage(name, check, fields, pool=_law_pool, line=line)


SUITES = {
    "riemann-hurwitz": (Stage("riemann-hurwitz", _rh_one, _COVER),),
    "transfer-scaling": (
        Stage("transfer-scaling", _ts_one, _COVER, constants=_ts_constants),
    ),
    "pairing-invariance": (
        Stage(
            "pairing-invariance",
            _pi_one,
            _COVER + tuple((key, "cycle") for key in ("c1", "c2", "moved1", "moved2")),
            cases=_pi_cases,
        ),
    ),
    "vaut-laws": (
        _law("identity", _identity_law, (("element", "element"),),
             "identity law: {n} elements"),
        _law("inverse", _inverse_law, (("vaut", "vaut"), ("element", "element")),
             "inverse law: {n} vauts"),
        _law("representative-independence", _independence_law,
             (("vaut", "vaut"), ("element", "element"), ("fine", "element")),
             "representative independence: checked"),
        _law("composition", _composition_law,
             (("vaut1", "vaut"), ("vaut2", "vaut"), ("element", "element")),
             "composition functoriality: {n} seeded triples"),
    ),
    "theorem3": (
        Stage("lift-invariance", _t3_one, _COVER, constants=_t3_constants),
        Stage("vaut-preservation", _preserves,
              (("vaut", "vaut"), ("e1", "element"), ("e2", "element")),
              pool=_preservation_pool,
              line="vaut preservation: {n} vauts on the (a1, b1) pair"),
    ),
}

# In a suite of several stages, the key that names the stage in the data and
# the stage that data without it names (documents built by hand leave it out).
_TAGS = {"vaut-laws": ("law", None), "theorem3": ("what", "lift-invariance")}


def _rounds(stage: Stage, genus: int, max_degree: int, seed: int, pools: dict):
    """(cases, line when all hold, lines when one fails) of each report line."""
    if stage.pool is None:
        for degree in range(1, max_degree + 1):
            covers = enumerate_covers(genus, degree)
            cases = (case for cover in covers for case in stage.cases(cover, seed))
            yield (cases, f"degree {degree}: {len(covers)} covers checked",
                   (f"degree {degree}: counterexample found",))
        return
    if stage.pool not in pools:
        pools[stage.pool] = stage.pool(genus, max_degree, seed)
    cases = pools[stage.pool][stage.name]
    yield cases, stage.line.format(n=len(cases)), ()


def run_suite(
    suite: str, genus: int = 2, max_degree: int = 3, seed: int = 0, jobs: int = 1
) -> SuiteResult:
    """Run one suite serially; ``jobs`` must be 1, and only perfbench's tower job passes it."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: sweeps run serially")
    if suite not in SUITES:
        raise DocumentError(f"unknown suite {suite!r}")
    integer(genus, "genus", BadDegree, low=2)
    integer(max_degree, "max_degree", BadDegree, low=1)
    integer(seed, "seed", CovertowerError)
    lines, pools = [], {}
    for stage in SUITES[suite]:
        constants = stage.constants(genus)
        for cases, held, failed in _rounds(stage, genus, max_degree, seed, pools):
            for case in cases:
                found = stage.check(*case, **constants)
                if found is not None:
                    document = counterexample_document(suite, _written(suite, stage, case, found))
                    return SuiteResult(suite, False, (*lines, *failed), document)
            lines.append(held)
    return SuiteResult(suite, True, tuple(lines))


# Writer and reader of each argument kind.  A cycle argument is a chain on
# the stage's cover argument, written as a cycle on it and read back from one.
_KINDS = {
    "cover": (cover_document, parse_cover),
    "cycle": (cycle_document, parse_cycle),
    "element": (element_document, parse_element),
    "vaut": (vaut_document, parse_vaut),
}


def _written(suite: str, stage: Stage, case, found: dict) -> dict:
    """Counterexample data: the stage's tag, each argument by kind, then found."""
    data = {_TAGS[suite][0]: stage.name} if suite in _TAGS else {}
    for (key, kind), value in zip(stage.fields, case):
        if kind == "cover":
            cover = value
        elif kind == "cycle":
            value = cycle_element(cover, value)
        data[key] = _KINDS[kind][0](value)
    return data | found


def replay_counterexample(suite: str, data: dict) -> bool:
    """Re-run one packaged counterexample; True when the property now holds."""
    if suite not in SUITES:
        raise DocumentError(f"unknown suite {suite!r}")
    if not isinstance(data, dict):
        raise DocumentError("counterexample data must be a JSON object")
    stage = SUITES[suite][0]
    if suite in _TAGS:
        key, untagged = _TAGS[suite]
        name = untagged if data.get(key) is None else data[key]
        stage = next((s for s in SUITES[suite] if s.name == name), None)
        if stage is None:
            raise DocumentError(f"counterexample field {key!r}: unknown stage {name!r:.40}")
    case, cover = [], None
    for field, kind in stage.fields:
        if field not in data:
            raise DocumentError(f"counterexample data lacks the {field!r} field")
        try:
            value = _KINDS[kind][1](data[field])
        except (CovertowerError, ValueError) as exc:
            raise DocumentError(f"counterexample field {field!r}: {exc}") from exc
        if kind == "cover":
            cover = value
        elif kind == "cycle":
            if value.cover != cover:
                raise DocumentError(f"counterexample field {field!r} lies on another cover")
            value = value.payload
        case.append(value)
    constants = {} if cover is None else stage.constants(cover.genus)
    return stage.check(*case, **constants) is None
