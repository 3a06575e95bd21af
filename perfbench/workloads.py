"""The four covertower benchmark workloads: their seeded inputs, jobs and oracles.

Each workload is a pair of functions.  ``<name>_inputs(seed)`` builds
everything the seed decides; it runs during set-up.  ``<name>_job(inputs,
checks)`` is the timed part: it calls the package, checks every output
against an oracle and returns an ``Outcome``.  The job reaches the package
through module attributes (``ct.enumerate_covers``, ``vauts.vaut_act``) at
call time, so that a traced run sees every call.

- ``census``: the CLI ``enumerate`` path for degrees 1..4 at genus 2.  It
  runs the cover search and ``SurfaceCover`` validation almost alone, plus
  ``documents``.  Deterministic; the seed is ignored.
- ``sweep``: four ``verify`` suites at ``max_degree=3``.  Hundreds of small
  covers through ``homology`` and ``limits``, with heavy cache reuse.
- ``tower``: the virtual-automorphism calculus on the degree-16 mod-2
  cover.  Same ``homology`` and ``exact_linalg`` layers as ``sweep``, on a
  few large complexes instead of many small ones.
- ``orbit``: the 100k-step transvection walk, the only float/numpy path.

A job lasts about a second, so that a run holds many rounds: this machine
class is shared, and other tenants slow single rounds by up to half.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import covertower as ct
from covertower import characteristic, documents, homology, limits, orbit, traintrack, vauts, verify

GENUS = 2
# Pointed covers of the genus-2 surface by degree (Mednykh 1978).
MEDNYKH_COUNTS = (1, 15, 220, 5275, 151086)
CENSUS_MAX_DEGREE = 4
# sha256 of the canonical JSON lines of degrees 1..4, in census order: the
# bytes of `covertower enumerate --genus 2 --degree d` for d = 1..4.
CENSUS_SHA256 = "a26d0455d2fe291b7119fcf15020427f59cecaaaa216bd106475fca4fc223ecc"

SWEEP_SUITES = ("riemann-hurwitz", "transfer-scaling", "pairing-invariance", "theorem3")
SWEEP_MAX_DEGREE = 3

# Composites stay at degree <= 2: certifying a degree-9 composite takes minutes.
TOWER_ROUND_TRIPS = 50
TOWER_TRACKS = 4
TOWER_LIFT_DEGREE = 3

ORBIT_STEPS = 100_000
ORBIT_TARGETS = 256
ORBIT_MAX_FINAL_RADIUS = 0.4

_DEGREE_LINE = re.compile(r"degree (\d+): (\d+) covers checked")


class Checks:
    """Oracle checks of one job: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def attempt(self, what: str, fn, *args):
        """fn(*args), or None with a failure recorded when it raises."""
        try:
            return fn(*args)
        except Exception as exc:  # a raised exception is a failed check, not an abort
            traceback.print_exc()
            self.attempted += 1
            self.failures.append(f"{what}: raised {type(exc).__name__}: {exc}")
            return None

    def expect(self, what: str, want, fn, *args):
        """Check that fn(*args) returns want; a raise is one failed check."""
        try:
            got = fn(*args)
        except Exception as exc:  # a raised exception is a failed check, not an abort
            traceback.print_exc()
            self.check(False, f"{what}: raised {type(exc).__name__}: {exc}")
            return None
        self.check(got == want, f"{what}: got {got!r}, expected {want!r}")
        return got


@dataclass
class Outcome:
    ops: int
    first_out_s: float
    fingerprint: str  # digest of what the job produced; equal across reruns of a seed
    sizes: dict = field(default_factory=dict)


# -- census


@dataclass(frozen=True)
class CensusInputs:
    counts: tuple[int, ...] = MEDNYKH_COUNTS[:CENSUS_MAX_DEGREE]
    sha256: str | None = CENSUS_SHA256


def census_inputs(seed: int) -> CensusInputs:
    return CensusInputs()


def census_job(inp: CensusInputs, checks: Checks) -> Outcome:
    digest = hashlib.sha256()
    last = len(inp.counts)
    total = 0
    first_out = None
    for degree, expected in enumerate(inp.counts, 1):
        start = time.perf_counter()
        covers = ct.enumerate_covers(GENUS, degree)
        for cover in covers:
            line = documents.dumps_canonical(documents.cover_document(cover))
            if first_out is None and degree == last:
                first_out = time.perf_counter() - start
            digest.update(line.encode())
        total += len(covers)
        checks.check(len(covers) == expected, f"degree {degree}: {len(covers)} covers, expected {expected}")
    if inp.sha256 is not None:
        checks.check(digest.hexdigest() == inp.sha256, f"census digest {digest.hexdigest()}")
    sizes = {"genus": GENUS, "degrees": last, "covers": total}
    return Outcome(total, first_out or 0.0, digest.hexdigest(), sizes)


# -- sweep


@dataclass(frozen=True)
class SweepInputs:
    seed: int
    suites: tuple[str, ...] = SWEEP_SUITES
    max_degree: int = SWEEP_MAX_DEGREE


def sweep_inputs(seed: int) -> SweepInputs:
    return SweepInputs(seed)


def sweep_job(inp: SweepInputs, checks: Checks) -> Outcome:
    start = time.perf_counter()
    first_out = None
    digest = hashlib.sha256()
    ops = 0
    for suite in inp.suites:
        result = checks.attempt(
            suite, verify.run_suite, suite, GENUS, inp.max_degree, inp.seed, 1
        )
        if first_out is None:
            first_out = time.perf_counter() - start
        if result is None:
            continue
        if not checks.check(result.ok, f"suite {suite} failed"):
            print(documents.dumps_canonical(result.counterexample or {}), end="", file=sys.stderr)
        counted = {int(d): int(n) for d, n in _DEGREE_LINE.findall("\n".join(result.lines))}
        for degree in range(1, inp.max_degree + 1):
            expected = MEDNYKH_COUNTS[degree - 1]
            checks.check(
                counted.get(degree) == expected,
                f"suite {suite} degree {degree}: {counted.get(degree)} covers, expected {expected}",
            )
        ops += sum(counted.values())
        digest.update(result.report().encode())
    sizes = {"genus": GENUS, "suites": list(inp.suites), "max_degree": inp.max_degree, "checks": ops}
    return Outcome(ops, first_out or 0.0, digest.hexdigest(), sizes)


# -- tower


@dataclass(frozen=True)
class TowerInputs:
    seed: int
    covers: tuple  # every cover of degree <= TOWER_LIFT_DEGREE
    swap_cover: int  # degree-2 cover that handle_swap is restricted to
    composed_aut: int  # shipped vaut composed with that restriction, and certified
    round_trips: tuple  # (vaut index, cover index, base class vector)
    tracks: tuple  # (vaut index, cover index, (a, b)) with weights (a + b, a, b)


def tower_inputs(seed: int) -> TowerInputs:
    rng = random.Random(seed)
    covers = tuple(c for d in range(1, TOWER_LIFT_DEGREE + 1) for c in ct.enumerate_covers(GENUS, d))
    degree2 = [i for i, c in enumerate(covers) if c.degree == 2]
    n_auts = len(characteristic.shipped_automorphisms(GENUS))
    pool = n_auts + 2
    n = 2 * GENUS

    def vector():
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                return v

    return TowerInputs(
        seed=seed,
        covers=covers,
        swap_cover=rng.choice(degree2),
        composed_aut=rng.randrange(n_auts),
        round_trips=tuple(
            (rng.randrange(pool), rng.randrange(len(covers)), vector()) for _ in range(TOWER_ROUND_TRIPS)
        ),
        tracks=tuple(
            (rng.randrange(pool), rng.randrange(len(covers)), (rng.randint(1, 3), rng.randint(1, 3)))
            for _ in range(TOWER_TRACKS)
        ),
    )


def _base_class(index: int, value: int = 1):
    return limits.base_class_element(GENUS, tuple(value if k == index else 0 for k in range(2 * GENUS)))


def tower_job(inp: TowerInputs, checks: Checks) -> Outcome:
    start = time.perf_counter()
    results: list = []
    auts = characteristic.shipped_automorphisms(GENUS)
    shipped = [vauts.vaut_from_automorphism(a) for a in auts]
    swap = shipped[[a.name for a in auts].index("handle_swap")]
    restricted = vauts.restrict_vaut(swap, inp.covers[inp.swap_cover])
    composed = vauts.vaut_compose(shipped[inp.composed_aut], restricted)
    pool = shipped + [restricted, composed]
    names = [a.name for a in auts] + ["handle_swap|cover", f"{auts[inp.composed_aut].name}*handle_swap|cover"]

    results.append(checks.expect(f"certificate of {names[-1]}", True, vauts.certified_in_caut, composed, 1))
    first_out = time.perf_counter() - start

    def laws():
        return verify.run_suite("vaut-laws", GENUS, 2, inp.seed, 1).ok

    results.append(checks.expect("suite vaut-laws", True, laws))

    for vi, ci, vec in inp.round_trips:
        def round_trip(v=pool[vi], cover=inp.covers[ci], vec=vec):
            e = limits.cycle_element(cover, homology.surface_complex(cover).transfer(vec))
            back = vauts.vaut_act(v, vauts.vaut_act(vauts.vaut_inverse(v), e))
            return limits.limit_equal(back, e)

        results.append(checks.expect(f"round trip of {names[vi]} on {vec} over cover {ci}", True, round_trip))

    a1, b1 = _base_class(0), _base_class(1)
    for aut, v in zip(auts, shipped):
        if aut.is_orientation_preserving():
            ok = checks.expect(f"{aut.name} preserves the pairing", True, vauts.pairing_preserved, v, a1, b1)
        else:
            # the orientation-reversing flip sends (a1, b1) to (b1, a1)
            def after(v=v):
                return limits.normalized_pairing(vauts.vaut_act(v, a1), vauts.vaut_act(v, b1))

            ok = checks.expect(f"{aut.name} pairing of (a1, b1)", Fraction(-1), after)
        results.append(ok)

    track = traintrack.three_branch_example()
    for cover in inp.covers:
        lifted = checks.attempt("lift_track", traintrack.lift_track, track, cover)
        if lifted is None:
            continue
        lift, matrix = lifted
        columns = [sum(row[b] for row in matrix.matrix) for b in range(track.n_branches)]
        checks.check(
            len(lift.branches) == track.n_branches * cover.degree
            and all(x in (0, 1) for row in matrix.matrix for x in row)
            and columns == [cover.degree] * track.n_branches,
            f"lift of the example track to a degree-{cover.degree} cover",
        )
        results.append(columns)

    for vi, ci, (a, b) in inp.tracks:
        def track_action(v=pool[vi], cover=inp.covers[ci], a=a, b=b):
            _, matrix = traintrack.lift_track(track, cover)
            e = limits.track_element(track, cover, matrix.apply((a + b, a, b)))
            # the example track's homology shadow is (2a + b) * a1
            want = vauts.vaut_act(v, _base_class(0, 2 * a + b))
            return limits.limit_equal(vauts.vaut_act_track(v, e), want)

        results.append(checks.expect(f"track action of {names[vi]} over cover {ci}", True, track_action))

    ops = 2 + len(inp.round_trips) + len(auts) + len(inp.covers) + len(inp.tracks)
    sizes = {
        "genus": GENUS,
        "vauts_certified": 1,
        "mod2_cover_degree": characteristic.mod2_homology_cover(GENUS).degree,
        "round_trips": len(inp.round_trips),
        "covers_lifted": len(inp.covers),
        "track_actions": len(inp.tracks),
        "ops": ops,
    }
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    return Outcome(ops, first_out, digest, sizes)


# -- orbit


def orbit_inputs(seed: int):
    return orbit.OrbitConfig(steps=ORBIT_STEPS, targets=ORBIT_TARGETS, seed=seed)


def orbit_job(config, checks: Checks) -> Outcome:
    start = time.perf_counter()
    result = orbit.orbit_density_experiment(config)
    report = result.report()
    first_out = time.perf_counter() - start
    points = result.checkpoints
    checks.check(
        all(b[2] <= a[2] for a, b in zip(points, points[1:])), "covering radius increased"
    )
    checks.check(all(b[1] >= a[1] for a, b in zip(points, points[1:])), "orbit size decreased")
    checks.check(
        result.final_radius < ORBIT_MAX_FINAL_RADIUS,
        f"final radius {result.final_radius} is not under {ORBIT_MAX_FINAL_RADIUS}",
    )
    sizes = {"genus": config.genus, "steps": config.steps, "targets": config.targets, "points": points[-1][1]}
    return Outcome(config.steps, first_out, hashlib.sha256(report.encode()).hexdigest(), sizes)


WORKLOADS = {
    "census": (census_inputs, census_job),
    "sweep": (sweep_inputs, sweep_job),
    "tower": (tower_inputs, tower_job),
    "orbit": (orbit_inputs, orbit_job),
}
