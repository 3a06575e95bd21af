"""Qualitative density experiment for the transvection action on directions.

The homological shadow of the tower action is probed on the projectivized
genus-2 homology sphere: the class START is moved by random symplectic
transvections along the curve classes CLASSES, and the covering radius of
the orbit against quasi-uniform target directions is recorded at doubling
step counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import ClassVar

import numpy as np

from .covers import _collector_paused, search_budget
from .errors import CovertowerError, SearchBudgetExceeded, integer

# Points per fold chunk.  In the 100k-step walk (2-core Xeon, numpy 2.4),
# 128 and 256 rows fold equally fast and 64 rows about a fifth slower, while
# each doubling adds about 0.7 MB of peak memory (46.7, 47.1, 47.8 and
# 48.5 MB at 64, 128, 256 and 512 rows).
FOLD_ROWS = 128

START = (1, 0, 0, 0)
# The standard curves a1, b1, a2, b2 and the mixer b1 - b2: transvections
# along basis curves alone never couple the handle planes, so the mixer is
# what makes the walk mix.
CLASSES = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, -1))


def transvection_set_hash(classes) -> str:
    text = json.dumps([list(c) for c in classes], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class OrbitConfig:
    """Size and seed of the walk on genus-2 homology from START along CLASSES."""

    genus: ClassVar[int] = 2
    steps: int = 100_000
    targets: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("steps", 0), ("targets", 1), ("seed", 0)):
            integer(getattr(self, name), name, CovertowerError, low=low)


@dataclass(frozen=True)
class OrbitResult:
    config: OrbitConfig
    checkpoints: tuple[tuple[int, int, float], ...]

    @property
    def final_radius(self) -> float:
        return self.checkpoints[-1][2]

    def report(self) -> str:
        lines = [
            f"# seed\t{self.config.seed}",
            f"# start\t{','.join(str(v) for v in START)}",
            f"# transvections\t{transvection_set_hash(CLASSES)}",
            "steps\torbit_size\tcovering_radius",
        ]
        for steps, size, radius in self.checkpoints:
            lines.append(f"{steps}\t{size}\t{radius:.6f}")
        return "\n".join(lines) + "\n"


def quasi_uniform_targets(rng: np.random.Generator, count: int, dim: int):
    """Unit directions from a seeded Gaussian draw."""
    t = rng.normal(size=(count, dim))
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def _fold(best, targets, batch) -> None:
    """Raise best[t] to max |<target t, p/|p|>| over batch, FOLD_ROWS points at a time.

    Each chunk is read from the points' Python ints in one pass; an entry too
    large for a float raises OverflowError, a norm past the float range
    FloatingPointError.
    """
    dim = targets.shape[1]
    with np.errstate(over="raise"):
        for lo in range(0, len(batch), FOLD_ROWS):
            rows = batch[lo : lo + FOLD_ROWS]
            chunk = np.fromiter(chain.from_iterable(rows), float, len(rows) * dim)
            chunk = chunk.reshape(len(rows), dim)
            chunk /= np.linalg.norm(chunk, axis=1, keepdims=True)
            dots = chunk @ targets.T
            np.maximum(best, np.abs(dots, out=dots).max(axis=0), out=best)


def _checkpoint_schedule(steps: int):
    marks = {0}
    k = 1
    while k <= steps:
        marks.add(k)
        k *= 2
    marks.add(steps)
    return sorted(marks)


def orbit_density_experiment(config: OrbitConfig = OrbitConfig()) -> OrbitResult:
    """Random transvection walk with covering-radius checkpoints.

    Deterministic for a given config: all randomness comes from one seeded
    generator, targets drawn first, then the per-step choices in bulk.  The
    class k and sign of a step are folded into one move index 2k + sign,
    held as one flat tuple of the signed class c and its pairing covector
    Jc, so <x, c> = x . Jc.  A step is straight-line code on the point's
    four entries: four products give the pairing, and the image is one
    tuple that keeps x's own int wherever c is 0.  It probes the seen set
    once, adding the image and keeping it if the set grew.  The points
    found between two checkpoints are folded into the radius together,
    FOLD_ROWS at a time, each chunk read into floats in one pass.

    The start e1 is already primitive with a positive lead.  A transvection
    x -> x + <x, c>c lies in Sp(4, Z): its inverse x - <x, c>c is integral
    too, so it maps primitive vectors to primitive vectors, and every step
    has gcd 1.  One sign flip per step then gives the normalised image,
    with no gcd taken.

    A walked point too large for a float, in an entry or in its norm,
    raises CovertowerError.  More steps, or more target floats, than
    `search_budget()` raise SearchBudgetExceeded before anything is drawn.
    """
    dim = len(START)
    limit = search_budget()
    for count, what in ((config.steps, "steps"), (config.targets * dim, "target floats")):
        if count > limit:
            raise SearchBudgetExceeded(
                f"the walk would draw {count} {what}, more than {limit}; "
                "raise COVERTOWER_BUDGET to override"
            )
    rng = np.random.default_rng(config.seed)
    targets = quasi_uniform_targets(rng, config.targets, dim)
    points = [START]
    seen = set(points)
    best = np.zeros(config.targets)

    picks = rng.random(config.steps)
    # move 2k + sign twists along class k, by -c for sign 0 and +c for sign 1;
    # the narrowed index holds a byte a step
    moves = rng.integers(0, len(CLASSES), size=config.steps)
    moves *= 2
    moves += rng.integers(0, 2, size=config.steps)
    moves = moves.astype(np.uint8)

    # move 2k + sign is the 8-tuple (sign * c, Jc): Jc[2k] = c[2k+1], Jc[2k+1] = -c[2k]
    twists = []
    for c in CLASSES:
        jc = tuple(v for k in range(0, dim, 2) for v in (c[k + 1], -c[k]))
        twists += [tuple(-v for v in c) + jc, tuple(c) + jc]
    zero = (0,) * dim

    checkpoints = []
    n, folded = len(points), 0
    # the walk builds int tuples and folds them into floats: no cycles to find
    with _collector_paused():
        for lo, hi in pairwise([0, *_checkpoint_schedule(config.steps)]):
            # memoryviews yield Python floats and ints one at a time, where
            # tolist() would hold the whole segment's draws as objects at once
            for pick, move in zip(memoryview(picks[lo:hi]), memoryview(moves[lo:hi])):
                # written for the 4-vectors of genus 2, as START and CLASSES are
                x0, x1, x2, x3 = points[int(pick * n)]
                c0, c1, c2, c3, j0, j1, j2, j3 = twists[move]
                p = x0 * j0 + x1 * j1 + x2 * j2 + x3 * j3
                # an entry that c leaves alone stays x's own int object
                y = (
                    x0 + p * c0 if c0 else x0,
                    x1 + p * c1 if c1 else x1,
                    x2 + p * c2 if c2 else x2,
                    x3 + p * c3 if c3 else x3,
                )
                # x is primitive, so y is too (see the docstring): only the sign
                # needs fixing, and y < zero iff its first nonzero entry is negative
                if y < zero:
                    y = (-y[0], -y[1], -y[2], -y[3])
                seen.add(y)
                if len(seen) > n:
                    points.append(y)
                    n += 1
            try:
                _fold(best, targets, points[folded:])
            except (OverflowError, FloatingPointError):
                # COVERTOWER_BUDGET can raise the steps past where points fit a float
                message = f"a point reached by step {hi} is too large for a float"
                raise CovertowerError(message) from None
            folded = n
            radius = float(np.arccos(np.clip(best.min(), -1.0, 1.0)))
            checkpoints.append((hi, n, radius))
        # freed while paused, or the first pass after it would scan every point
        del points, seen
    return OrbitResult(config, tuple(checkpoints))
