"""Qualitative density experiment for the transvection action on directions.

The homological shadow of the tower action is probed on the projectivized
base homology sphere: a starting class is moved by random symplectic
transvections along a fixed set of curve classes, and the covering radius
of the orbit against quasi-uniform target directions is recorded at
doubling step counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .surface import generator_count, symplectic_product


def transvection(curve, x, sign: int = 1):
    """x + sign * <x, curve> * curve, the twist action on classes."""
    pairing = symplectic_product(x, curve)
    return tuple(xi + sign * pairing * ci for xi, ci in zip(x, curve))


def projective_normalize(vec):
    """Primitive integer representative with positive leading entry."""
    g = 0
    for v in vec:
        g = math.gcd(g, abs(v))
    if g == 0:
        raise DimensionMismatch("zero vector has no direction")
    out = tuple(v // g for v in vec)
    for v in out:
        if v != 0:
            return out if v > 0 else tuple(-x for x in out)
    raise DimensionMismatch("zero vector has no direction")


def shipped_transvection_classes(genus: int = 2) -> tuple[tuple[int, ...], ...]:
    """Twist classes: the standard curves plus one cross-handle mixer.

    Transvections along basis curves alone never couple the handle planes,
    so the difference class b1 - b2 is included to make the walk mix.
    """
    n = generator_count(genus)
    classes = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if genus >= 2:
        mixer = [0] * n
        mixer[1] = 1
        mixer[3] = -1
        classes.append(tuple(mixer))
    return tuple(classes)


def transvection_set_hash(classes) -> str:
    text = json.dumps([list(c) for c in classes], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class OrbitConfig:
    genus: int = 2
    steps: int = 100_000
    targets: int = 256
    seed: int = 0
    start: tuple[int, ...] = (1, 0, 0, 0)
    classes: tuple[tuple[int, ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.classes is None:
            object.__setattr__(
                self, "classes", shipped_transvection_classes(self.genus)
            )
        n = generator_count(self.genus)
        if len(self.start) != n:
            raise DimensionMismatch("start class has the wrong dimension")
        for c in self.classes:
            if len(c) != n:
                raise DimensionMismatch("transvection class has the wrong dimension")


@dataclass(frozen=True)
class OrbitResult:
    config: OrbitConfig
    checkpoints: tuple[tuple[int, int, float], ...]

    @property
    def transvection_hash(self) -> str:
        return transvection_set_hash(self.config.classes)

    @property
    def final_radius(self) -> float:
        return self.checkpoints[-1][2]

    def report(self) -> str:
        lines = [
            f"# seed\t{self.config.seed}",
            f"# start\t{','.join(str(v) for v in self.config.start)}",
            f"# transvections\t{self.transvection_hash}",
            "steps\torbit_size\tcovering_radius",
        ]
        for steps, size, radius in self.checkpoints:
            lines.append(f"{steps}\t{size}\t{radius:.6f}")
        return "\n".join(lines) + "\n"


def _unit(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    return arr / np.linalg.norm(arr)


def quasi_uniform_targets(rng: np.random.Generator, count: int, dim: int):
    """Unit directions from a seeded Gaussian draw."""
    t = rng.normal(size=(count, dim))
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def covering_radius(points, targets) -> float:
    """Largest projective angle from any target to the point set.

    Brute force over all pairs; the experiment loop keeps the same value
    incrementally and is checked against this in tests.
    """
    mat = np.array([_unit(p) for p in points])
    dots = np.abs(targets @ mat.T).max(axis=1)
    return float(np.arccos(np.clip(dots.min(), -1.0, 1.0)))


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
    generator, targets drawn first, then the per-step choices in bulk.
    """
    rng = np.random.default_rng(config.seed)
    dim = generator_count(config.genus)
    targets = quasi_uniform_targets(rng, config.targets, dim)
    start = projective_normalize(config.start)
    points = [start]
    seen = {start}
    best = np.abs(targets @ _unit(start))

    picks = rng.random(config.steps)
    which = rng.integers(0, len(config.classes), size=config.steps)
    signs = rng.integers(0, 2, size=config.steps)

    schedule = _checkpoint_schedule(config.steps)
    checkpoints = []
    next_mark = 0
    for step in range(config.steps + 1):
        if step == schedule[next_mark]:
            radius = float(np.arccos(np.clip(best.min(), -1.0, 1.0)))
            checkpoints.append((step, len(points), radius))
            next_mark += 1
            if next_mark == len(schedule):
                break
        x = points[int(picks[step] * len(points))]
        curve = config.classes[which[step]]
        y = transvection(curve, x, 1 if signs[step] else -1)
        y = projective_normalize(y)
        if y not in seen:
            seen.add(y)
            points.append(y)
            best = np.maximum(best, np.abs(targets @ _unit(y)))
    return OrbitResult(config, tuple(checkpoints))
