#!/usr/bin/env python3
"""Measure final covering radii across seeds to support a frozen threshold.

The acceptance threshold of 0.4 rad at 100000 steps (seed 0) was frozen
from this measurement; rerun to reproduce.  Also cross-checks the walk's
checkpoint radii against the brute-force all-pairs oracle on a small run.
"""

import argparse
import math

import numpy as np

from covertower import OrbitConfig, orbit_density_experiment
from covertower.cli import _int_at_least
from covertower.orbit import (
    CLASSES,
    START,
    covering_radius,
    projective_normalize,
    quasi_uniform_targets,
    transvection,
)


def brute_force_radii(config: OrbitConfig):
    """Re-run the walk, recomputing the radius from scratch per checkpoint."""
    rng = np.random.default_rng(config.seed)
    targets = quasi_uniform_targets(rng, config.targets, len(START))
    points = [projective_normalize(START)]
    seen = set(points)
    picks = rng.random(config.steps)
    which = rng.integers(0, len(CLASSES), size=config.steps)
    signs = rng.integers(0, 2, size=config.steps)
    radii = {0: covering_radius(points, targets)}
    for step in range(config.steps):
        x = points[int(picks[step] * len(points))]
        y = projective_normalize(
            transvection(CLASSES[which[step]], x, 1 if signs[step] else -1)
        )
        if y not in seen:
            seen.add(y)
            points.append(y)
        done = step + 1
        if done & (done - 1) == 0 or done == config.steps:
            radii[done] = covering_radius(points, targets)
    return radii


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=_int_at_least(0), default=100_000)
    parser.add_argument("--targets", type=_int_at_least(1), default=256)
    parser.add_argument("--seeds", type=_int_at_least(0), nargs="+", default=[0, 1, 2, 7, 42])
    args = parser.parse_args()

    small = OrbitConfig(steps=512, targets=64, seed=0)
    walked = {s: r for s, _, r in orbit_density_experiment(small).checkpoints}
    oracle = brute_force_radii(small)
    worst = max(abs(walked[s] - oracle[s]) for s in walked)
    print(f"walk vs brute-force oracle, 512 steps: max diff {worst:.2e}")
    assert worst < 1e-12, "the walk's checkpoint radii disagree with the oracle"

    print("seed\tfinal_radius\torbit_size")
    final = []
    for seed in args.seeds:
        cfg = OrbitConfig(steps=args.steps, targets=args.targets, seed=seed)
        result = orbit_density_experiment(cfg)
        final.append(result.final_radius)
        print(f"{seed}\t{result.final_radius:.6f}\t{result.checkpoints[-1][1]}")
    print(f"max over seeds: {max(final):.6f}")
    print("recommended frozen threshold: 0.4 rad" if max(final) < 0.4
          else "WARNING: 0.4 rad threshold is not met")


if __name__ == "__main__":
    main()
