import argparse
import contextlib
import dataclasses
import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertower import orbit
from covertower.cli import build_parser
from covertower.errors import CovertowerError, DimensionMismatch
from covertower.orbit import (
    CLASSES,
    FOLD_ROWS,
    START,
    OrbitConfig,
    _fold,
    orbit_density_experiment,
    quasi_uniform_targets,
    transvection_set_hash,
)
from covertower.surface import symplectic_product
from orbit_oracle import covering_radius, projective_normalize, transvection

SHIPPED_HASH = "1b3b590e68a64231"

vectors = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=4, max_size=4
).map(tuple)


def test_symplectic_product_basis():
    e = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    assert symplectic_product(e[0], e[1]) == 1
    assert symplectic_product(e[1], e[0]) == -1
    assert symplectic_product(e[2], e[3]) == 1
    assert symplectic_product(e[0], e[2]) == 0
    with pytest.raises(DimensionMismatch):
        symplectic_product((1, 0, 0), (0, 1, 0))


@given(vectors, vectors)
def test_transvections_preserve_the_form(x, y):
    for curve in CLASSES:
        tx = transvection(curve, x)
        ty = transvection(curve, y)
        assert symplectic_product(tx, ty) == symplectic_product(x, y)


@given(vectors)
def test_transvection_signs_are_inverse(x):
    for curve in CLASSES:
        assert transvection(curve, transvection(curve, x, 1), -1) == x


def test_projective_normalize():
    assert projective_normalize((2, 4, 0, -2)) == (1, 2, 0, -1)
    assert projective_normalize((-3, 0, 6, 0)) == (1, 0, -2, 0)
    assert projective_normalize((0, 0, 0, 5)) == (0, 0, 0, 1)
    with pytest.raises(DimensionMismatch):
        projective_normalize((0, 0, 0, 0))


@given(vectors.filter(lambda v: any(v)), st.integers(min_value=1, max_value=5))
def test_projective_normalize_scale_invariant(v, k):
    assert projective_normalize(tuple(k * x for x in v)) == projective_normalize(v)
    assert projective_normalize(tuple(-x for x in v)) == projective_normalize(v)


def test_shipped_classes_and_hash():
    # the start e1 is primitive with a positive lead, as the walk assumes
    assert START == projective_normalize(START) == (1, 0, 0, 0)
    assert CLASSES[:4] == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert CLASSES[4] == (0, 1, 0, -1)
    assert transvection_set_hash(CLASSES) == SHIPPED_HASH
    # the walk's step is straight-line code on exactly this many entries
    dim = 2 * OrbitConfig.genus
    assert len(START) == dim and all(len(c) == dim for c in CLASSES)


def test_covering_radius_hand_case():
    rng = np.random.default_rng(0)
    targets = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    assert covering_radius([(1, 0, 0, 0)], targets) == pytest.approx(math.pi / 2)
    assert covering_radius([(1, 0, 0, 0), (0, 2, 0, 0)], targets) == pytest.approx(0.0)
    # projective: antipodal targets are already covered
    assert covering_radius([(1, 0, 0, 0)], np.array([[-1.0, 0, 0, 0]])) == pytest.approx(
        0.0
    )


@pytest.mark.parametrize(
    "points",
    [[(0, 0, 0, 0)], [(1, 0, 0, 0), (0, 0, 0, 0)], [], [(1, 0, 0)], [(1, 0, 0, 0), (1, 0, 0)]],
    ids=["zero", "zero-among-others", "empty", "short", "ragged"],
)
def test_covering_radius_rejects_degenerate_points(points):
    targets = np.eye(4)
    with pytest.raises(DimensionMismatch):
        covering_radius(points, targets)


@pytest.mark.parametrize("entry", [10**200, 10**400], ids=["huge-norm", "huge-entry"])
def test_covering_radius_names_a_point_too_large_for_a_float(entry):
    # 10**200 converts to a float but its norm does not; 10**400 does neither
    targets = np.array([[1.0, 0, 0, 0]])
    with pytest.raises(CovertowerError, match=r"^points\[0\] is too large for a float$"):
        covering_radius([(entry, 0, 0, 0)], targets)
    with pytest.raises(CovertowerError, match=r"^points\[1\] is too large for a float$"):
        covering_radius([(1, 0, 0, 0), (entry, 0, 0, 0), (0, 1, 0, 0)], targets)


@pytest.mark.parametrize(
    "rows, dim",
    [(1, 4), (FOLD_ROWS, 4), (FOLD_ROWS + 1, 4), (2 * FOLD_ROWS + 7, 6)],
    ids=["one", "one-chunk", "one-past-a-chunk", "genus3"],
)
def test_fold_matches_brute_force_across_chunk_boundaries(rows, dim):
    rng = np.random.default_rng(rows)
    batch = [tuple(int(v) for v in row) for row in rng.integers(-9, 10, size=(rows, dim))]
    batch = [row if any(row) else (1,) + row[1:] for row in batch]
    targets = quasi_uniform_targets(rng, 40, dim)
    best = np.zeros(len(targets))
    _fold(best, targets, batch)
    radius = float(np.arccos(np.clip(best.min(), -1.0, 1.0)))
    assert radius == pytest.approx(covering_radius(batch, targets), abs=1e-12)
    # folding a batch in two parts reaches the same best vector
    split = np.zeros(len(targets))
    _fold(split, targets, batch[: rows // 2])
    _fold(split, targets, batch[rows // 2 :])
    assert np.array_equal(split, best)


@pytest.mark.parametrize(
    "classes, message",
    [
        # e1 pairs to 10**200 with the class, so the first twist already
        # leaves the float range
        (((0, 10**200, 0, 0),), "^a point reached by step 1 is too large for a float$"),
    ],
    ids=["huge-images"],
)
def test_walk_names_a_point_too_large_for_a_float(monkeypatch, classes, message):
    monkeypatch.setattr(orbit, "CLASSES", classes)
    with pytest.raises(CovertowerError, match=message):
        orbit_density_experiment(OrbitConfig(steps=3, targets=4))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_walk_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    """The walk pauses the cyclic collector and restores the caller's state,
    also when a point leaves the float range."""
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        orbit_density_experiment(OrbitConfig(steps=64, targets=16))
        assert gc.isenabled() == enabled

        def overflow(best, targets, batch):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(orbit, "_fold", overflow)
        with pytest.raises(CovertowerError, match="^a point reached by step 0 is too large"):
            orbit_density_experiment(OrbitConfig(steps=64, targets=16))
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_targets_are_unit_and_seeded():
    t1 = quasi_uniform_targets(np.random.default_rng(4), 32, 4)
    t2 = quasi_uniform_targets(np.random.default_rng(4), 32, 4)
    assert np.allclose(t1, t2)
    assert np.allclose(np.linalg.norm(t1, axis=1), 1.0)


def test_zero_step_experiment_matches_brute_force():
    config = OrbitConfig(steps=0, targets=64, seed=3)
    result = orbit_density_experiment(config)
    assert len(result.checkpoints) == 1
    step, size, radius = result.checkpoints[0]
    assert (step, size) == (0, 1)
    targets = quasi_uniform_targets(np.random.default_rng(3), 64, 4)
    assert radius == pytest.approx(covering_radius([START], targets))


def test_experiment_is_deterministic():
    config = OrbitConfig(steps=512, targets=32, seed=11)
    r1 = orbit_density_experiment(config)
    r2 = orbit_density_experiment(config)
    assert r1 == r2
    r3 = orbit_density_experiment(OrbitConfig(steps=512, targets=32, seed=12))
    assert r3.checkpoints != r1.checkpoints


def test_checkpoint_schedule_and_monotone_radius():
    config = OrbitConfig(steps=2000, targets=64, seed=0)
    result = orbit_density_experiment(config)
    steps = [c[0] for c in result.checkpoints]
    assert steps == [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2000]
    radii = [c[2] for c in result.checkpoints]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    sizes = [c[1] for c in result.checkpoints]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert result.final_radius == radii[-1]


def replay_walk(config, classes=CLASSES):
    """The walk's checkpoints replayed step by step along `classes` with
    `transvection` and the full `projective_normalize`, and the all-pairs
    radius at each one; also the number of steps whose class pairs to zero
    with the point, and the number of images whose sign was flipped.

    Every unnormalised image must already be primitive: the walk takes its
    start as it is and then fixes the sign alone.
    """
    steps = config.steps
    rng = np.random.default_rng(config.seed)
    targets = quasi_uniform_targets(rng, config.targets, 2 * config.genus)
    picks = rng.random(steps)
    which = rng.integers(0, len(classes), size=steps)
    signs = rng.integers(0, 2, size=steps)
    points = [projective_normalize(START)]
    seen = set(points)
    fixed = flipped = 0
    expected = [(0, 1, covering_radius(points, targets))]
    for step in range(steps):
        x = points[int(picks[step] * len(points))]
        image = transvection(classes[which[step]], x, 1 if signs[step] else -1)
        assert math.gcd(*image) == 1, (x, image)
        fixed += image == x
        y = projective_normalize(image)
        flipped += y != image
        if y not in seen:
            seen.add(y)
            points.append(y)
        done = step + 1
        if done & (done - 1) == 0 or done == steps:
            expected.append((done, len(points), covering_radius(points, targets)))
    return expected, fixed, flipped


def assert_walk_matches(config, expected):
    result = orbit_density_experiment(config)
    assert [c[:2] for c in result.checkpoints] == [e[:2] for e in expected]
    for (_, _, radius), (_, _, oracle) in zip(result.checkpoints, expected):
        assert radius == pytest.approx(oracle, abs=1e-12)


def test_incremental_radius_matches_brute_force(monkeypatch):
    # compare every checkpoint against the replayed walk; late segments hold
    # more new points than one fold chunk, so the walk folds them in several,
    # and some steps twist a point along a class it pairs to zero with (e1
    # along a1 = e1, say), so the walk meets images it has already seen.
    # The 512-step config is the case the calibration script used to check.
    # The step keeps x's own entry where the class is 0 and adds p * c_k
    # elsewhere; the shipped classes are mostly 0, so the last walk runs
    # along a dense set, nonzero in every coordinate somewhere, which takes
    # the other path of each entry, with sign flips and large entries.
    dense = ((1, 1, 1, 1), (1, -2, 0, 3), (0, 1, 0, -1), (-2, 0, 1, 1))
    for k in range(4):
        assert any(c[k] for c in dense) and not all(c[k] for c in CLASSES)
    runs = [(OrbitConfig(steps=3000, targets=48, seed=seed), CLASSES) for seed in (0, 3, 7)]
    runs.append((OrbitConfig(steps=512, targets=64, seed=0), CLASSES))
    runs.append((OrbitConfig(steps=600, targets=16, seed=2), dense))
    for config, classes in runs:
        monkeypatch.setattr(orbit, "CLASSES", classes)
        expected, fixed, flipped = replay_walk(config, classes)
        assert max(b[1] - a[1] for a, b in zip(expected, expected[1:])) > FOLD_ROWS
        assert fixed > 0 and flipped > 0
        assert_walk_matches(config, expected)


def test_walk_frees_its_points_before_the_collector_resumes(monkeypatch):
    """Point tuples still alive when the collector comes back on would all
    be scanned by the first generation-0 pass after the walk."""
    paused = orbit._collector_paused
    left = []

    @contextlib.contextmanager
    def spy():
        with paused():
            yield
            young = gc.get_objects(generation=0)
            left.append(sum(type(o) is tuple and len(o) == 4 and gc.is_tracked(o) for o in young))

    monkeypatch.setattr(orbit, "_collector_paused", spy)
    gc.collect()
    result = orbit_density_experiment(OrbitConfig(steps=4096, targets=16))
    assert result.checkpoints[-1][1] > 1000
    assert len(left) == 1 and left[0] < 100


def run_calibration(*argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "calibrate_orbit_threshold.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_calibration_script_runs():
    # the script only sweeps seeds; its old walk-vs-oracle case (512 steps,
    # 64 targets, seed 0) is an input of the replay in
    # test_incremental_radius_matches_brute_force
    proc = run_calibration("--steps", "2000", "--seeds", "0", "1")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--steps", "-1"], "argument --steps: must be at least 0, got -1"),
        (["--targets", "0"], "argument --targets: must be at least 1, got 0"),
        (["--seeds", "0", "-2"], "argument --seeds: must be at least 0, got -2"),
        (["--steps", "x"], "argument --steps: invalid int value"),
    ],
    ids=["steps-negative", "targets-zero", "seeds-negative", "steps-text"],
)
def test_calibration_script_checks_its_options(argv, message):
    proc = run_calibration(*argv)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, value",
    [("steps", -3), ("targets", 0), ("seed", -1), ("steps", 2.0), ("seed", True), ("targets", "8")],
)
def test_config_rejects_bad_sizes(name, value):
    with pytest.raises(CovertowerError, match=f"^{name} must be an integer at least"):
        OrbitConfig(**{name: value})


def test_config_takes_only_steps_targets_and_seed():
    # the walk is on genus-2 homology from START along CLASSES; genus stays
    # readable as a class constant
    assert OrbitConfig.genus == OrbitConfig().genus == 2
    for knob in ({"genus": 3}, {"start": START}, {"classes": CLASSES}):
        with pytest.raises(TypeError):
            OrbitConfig(**knob)


def test_config_fields_are_the_orbit_options():
    """A config field without a CLI option would be a knob only tests set."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for a in sub.choices["orbit"]._actions if a.dest != "help"}
    assert {f.name for f in dataclasses.fields(OrbitConfig)} == options == {"steps", "targets", "seed"}


def test_report_format():
    result = orbit_density_experiment(OrbitConfig(steps=8, targets=16, seed=1))
    report = result.report()
    lines = report.strip().split("\n")
    assert lines[0] == "# seed\t1"
    assert lines[1] == "# start\t1,0,0,0"
    assert lines[2] == f"# transvections\t{SHIPPED_HASH}"
    assert lines[3] == "steps\torbit_size\tcovering_radius"
    assert len(lines) == 4 + len(result.checkpoints)
    for row in lines[4:]:
        step, size, radius = row.split("\t")
        float(radius)
        int(step)
        int(size)
