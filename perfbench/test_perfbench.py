"""Self-tests of the benchmark harness, at reduced size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import covertower  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from covertower import homology  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    self_s = {name: rec[2] for name, rec in tracer.stats.items()}
    inclusive = {name: rec[1] for name, rec in tracer.stats.items()}
    assert self_s == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert inclusive == {"root": 10, "a": 3, "b": 1, "c": 4}
    assert tracer.total_self() == inclusive["root"]


def test_same_name_spans_accumulate():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 6, 7]))
    tracer.enter("root")
    for _ in range(2):
        tracer.enter("leaf")
        tracer.exit()
    tracer.exit()
    assert tracer.stats["leaf"] == [2, 3, 3]
    assert tracer.stats["root"] == [1, 7, 4]


def test_census_oracle_passes_at_reduced_size():
    checks = workloads.Checks()
    outcome = workloads.census_job(workloads.CensusInputs(counts=(1, 15, 220), sha256=None), checks)
    assert checks.failures == [] and checks.attempted == 3
    assert outcome.ops == 236
    assert outcome.first_out_s > 0


def test_corrupted_expected_count_flips_fail_ratio():
    checks = workloads.Checks()
    workloads.census_job(workloads.CensusInputs(counts=(1, 15, 221), sha256=None), checks)
    assert checks.failures == ["degree 3: 220 covers, expected 221"]
    assert len(checks.failures) / checks.attempted > 0


def test_raised_exception_is_a_failed_check():
    checks = workloads.Checks()
    assert checks.expect("boom", True, lambda: 1 / 0) is None
    assert checks.attempted == 1 and len(checks.failures) == 1


def test_sweep_oracle_at_reduced_size():
    checks = workloads.Checks()
    inputs = workloads.SweepInputs(seed=0, suites=("riemann-hurwitz", "theorem3"), max_degree=2)
    outcome = workloads.sweep_job(inputs, checks)
    assert checks.failures == []
    assert outcome.ops == 2 * (1 + 15)


def test_orbit_oracle_at_reduced_size():
    checks = workloads.Checks()
    config = covertower.OrbitConfig(steps=20_000, targets=64, seed=0)
    outcome = workloads.orbit_job(config, checks)
    assert checks.failures == []
    assert outcome.ops == 20_000


def test_traced_run_wraps_every_binding():
    original = homology.surface_complex
    probe = layers.Probe(Tracer())
    try:
        assert covertower.surface_complex is not original
        assert covertower.verify.surface_complex is covertower.homology.surface_complex
        checks = workloads.Checks()
        workloads.sweep_job(workloads.SweepInputs(seed=0, suites=("theorem3",), max_degree=2), checks)
        probe.finish()
        assert probe.binding_problems() == []
        assert probe.tracer.calls("homology.surface_complex") > 0
        # a call through a reference the tracer never saw shows up as a mismatch
        original(covertower.enumerate_covers(2, 2)[0])
        probe.finish()
        assert any("homology.surface_complex" in p for p in probe.binding_problems())
    finally:
        probe.uninstall()
    assert covertower.surface_complex is original
    assert homology.CoverComplex.__dict__["intersection"].__qualname__ == "CoverComplex.intersection"


def test_layer_metrics_cover_every_declared_name():
    probe = layers.Probe(Tracer())
    try:
        workloads.census_job(workloads.CensusInputs(counts=(1, 15), sha256=None), workloads.Checks())
        probe.finish()
        values = probe.metrics()
    finally:
        probe.uninstall()
    # run.py adds the three that compare the traced round with an untraced one
    missing = set(layers.metric_units()) - set(values)
    assert missing == {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert values["covers.enumerated"] == 16
    assert values["documents.bytes"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
