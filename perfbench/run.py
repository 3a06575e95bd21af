"""covertower benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads: census, sweep, tower, orbit (see workloads.py).  Every round
runs in a fresh interpreter (worker.py), one at a time, with no process
pool, and between two runs of the calibration loop (calibrate.py).  Both
modes repeat untraced rounds for ``--seconds`` (at least three);
``--trace 0`` reports the end-to-end metrics over those rounds and
``--trace 1`` adds one traced round and reports its per-layer metrics.
Every output is checked against an oracle; a failed check or a raised
exception makes the exit code 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A longer record, with
provenance, every round and the trace spans, goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("census", "sweep", "tower", "orbit")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "first_out_s": "s",
    "peak_rss_mb": "MB",
}
# rounds of one seed must agree on their output, so a run has several
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class RoundFailed(Exception):
    pass


def _last_line(cmd: list[str], budget: float) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{os.path.basename(cmd[1])} did not finish within {budget:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{os.path.basename(cmd[1])} exited with code {proc.returncode}")
    return lines[-1]


def calibration(budget: float) -> tuple[float, float]:
    """(start-up seconds, loop seconds) of one calibration process."""
    start = time.monotonic()
    loop = float(_last_line([sys.executable, CALIBRATE], budget))
    return time.monotonic() - start - loop, loop


def spawn(workload: str, seed: int, budget: float, before, *, trace=False, setup_only=False) -> dict:
    """One round in a fresh worker; before is the calibration just ahead of it."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--spawned-at", repr(time.monotonic())]
    record = json.loads(_last_line(cmd, budget))
    after = calibration(budget)
    record["calibration"] = [before, after]
    record["scale"] = calibrate.LOOP_REFERENCE_S / ((before[1] + after[1]) / 2)
    record["setup_scale"] = calibrate.STARTUP_REFERENCE_S / ((before[0] + after[0]) / 2)
    return record


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    rounds: list[dict] = []
    setup_rounds: list[dict] = []
    calibrations: list[tuple[float, float]] = []
    failures: list[str] = []
    attempted = 0

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    def next_round(**kwargs) -> dict:
        # consecutive rounds share the calibration between them
        before = calibrations[-1] if calibrations else calibration(left())
        record = spawn(workload, seed, left(), before, **kwargs)
        calibrations.append(record["calibration"][1])
        return record

    try:
        while True:
            rounds.append(next_round())
            elapsed = time.monotonic() - start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        setup_rounds = list(rounds)
        if trace:
            rounds.append(next_round(trace=True))
        else:
            while len(setup_rounds) < SETUP_SAMPLES:
                setup_rounds.append(next_round(setup_only=True))
    except RoundFailed as exc:
        attempted += 1
        failures.append(str(exc))

    setups = [r["setup_s"] * r["setup_scale"] for r in setup_rounds]
    raw_setups = [r["setup_s"] for r in setup_rounds]
    for r in rounds:
        attempted += r["attempted"]
        failures += r["failures"]
    fingerprints = {r["fingerprint"] for r in rounds}
    if len(rounds) > 1:
        attempted += 1
        if len(fingerprints) > 1:
            failures.append(f"{len(rounds)} reruns of seed {seed} gave {len(fingerprints)} different outputs")

    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    summary = {}
    if untraced:
        # times at the reference machine speed (see calibrate.py); raw ones in "raw"
        summary = {
            "setup_s": statistics.median(setups) if setups else None,
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in untraced),
            "ops_per_s": statistics.median(r["ops"] / (r["wall_s"] * r["scale"]) for r in untraced),
            "first_out_s": statistics.median(r["first_out_s"] * r["scale"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ops": untraced[0]["ops"],
            "raw": {
                "setup_s": statistics.median(raw_setups) if raw_setups else None,
                "wall_s": statistics.median(r["wall_s"] for r in untraced),
                "first_out_s": statistics.median(r["first_out_s"] for r in untraced),
                "scale": statistics.median(r["scale"] for r in untraced),
                "setup_scale": statistics.median(r["setup_scale"] for r in setup_rounds),
            },
        }
    layers = {}
    if traced and untraced:
        t = traced[0]
        layers = dict(t["layers"])
        # the overhead compares calibrated times; the spans add up to the raw one
        layers["trace.wall_s"] = t["wall_s"]
        layers["trace.untraced_wall_s"] = summary["wall_s"]
        layers["trace.overhead_s"] = t["wall_s"] * t["scale"] - summary["wall_s"]
        gap = abs(t["self_s_total"] - t["wall_s"])
        attempted += 1
        if gap > abs(layers["trace.overhead_s"]):
            failures.append(
                f"self times add up to {t['self_s_total']:.4f} s, traced wall is {t['wall_s']:.4f} s"
            )
    summary["fail_ratio"] = len(failures) / attempted if attempted else 1.0
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failures": failures,
        "summary": summary,
        "layers": layers,
        "setup_samples": setups,
        "rounds": rounds,
    }


def report_metrics(result: dict) -> dict:
    """The metrics of the final JSON line: end-to-end untraced, per-layer traced."""
    if result["trace"]:
        import layers

        units, values = layers.metric_units(), result["layers"]
    else:
        units, values = END_TO_END, result["summary"]
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if values.get(name) is not None
    }


def print_table(result: dict) -> None:
    s = result["summary"]
    raw = s.get("raw", {})
    failed = len(result["failures"])
    rounds = [r for r in result["rounds"] if "layers" not in r]
    print(
        f"covertower benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} rounds={len(rounds)} machine speed x{raw.get('scale', 0):.3f}"
    )
    rows = [
        ("setup_s", "s", f"median of {len(result['setup_samples'])} set-ups"),
        ("wall_s", "s", f"median of {len(rounds)} rounds"),
        ("ops_per_s", "1/s", f"{s.get('ops')} ops per round"),
        ("first_out_s", "s", "time to the first output"),
        ("peak_rss_mb", "MB", "ru_maxrss of the round"),
    ]
    for name, unit, note in rows:
        value = s.get(name)
        if value is not None:
            seen = f"(raw {raw[name]:.4f})" if raw.get(name) is not None else ""
            print(f"  {name:<14} {value:>14.4f} {unit:<4} {seen:<15} {note}")
    print(
        f"  {'fail_ratio':<14} {s['fail_ratio']:>14.4f} {'1':<4} {'':<15} "
        f"{failed} failed of {result['attempted']} checks"
    )
    for name, value in result["layers"].items():
        print(f"  {name:<40} {value:>14.6g}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SOURCE, "covertower", "__init__.py")):
        print(f"no covertower source tree under {SOURCE}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sizes = next((r["sizes"] for r in result["rounds"] if r.get("sizes")), {})
    result["provenance"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in result["rounds"] if "numpy" in r), None),
        "commit": git_commit(),
        "seed": args.seed,
        "sizes": sizes,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print_table(result)
    failed = len(result["failures"])
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": report_metrics(result),
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
