"""One round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload census --seed 1 --spawned-at <t> [--trace] [--setup-only]

``run.py`` starts this script once per round, so every ``lru_cache`` in the
package starts cold, as it does for a CLI call.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before the spawn; monotonic time is one
clock for the whole machine, so set-up time here counts interpreter start,
``import covertower`` and building the inputs.

The last line of stdout is one JSON record of the round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
sys.path.insert(0, SOURCE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import covertower

    if not os.path.abspath(covertower.__file__).startswith(SOURCE + os.sep):
        print(f"covertower imported from {covertower.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import numpy
    import workloads

    make_inputs, job = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    checks = workloads.Checks()
    probe = None
    if args.trace:
        import layers
        from tracer import Tracer

        probe = layers.Probe(Tracer())
        probe.tracer.enter("bench.job")
    start = time.perf_counter()
    try:
        outcome = job(inputs, checks)
    except Exception as exc:  # the round reports the failure instead of dying
        traceback.print_exc()
        checks.check(False, f"job raised {type(exc).__name__}: {exc}")
        outcome = None
    finally:
        if probe is not None:
            probe.tracer.exit()
    wall_s = time.perf_counter() - start

    if probe is not None:
        probe.finish()
        problems = probe.binding_problems()
        checks.check(not problems, "; ".join(problems))
        record.update(
            layers=probe.metrics(),
            spans={
                name: {"calls": calls, "inclusive_s": inclusive, "self_s": self_s}
                for name, (calls, inclusive, self_s) in sorted(probe.tracer.stats.items())
            },
            self_s_total=probe.tracer.total_self(),
            wrapped=probe.wrapped,
        )
        probe.uninstall()
    record.update(
        wall_s=wall_s,
        ops=outcome.ops if outcome else 0,
        first_out_s=outcome.first_out_s if outcome else 0.0,
        fingerprint=outcome.fingerprint if outcome else None,
        sizes=outcome.sizes if outcome else {},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted,
        failures=checks.failures,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
