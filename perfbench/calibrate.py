"""Machine-speed calibration for the covertower benchmark.

    python3 perfbench/calibrate.py    # prints the seconds one calibration loop took

This machine class is shared: other tenants slow every process by up to
1.8x, for stretches of seconds to minutes.  ``run.py`` runs this script
between consecutive rounds and measures two things with it:

- The loop.  It slows down with the other tenants by about as much as the
  workloads do (1.68x, against 1.6x to 1.75x for the census search, complex
  construction, the orbit walk and exact solves, measured side by side).
  ``LOOP_REFERENCE_S`` over the loop's time turns a round's job seconds into
  seconds at the reference speed.
- The start-up: the whole spawn of this script, minus the loop.  It is an
  interpreter start plus ``import numpy``, most of what a worker's set-up
  does before the package's own modules, and it swings with other tenants
  in ways the loop does not (set-up moved by 20 % while the loop stayed
  put).  ``STARTUP_REFERENCE_S`` over it calibrates set-up times.

Both are the benchmark's own code and run in their own process, so a change
to the package cannot move them.
"""

from __future__ import annotations

import gc
import itertools
import time

import numpy  # noqa: F401  (part of the start-up being measured)

# Seconds on the reference machine when no other tenant competes for it:
# Intel Xeon (2 vCPUs), Python 3.11.7, numpy 2.4.6.
LOOP_REFERENCE_S = 0.055
STARTUP_REFERENCE_S = 0.12

_PERMS = list(itertools.permutations(range(7)))


def calibration_loop() -> int:
    """Fixed pure-Python work shaped like the package's: fresh tuples, a dict index, a sort."""
    made = [tuple(p[i] for i in q) for p in _PERMS[:200] for q in _PERMS[::25][:200]]
    index: dict = {}
    for t in made:
        index[t] = index.get(t, 0) + 1
    made.sort()
    return len(index)


def calibration_s() -> float:
    gc.disable()
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(calibration_s()))
