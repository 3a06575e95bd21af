#!/usr/bin/env python3
"""Census of pointed covers by degree, with timing.

Prints one row per degree: the number of covers, the genus of the total
surface, elapsed seconds, and the process's peak resident memory so far in
MB (ru_maxrss, which Linux reports in KiB).  Options are range-checked as
the covertower CLI checks them (bad input exits 2), and a search over the
budget exits 3.
"""

import argparse
import resource
import sys
import time

from covertower import CovertowerError, SearchBudgetExceeded, enumerate_covers
from covertower.cli import _int_at_least


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=_int_at_least(2), default=2)
    parser.add_argument("--max-degree", type=_int_at_least(1), default=4)
    parser.add_argument("--budget", type=_int_at_least(1), default=None)
    args = parser.parse_args()

    print("degree\tcovers\ttotal_genus\tseconds\tpeak_rss_mb")
    for degree in range(1, args.max_degree + 1):
        t0 = time.perf_counter()
        try:
            covers = enumerate_covers(args.genus, degree, budget=args.budget)
        except SearchBudgetExceeded as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return 3
        except CovertowerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        dt = time.perf_counter() - t0
        total = covers[0].total_genus if covers else "-"
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{degree}\t{len(covers)}\t{total}\t{dt:.2f}\t{peak_mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
