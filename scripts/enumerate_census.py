#!/usr/bin/env python3
"""Census of pointed covers by degree, with timing.

Prints one row per degree: the number of covers, the genus of the total
surface, and elapsed seconds.
"""

import argparse
import time

from covertower import enumerate_covers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--budget", type=int, default=None)
    args = parser.parse_args()

    print("degree\tcovers\ttotal_genus\tseconds")
    for degree in range(1, args.max_degree + 1):
        t0 = time.perf_counter()
        covers = enumerate_covers(args.genus, degree, budget=args.budget)
        dt = time.perf_counter() - t0
        total = covers[0].total_genus if covers else "-"
        print(f"{degree}\t{len(covers)}\t{total}\t{dt:.2f}")


if __name__ == "__main__":
    main()
