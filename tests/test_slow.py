"""The slow tier: whole runs too long for the default suite.

Every test here carries the ``slow`` marker, which the default pytest
options deselect.  Run the tier with ``python3 -m pytest -m slow``.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from covertower.characteristic import shipped_automorphisms
from covertower.covers import arrow_to_trivial, enumerate_covers
from covertower.limits import base_class_element, lift_element
from covertower.vauts import restrict_vaut
from covertower.verify import _inverse_law

pytestmark = pytest.mark.slow

# sha256 of `covertower enumerate --genus 2 --degree 5`, one line per cover
DEGREE_5_CENSUS = "9b9172c92393e6355556dcbaa2a4116b83185f1dc4b3d45b3669a0deb9589501"

# A child's own peak resident memory in kB, as an expression it evaluates.
# VmHWM belongs to the child's address space, which exec starts afresh;
# ru_maxrss would carry the forked pytest process's high-water mark over.
PEAK_KB = "next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM:'))"


def test_enumerate_degree_5_stream():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from covertower.cli import main; sys.exit(main())",
         "enumerate", "--genus", "2", "--degree", "5"],
        stdout=subprocess.PIPE,
        env=env,
    )
    digest, lines = hashlib.sha256(), 0
    for line in proc.stdout:
        digest.update(line)
        lines += 1
    proc.stdout.close()
    assert proc.wait(timeout=600) == 0
    assert lines == 151_086  # Mednykh's count of index-5 subgroups of the genus-2 group
    assert digest.hexdigest() == DEGREE_5_CENSUS


def test_enumerate_covers_to_degree_5():
    """The degree-5 census in a child process, which reports its wall time,
    its peak memory and the collector's state after the call."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    child = (
        "import gc, time; from covertower.covers import enumerate_covers; "
        "start = time.perf_counter(); covers = enumerate_covers(2, 5); "
        "wall = time.perf_counter() - start; "
        f"print(len(covers), gc.isenabled(), wall, {PEAK_KB})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    count, enabled, wall, peak_kb = proc.stdout.split()
    print(f"enumerate_covers(2, 5): {float(wall):.2f} s, {int(peak_kb) / 1024:.0f} MB peak")
    assert int(count) == 151_086
    assert enabled == "True"


def test_riemann_hurwitz_to_degree_5():
    """The riemann-hurwitz suite over all 156,597 covers of degree <= 5, in a
    child process that reports its own peak memory on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    child = (
        "import sys; from covertower.cli import main; code = main(); "
        f"print({PEAK_KB}, file=sys.stderr); sys.exit(code)"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", child, "verify", "--suite", "riemann-hurwitz", "--max-degree", "5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    wall = time.perf_counter() - start
    peak_kb = int(proc.stderr.split()[-1])
    print(f"riemann-hurwitz to degree 5: {wall:.2f} s, {peak_kb / 1024:.0f} MB peak")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "suite riemann-hurwitz: ok",
        *(f"degree {d}: {n} covers checked" for d, n in enumerate((1, 15, 220, 5275, 151_086), 1)),
    ]


def test_inverse_law_on_every_restriction_of_degree_at_most_3():
    """v(v^-1(e)) = e for the a1 class lifted to each restriction's left cover,
    over the six shipped vauts restricted to every cover of degree <= 3."""
    a1 = base_class_element(2, (1, 0, 0, 0))
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    start = time.perf_counter()
    failures, checked = [], 0
    for aut in shipped_automorphisms(2):
        for k, cover in enumerate(covers):
            restricted = restrict_vaut(aut, cover)
            if _inverse_law(restricted, lift_element(a1, arrow_to_trivial(cover))) is not None:
                failures.append((aut.name, k))
            checked += 1
    wall = time.perf_counter() - start
    print(f"inverse law on {checked} restrictions of degree <= 3: {wall:.2f} s")
    assert checked == 1416
    assert failures == []
