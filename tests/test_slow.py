"""The slow tier: whole runs too long for the default suite.

Every test here carries the ``slow`` marker, which the default pytest
options deselect.  Run the tier with ``python3 -m pytest -m slow``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

# sha256 of `covertower enumerate --genus 2 --degree 5`, one line per cover
DEGREE_5_CENSUS = "9b9172c92393e6355556dcbaa2a4116b83185f1dc4b3d45b3669a0deb9589501"


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
