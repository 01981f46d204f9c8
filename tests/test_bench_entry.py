"""The benchmark's extract-bits smoke run, as tier-1 sees it.

Both runs check every output block against the exact oracles and exit
nonzero on any miss.  The traced run (``--trace 1``) goes through every
entry point the benchmark wraps (``gf2.build_family``,
``MatrixFamily.from_json_dict``, ``extractor.extract_blocks``); only the
untraced run compares each job's output with its recorded digest.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_extract_bits_smoke_run(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extract-bits", "--smoke",
         "--seed", "0", "--seconds", "0.3", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
