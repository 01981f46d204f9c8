"""The benchmark's smoke runs, as tier-1 sees them.

Both runs check every output against the exact oracles and exit nonzero
on any miss.  For extract-aligned and extract-bits only the untraced
run compares each job's output with its recorded digest.  extract-aligned
is the one file-to-file run of the IP plan for n a multiple of 64
(n = 1024), whose chunks need no bit masks.  For extract-bits the
traced run (``--trace 1``) goes through every entry point the benchmark
wraps (``gf2.build_family``, ``MatrixFamily.from_json_dict``,
``extractor.extract_blocks``).  For
certify-scenario both runs check every bracket against the requested
gap and every measured epsilon against its bound, so they guard the
min-entropy solver on the scenario's rank-deficient blocks.  For
certify-chain both runs check every bracket against the requested gap
and every chaining bound against the certified upper bound; about a
third of its block sets commute, so they guard the commuting candidate
as well as the solver.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke",
         "--seed", "0", "--seconds", "0.3", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_extract_aligned_smoke_run(trace):
    smoke_run("extract-aligned", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_extract_bits_smoke_run(trace):
    smoke_run("extract-bits", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_certify_scenario_smoke_run(trace):
    smoke_run("certify-scenario", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_certify_chain_smoke_run(trace):
    smoke_run("certify-chain", trace)
