"""Randomness extraction kernels with a desk-scale quantum analysis engine.

Submodules:

* ``gf2``        packed GF(2) vectors and matrices, matrix families
* ``extractor``  inner-product and matrix-family extractors, stream kernels
* ``quantum``    sub-normalized states, instruments, partial traces, the trace norm
* ``entropy``    conditional entropies with certificates, min-entropy SDP
* ``verify``     exact oracles for the extraction bounds on small instances
* ``dira``       weak-source simulation, entropy chaining, rate calculator
* ``cli``        the ``qextract`` command line tool
"""

from .extractor import DEOR, IP, ExtractionJob, ExtractorSpec, deor_extract, ip_extract
from .gf2 import BitMatrix, BitVector, MatrixFamily, rank_gf2
from .quantum import CqState, DensityOperator, Instrument, System

__all__ = [
    "BitMatrix", "BitVector", "CqState", "DEOR", "DensityOperator",
    "ExtractionJob", "ExtractorSpec", "IP", "Instrument",
    "MatrixFamily", "System", "deor_extract", "ip_extract", "rank_gf2",
]

__version__ = "0.1.0"
