"""Approximate quantile sketch: the t-digest.

The approximate competitor the paper evaluates Dema against (Section 4): a
compact mergeable summary that trades exactness for speed and fixed
memory, implemented from scratch following Dunning & Ertl's merging
variant with the k1 scale function.
"""

from repro.sketches.scale_functions import ScaleFunction, K0, K1, K2
from repro.sketches.tdigest import Centroid, TDigest

__all__ = [
    "ScaleFunction",
    "K0",
    "K1",
    "K2",
    "Centroid",
    "TDigest",
]
