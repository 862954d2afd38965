"""Exact metric geometry of persistence diagrams over metric pairs.

The package computes exact bottleneck and p-Wasserstein distances between
finite diagrams over a metric pair (X, A), produces optimal matchings and
constant-speed geodesics, and runs desk-scale probes of the diagram
space's metric structure (discreteness bounds, Cauchy limits, epsilon-nets
and dense families, a separability adversary, and the sup-cube truncation
gap obstructing geodesics).
"""

from .diagram import *
from .errors import *
from .geodesics import *
from .matching import *
from .probes import *
from .spaces import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *spaces.__all__,
    *diagram.__all__,
    *matching.__all__,
    *geodesics.__all__,
    *probes.__all__,
    *errors.__all__,
]
