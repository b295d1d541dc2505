"""Exact category-O combinatorics for wreath-product-type skew group rings
over tensor powers of the rank-1 enveloping algebra."""

# perfbench/checks.py imports these three from the package
from .clifford import classify_X_over
from .weights import parse_gamma, parse_weight

__version__ = "0.1.0"
