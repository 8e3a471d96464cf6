"""Approximate data structures: count-min sketch and entropy estimators."""

from repro.sketch.countmin import CountMinSketch, row_hash
from repro.sketch.heavyhitter import empirical_entropy, normalized_entropy

__all__ = [
    "CountMinSketch",
    "row_hash",
    "empirical_entropy",
    "normalized_entropy",
]
