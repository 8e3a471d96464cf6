"""Tests for the count-min sketch and the entropy estimators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.countmin import CountMinSketch
from repro.sketch.heavyhitter import empirical_entropy, normalized_entropy


class TestCountMin:
    def test_never_underestimates(self):
        sketch = CountMinSketch(depth=4, width=64, seed=1)
        truth = {}
        for i in range(200):
            key = f"k{i % 30}"
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.add(key, 0) >= count

    def test_exact_when_sparse(self):
        sketch = CountMinSketch(depth=4, width=4096, seed=1)
        assert sketch.add("a", 5) == 5
        assert sketch.add("b", 3) == 3
        # add(key, 0) is the point query: it moves nothing
        assert sketch.add("a", 0) == 5
        assert sketch.add("b", 0) == 3
        assert sketch.add("never", 0) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch().add("x", -1)

    @given(st.lists(st.sampled_from("abcdef"), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_overestimate_invariant_property(self, keys):
        sketch = CountMinSketch(depth=3, width=16, seed=7)
        truth = {}
        for key in keys:
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        assert all(sketch.add(k, 0) >= c for k, c in truth.items())


class TestEntropy:
    def test_uniform_distribution_max_entropy(self):
        counts = {i: 10 for i in range(16)}
        assert empirical_entropy(counts) == pytest.approx(4.0)
        assert normalized_entropy(counts) == pytest.approx(1.0)

    def test_point_mass_zero_entropy(self):
        assert empirical_entropy({"victim": 1000}) == 0.0
        assert normalized_entropy({"victim": 1000}) == 0.0

    def test_empty_counts(self):
        assert empirical_entropy({}) == 0.0
        assert normalized_entropy({}) == 0.0

    def test_skew_reduces_entropy(self):
        uniform = normalized_entropy({i: 10 for i in range(10)})
        skewed = normalized_entropy({0: 910, **{i: 10 for i in range(1, 10)}})
        assert skewed < uniform

    def test_zero_counts_ignored(self):
        assert empirical_entropy({"a": 10, "b": 0}) == 0.0
