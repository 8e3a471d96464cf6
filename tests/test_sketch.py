"""Tests for the count-min sketch and the entropy estimators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.countmin import MEMO_LIMIT, CountMinSketch, row_hash
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

    KEYS = ["a", "", "ü-key", 0, 12345, -7, 2**70, ("10.0.0.1", 80), (1, ("x", None)), None, 3.5]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40, 2**64 - 1])
    @pytest.mark.parametrize("depth,width", [(1, 1), (1, 16), (3, 1000), (4, 1024), (6, 4099)])
    def test_columns_are_row_hash(self, seed, depth, width):
        """``add`` lands in exactly the columns ``row_hash`` names — the
        cells the DDoS NF addresses."""
        for key in self.KEYS:
            sketch = CountMinSketch(depth=depth, width=width, seed=seed)
            assert sketch.add(key, 3) == 3
            columns = [row.index(3) for row in sketch._rows]
            assert columns == [row_hash(seed, row, key, width) for row in range(depth)]
            assert all(sum(row) == 3 for row in sketch._rows)

    MIXED = [1, 1.0, True, (1, "a"), (1.0, "a"), "1", None]

    @given(
        keys=st.lists(
            st.one_of(st.sampled_from(MIXED), st.integers(0, 3 * MEMO_LIMIT)), max_size=400
        ),
        counts=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoised_columns_are_row_hash(self, keys, counts):
        """Keys that compare equal but print differently (``1``, ``1.0``,
        ``True``) keep their own ``row_hash`` columns through the memo:
        the sketch matches one that hashes every key afresh, cell for
        cell and estimate for estimate."""
        seed, depth, width = 5, 4, 64
        sketch = CountMinSketch(depth=depth, width=width, seed=seed)
        rows = [[0] * width for _ in range(depth)]
        for step, key in enumerate(keys):
            count = counts[step % len(counts)]
            columns = [row_hash(seed, row, key, width) for row in range(depth)]
            for row, column in enumerate(columns):
                rows[row][column] += count
            assert sketch.add(key, count) == min(rows[r][c] for r, c in enumerate(columns))
            assert sketch._rows == rows
            assert len(sketch._columns) <= MEMO_LIMIT

    def test_memo_is_bounded(self):
        sketch = CountMinSketch(depth=2, width=128, seed=3)
        for key in range(3 * MEMO_LIMIT + 7):
            sketch.add(key)
            assert len(sketch._columns) <= MEMO_LIMIT
        # past the bound the memo started over, and still hashes right
        assert 0 < len(sketch._columns) < MEMO_LIMIT
        columns = sketch._columns[repr(3 * MEMO_LIMIT + 6)]
        assert columns == tuple(row_hash(3, row, 3 * MEMO_LIMIT + 6, 128) for row in range(2))

    def test_row_hash_values_are_pinned(self):
        assert row_hash(0, 0, "a", 1024) == 1001
        assert row_hash(7, 3, ("10.0.0.1", 80), 4096) == 3940
        assert row_hash(2**40, 1, 12345, 1000) == 501


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
