"""Tests for seeded RNG streams."""

from __future__ import annotations

import pytest

from repro.sim.random import SeededRng, derive_seed


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42).stream("x")
        b = SeededRng(42).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        rng = SeededRng(42)
        xs = [rng.stream("x").random() for _ in range(5)]
        ys = [rng.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_stream_cached(self):
        rng = SeededRng(0)
        assert rng.stream("a") is rng.stream("a")

    def test_adding_stream_does_not_perturb_existing(self):
        rng1 = SeededRng(7)
        first = rng1.stream("workload")
        seq1 = [first.random() for _ in range(3)]
        rng2 = SeededRng(7)
        rng2.stream("brand-new-consumer").random()  # extra stream created first
        seq2 = [rng2.stream("workload").random() for _ in range(3)]
        assert seq1 == seq2

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
