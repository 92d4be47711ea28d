"""Tests for repro.util.rng: deterministic, label-separated streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import (
    derive_seed,
    label_entropy,
    make_rng,
    spawn_rngs,
    uniform_below,
)


class TestLabelEntropy:
    def test_stable_across_calls(self):
        assert label_entropy("trial") == label_entropy("trial")

    def test_distinct_labels_differ(self):
        assert label_entropy("trial") != label_entropy("node")

    def test_fits_32_bits(self):
        for lab in ("", "x", "a-much-longer-label", "ünïcode"):
            assert 0 <= label_entropy(lab) < 2**32


class TestDeriveSeed:
    def test_same_inputs_same_stream(self):
        a = np.random.default_rng(derive_seed(7, "x", 3)).integers(0, 1 << 30, 10)
        b = np.random.default_rng(derive_seed(7, "x", 3)).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = np.random.default_rng(derive_seed(7, "x")).integers(0, 1 << 30, 10)
        b = np.random.default_rng(derive_seed(8, "x")).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_different_labels_different_stream(self):
        a = np.random.default_rng(derive_seed(7, "x")).integers(0, 1 << 30, 10)
        b = np.random.default_rng(derive_seed(7, "y")).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_integer_labels_supported(self):
        a = np.random.default_rng(derive_seed(7, "trial", 1)).integers(0, 1 << 30, 5)
        b = np.random.default_rng(derive_seed(7, "trial", 2)).integers(0, 1 << 30, 5)
        assert not np.array_equal(a, b)

    def test_none_seed_is_nondeterministic_entropy(self):
        # Two None-seeded sequences should (overwhelmingly) differ.
        a = np.random.default_rng(derive_seed(None, "x")).integers(0, 1 << 30, 10)
        b = np.random.default_rng(derive_seed(None, "x")).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)


class TestMakeRng:
    def test_returns_generator(self):
        assert isinstance(make_rng(0, "a"), np.random.Generator)

    def test_reproducible(self):
        assert make_rng(5, "lbl").random() == make_rng(5, "lbl").random()


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 7, "nodes")) == 7

    def test_children_independent(self):
        rngs = spawn_rngs(0, 3, "nodes")
        draws = [r.integers(0, 1 << 30, 5) for r in rngs]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_reproducible(self):
        a = [r.random() for r in spawn_rngs(9, 4, "x")]
        b = [r.random() for r in spawn_rngs(9, 4, "x")]
        assert a == b


class TestUniformBelow:
    """``uniform_below`` is ``rng.integers(0, bounds)``: the same values
    and the Generator left in the same state, on the scalar-bound path
    (equal bounds) and the array-bound one alike."""

    @staticmethod
    def assert_matches(bounds, seed, warmup=0):
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        if warmup:
            ra.integers(0, 5, size=warmup)
            rb.integers(0, 5, size=warmup)
        bounds = np.asarray(bounds, dtype=np.int64)
        want = ra.integers(0, bounds)
        got = uniform_below(rb, bounds)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert rb.bit_generator.state == ra.bit_generator.state

    @pytest.mark.parametrize("bound", [1, 2, 8, 2**31 + 5, 2**32, 2**40 + 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_bounds(self, bound, seed):
        self.assert_matches(np.full(257, bound), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_bounds(self, seed):
        bounds = np.random.default_rng(seed + 100).integers(1, 12, size=300)
        self.assert_matches(bounds, seed)
        self.assert_matches([8, 8, 8, 2**31 + 5, 8], seed)
        self.assert_matches([1, 1, 1, 2], seed)

    def test_empty(self):
        self.assert_matches(np.empty(0, dtype=np.int64), 3)

    def test_single_bound(self):
        self.assert_matches([6], 4)

    @pytest.mark.parametrize("bound", [2, 8, 2**31 + 5])
    @pytest.mark.parametrize("warmup", [1, 3])
    def test_buffered_half_word(self, bound, warmup):
        """An odd number of 32-bit draws leaves half of a 64-bit output
        buffered in the bit generator; both paths consume it the same way."""
        ra = np.random.default_rng(9)
        ra.integers(0, 5, size=warmup)
        assert ra.bit_generator.state["has_uint32"] == 1
        self.assert_matches(np.full(33, bound), 9, warmup=warmup)
        self.assert_matches(np.full(32, bound), 9, warmup=warmup)

    def test_invalid_bound_raises_like_integers(self):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(0, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            uniform_below(np.random.default_rng(0), np.zeros(3, dtype=np.int64))
