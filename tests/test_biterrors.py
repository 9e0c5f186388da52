"""Bit-error injection and sanitisation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrmimo.biterrors import (
    FieldSpec,
    _first_occurrences,
    corrupt,
    flip_bits,
    sample_error_count,
    sample_flip_positions,
    sanitize_array,
)


# Reference implementations the library is checked against.

def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of differing bits between two equal-length payloads."""
    if len(a) != len(b):
        raise ValueError("payloads must have equal length")
    xa = np.frombuffer(a, dtype=np.uint8)
    xb = np.frombuffer(b, dtype=np.uint8)
    return int(np.bitwise_count(xa ^ xb).sum())


def sanitize_field(value, spec: FieldSpec):
    """Clamp one decoded value into its allowed range; NaN/inf become the midpoint."""
    if spec.kind == "int":
        return int(min(max(int(value), int(spec.minimum)), int(spec.maximum)))
    v = float(value)
    if not np.isfinite(v):
        return float(spec.midpoint)
    return float(min(max(v, spec.minimum), spec.maximum))


def unique_based_flip_positions(n_bits: int, k: int, gen) -> np.ndarray:
    """Reference sampler: the same batched draws, deduplicated by ``np.unique``."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k == n_bits:
        return np.arange(n_bits, dtype=np.int64)
    if k > n_bits // 2:
        drop = unique_based_flip_positions(n_bits, n_bits - k, gen)
        mask = np.ones(n_bits, dtype=bool)
        mask[drop] = False
        return np.flatnonzero(mask).astype(np.int64)
    collected = np.empty(0, dtype=np.int64)
    while collected.size < k:
        batch = gen.integers(0, n_bits, size=max(16, int(1.2 * (k - collected.size))),
                             dtype=np.int64)
        merged = np.concatenate([collected, batch])
        _, first_index = np.unique(merged, return_index=True)
        collected = merged[np.sort(first_index)]
    return collected[:k]


class TestSampleErrorCount:
    def test_zero_rate(self):
        assert sample_error_count(1000, 0.0, np.random.default_rng(0)) == 0

    def test_unit_rate(self):
        assert sample_error_count(1000, 1.0, np.random.default_rng(0)) == 1000

    def test_binomial_mean(self):
        rng = np.random.default_rng(1)
        n, p, trials = 1_000_000, 1e-4, 1000
        draws = [sample_error_count(n, p, rng) for _ in range(trials)]
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(np.mean(draws) - n * p) <= 3 * sigma / np.sqrt(trials)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            sample_error_count(10, 1.5, np.random.default_rng(0))


class TestFlipBits:
    def test_zero_flips_identity(self):
        payload = bytes(range(256))
        assert flip_bits(payload, 0, np.random.default_rng(0)) == payload

    def test_all_flips_complement(self):
        payload = bytes(range(256))
        flipped = flip_bits(payload, 8 * len(payload), np.random.default_rng(0))
        assert flipped == bytes(b ^ 0xFF for b in payload)

    def test_exact_hamming_distance(self):
        rng = np.random.default_rng(2)
        payload = bytes(rng.integers(0, 256, 4096, dtype=np.uint8))
        for k in (1, 17, 1000, 20000):
            assert hamming_distance(flip_bits(payload, k, rng), payload) == k

    def test_too_many_flips_rejected(self):
        with pytest.raises(ValueError):
            flip_bits(b"\x00", 9, np.random.default_rng(0))

    def test_positions_distinct_and_in_range(self):
        rng = np.random.default_rng(3)
        for n, k in ((100, 99), (100, 50), (10_000, 3)):
            pos = sample_flip_positions(n, k, rng)
            assert len(np.unique(pos)) == k
            assert pos.min() >= 0 and pos.max() < n

    @pytest.mark.parametrize("n_bits, k, seed", [
        (8, 1, 0),
        (37, 5, 1),
        (1000, 499, 2),      # just under n // 2
        (1000, 501, 3),      # complement path
        (1000, 999, 4),      # complement of a single drop
        (64, 31, 0),         # the first batch holds only 24 distinct positions
        (7_372_800, 74_000, 6),  # scenario 1 payload at BER ~1e-2
        (2**62, 20, 7),      # position and index keys would overflow int64
    ])
    def test_matches_unique_based_reference(self, n_bits, k, seed):
        expected = unique_based_flip_positions(n_bits, k, np.random.default_rng(seed))
        actual = sample_flip_positions(n_bits, k, np.random.default_rng(seed))
        assert actual.dtype == np.int64
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("values, n_values", [
        ([3, 1, 3, 0, 1, 3], 4),         # the largest value repeats last
        ([0, 0, 0], 1),
        (np.random.default_rng(8).integers(0, 50, 1000), 50),
        ([1, 1 + 2**62, 1, 7], 2**63),   # a shifted key would lose the top bit
    ])
    def test_first_occurrences_match_unique(self, values, n_values):
        values = np.asarray(values, dtype=np.int64)
        expected = np.zeros(values.size, dtype=bool)
        expected[np.unique(values, return_index=True)[1]] = True
        assert np.array_equal(_first_occurrences(values, n_values), expected)

    def test_single_flip_uniformity(self):
        """Each of the 8 positions of a 1-byte payload drawn ~uniformly."""
        rng = np.random.default_rng(4)
        trials = 80_000
        counts = np.zeros(8, dtype=int)
        for _ in range(trials):
            counts[sample_flip_positions(8, 1, rng)[0]] += 1
        assert np.abs(counts - trials / 8).max() <= 400


class TestCorrupt:
    def test_zero_ber_identity(self):
        rng = np.random.default_rng(5)
        payload = bytes(rng.integers(0, 256, 1000, dtype=np.uint8))
        assert corrupt(payload, 0.0, rng) == payload

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(min_size=1, max_size=512), seed=st.integers(0, 2**31))
    def test_zero_ber_identity_property(self, data, seed):
        assert corrupt(data, 0.0, np.random.default_rng(seed)) == data

    @pytest.mark.parametrize("ber", [1e-3, 1e-4])
    def test_hamming_matches_binomial(self, ber):
        rng = np.random.default_rng(6)
        n_bytes = 12_500  # 1e5 bits
        payload = bytes(rng.integers(0, 256, n_bytes, dtype=np.uint8))
        n_bits = 8 * n_bytes
        trials = 1000
        distances = [hamming_distance(corrupt(payload, ber, rng), payload)
                     for _ in range(trials)]
        sigma = np.sqrt(n_bits * ber * (1 - ber))
        assert abs(np.mean(distances) - n_bits * ber) <= 3 * sigma / np.sqrt(trials)

    def test_deterministic_given_seed(self):
        payload = bytes(range(256)) * 4
        a = corrupt(payload, 1e-2, np.random.default_rng(77))
        b = corrupt(payload, 1e-2, np.random.default_rng(77))
        assert a == b


class TestSanitize:
    def test_clamp_low(self):
        spec = FieldSpec("float", 0.3, 10.0)
        assert sanitize_field(-3.2, spec) == 0.3

    def test_nan_to_midpoint(self):
        spec = FieldSpec("float", 0.0, 639.0)
        assert sanitize_field(float("nan"), spec) == 319.5

    def test_in_range_unchanged(self):
        spec = FieldSpec("float", 0.0, 639.0)
        assert sanitize_field(123.25, spec) == 123.25

    def test_int_clamp(self):
        spec = FieldSpec("int", 0, 1)
        assert sanitize_field(200, spec) == 1
        assert sanitize_field(-5, spec) == 0
        assert sanitize_field(1, spec) == 1

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(allow_nan=True, allow_infinity=True, width=64))
    def test_idempotent_and_in_range(self, value):
        spec = FieldSpec("float", -2.5, 7.5)
        out = sanitize_field(value, spec)
        assert spec.minimum <= out <= spec.maximum
        assert sanitize_field(out, spec) == out

    def test_array_agrees_with_scalar(self):
        spec = FieldSpec("float", 0.0, 1.0)
        values = [0.5, -1.0, 2.0, float("nan"), float("inf"), float("-inf")]
        vec = sanitize_array(values, spec)
        assert list(vec) == [sanitize_field(v, spec) for v in values]

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            FieldSpec("float", 2.0, 1.0)
        with pytest.raises(ValueError):
            FieldSpec("bytes", 0.0, 1.0)
