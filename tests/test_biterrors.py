"""Bit-error injection tests, and the receiver's range clamp."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from xrmimo.biterrors import corrupt, flip_bits, sample_error_count, sample_flip_positions
from xrmimo.sandbox import FEATURE_SLOTS, RECORD_WITH_DEPTH_DTYPE, CameraModel, decode_payload
from xrmimo.sandbox.payload import _clamp


# Reference implementations the library is checked against.

def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of differing bits between two equal-length payloads."""
    if len(a) != len(b):
        raise ValueError("payloads must have equal length")
    xa = np.frombuffer(a, dtype=np.uint8)
    xb = np.frombuffer(b, dtype=np.uint8)
    return int(np.bitwise_count(xa ^ xb).sum())


def sanitize_field(value, lo: float, hi: float) -> float:
    """Clamp one decoded value into [lo, hi]; NaN/inf become the midpoint."""
    v = float(value)
    if not np.isfinite(v):
        return (lo + hi) / 2.0
    return float(min(max(v, lo), hi))


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
        for n, k in ((100, 99), (100, 50), (10_000, 3), (8, 1), (37, 5), (1000, 499),
                     (1000, 501), (1000, 999), (64, 31),
                     (7_372_800, 74_000),     # scenario 1 payload at BER ~1e-2
                     (2**62, 20),             # positions beyond 32 bits
                     (7_372_800, 3_686_400)):  # scenario 1 payload at BER 0.5
            pos = sample_flip_positions(n, k, rng)
            assert pos.dtype == np.int64
            assert pos.shape == (k,)
            ordered = np.sort(pos)
            assert (np.diff(ordered) > 0).all()
            assert ordered[0] >= 0 and ordered[-1] < n

    def test_single_flip_uniformity(self):
        """Each of the 8 positions of a 1-byte payload drawn ~uniformly."""
        rng = np.random.default_rng(4)
        trials = 80_000
        counts = np.zeros(8, dtype=int)
        for _ in range(trials):
            counts[sample_flip_positions(8, 1, rng)[0]] += 1
        assert np.abs(counts - trials / 8).max() <= 400

    def test_subset_uniformity(self):
        """Each of the 10 two-bit subsets of a 5-bit payload drawn ~uniformly."""
        rng = np.random.default_rng(9)
        trials = 50_000
        counts = Counter(tuple(sorted(sample_flip_positions(5, 2, rng).tolist()))
                         for _ in range(trials))
        subsets = list(combinations(range(5), 2))
        assert set(counts) <= set(subsets)
        observed = np.array([counts[subset] for subset in subsets])
        expected = trials / len(subsets)
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert statistic < chi2.ppf(0.999, df=len(subsets) - 1)


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


def clamp_one(value, lo: float, hi: float) -> float:
    return float(_clamp([value], lo, hi)[0])


class TestSanitize:
    def test_clamp_low(self):
        assert sanitize_field(-3.2, 0.3, 10.0) == 0.3
        assert clamp_one(-3.2, 0.3, 10.0) == 0.3

    def test_nan_to_midpoint(self):
        assert sanitize_field(float("nan"), 0.0, 639.0) == 319.5
        assert clamp_one(float("nan"), 0.0, 639.0) == 319.5

    def test_in_range_unchanged(self):
        assert sanitize_field(123.25, 0.0, 639.0) == 123.25
        assert clamp_one(123.25, 0.0, 639.0) == 123.25

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(allow_nan=True, allow_infinity=True, width=64))
    def test_idempotent_and_in_range(self, value):
        out = sanitize_field(value, -2.5, 7.5)
        assert -2.5 <= out <= 7.5
        assert sanitize_field(out, -2.5, 7.5) == out
        assert clamp_one(value, -2.5, 7.5) == out

    def test_array_agrees_with_scalar(self):
        values = [0.5, -1.0, 2.0, float("nan"), float("inf"), float("-inf")]
        vec = _clamp(values, 0.0, 1.0)
        assert list(vec) == [sanitize_field(v, 0.0, 1.0) for v in values]

    @pytest.mark.parametrize("valid_byte", [0, 1, 2, 128, 255])
    def test_any_nonzero_valid_byte_decodes(self, valid_byte):
        records = np.zeros(FEATURE_SLOTS, dtype=RECORD_WITH_DEPTH_DTYPE)
        records[0]["u"], records[0]["v"], records[0]["depth"] = 10.0, 20.0, 1.5
        records[0]["valid"] = valid_byte
        decoded = decode_payload(records.tobytes(), 3, CameraModel())
        assert len(decoded) == (valid_byte != 0)
        assert (decoded["valid"] == 1).all()
        assert (decoded["depth"] == 1.5).all()
