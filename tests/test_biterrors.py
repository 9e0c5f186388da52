"""Bit-error injection tests, and the receiver's range clamp."""

import copy
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from xrmimo.biterrors import (
    SORTED_DRAW_FLIPS,
    corrupt,
    corrupt_in_place,
    sample_error_count,
    sample_flip_positions,
)
from xrmimo.sandbox import (
    MAX_FEATURES_PER_FRAME,
    RECORD_WITH_DEPTH_DTYPE,
    CameraModel,
    decode_payload,
)
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
        assert corrupt(payload, 0.0, np.random.default_rng(0)) == payload

    def test_all_flips_complement(self):
        payload = bytes(range(256))
        flipped = corrupt(payload, 1.0, np.random.default_rng(0))
        assert flipped == bytes(b ^ 0xFF for b in payload)

    def test_exact_hamming_distance(self):
        rng = np.random.default_rng(2)
        payload = bytes(rng.integers(0, 256, 4096, dtype=np.uint8))
        n_bits = 8 * len(payload)
        for mean in (1, 17, 1000, 20000):
            # ``corrupt`` draws its flip count first; a clone draws the same one.
            k = sample_error_count(n_bits, mean / n_bits, copy.deepcopy(rng))
            assert hamming_distance(corrupt(payload, mean / n_bits, rng), payload) == k

    def test_too_many_flips_rejected(self):
        with pytest.raises(ValueError):
            sample_flip_positions(8, 9, np.random.default_rng(0))

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


# The sorted draw runs for SORTED_DRAW_FLIPS <= k <= n // 50; this n has
# both edges of that range, and the sparse and dense ranges around it.
LAW_BITS = 1 << 17
SORTED_LOW, SORTED_HIGH = SORTED_DRAW_FLIPS, LAW_BITS // 50


class TestSortedFlipPositions:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 1 << 21), data=st.data(), seed=st.integers(0, 2**31))
    @example(n=LAW_BITS, data=None, seed=0)
    def test_ascending_distinct_in_range(self, n, data, seed):
        """Every regime, at its edges and inside: k ascending distinct int64 positions."""
        # Above n / 2 the n - k unflipped bits are drawn, with edges of their own.
        edges = [0, 1, SORTED_DRAW_FLIPS - 1, SORTED_DRAW_FLIPS, n // 50, n // 50 + 1,
                 n // 20, n // 2, n // 2 + 1, n - n // 50 - 1, n - n // 50,
                 n - SORTED_DRAW_FLIPS, n - SORTED_DRAW_FLIPS + 1, n - 1, n]
        ks = [k for k in edges if 0 <= k <= n]
        if data is not None:
            ks.append(data.draw(st.integers(0, n)))
        rng = np.random.default_rng(seed)
        for k in ks:
            pos = sample_flip_positions(n, k, rng)
            assert pos.dtype == np.int64 and pos.shape == (k,)
            assert (np.diff(pos) > 0).all()
            assert k == 0 or (pos[0] >= 0 and pos[-1] < n)

    @pytest.mark.parametrize("n", [2**32, 2**32 + 1, 2**40])
    def test_sorted_draw_beyond_32_bits(self, n):
        rng = np.random.default_rng(10)
        for k in (SORTED_DRAW_FLIPS, 3 * SORTED_DRAW_FLIPS):
            pos = sample_flip_positions(n, k, rng)
            assert pos.dtype == np.int64 and pos.shape == (k,)
            assert (np.diff(pos) > 0).all() and pos[0] >= 0 and pos[-1] < n
        # A 2^40-bit draw of 6144 positions lands above 2^32 nearly always.
        assert n < 2**40 or pos[-1] >= 2**32

    def test_shortfall_is_drawn_again(self):
        """A first draw full of repeats is topped up to k distinct positions."""

        class Repeating(np.random.Generator):
            calls = 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                out = super().integers(*args, **kwargs)
                if self.calls == 1:
                    out[:] = out[0]
                return out

        rng = Repeating(np.random.PCG64(11))
        pos = sample_flip_positions(LAW_BITS, SORTED_HIGH, rng)
        assert rng.calls >= 2
        assert pos.shape == (SORTED_HIGH,) and (np.diff(pos) > 0).all()
        assert pos[0] >= 0 and pos[-1] < LAW_BITS

    def test_law_in_the_sorted_draw_range(self):
        rng = np.random.default_rng(12)
        ks = rng.integers(SORTED_LOW, SORTED_HIGH + 1, size=4000)
        assert_uniform_subsets(LAW_BITS, ks, rng)

    # One k between n / 50 and n / 2, drawn with more draws than flips, and
    # one above n / 2, the complement of such a draw.
    @pytest.mark.parametrize("k", [LAW_BITS // 4, 3 * LAW_BITS // 4])
    def test_law_above_the_sparse_range(self, k):
        assert_uniform_subsets(LAW_BITS, np.full(400, k), np.random.default_rng(14))


def assert_uniform_subsets(n, ks, rng):
    """Single-position and pair inclusion rates of ``sample_flip_positions(n, k)`` over
    ``ks`` match uniform k-subsets.

    Each position of a uniform k-subset of range(n) is included with
    probability k/n, and a fixed pair with k(k-1)/(n(n-1)).
    """
    counts = np.zeros(n, dtype=np.int64)
    offsets = (1, 7, n // 8, n // 2)  # neighbours, and the same byte in other lanes
    pairs = np.zeros(len(offsets), dtype=np.int64)
    for k in ks:
        pos = sample_flip_positions(n, int(k), rng)
        counts[pos] += 1
        member = np.zeros(n, dtype=bool)
        member[pos] = True
        for j, d in enumerate(offsets):
            pairs[j] += np.count_nonzero(member[:-d] & member[d:])
    # Inclusion counts: mean k/n and variance (k/n)(1 - k/n) per draw; the
    # fixed total removes one degree of freedom.
    share = ks / n
    expected, variance = share.sum(), (share * (1 - share)).sum()
    statistic = float(np.sum((counts - expected) ** 2) / variance)
    assert chi2.ppf(1e-4, df=n - 1) < statistic < chi2.ppf(1 - 1e-4, df=n - 1)
    # The chi-square cannot see one position off; both ends of the range, alone, can.
    assert (np.abs(counts[[0, -1]] - expected) <= 5 * np.sqrt(variance)).all()
    # Pairs (q, q + d) both included, summed over q: about 1.7e5 per offset in
    # the sparse range.  A pair count of a uniform k-subset has a variance
    # below its mean, so the bound holds at any density.
    pair_mean = (n - np.array(offsets)) * (ks * (ks - 1.0)).sum() / (n * (n - 1))
    assert (np.abs(pairs - pair_mean) <= 5 * np.sqrt(pair_mean)).all()


def lane_major_oracle(payload: np.ndarray, positions: np.ndarray) -> bytes:
    """``payload`` with bit ``q // n`` (LSB first) of byte ``q % n`` flipped for each q."""
    n_bytes = payload.size
    bits = np.unpackbits(payload, bitorder="little").reshape(n_bytes, 8)
    bits[positions % n_bytes, positions // n_bytes] ^= 1
    return np.packbits(bits, bitorder="little").tobytes()


class TestCorrupt:
    @settings(max_examples=40, deadline=None)
    @given(n_bytes=st.integers(1, 1 << 15), seed=st.integers(0, 2**31),
           ber=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 2e-2, 0.1, 0.5, 1.0]))
    @example(n_bytes=1 << 15, seed=0, ber=1e-2)  # the sorted draw and one XOR per lane
    @example(n_bytes=1 << 15, seed=0, ber=1e-3)  # ``choice`` and one ``xor.at``
    def test_flips_exactly_the_lane_major_bits_drawn(self, n_bytes, seed, ber):
        payload = np.random.default_rng(seed).integers(0, 256, n_bytes, dtype=np.uint8)
        buf, gen, oracle_gen = payload.copy(), *(np.random.default_rng(seed) for _ in range(2))
        corrupt_in_place(buf, ber, gen)
        k = sample_error_count(8 * n_bytes, ber, oracle_gen)
        positions = sample_flip_positions(8 * n_bytes, k, oracle_gen)
        assert buf.tobytes() == lane_major_oracle(payload, positions)
        assert gen.bit_generator.state == oracle_gen.bit_generator.state

    # A ``choice`` over all n bits would take an int64 each: 59 MB on the
    # scenario-1 wire.  The draw takes about 16 bytes per flip.
    @pytest.mark.parametrize("ber", [0.1, 0.3, 0.7])
    def test_dense_draw_memory_grows_with_the_flips(self, ber):
        wire = np.zeros(921_600, dtype=np.uint8)
        tracemalloc.start()
        try:
            corrupt_in_place(wire, ber, np.random.default_rng(13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        flips = int(np.bitwise_count(wire).sum())
        assert abs(flips - 8 * wire.size * ber) < 5 * np.sqrt(8 * wire.size * ber)
        assert peak < 24 * flips

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
        records = np.zeros(MAX_FEATURES_PER_FRAME, dtype=RECORD_WITH_DEPTH_DTYPE)
        records[0]["u"], records[0]["v"], records[0]["depth"] = 10.0, 20.0, 1.5
        records[0]["valid"] = valid_byte
        decoded = decode_payload(records.tobytes(), 3, CameraModel())
        assert len(decoded) == (valid_byte != 0)
        assert (decoded["valid"] == 1).all()
        assert (decoded["depth"] == 1.5).all()
