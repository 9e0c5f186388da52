"""Gray-QAM modem and analytic BER reference tests."""

import numpy as np
import pytest

from xrmimo.exceptions import FramingError
from xrmimo.modem import QamConstellation, qam_ber_approx, qam_ber_exact, qfunc


def min_distance(constellation):
    gaps = np.abs(constellation.points[:, None] - constellation.points[None, :])
    return gaps[gaps > 0].min()


@pytest.fixture(scope="module", params=[4, 16, 64])
def constellation(request):
    return QamConstellation(request.param)


class TestConstellation:
    def test_unit_energy(self, constellation):
        energy = np.mean(np.abs(constellation.points) ** 2)
        assert abs(energy - 1.0) <= 1e-12

    def test_every_label_round_trips(self, constellation):
        bps = constellation.bits_per_symbol
        labels = np.arange(constellation.order)
        bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8)
        symbols = constellation.modulate(bits.reshape(-1))
        assert np.array_equal(constellation.demodulate(symbols), bits.reshape(-1))

    def test_all_zero_bits_constant_point(self, constellation):
        bits = np.zeros(constellation.bits_per_symbol * 10, dtype=np.uint8)
        symbols = constellation.modulate(bits)
        assert np.allclose(symbols, symbols[0])
        assert np.array_equal(constellation.demodulate(symbols), bits)

    def test_gray_neighbours_differ_in_one_bit(self, constellation):
        """Exhaustive over all in-phase and quadrature neighbour pairs."""
        L = constellation.levels_per_axis
        pts = constellation.points
        bps = constellation.bits_per_symbol
        labels = {complex(p): lab for lab, p in enumerate(pts)}
        spacing = min_distance(constellation)
        for label, p in enumerate(pts):
            for delta in (spacing, -spacing, 1j * spacing, -1j * spacing):
                q = complex(p + delta)
                neighbour = next((lab for c, lab in labels.items()
                                  if abs(c - q) < 1e-9), None)
                if neighbour is not None:
                    assert bin(label ^ neighbour).count("1") == 1

    def test_half_min_distance_displacement_one_bit_error(self, constellation):
        """A symbol pushed just past half the spacing hits a Gray neighbour."""
        bps = constellation.bits_per_symbol
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, bps * 200, dtype=np.uint8)
        symbols = constellation.modulate(bits)
        displaced = symbols + 0.501 * min_distance(constellation)
        errors = constellation.demodulate(displaced) != bits
        per_symbol = errors.reshape(-1, bps).sum(axis=1)
        assert per_symbol.max() <= 1

    def test_labels_pack_bits_most_significant_first(self, constellation):
        bps = constellation.bits_per_symbol
        bits = np.random.default_rng(1).integers(0, 2, (3, 40, bps), dtype=np.uint8)
        expected = bits @ (1 << np.arange(bps)[::-1])
        labels = constellation.labels(bits.reshape(3, -1))
        assert labels.dtype == np.uint8
        assert np.array_equal(labels, expected)

    def test_decide_points_gives_their_labels(self, constellation):
        labels = constellation.decide(constellation.points)
        assert labels.dtype == np.uint8
        assert np.array_equal(labels, np.arange(constellation.order, dtype=np.uint8))

    def test_decide_keeps_shape(self, constellation):
        rng = np.random.default_rng(2)
        symbols = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        assert constellation.decide(symbols).shape == (2, 3, 5)

    def test_framing_error(self, constellation):
        with pytest.raises(FramingError):
            constellation.modulate(np.zeros(constellation.bits_per_symbol + 1,
                                            dtype=np.uint8))
        with pytest.raises(FramingError):
            constellation.labels(np.zeros((2, constellation.bits_per_symbol + 1),
                                          dtype=np.uint8))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            QamConstellation(8)


class TestAnalyticBer:
    def test_nearest_neighbour_at_zero_db(self):
        # (7/12) Q(sqrt(1/21)) for 64-QAM
        assert qam_ber_approx(1.0, 64) == pytest.approx(0.2413, abs=2e-4)

    def test_nearest_neighbour_at_high_snr(self):
        assert 0.9e-4 < qam_ber_approx(270.7, 64) < 1.1e-4

    def test_limit_to_zero(self):
        assert qam_ber_approx(1e12, 64) < 1e-300

    def test_exact_never_below_approx(self):
        """Non-nearest-neighbour crossings only add bit errors."""
        for db in np.linspace(-5, 30, 15):
            snr = 10.0 ** (db / 10.0)
            assert qam_ber_exact(snr, 64) >= qam_ber_approx(snr, 64) - 1e-15

    def test_exact_equals_approx_at_high_snr(self):
        snr = 10.0 ** 2.4
        assert qam_ber_exact(snr, 64) == pytest.approx(qam_ber_approx(snr, 64), rel=1e-9)

    def test_exact_matches_awgn_monte_carlo(self):
        """Dual-route check: modem through plain AWGN versus the formula."""
        const = QamConstellation(64)
        rng = np.random.default_rng(42)
        n_bits = 1_200_000
        for snr_db in (8.0, 14.0):
            snr = 10.0 ** (snr_db / 10.0)
            bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            symbols = const.modulate(bits)
            sigma = np.sqrt(1.0 / (2.0 * snr))
            noisy = symbols + sigma * (rng.standard_normal(symbols.size)
                                       + 1j * rng.standard_normal(symbols.size))
            ber = np.count_nonzero(const.demodulate(noisy) != bits) / n_bits
            expected = qam_ber_exact(snr, 64)
            se = np.sqrt(expected * (1 - expected) / n_bits)
            assert abs(ber - expected) <= 3 * se

    def test_exact_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            qam_ber_exact(0.0, 64)

    def test_qfunc_known_values(self):
        assert qfunc(0.0) == pytest.approx(0.5)
        assert qfunc(1.6448536269514722) == pytest.approx(0.05, rel=1e-9)
