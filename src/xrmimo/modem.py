"""Gray-coded square QAM and analytic AWGN bit-error-rate references.

Constellations are normalised to unit average symbol energy.  A symbol is
one uint8 Gray label, its bits read most significant first: the high half
selects the in-phase level through a reflected Gray code, the low half the
quadrature level, so neighbour points always differ in exactly one bit.
Simulations draw labels directly; packing bits into labels serves only
``modulate``, the flat-bit interface.

Two analytic references are provided for hard-decision reception on AWGN:

* ``qam_ber_approx`` - the classic nearest-neighbour approximation
  (4/log2 M)(1 - 1/sqrt(M)) Q(sqrt(3 snr/(M-1))), tight above ~15 dB for
  64-QAM but biased low at small SNR;
* ``qam_ber_exact`` - exact per-bit error probability obtained by summing
  Gaussian integrals over every decision region, valid at any SNR.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import FramingError

VALID_QAM_ORDERS = (4, 16, 64)

# ``math.erfc`` takes one float; qfunc takes arrays.
_erfc = np.vectorize(math.erfc, otypes=[float])


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _gray_codes(n_levels: int) -> np.ndarray:
    idx = np.arange(n_levels)
    return idx ^ (idx >> 1)


def _axis_geometry(order: int):
    if order not in VALID_QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}, expected one of {VALID_QAM_ORDERS}")
    levels_per_axis = int(round(math.sqrt(order)))
    scale = math.sqrt(3.0 / (2.0 * (order - 1)))
    levels = (2.0 * np.arange(levels_per_axis) - (levels_per_axis - 1)) * scale
    return levels_per_axis, scale, levels


class QamConstellation:
    """Square M-QAM with per-axis Gray labelling and unit mean energy."""

    def __init__(self, order: int = 64):
        levels_per_axis, scale, levels = _axis_geometry(order)
        self.order = order
        self.bits_per_symbol = int(round(math.log2(order)))
        self.bits_per_axis = self.bits_per_symbol // 2
        self.levels_per_axis = levels_per_axis
        self._scale = scale
        gray = _gray_codes(levels_per_axis)
        self._gray_of_index = gray.astype(np.uint8)
        inverse = np.argsort(gray)

        label = np.arange(order)
        gray_i = label >> self.bits_per_axis
        gray_q = label & (levels_per_axis - 1)
        self.points = levels[inverse[gray_i]] + 1j * levels[inverse[gray_q]]
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise AssertionError(f"constellation energy {energy} deviates from 1")

    def labels(self, bits) -> np.ndarray:
        """Pack each bits_per_symbol 0/1 values of the last axis into one uint8 label.

        This is the packing step of ``modulate``; nothing else packs bits.
        """
        bit_arr = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
        bps = self.bits_per_symbol
        if bit_arr.shape[-1] % bps:
            raise FramingError(f"bit count {bit_arr.shape[-1]} not divisible by {bps}")
        groups = bit_arr.reshape(*bit_arr.shape[:-1], -1, bps)
        packed = groups[..., 0]
        for j in range(1, bps):
            packed = (packed << 1) | groups[..., j]
        return packed

    def decide(self, symbols) -> np.ndarray:
        """Hard minimum-distance decision of each symbol to its uint8 label, same shape."""
        gray_i = self._nearest_gray(np.real(symbols))
        gray_q = self._nearest_gray(np.imag(symbols))
        return (gray_i << self.bits_per_axis) | gray_q

    def _nearest_gray(self, coords: np.ndarray) -> np.ndarray:
        n_levels = self.levels_per_axis
        raw = np.rint((coords / self._scale + (n_levels - 1)) / 2.0)
        return self._gray_of_index[np.clip(raw, 0, n_levels - 1).astype(np.uint8)]

    def modulate(self, bits) -> np.ndarray:
        """Map a flat 0/1 array (length divisible by bits_per_symbol) to symbols."""
        return self.points[self.labels(np.ravel(bits))]

    def demodulate(self, symbols) -> np.ndarray:
        """Hard minimum-distance decision back to a flat uint8 bit array."""
        labels = self.decide(np.ravel(symbols))
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1, dtype=np.uint8)
        return ((labels[:, None] >> shifts) & 1).ravel()


def qam_ber_approx(snr_linear, order: int = 64):
    """Nearest-neighbour Gray-QAM bit error rate on AWGN."""
    _axis_geometry(order)
    snr = np.asarray(snr_linear, dtype=float)
    k = math.log2(order)
    ber = (4.0 / k) * (1.0 - 1.0 / math.sqrt(order)) * qfunc(np.sqrt(3.0 * snr / (order - 1)))
    return float(ber) if np.isscalar(snr_linear) else ber


def qam_ber_exact(snr_linear, order: int = 64):
    """Exact Gray-QAM bit error rate on AWGN for hard per-axis decisions.

    Sums, over each transmitted level, the probability mass the Gaussian
    noise pushes into every other level's decision interval, weighted by
    the Hamming distance of the Gray labels.
    """
    snr = np.asarray(snr_linear, dtype=float)
    out = np.array([_qam_ber_exact_scalar(float(s), order) for s in np.atleast_1d(snr)])
    return float(out[0]) if snr.ndim == 0 else out


def _qam_ber_exact_scalar(snr: float, order: int) -> float:
    if snr <= 0:
        raise ValueError("snr must be positive")
    n_levels, _, levels = _axis_geometry(order)
    bits_per_axis = int(round(math.log2(n_levels)))
    sigma = math.sqrt(1.0 / (2.0 * snr))
    boundaries = (levels[:-1] + levels[1:]) / 2.0
    # P(decide j | sent i) = Q((b_{j-1}-l_i)/sigma) - Q((b_j-l_i)/sigma)
    beyond = qfunc((boundaries[None, :] - levels[:, None]) / sigma)
    beyond = np.concatenate(
        [np.ones((n_levels, 1)), beyond, np.zeros((n_levels, 1))], axis=1
    )
    decide = beyond[:, :-1] - beyond[:, 1:]
    gray = _gray_codes(n_levels)
    mismatch = np.bitwise_count((gray[:, None] ^ gray[None, :]).astype(np.uint64))
    return float((decide * mismatch).sum() / (n_levels * bits_per_axis))
