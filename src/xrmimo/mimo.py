"""Multi-user Massive MIMO uplink physical layer.

Covers synthetic i.i.d. Rayleigh channel generation, a binary channel-file
format for measured-channel replay, zero-forcing equalisation, and a
Monte-Carlo uncoded-BER sweep of power-controlled Gray-QAM users through
the zero-forcing receiver.

Every zero-forcing quantity comes from one QR factorisation H = QR per
subcarrier (Larsson, "MIMO detection methods: how they work", IEEE SPM
26(3), 2009).  Q has orthonormal columns, so cond(H) = cond(R),
(H^H H)^-1 = R^-1 R^-H, and the equaliser output is W y = x + R^-1 Q^H n,
where Q^H n is white noise of the antenna noise variance in K dimensions.

Each SNR point of the Monte Carlo draws from its own stream, so the points
run on two threads, the calling thread taking the first half and one
worker the second (``parallel.in_two_halves``); numpy's draws, ufuncs and
matmul release the GIL, and the points are joined in SNR order.  A chunk's
labels are drawn in one call and its noise one slice of subcarriers at a
time, in subcarrier order: float64 normal draws keep no state between
calls, so the slices are the chunk's one draw, and each thread's working
set stays small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ChannelFileError, ConfigurationError, SingularChannelError
from .modem import QamConstellation
from .parallel import in_two_halves
from .seeding import as_generator, generator

CHANNEL_FILE_MAGIC = b"XMCH"
CHANNEL_HEADER_BYTES = 16
CONDITION_LIMIT = 1e12
# User-domain symbols simulated at once by ``ber_curve``: a chunk's labels
# are drawn in one call, and its noise is drawn, coloured and decided one
# slice of subcarriers at a time.  malloc keeps what a worker thread frees,
# so the slices keep each thread's working set, and the peak RSS, small.
CHUNK_USER_SYMBOLS = 200_000
SLICE_USER_SYMBOLS = CHUNK_USER_SYMBOLS // 16


@dataclass
class ChannelMatrix:
    """Complex channel gains indexed [subcarrier, antenna, user]."""

    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=complex)
        if gains.ndim != 3:
            raise ConfigurationError("channel gains must be (subcarriers, antennas, users)")
        _, m, k = gains.shape
        if not m > k >= 1:
            raise ConfigurationError(f"need antennas > users >= 1, got M={m}, K={k}")
        if not np.isfinite(gains).all():
            raise ConfigurationError("channel gains must be finite")
        self.gains = gains

    @property
    def n_subcarriers(self) -> int:
        return self.gains.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.gains.shape[1]

    @property
    def n_users(self) -> int:
        return self.gains.shape[2]


def generate_channel(n_antennas: int, n_users: int, n_subcarriers: int = 1,
                     rng=0) -> ChannelMatrix:
    """Synthetic i.i.d. Rayleigh channel: unit-variance circularly-symmetric Gaussian gains."""
    if not n_antennas > n_users >= 1:
        raise ConfigurationError(
            f"need antennas > users >= 1, got M={n_antennas}, K={n_users}"
        )
    if n_subcarriers < 1:
        raise ConfigurationError("n_subcarriers must be >= 1")
    gen = as_generator(rng)
    shape = (n_subcarriers, n_antennas, n_users)
    gains = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    return ChannelMatrix(gains)


def save_channel(channel: ChannelMatrix, path) -> None:
    """Write the binary channel format (magic, u32 M/K/F, float32 pairs)."""
    f, m, k = channel.gains.shape
    header = CHANNEL_FILE_MAGIC + np.array([m, k, f], dtype="<u4").tobytes()
    body = channel.gains.astype("<c8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_channel(path) -> ChannelMatrix:
    """Parse one channel file; raises ChannelFileError with a byte offset."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(CHANNEL_FILE_MAGIC) or buf[:4] != CHANNEL_FILE_MAGIC:
        raise ChannelFileError(f"bad magic in {path}", offset=0)
    if len(buf) < CHANNEL_HEADER_BYTES:
        raise ChannelFileError(f"truncated header in {path}", offset=len(buf))
    m, k, f = (int(v) for v in np.frombuffer(buf, dtype="<u4", count=3, offset=4))
    if k < 1 or m <= k or f < 1:
        raise ChannelFileError(
            f"invalid dimensions M={m}, K={k}, F={f} in {path}", offset=4
        )
    expected = CHANNEL_HEADER_BYTES + 8 * f * m * k
    if len(buf) != expected:
        raise ChannelFileError(
            f"payload size mismatch in {path}: expected {expected} bytes, found {len(buf)}",
            offset=min(len(buf), expected),
        )
    floats = np.frombuffer(buf, dtype="<f4", offset=CHANNEL_HEADER_BYTES)
    finite = np.isfinite(floats)
    if not finite.all():
        bad = int(np.argmax(~finite))
        raise ChannelFileError(
            f"non-finite channel entry in {path}", offset=CHANNEL_HEADER_BYTES + 4 * bad
        )
    gains = (floats[0::2] + 1j * floats[1::2]).astype(complex).reshape(f, m, k)
    return ChannelMatrix(gains)


def concat_channels(channels) -> ChannelMatrix:
    """Stack users of several channels sharing antenna and subcarrier counts."""
    channels = list(channels)
    if not channels:
        raise ChannelFileError("no channels to concatenate")
    shapes = {(c.n_subcarriers, c.n_antennas) for c in channels}
    if len(shapes) != 1:
        raise ChannelFileError(
            f"cannot concatenate channels with differing (F, M): {sorted(shapes)}"
        )
    return ChannelMatrix(np.concatenate([c.gains for c in channels], axis=2))


def load_channels(paths) -> ChannelMatrix:
    return concat_channels(load_channel(p) for p in paths)


def _zf_factor(h):
    """Condition numbers and R^-1 of (..., M, K) channels, from H = QR.

    The SVD of the K x K factor R = U S V^H gives both cond(R) = cond(H)
    and R^-1 = V S^-1 U^H; R^-1 is not finite where R is singular.
    """
    r = np.linalg.qr(np.asarray(h, dtype=complex), mode="r")
    u, s, vh = np.linalg.svd(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[..., -1] > 0, s[..., 0] / s[..., -1], np.inf)
        r_inv = (np.conjugate(np.swapaxes(vh, -1, -2)) / s[..., None, :]) @ np.conjugate(
            np.swapaxes(u, -1, -2))
    return cond, r_inv


def _usable(cond) -> np.ndarray:
    return np.isfinite(cond) & (cond <= CONDITION_LIMIT)


def _check_conditioning(cond) -> None:
    if not np.all(_usable(cond)):
        worst = float(np.max(cond))
        raise SingularChannelError(
            f"channel condition number {worst:.3e} exceeds limit {CONDITION_LIMIT:.0e}"
        )


def _noise_gain(r_inv) -> np.ndarray:
    """[(H^H H)^-1]_kk = squared norm of row k of R^-1."""
    return np.sum(np.abs(r_inv) ** 2, axis=-1)


def channel_condition(h) -> np.ndarray:
    """2-norm condition number per subcarrier (or of a single matrix)."""
    return _zf_factor(h)[0]


def zf_equalizer(h) -> np.ndarray:
    """Zero-forcing equaliser W = (H^H H)^-1 H^H = R^-1 R^-H H^H for (..., M, K) channels."""
    h = np.asarray(h, dtype=complex)
    cond, r_inv = _zf_factor(h)
    _check_conditioning(cond)
    gram_inv = r_inv @ np.conjugate(np.swapaxes(r_inv, -1, -2))
    return gram_inv @ np.conjugate(np.swapaxes(h, -1, -2))


def zf_noise_gain(h) -> np.ndarray:
    """Per-user noise amplification [(H^H H)^-1]_kk, shape (..., K)."""
    cond, r_inv = _zf_factor(h)
    _check_conditioning(cond)
    return _noise_gain(r_inv)


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    ber: float
    n_bits: int
    n_errors: int


@dataclass(frozen=True)
class BerCurve:
    points: tuple
    n_singular_subcarriers: int = 0

    def __iter__(self):
        return iter(self.points)


def ber_curve(channel: ChannelMatrix, snr_points_db, bits_per_point: int, seed,
              *, constellation: QamConstellation | None = None) -> BerCurve:
    """Monte-Carlo uncoded BER versus power-controlled post-equalisation SNR.

    Per SNR point: power control fixes every user's post-equalisation SNR at
    the target, uniformly drawn Gray labels (the law of i.i.d. uniform
    bits) cross the channel with unit-variance complex AWGN at the
    antennas, the zero-forcing output is decided back to Gray labels, and
    the bit errors of a symbol, the popcount of the sent label XOR the
    decided one, are pooled across users and subcarriers.  The
    zero-forcing output x + R^-1 Q^H n is simulated directly: Q^H n is
    K-dimensional white noise, so K noise samples are drawn per symbol
    time instead of M.  Ill-conditioned subcarriers are
    skipped and counted.  Deterministic given ``seed``: point i draws from
    ``generator(seed, i)`` alone, so with two or more points and two usable
    CPUs the second half of the points runs on a worker thread and the
    result is the same.  A chunk holds about ``CHUNK_USER_SYMBOLS``
    user-domain symbols; its labels are drawn at once, then its noise is
    drawn, coloured and decided in slices of about ``SLICE_USER_SYMBOLS``.
    """
    snr_points_db = [float(s) for s in snr_points_db]
    if not snr_points_db:
        raise ConfigurationError("snr_points_db must be non-empty")
    if bits_per_point < 1:
        raise ConfigurationError("bits_per_point must be >= 1")
    const = constellation or QamConstellation(64)

    cond, r_inv = _zf_factor(channel.gains)
    usable = _usable(cond)
    n_singular = int(usable.size - usable.sum())
    if not usable.any():
        raise SingularChannelError("all subcarriers are too ill-conditioned to equalise")
    r_inv = r_inv[usable]
    noise_gain = _noise_gain(r_inv)
    n_sub, n_users = noise_gain.shape

    bits_per_use = n_sub * n_users * const.bits_per_symbol
    n_uses = -(-bits_per_point // bits_per_use)
    chunk_symbols = max(1, CHUNK_USER_SYMBOLS // (n_sub * n_users))

    def simulate(indexed_points):
        return [_ber_point(generator(seed, idx), snr_db, r_inv, noise_gain, const, n_uses,
                           chunk_symbols) for idx, snr_db in indexed_points]

    points = in_two_halves(simulate, list(enumerate(snr_points_db)),
                           split=len(snr_points_db) >= 2)
    return BerCurve(points=tuple(points), n_singular_subcarriers=n_singular)


def _ber_point(rng, snr_db, r_inv, noise_gain, const, n_uses, chunk_symbols) -> BerPoint:
    """One SNR point of ``ber_curve``, drawn from ``rng`` alone."""
    n_sub, n_users = noise_gain.shape
    gamma = 10.0 ** (snr_db / 10.0)
    # The noise is coloured by row k of R^-1 divided by user k's
    # power-controlled amplitude sqrt(gamma * gain_k), and by sqrt(2)
    # because it has unit variance per real dimension.
    amplitude = np.sqrt(2.0 * gamma * noise_gain)[:, :, None]
    n_errors = 0
    n_bits = 0
    remaining = n_uses
    while remaining > 0:
        n_sym = min(chunk_symbols, remaining)
        remaining -= n_sym
        labels = rng.integers(0, const.order, size=(n_sub, n_users, n_sym), dtype=np.uint8)
        # float64 ``standard_normal`` keeps no state between calls, so
        # slices drawn in subcarrier order are the chunk's one draw.
        step = max(1, SLICE_USER_SYMBOLS // (n_users * n_sym))
        for lo in range(0, n_sub, step):
            sent = labels[lo:lo + step]
            noise = rng.standard_normal((*sent.shape[:2], 2 * n_sym)).view(complex)
            colour = r_inv[lo:lo + step] / amplitude[lo:lo + step]
            equalised = const.points[sent] + colour @ noise
            n_errors += int(np.bitwise_count(sent ^ const.decide(equalised)).sum())
        n_bits += labels.size * const.bits_per_symbol
    return BerPoint(snr_db=snr_db, ber=n_errors / n_bits, n_bits=n_bits, n_errors=n_errors)
