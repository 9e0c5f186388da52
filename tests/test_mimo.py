"""Channel generation/replay, zero-forcing, power control, and BER sweep tests."""

import copy
import threading
import tracemalloc

import numpy as np
import pytest

import xrmimo.mimo as mimo_module
import xrmimo.parallel as parallel_module
from xrmimo.exceptions import ChannelFileError, ConfigurationError, SingularChannelError
from xrmimo.mimo import (
    CHUNK_USER_SYMBOLS,
    CONDITION_LIMIT,
    DRAW_SLICE,
    FACTOR_CHUNK_ENTRIES,
    SLICE_USER_SYMBOLS,
    SPLIT_FACTOR_ENTRIES,
    ChannelMatrix,
    ber_curve,
    channel_condition,
    concat_channels,
    generate_channel,
    load_channel,
    load_channels,
    save_channel,
    zf_equalizer,
    zf_noise_gain,
)
from xrmimo.modem import QamConstellation, qam_ber_exact
from xrmimo.seeding import generator


def antenna_domain_ber(h, snr_db, n_sym, constellation, rng):
    """Reference engine: power-controlled symbols cross H with unit-variance
    AWGN at every antenna, then zero-forcing and hard decisions.

    Returns (n_errors, n_bits).
    """
    n_sub, n_ant, n_users = h.shape
    amplitude = np.sqrt(10.0 ** (snr_db / 10.0) * zf_noise_gain(h))[:, :, None]
    bits = rng.integers(0, 2, size=(n_sub, n_users, n_sym, constellation.bits_per_symbol),
                        dtype=np.uint8)
    symbols = constellation.modulate(bits.reshape(-1)).reshape(n_sub, n_users, n_sym)
    noise = (rng.standard_normal((n_sub, n_ant, n_sym))
             + 1j * rng.standard_normal((n_sub, n_ant, n_sym))) / np.sqrt(2.0)
    rx = h @ (amplitude * symbols) + noise
    bits_hat = constellation.demodulate(((zf_equalizer(h) @ rx) / amplitude).reshape(-1))
    return int(np.count_nonzero(bits_hat != bits.reshape(-1))), bits.size


def bit_domain_error_counts(h, snr_points_db, bits_per_point, seed, constellation):
    """Reference replay of ``ber_curve``'s draws in the bit domain.

    Each chunk's uniform labels are unpacked to bits most significant first,
    the bits go through ``modulate``, the same noise is coloured by R^-1 from
    this module's own QR and inverse, and ``demodulate``'s bits are compared
    bit by bit with the sent ones.  Returns [(snr_db, n_bits, n_errors)].
    """
    h = h[np.linalg.cond(h) <= CONDITION_LIMIT]
    r_inv = np.linalg.inv(np.linalg.qr(h, mode="r"))
    noise_gain = np.sum(np.abs(r_inv) ** 2, axis=-1)
    n_sub, n_users = noise_gain.shape
    bps = constellation.bits_per_symbol
    n_uses = -(-bits_per_point // (n_sub * n_users * bps))
    chunk = max(1, CHUNK_USER_SYMBOLS // (n_sub * n_users))
    shifts = np.arange(bps - 1, -1, -1, dtype=np.uint8)
    out = []
    for idx, snr_db in enumerate(snr_points_db):
        rng = generator(seed, idx)
        colour = r_inv / np.sqrt(2.0 * 10.0 ** (snr_db / 10.0) * noise_gain)[:, :, None]
        n_bits = n_errors = 0
        for start in range(0, n_uses, chunk):
            n_sym = min(chunk, n_uses - start)
            labels = rng.integers(0, constellation.order, size=(n_sub, n_users, n_sym),
                                  dtype=np.uint8)
            bits = ((labels[..., None] >> shifts) & 1).reshape(-1)
            symbols = constellation.modulate(bits).reshape(labels.shape)
            noise = rng.standard_normal((n_sub, n_users, 2 * n_sym)).view(complex)
            bits_hat = constellation.demodulate(symbols + colour @ noise)
            n_bits += bits.size
            n_errors += int(np.count_nonzero(bits_hat != bits))
        out.append((snr_db, n_bits, n_errors))
    return out


class TestChannelMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imaginary-inf"])
    def test_rejects_non_finite_gains(self, bad):
        gains = generate_channel(8, 2, 4, rng=1).gains.copy()
        gains[1, 3, 0] = bad
        with pytest.raises(ConfigurationError, match="^channel gains must be finite$"):
            ChannelMatrix(gains)
        # Why the check stays: without it the factorisation raises numpy's
        # LinAlgError, which is not a SimulationError the CLI reports.
        with pytest.raises(np.linalg.LinAlgError):
            mimo_module._factor_chunk(gains)


class TestGenerateChannel:
    def test_unit_variance(self):
        ch = generate_channel(100, 10, 1, rng=0)
        mean_power = np.mean(np.abs(ch.gains) ** 2)
        # |h|^2 is exponential with unit mean and variance; 1000 entries.
        assert abs(mean_power - 1.0) <= 3.0 / np.sqrt(1000)

    def test_deterministic(self):
        a = generate_channel(2, 1, 1, rng=7)
        b = generate_channel(2, 1, 1, rng=7)
        assert np.array_equal(a.gains, b.gains)

    def test_rejects_too_few_antennas(self):
        with pytest.raises(ConfigurationError):
            generate_channel(1, 2, 1)

    @pytest.mark.parametrize("shape", [(100, 10, 1200), (2, 1, 1), (8, 3, 5),
                                       (7, 3, DRAW_SLICE // 21 + 5)])
    def test_same_bits_as_one_expression(self, shape):
        """The in-place build gives the bits of ``(a + 1j*b) / sqrt(2)`` on one draw each."""
        n_antennas, n_users, n_subcarriers = shape
        rng = np.random.default_rng(sum(shape))
        oracle_rng = copy.deepcopy(rng)
        dims = (n_subcarriers, n_antennas, n_users)
        expected = (oracle_rng.standard_normal(dims)
                    + 1j * oracle_rng.standard_normal(dims)) / np.sqrt(2.0)
        if shape[-1] > 5:
            assert expected.size * 2 % DRAW_SLICE
        gains = generate_channel(*shape, rng=rng).gains
        assert gains.shape == dims and gains.tobytes() == expected.tobytes()
        # The caller's generator advanced by exactly the two draws.
        assert rng.standard_normal() == oracle_rng.standard_normal()


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        ch = generate_channel(8, 3, 5, rng=1)
        path = tmp_path / "ch.xmch"
        save_channel(ch, path)
        loaded = load_channel(path)
        assert loaded.gains.shape == (5, 8, 3)
        assert np.allclose(loaded.gains, ch.gains, atol=1e-6)
        # Exact up to the file's float32 rounding.
        assert loaded.gains.tobytes() == ch.gains.astype("<c8").astype(complex).tobytes()

    def test_file_bytes_are_complex64_pairs(self, tmp_path):
        ch = generate_channel(8, 3, 5, rng=6)
        path = tmp_path / "ch.xmch"
        save_channel(ch, path)
        header = b"XMCH" + np.array([8, 3, 5], dtype="<u4").tobytes()
        assert path.read_bytes() == header + ch.gains.astype("<c8").tobytes()

    def test_signed_zeros_kept(self, tmp_path):
        gains = generate_channel(4, 2, 3, rng=9).gains.copy()
        gains[0, :, 0] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                          complex(0.0, 0.0)]
        path = tmp_path / "zeros.xmch"
        save_channel(ChannelMatrix(gains), path)
        parts = load_channel(path).gains.view(float)
        assert np.array_equal(np.signbit(parts), np.signbit(gains.view(float)))

    def test_ten_single_user_files_concatenate(self, tmp_path):
        paths = []
        for i in range(10):
            ch = generate_channel(100, 1, 12, rng=i)
            path = tmp_path / f"user{i}.xmch"
            save_channel(ch, path)
            paths.append(path)
        combined = load_channels(paths)
        assert combined.n_users == 10
        assert combined.n_antennas == 100
        assert combined.n_subcarriers == 12

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xmch"
        path.write_bytes(b"")
        with pytest.raises(ChannelFileError) as err:
            load_channel(path)
        assert err.value.offset == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xmch"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ChannelFileError):
            load_channel(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        ch = generate_channel(4, 2, 2, rng=2)
        path = tmp_path / "trunc.xmch"
        save_channel(ch, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ChannelFileError, match="byte offset"):
            load_channel(path)

    def test_nonfinite_entry_reports_offset(self, tmp_path):
        ch = generate_channel(4, 2, 2, rng=3)
        path = tmp_path / "nan.xmch"
        save_channel(ch, path)
        data = bytearray(path.read_bytes())
        # Overwrite the first float (real part of entry 0) with NaN.
        data[16:20] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ChannelFileError) as err:
            load_channel(path)
        assert err.value.offset == 16

    def test_mismatched_subcarriers_refuse_concat(self, tmp_path):
        a = generate_channel(4, 1, 2, rng=4)
        b = generate_channel(4, 1, 3, rng=5)
        with pytest.raises(ChannelFileError):
            concat_channels([a, b])

    def test_header_dimension_check(self, tmp_path):
        path = tmp_path / "dims.xmch"
        header = b"XMCH" + np.array([2, 2, 1], dtype="<u4").tobytes()
        path.write_bytes(header + b"\x00" * 32)
        with pytest.raises(ChannelFileError) as err:
            load_channel(path)
        assert err.value.offset == 4


class TestZeroForcing:
    def test_single_ones_column(self):
        h = np.ones((2, 1), dtype=complex)
        w = zf_equalizer(h)
        assert np.allclose(w, [[0.5, 0.5]])

    def test_orthonormal_columns(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        w = zf_equalizer(h)
        assert np.allclose(w, h.conj().T, atol=1e-12)

    def test_random_full_rank_inverts(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        w = zf_equalizer(h)
        assert np.abs(w @ h - np.eye(4)).max() < 1e-9

    def test_batched(self):
        ch = generate_channel(8, 3, 6, rng=1)
        w = zf_equalizer(ch.gains)
        prod = w @ ch.gains
        assert np.abs(prod - np.eye(3)).max() < 1e-9

    def test_rank_deficient_rejected(self):
        h = np.ones((4, 2), dtype=complex)  # duplicate columns
        with pytest.raises(SingularChannelError):
            zf_equalizer(h)


class TestQrIdentities:
    """cond(H) = cond(R) and [(H^H H)^-1]_kk = |row k of R^-1|^2."""

    @pytest.mark.parametrize("shape", [(16, 4), (7, 32, 8), (5, 100, 10), (3, 2, 1)])
    def test_condition_matches_numpy(self, shape):
        rng = np.random.default_rng(sum(shape))
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.allclose(channel_condition(h), np.linalg.cond(h), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("shape", [(16, 4), (7, 32, 8), (5, 100, 10), (3, 2, 1)])
    def test_noise_gain_matches_gram_inverse(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gram = np.conjugate(np.swapaxes(h, -1, -2)) @ h
        expected = np.real(np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1))
        assert np.allclose(zf_noise_gain(h), expected, rtol=1e-10, atol=0)

    def test_singular_condition_is_over_limit(self):
        assert channel_condition(np.ones((4, 2), dtype=complex)) > CONDITION_LIMIT
        assert channel_condition(np.zeros((4, 2), dtype=complex)) == np.inf

    def test_orthonormal_unit_gain(self):
        h = np.vstack([np.eye(3, 2), np.zeros((1, 2))]).astype(complex)
        assert np.allclose(zf_noise_gain(h), 1.0)

    def test_two_antenna_single_user_gain(self):
        assert zf_noise_gain(np.ones((2, 1), dtype=complex)) == pytest.approx([0.5])


def one_call_factor(h):
    """Reference: ``_zf_factor``'s QR, SVD and inverse on the whole stack in one call."""
    r = np.linalg.qr(np.asarray(h, dtype=complex), mode="r")
    u, s, vh = np.linalg.svd(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[..., -1] > 0, s[..., 0] / s[..., -1], np.inf)
        r_inv = (np.conjugate(np.swapaxes(vh, -1, -2)) / s[..., None, :]) @ np.conjugate(
            np.swapaxes(u, -1, -2))
    return cond, r_inv


FACTOR_CHUNK = mimo_module._factor_chunk
FACTOR_ANTENNAS, FACTOR_USERS = 32, 8
CHUNK_SUBCARRIERS = FACTOR_CHUNK_ENTRIES // (FACTOR_ANTENNAS * FACTOR_USERS)


def factor_on_cpus(monkeypatch, cpus, h):
    """``_zf_factor`` with the usable CPU count set, and the (thread, size) of each chunk.

    The chunks are listed in stack order, by where their data starts.
    """
    chunks = []
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(mimo_module, "_factor_chunk",
                        lambda c: chunks.append((c.ctypes.data, threading.get_ident(), len(c)))
                        or FACTOR_CHUNK(c))
    result = mimo_module._zf_factor(h)
    return result, [(thread, size) for _, thread, size in sorted(chunks)]


def assert_chunks_cannot_move_a_bit(monkeypatch, h):
    """1 CPU, then 2: the one-call bits, and a worker thread on the second half of the chunks."""
    main = threading.get_ident()
    n_sub = int(np.prod(h.shape[:-2]))
    chunk = CHUNK_SUBCARRIERS
    if n_sub <= chunk and n_sub * FACTOR_ANTENNAS * FACTOR_USERS >= SPLIT_FACTOR_ENTRIES:
        chunk = -(-n_sub // 2)  # a one-chunk stack this large is factored as two halves
    n_chunks = -(-n_sub // chunk)
    expected_cond, expected_r_inv = one_call_factor(h)
    for cpus in (1, 2):
        (cond, r_inv), chunks = factor_on_cpus(monkeypatch, cpus, h)
        assert cond.tobytes() == expected_cond.tobytes()
        assert r_inv.tobytes() == expected_r_inv.tobytes()
        assert cond.shape == expected_cond.shape and r_inv.shape == expected_r_inv.shape
        assert sum(size for _, size in chunks) == n_sub
        assert all(size == chunk for _, size in chunks[:-1])
        threads = [thread for thread, _ in chunks]
        assert len(threads) == n_chunks
        if cpus == 1 or n_chunks == 1:
            assert threads == [main] * n_chunks
        else:
            assert threads[:n_chunks // 2] == [main] * (n_chunks // 2)
            assert len(set(threads[n_chunks // 2:])) == 1 and main not in threads[n_chunks // 2:]
    return expected_cond


class TestFactorThreads:
    @pytest.mark.parametrize("n_sub", [1, CHUNK_SUBCARRIERS - 1, CHUNK_SUBCARRIERS,
                                       CHUNK_SUBCARRIERS + 1, 3 * CHUNK_SUBCARRIERS + 5])
    def test_chunked_equals_one_call(self, monkeypatch, n_sub):
        gains = generate_channel(FACTOR_ANTENNAS, FACTOR_USERS, n_sub, rng=n_sub).gains
        assert_chunks_cannot_move_a_bit(monkeypatch, gains)

    def test_singular_subcarriers_in_both_halves(self, monkeypatch):
        n_sub = 3 * CHUNK_SUBCARRIERS + 5
        gains = generate_channel(FACTOR_ANTENNAS, FACTOR_USERS, n_sub, rng=47).gains.copy()
        singular = [0, CHUNK_SUBCARRIERS + 3, 2 * CHUNK_SUBCARRIERS + 1, n_sub - 1]
        for sub in singular:
            gains[sub, :, 5] = gains[sub, :, 2]
        gains[CHUNK_SUBCARRIERS - 1] = 0.0
        cond = assert_chunks_cannot_move_a_bit(monkeypatch, gains)
        assert np.flatnonzero(cond > CONDITION_LIMIT).tolist() == sorted(
            singular + [CHUNK_SUBCARRIERS - 1])

    def test_stack_of_stacks(self, monkeypatch):
        gains = generate_channel(FACTOR_ANTENNAS, FACTOR_USERS, 2 * CHUNK_SUBCARRIERS + 6,
                                 rng=48).gains
        assert_chunks_cannot_move_a_bit(monkeypatch, gains.reshape(2, -1, *gains.shape[1:]))

    def test_one_chunk_stack_runs_on_both_cpus(self, monkeypatch):
        """A stack that fits one chunk is factored as two halves, one per thread on 2 CPUs."""
        main = threading.get_ident()
        gains = generate_channel(FACTOR_ANTENNAS, FACTOR_USERS, CHUNK_SUBCARRIERS, rng=50).gains
        half = CHUNK_SUBCARRIERS // 2
        _, chunks = factor_on_cpus(monkeypatch, 1, gains)
        assert chunks == [(main, half), (main, half)]
        _, chunks = factor_on_cpus(monkeypatch, 2, gains)
        assert [size for _, size in chunks] == [half, half]
        assert chunks[0][0] == main and chunks[1][0] != main

    def test_small_stack_is_one_chunk(self, monkeypatch):
        """Below ``SPLIT_FACTOR_ENTRIES`` a stack is one chunk on the calling thread."""
        n_sub = SPLIT_FACTOR_ENTRIES // (FACTOR_ANTENNAS * FACTOR_USERS) - 1
        gains = generate_channel(FACTOR_ANTENNAS, FACTOR_USERS, n_sub, rng=51).gains
        for cpus in (1, 2):
            _, chunks = factor_on_cpus(monkeypatch, cpus, gains)
            assert chunks == [(threading.get_ident(), n_sub)]

    def test_one_matrix_is_one_chunk(self, monkeypatch):
        """A 2-D input is never split along its antennas, even above the chunk size."""
        rng = np.random.default_rng(49)
        h = rng.standard_normal((400, 200)) + 1j * rng.standard_normal((400, 200))
        assert h.size > FACTOR_CHUNK_ENTRIES
        expected_cond, expected_r_inv = one_call_factor(h)
        for cpus in (1, 2):
            (cond, r_inv), chunks = factor_on_cpus(monkeypatch, cpus, h)
            assert chunks == [(threading.get_ident(), 1)]
            assert cond.shape == () and r_inv.shape == (200, 200)
            assert cond.tobytes() == expected_cond.tobytes()
            assert r_inv.tobytes() == expected_r_inv.tobytes()


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it held at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationBounds:
    """Peaks of traced allocations, the result included: the temporaries stay small."""

    def test_generate_channel(self):
        channel, peak = traced_peak(generate_channel, 100, 10, 1200, 0)
        assert peak <= 1.15 * channel.gains.nbytes

    def test_zf_factor(self):
        gains = generate_channel(100, 10, 1200, rng=0).gains
        # Warm up first, so that the thread pool's lazy import is not counted.
        mimo_module._zf_factor(gains[:130])
        _, peak = traced_peak(mimo_module._zf_factor, gains)
        assert peak <= 0.25 * gains.nbytes

    def test_load_channel(self, tmp_path):
        path = tmp_path / "ch.xmch"
        save_channel(generate_channel(100, 10, 1200, rng=0), path)
        channel, peak = traced_peak(load_channel, path)
        assert peak <= 1.75 * channel.gains.nbytes


class TestBerCurve:
    def test_matches_exact_awgn_oracle(self):
        """Power control pins the post-equalisation SNR, so the exact AWGN
        curve is the ground truth for the zero-forcing output."""
        ch = generate_channel(100, 10, 40, rng=5)
        curve = ber_curve(ch, [15.0], 500_000, seed=6)
        point = curve.points[0]
        expected = qam_ber_exact(10.0 ** 1.5, 64)
        se = np.sqrt(expected * (1 - expected) / point.n_bits)
        assert abs(point.ber - expected) <= 3 * se

    def test_non_increasing_in_snr(self):
        ch = generate_channel(64, 8, 30, rng=7)
        curve = ber_curve(ch, [5.0, 10.0, 15.0, 20.0], 200_000, seed=8)
        bers = [p.ber for p in curve]
        ns = [p.n_bits for p in curve]
        for (b0, n0), (b1, n1) in zip(zip(bers, ns), zip(bers[1:], ns[1:])):
            se = np.sqrt(max(b0 * (1 - b0) / n0, 1e-12)) + np.sqrt(max(b1 * (1 - b1) / n1, 1e-12))
            assert b1 <= b0 + 3 * se

    def test_deterministic(self):
        ch = generate_channel(32, 4, 10, rng=9)
        a = ber_curve(ch, [10.0, 14.0], 50_000, seed=10)
        b = ber_curve(ch, [10.0, 14.0], 50_000, seed=10)
        assert [(p.n_errors, p.n_bits) for p in a] == [(p.n_errors, p.n_bits) for p in b]

    def test_singular_subcarriers_skipped_and_counted(self):
        ch = generate_channel(16, 2, 4, rng=11)
        gains = ch.gains.copy()
        gains[1, :, 1] = gains[1, :, 0]  # duplicate user column on one subcarrier
        curve = ber_curve(ChannelMatrix(gains), [12.0], 20_000, seed=12)
        assert curve.n_singular_subcarriers == 1
        assert curve.points[0].n_bits >= 20_000

    def test_skipped_count_exact_on_duplicated_columns(self):
        ch = generate_channel(32, 8, 50, rng=16)
        gains = ch.gains.copy()
        duplicated = [0, 3, 17, 18, 49]
        for i, sub in enumerate(duplicated):
            # Exact copies and scaled copies of another user's column.
            gains[sub, :, 7 - i] = (1.0 + 0.5j * i) * gains[sub, :, i]
        constellation = QamConstellation(16)
        curve = ber_curve(ChannelMatrix(gains), [12.0], 100_000, seed=17,
                          constellation=constellation)
        assert curve.n_singular_subcarriers == len(duplicated)
        bits_per_use = (50 - len(duplicated)) * 8 * constellation.bits_per_symbol
        assert curve.points[0].n_bits == -(-100_000 // bits_per_use) * bits_per_use

    def test_agrees_with_antenna_domain_engine(self):
        """The user-domain engine and the antenna-domain reference both land
        within 3 SE of the exact curve and within 3 combined SE of each other."""
        ch = generate_channel(16, 4, 64, rng=18)
        constellation = QamConstellation(16)
        snr_db, n_sym = 12.0, 400
        expected = qam_ber_exact(10.0 ** (snr_db / 10.0), 16)
        ref_errors, ref_bits = antenna_domain_ber(ch.gains, snr_db, n_sym, constellation,
                                                  generator(19))
        point = ber_curve(ch, [snr_db], ref_bits, seed=20,
                          constellation=constellation).points[0]
        assert point.n_bits == ref_bits
        ref_ber = ref_errors / ref_bits
        se = np.sqrt(expected * (1.0 - expected) / ref_bits)
        assert abs(ref_ber - expected) <= 3.0 * se
        assert abs(point.ber - expected) <= 3.0 * se
        assert abs(point.ber - ref_ber) <= 3.0 * np.sqrt(2.0) * se

    @pytest.mark.parametrize("order, golden", [
        (4, [(0.0, 200008, 31580), (5.0, 200008, 7482), (10.0, 200008, 159)]),
        (16, [(0.0, 200192, 57288), (5.0, 200192, 32963), (10.0, 200192, 11653)]),
        (64, [(0.0, 200376, 72202), (5.0, 200376, 52885), (10.0, 200376, 30526)]),
    ])
    def test_golden_error_counts(self, order, golden):
        """Error counts pinned from the bit-domain engine (modulate, demodulate and
        a bit-by-bit compare) on the same draws; the label path must match them."""
        gains = generate_channel(16, 4, 24, rng=31).gains.copy()
        gains[5, :, 3] = gains[5, :, 0]
        constellation = QamConstellation(order)
        assert bit_domain_error_counts(gains, [0.0, 5.0, 10.0], 200_000, 32,
                                       constellation) == golden
        curve = ber_curve(ChannelMatrix(gains), [0.0, 5.0, 10.0], 200_000, seed=32,
                          constellation=constellation)
        assert [(p.snr_db, p.n_bits, p.n_errors) for p in curve] == golden
        assert curve.n_singular_subcarriers == 1

    def test_all_singular_rejected(self):
        gains = np.ones((2, 4, 2), dtype=complex)
        with pytest.raises(SingularChannelError):
            ber_curve(ChannelMatrix(gains), [10.0], 1000, seed=0)

    def test_empty_grid_rejected(self):
        ch = generate_channel(4, 2, 1, rng=13)
        with pytest.raises(ConfigurationError):
            ber_curve(ch, [], 1000, seed=0)

    def test_ber_target_snr_reaches_1e5(self):
        """At the SNR target for 1e-5 the measured BER lands within x/2."""
        ch = generate_channel(100, 10, 1200, rng=14)
        curve = ber_curve(ch, [25.58], 20_000_000, seed=15)
        point = curve.points[0]
        assert point.n_errors >= 50
        assert 0.5e-5 <= point.ber <= 2e-5


BER_POINT = mimo_module._ber_point


def curve_on_cpus(monkeypatch, cpus, channel, snr_points_db, bits_per_point, order):
    """``ber_curve`` with the usable CPU count set, and the thread that ran each SNR point."""
    threads = []
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(mimo_module, "_ber_point",
                        lambda *a: threads.append(threading.get_ident()) or BER_POINT(*a))
    curve = ber_curve(channel, snr_points_db, bits_per_point, seed=43,
                      constellation=QamConstellation(order))
    return curve, threads


def assert_threads_cannot_move_a_bit(monkeypatch, gains, snr_points_db, bits_per_point,
                                     order=16):
    """1 CPU, then 2: the same points in SNR order, and a worker thread only on 2 CPUs."""
    main, n = threading.get_ident(), len(snr_points_db)
    args = (ChannelMatrix(gains), snr_points_db, bits_per_point, order)
    reference, threads = curve_on_cpus(monkeypatch, 1, *args)
    assert threads == [main] * n
    curve, threads = curve_on_cpus(monkeypatch, 2, *args)
    assert curve == reference
    assert [p.snr_db for p in curve] == snr_points_db
    # The calling thread runs the first half of the points and one worker the rest.
    assert len(threads) == n and threads.count(main) == max(n // 2, 1)
    assert len(set(threads)) == min(n, 2)
    return curve


def uses_and_chunk(n_sub, n_users, bits_per_point, order):
    """Symbol times per point, and per chunk, of ``ber_curve`` on ``n_sub`` usable subcarriers."""
    bits_per_use = n_sub * n_users * QamConstellation(order).bits_per_symbol
    return -(-bits_per_point // bits_per_use), max(1, CHUNK_USER_SYMBOLS // (n_sub * n_users))


class TestBerThreads:
    @pytest.mark.parametrize("n_points", [1, 2, 3, 4, 5])
    def test_points_split_in_halves(self, monkeypatch, n_points):
        gains = generate_channel(16, 4, 24, rng=40).gains
        snr_points_db = [0.0, 4.0, 8.0, 12.0, 16.0][:n_points]
        assert_threads_cannot_move_a_bit(monkeypatch, gains, snr_points_db, 40_000)

    def test_singular_subcarriers_skipped(self, monkeypatch):
        gains = generate_channel(32, 8, 50, rng=44).gains.copy()
        for i, sub in enumerate([0, 3, 17, 18, 49]):
            gains[sub, :, 7 - i] = gains[sub, :, i]
        curve = assert_threads_cannot_move_a_bit(monkeypatch, gains, [6.0, 9.0, 12.0], 100_000)
        assert curve.n_singular_subcarriers == 5

    def test_uses_not_a_multiple_of_the_chunk(self, monkeypatch):
        gains = generate_channel(16, 4, 500, rng=45).gains
        n_uses, chunk = uses_and_chunk(500, 4, 1_000_000, 4)
        assert n_uses > chunk and n_uses % chunk
        assert_threads_cannot_move_a_bit(monkeypatch, gains, [2.0, 5.0, 8.0], 1_000_000, order=4)

    def test_subcarriers_not_a_multiple_of_the_slice(self, monkeypatch):
        gains = generate_channel(16, 4, 100, rng=46).gains
        n_uses, chunk = uses_and_chunk(100, 4, 96_000, 16)
        step = SLICE_USER_SYMBOLS // (4 * n_uses)
        assert n_uses <= chunk and step < 100 and 100 % step
        assert_threads_cannot_move_a_bit(monkeypatch, gains, [4.0, 8.0, 12.0], 96_000)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_modulation_orders(self, monkeypatch, order):
        gains = generate_channel(16, 4, 24, rng=31).gains.copy()
        gains[5, :, 3] = gains[5, :, 0]
        curve = assert_threads_cannot_move_a_bit(monkeypatch, gains, [0.0, 5.0, 10.0], 60_000,
                                                 order=order)
        assert curve.n_singular_subcarriers == 1
