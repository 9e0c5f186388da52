"""Link budget and SNR-target inversion tests."""

import math

import numpy as np
import pytest

from xrmimo.exceptions import ConfigurationError
from xrmimo.linkbudget import (
    BOLTZMANN_J_K,
    LinkBudgetConfig,
    SPEED_OF_LIGHT_M_S,
    fspl_db,
    noise_floor_dbm,
    required_tx_power,
    snr_target_for_ber,
    snr_target_from_curve,
)
from xrmimo.modem import qam_ber_approx


class TestFspl:
    def test_default_scenario(self):
        assert fspl_db(3.7e9, 100.0) == pytest.approx(83.81, abs=5e-3)

    def test_formula_root(self):
        distance = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * 1e9)
        assert fspl_db(1e9, distance) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_distance(self):
        assert fspl_db(2e9, 200.0) - fspl_db(2e9, 100.0) == pytest.approx(
            20.0 * math.log10(2.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            fspl_db(0.0, 1.0)


class TestNoiseFloor:
    def test_default_scenario(self):
        assert noise_floor_dbm(20e6, 300.0) == pytest.approx(-100.82, abs=5e-3)

    def test_one_milliwatt_floor(self):
        bandwidth = 1e-3 / (BOLTZMANN_J_K * 290.0)
        assert noise_floor_dbm(bandwidth, 290.0) == pytest.approx(0.0, abs=1e-12)

    def test_ten_times_bandwidth(self):
        assert (noise_floor_dbm(2e8, 300.0) - noise_floor_dbm(2e7, 300.0)
                == pytest.approx(10.0))


class TestRequiredTxPower:
    def test_reference_evaluation(self):
        power = required_tx_power(25.4)
        assert power.dbm == pytest.approx(-0.70, abs=5e-3)
        assert power.mw == pytest.approx(0.851, abs=2e-3)

    def test_reduces_to_noise_floor(self):
        distance = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * 3.7e9)
        cfg = LinkBudgetConfig(distance_m=distance, noise_figure_db=0.0,
                               fading_margin_db=0.0, array_gain_db=0.0)
        power = required_tx_power(0.0, cfg)
        assert power.dbm == pytest.approx(noise_floor_dbm(20e6, 300.0), abs=1e-9)

    def test_linear_in_target(self):
        assert (required_tx_power(11.0).dbm - required_tx_power(10.0).dbm
                == pytest.approx(1.0, abs=1e-12))

    def test_zero_forcing_array_gain(self):
        cfg = LinkBudgetConfig()
        assert cfg.resolved_array_gain_db == pytest.approx(10.0 * math.log10(91.0))
        fixed = LinkBudgetConfig(array_gain_db=12.0)
        assert fixed.resolved_array_gain_db == 12.0

    def test_monotonic_in_inputs(self):
        base = required_tx_power(20.0).dbm
        assert required_tx_power(21.0).dbm > base
        assert required_tx_power(20.0, LinkBudgetConfig(distance_m=150.0)).dbm > base
        assert required_tx_power(20.0, LinkBudgetConfig(noise_figure_db=9.0)).dbm > base
        assert required_tx_power(20.0, LinkBudgetConfig(fading_margin_db=3.0)).dbm > base
        assert required_tx_power(20.0, LinkBudgetConfig(array_gain_db=25.0)).dbm < base

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LinkBudgetConfig(distance_m=0.0)
        with pytest.raises(ConfigurationError):
            LinkBudgetConfig(antennas=10, users=10)


class TestSnrTarget:
    def test_ber_1e4(self):
        assert snr_target_for_ber(1e-4) == pytest.approx(24.32, abs=0.05)

    def test_ber_1e5(self):
        assert snr_target_for_ber(1e-5) == pytest.approx(25.58, abs=0.05)

    def test_inverse_of_zero_db(self):
        assert snr_target_for_ber(0.2413) == pytest.approx(0.0, abs=0.05)

    def test_round_trip_within_tenth_db(self):
        for ber in np.logspace(-6, -2, 9):
            snr_db = snr_target_for_ber(float(ber))
            recovered = qam_ber_approx(10.0 ** (snr_db / 10.0), 64)
            back = snr_target_for_ber(recovered)
            assert abs(back - snr_db) <= 0.1

    def test_unreachable_target_rejected(self):
        with pytest.raises(ConfigurationError):
            snr_target_for_ber(0.4)

    def test_invalid_target_rejected(self):
        with pytest.raises(ConfigurationError):
            snr_target_for_ber(0.0)
        with pytest.raises(ConfigurationError):
            snr_target_for_ber(0.6)

    def test_power_gap_between_targets(self):
        gap = snr_target_for_ber(1e-5) - snr_target_for_ber(1e-4)
        assert 0.5 <= gap <= 3.5


class TestSnrTargetFromCurve:
    def test_inverts_synthetic_curve(self):
        grid = np.linspace(18.0, 28.0, 11)
        points = [(db, qam_ber_approx(10.0 ** (db / 10.0), 64)) for db in grid]
        got = snr_target_from_curve(1e-4, points)
        assert got == pytest.approx(snr_target_for_ber(1e-4), abs=0.1)

    def test_outside_range_rejected(self):
        points = [(10.0, 0.1), (20.0, 0.01)]
        with pytest.raises(ConfigurationError):
            snr_target_from_curve(1e-6, points)

    def test_zero_ber_points_ignored(self):
        points = [(10.0, 0.1), (20.0, 0.01), (40.0, 0.0)]
        assert snr_target_from_curve(0.05, points) == pytest.approx(
            snr_target_from_curve(0.05, points[:2]))
