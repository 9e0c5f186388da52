"""First-order device transmission power from a target post-equalisation SNR.

Free-space path loss, thermal noise floor, receiver noise figure, fading
margin, and an array gain credit for the multi-antenna receiver.  The SNR
target for a given uncoded BER is found either analytically (inverting the
nearest-neighbour QAM expression) or from a simulated BER curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .exceptions import ConfigurationError
from .modem import qam_ber_approx

SPEED_OF_LIGHT_M_S = 299_792_458.0
BOLTZMANN_J_K = 1.380649e-23
SNR_SEARCH_DB = (-30.0, 60.0)


@dataclass(frozen=True)
class LinkBudgetConfig:
    carrier_hz: float = 3.7e9
    bandwidth_hz: float = 20e6
    distance_m: float = 100.0
    temperature_k: float = 300.0
    noise_figure_db: float = 8.0
    fading_margin_db: float = 2.5
    antennas: int = 100
    users: int = 10
    # None selects the zero-forcing diversity gain 10 log10(M - K + 1).
    array_gain_db: float | None = None

    def __post_init__(self):
        for name in ("carrier_hz", "bandwidth_hz", "distance_m", "temperature_k"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")
        if not self.antennas > self.users >= 1:
            raise ConfigurationError("need antennas > users >= 1")

    @property
    def resolved_array_gain_db(self) -> float:
        if self.array_gain_db is not None:
            return float(self.array_gain_db)
        return 10.0 * math.log10(self.antennas - self.users + 1)


class TxPower(NamedTuple):
    dbm: float
    mw: float


def fspl_db(frequency_hz: float, distance_m: float) -> float:
    """Free-space path loss 20 log10(4 pi d f / c)."""
    if not (frequency_hz > 0 and distance_m > 0):
        raise ConfigurationError("frequency and distance must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT_M_S)


def noise_floor_dbm(bandwidth_hz: float, temperature_k: float) -> float:
    """Thermal noise floor 10 log10(k T B / 1 mW)."""
    if not (bandwidth_hz > 0 and temperature_k > 0):
        raise ConfigurationError("bandwidth and temperature must be positive")
    return 10.0 * math.log10(BOLTZMANN_J_K * temperature_k * bandwidth_hz / 1e-3)


def required_tx_power(target_snr_db: float, cfg: LinkBudgetConfig | None = None) -> TxPower:
    """Transmit power needed at the device for the target post-equalisation SNR."""
    cfg = cfg or LinkBudgetConfig()
    dbm = (
        target_snr_db
        + noise_floor_dbm(cfg.bandwidth_hz, cfg.temperature_k)
        + cfg.noise_figure_db
        + cfg.fading_margin_db
        + fspl_db(cfg.carrier_hz, cfg.distance_m)
        - cfg.resolved_array_gain_db
    )
    return TxPower(dbm=dbm, mw=10.0 ** (dbm / 10.0))


def snr_target_for_ber(ber_target: float, order: int = 64) -> float:
    """SNR in dB at which the analytic QAM BER equals ``ber_target``.

    Bisection on the nearest-neighbour expression to 0.01 dB.  Raises if
    the target is not bracketed by the search range (the expression tops
    out below 0.5, so very large targets are rejected).
    """
    if not 0.0 < ber_target < 0.5:
        raise ConfigurationError("ber_target must lie in (0, 0.5)")
    lo_db, hi_db = SNR_SEARCH_DB
    ber_lo = qam_ber_approx(10.0 ** (lo_db / 10.0), order)
    ber_hi = qam_ber_approx(10.0 ** (hi_db / 10.0), order)
    if not ber_hi <= ber_target <= ber_lo:
        raise ConfigurationError(
            f"ber_target {ber_target} not bracketed by [{lo_db}, {hi_db}] dB "
            f"(reachable range [{ber_hi:.3e}, {ber_lo:.3e}])"
        )
    lo, hi = lo_db, hi_db
    while hi - lo > 0.005:
        mid = 0.5 * (lo + hi)
        if qam_ber_approx(10.0 ** (mid / 10.0), order) > ber_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def snr_target_from_curve(ber_target: float, curve_points) -> float:
    """SNR target interpolated from simulated (snr_db, ber) points.

    Log-linear interpolation in BER between the bracketing measurements;
    zero-BER points cannot be interpolated and are discarded.
    """
    if not ber_target > 0:
        raise ConfigurationError("ber_target must be positive")
    pts = sorted(
        ((float(s), float(b)) for s, b in curve_points if b > 0), key=lambda p: p[0]
    )
    if len(pts) < 2:
        raise ConfigurationError("need at least two non-zero BER measurements")
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        lo_b, hi_b = min(b0, b1), max(b0, b1)
        if lo_b <= ber_target <= hi_b:
            if b0 == b1:
                return 0.5 * (s0 + s1)
            frac = (math.log(ber_target) - math.log(b0)) / (math.log(b1) - math.log(b0))
            return s0 + frac * (s1 - s0)
    raise ConfigurationError(
        f"ber_target {ber_target} outside the measured range "
        f"[{min(b for _, b in pts):.3e}, {max(b for _, b in pts):.3e}]"
    )
