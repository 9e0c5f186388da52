"""TDD frame structures and the pose-correction latency budget.

The radio interface repeats a slot of OFDM symbols with fixed roles
(pilot, uplink data, downlink data, guard).  Transmitting a payload costs
the worst-case wait until the first usable symbol, the data symbols
themselves, and the foreign symbols skipped every time the payload spans
a slot boundary.  Pose-correction latency stacks device execution,
uplink transfer, base-station processing, offloaded execution, and the
downlink transfer of the corrected pose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError
from .modem import VALID_QAM_ORDERS
from .seeding import as_generator

BITS_PER_QAM_SYMBOL = tuple(order.bit_length() - 1 for order in VALID_QAM_ORDERS)

# Downlink pose record: f64 timestamp + 3x f32 position + 4x f32 quaternion
# + u32 frame id = 40 bytes.
POSE_RECORD_BYTES = 40
POSE_RECORD_BITS = POSE_RECORD_BYTES * 8


class SymbolRole(str, enum.Enum):
    PILOT = "pilot"
    UPLINK_DATA = "ul"
    DOWNLINK_DATA = "dl"
    GUARD = "guard"


def _direction_role(direction) -> SymbolRole:
    role = SymbolRole(direction)
    if role not in (SymbolRole.UPLINK_DATA, SymbolRole.DOWNLINK_DATA):
        raise ConfigurationError(f"not a data direction: {direction}")
    return role


@dataclass(frozen=True)
class FrameStructure:
    """Ordered slot layout plus the per-symbol data capacity parameters."""

    name: str
    layout: tuple
    n_subcarriers: int
    bits_per_qam_symbol: int
    tau_symb: float

    def __post_init__(self):
        layout = tuple(SymbolRole(role) for role in self.layout)
        object.__setattr__(self, "layout", layout)
        if self.n_direction_symbols("ul") < 1 or self.n_direction_symbols("dl") < 1:
            raise ConfigurationError(
                f"layout of {self.name!r} needs at least one uplink and one downlink symbol"
            )
        if self.n_subcarriers < 1:
            raise ConfigurationError("n_subcarriers must be >= 1")
        if self.bits_per_qam_symbol not in BITS_PER_QAM_SYMBOL:
            raise ConfigurationError(f"bits_per_qam_symbol must be one of {BITS_PER_QAM_SYMBOL}")
        if not self.tau_symb > 0:
            raise ConfigurationError("tau_symb must be positive")

    @property
    def n_symb(self) -> int:
        return len(self.layout)

    def n_direction_symbols(self, direction) -> int:
        role = _direction_role(direction)
        return sum(1 for r in self.layout if r is role)

    @property
    def bits_per_data_symbol(self) -> int:
        """Payload bits carried by one data symbol across all subcarriers."""
        return self.n_subcarriers * self.bits_per_qam_symbol


def symbols_per_pose(payload_bits: int, fs: FrameStructure) -> int:
    """Number of OFDM data symbols needed for one payload."""
    if payload_bits < 1:
        raise ValueError("payload_bits must be >= 1")
    return -(-payload_bits // fs.bits_per_data_symbol)


def slots_per_pose(n_symb_pose: int, fs: FrameStructure, direction) -> int:
    """Full inter-slot overheads traversed while sending ``n_symb_pose`` symbols.

    A payload that fits inside a single slot's data region crosses no slot
    boundary and therefore pays no overhead.
    """
    if n_symb_pose < 1:
        raise ValueError("n_symb_pose must be >= 1")
    return -(-n_symb_pose // fs.n_direction_symbols(direction)) - 1


def worst_case_wait(fs: FrameStructure, direction) -> int:
    """Worst-case whole symbols elapsed before the next usable symbol starts.

    This is the largest cyclic gap between consecutive starts of the
    direction's symbols.  Arrival is assumed just after a symbol boundary,
    so a lone symbol in a slot of N yields N and a contiguous block of
    length L yields N - L + 1.
    """
    role = _direction_role(direction)
    starts = [i for i, r in enumerate(fs.layout) if r is role]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    return max(gaps + [starts[0] + fs.n_symb - starts[-1]])


def transmission_latency(payload_bits: int, fs: FrameStructure, direction) -> float:
    """Worst-case transfer time of a payload in the given direction, seconds."""
    n_symb_pose = symbols_per_pose(payload_bits, fs)
    n_slots = slots_per_pose(n_symb_pose, fs, direction)
    n_dir = fs.n_direction_symbols(direction)
    total_symbols = worst_case_wait(fs, direction) + n_symb_pose + n_slots * (fs.n_symb - n_dir)
    return fs.tau_symb * total_symbols


class ExecKind(str, enum.Enum):
    CONSTANT = "constant"
    EMPIRICAL = "empirical"
    TRUNCATED_NORMAL = "truncated_normal"


@dataclass(frozen=True)
class ExecTimeModel:
    """Sampling model for a software execution time, always non-negative."""

    kind: ExecKind
    value: float = 0.0
    samples: tuple = ()
    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ExecKind(self.kind))
        if self.kind is ExecKind.CONSTANT:
            if self.value < 0:
                raise ConfigurationError("constant execution time must be >= 0")
        elif self.kind is ExecKind.EMPIRICAL:
            samples = tuple(float(s) for s in self.samples)
            object.__setattr__(self, "samples", samples)
            if not samples:
                raise ConfigurationError("empirical execution model needs samples")
            if any(s < 0 for s in samples):
                raise ConfigurationError("execution time samples must be >= 0")
        else:
            if self.mean < 0 or self.std < 0:
                raise ConfigurationError("truncated normal needs mean >= 0 and std >= 0")

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw an array of ``size`` values, all >= 0."""
        gen = as_generator(rng)
        if self.kind is ExecKind.CONSTANT:
            return np.full(size, self.value)
        if self.kind is ExecKind.EMPIRICAL:
            return gen.choice(np.asarray(self.samples), size=size)
        out = gen.normal(self.mean, self.std, size=size)
        bad = out < 0
        while bad.any():
            out[bad] = gen.normal(self.mean, self.std, size=int(bad.sum()))
            bad = out < 0
        return out


@dataclass(frozen=True)
class ExecTimePair:
    device: ExecTimeModel
    offloaded: ExecTimeModel


def pose_latency(pair: ExecTimePair, fs: FrameStructure, ul_payload_bits: int,
                 dl_payload_bits: int, tau_bs: float, rng, trials: int) -> dict:
    """``trials`` sampled pose-correction latencies, one array per term.

    The terms are device, ul, bs, offloaded, dl and their sum, total.
    Device times are drawn before offloaded times.
    """
    gen = as_generator(rng)
    device = pair.device.sample(gen, size=trials)
    offloaded = pair.offloaded.sample(gen, size=trials)
    tau_ul = transmission_latency(ul_payload_bits, fs, "ul")
    tau_dl = transmission_latency(dl_payload_bits, fs, "dl")
    return {
        "device": device,
        "ul": np.full(trials, tau_ul),
        "bs": np.full(trials, tau_bs),
        "offloaded": offloaded,
        "dl": np.full(trials, tau_dl),
        "total": device + tau_ul + tau_bs + offloaded + tau_dl,
    }
