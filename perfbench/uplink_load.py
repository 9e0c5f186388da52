"""Radio-side workloads: the latency, BER and power studies through their public calls.

``uplink`` runs the default latency, BER and analytic power studies in
sequence, on the default config whatever the workload seed.
``uplink-replay`` runs the BER study over two channel files that set-up
writes, with one user column duplicated on a few subcarriers so that those
subcarriers are singular and must be skipped.  Outputs are checked
against the acceptance tolerances: latency golden values, the power
reproduction band, and Monte-Carlo BER within 3 standard errors of the exact
Gray-QAM value.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import xrmimo.frames
import xrmimo.mimo
import xrmimo.studies
from xrmimo.config import build_config
from xrmimo.mimo import generate_channel, save_channel
from xrmimo.modem import QamConstellation, qam_ber_exact
from xrmimo.studies import run_ber_study, run_latency_study, run_power_study

STUDIES = {"latency": run_latency_study, "ber": run_ber_study, "power": run_power_study}

# Channel files of uplink-replay: two files of M antennas x K users, concatenated.
REPLAY_ANTENNAS = 32
REPLAY_USERS_PER_FILE = 4
REPLAY_SUBCARRIERS = 256
REPLAY_SINGULAR = (2, 6)  # inclusive range of subcarriers made singular
REPLAY_BER = {"snr_grid_db": [8.0, 11.0, 14.0, 16.0], "bits_per_point": 400_000,
              "modulation_order": 16}

# Acceptance tolerances (criteria 1, 3 and 4).
TAU_SYMB_S = 71.4e-6
LATENCY_GOLDEN_S = {("3", "B", "ul"): TAU_SYMB_S * 121, ("1", "A", "ul"): TAU_SYMB_S * 2561,
                    ("1", "A", "dl"): TAU_SYMB_S * 8}
LATENCY_REL_TOL = 1e-9  # the CSV carries 12 significant digits
POWER_REF_DBM = {1e-4: 10.0 * math.log10(0.856), 1e-5: 10.0 * math.log10(1.356)}
POWER_BAND_DB = 3.0
POWER_STEP_DB = (0.5, 3.5)
BER_MAX_Z = 3.0


def _symbols_in(constellation, bits, *_):
    return int(np.size(bits)) // constellation.bits_per_symbol


def _symbols_out(constellation, symbols, *_):
    return int(np.size(symbols))


# Public layer functions the studies reach, as (owner, attribute, span name, work).
TRACED = (
    (xrmimo.studies, "ber_curve", "mimo.ber_curve", None),
    (xrmimo.studies, "generate_channel", "mimo.generate_channel", None),
    (xrmimo.studies, "load_channels", "mimo.load_channels", None),
    (xrmimo.studies, "snr_target_for_ber", "linkbudget.snr_target_for_ber", None),
    (xrmimo.studies, "required_tx_power", "linkbudget.required_tx_power", None),
    (xrmimo.mimo, "channel_condition", "mimo.channel_condition", None),
    (xrmimo.mimo, "zf_equalizer", "mimo.zf_equalizer", None),
    (xrmimo.mimo, "zf_noise_gain", "mimo.zf_noise_gain", None),
    (xrmimo.frames, "transmission_latency", "frames.transmission_latency", None),
    (QamConstellation, "modulate", "modem.modulate", _symbols_in),
    (QamConstellation, "demodulate", "modem.demodulate", _symbols_out),
)


class UplinkLoad:
    """A round calls the studies; the work of a BER study is its simulated Mbit."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.seed = seed
        self.out_dir = scratch
        self.replay = name == "uplink-replay"
        self.ops = ["ber"] if self.replay else ["latency", "ber", "power"]
        self.n_singular = 0

    def setup(self, tracer) -> None:
        # ``uplink`` is the default config, seed included: that is the case
        # the acceptance suite pins for the 3-standard-error check.
        fragment = {"output_dir": str(self.out_dir)}
        if self.replay:
            fragment["seed"] = self.seed
            fragment["ber"] = dict(REPLAY_BER, channel={"source": "files",
                                                        "paths": self._write_channels(tracer)})
        self.config = tracer.call("config.build_config", build_config, fragment)

    def _write_channels(self, tracer) -> list:
        """Two channel files; file 0 repeats user 0 as user 1 on a few subcarriers."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(3, 9)))
        self.n_singular = int(rng.integers(REPLAY_SINGULAR[0], REPLAY_SINGULAR[1] + 1))
        singular = rng.choice(REPLAY_SUBCARRIERS, size=self.n_singular, replace=False)
        paths = []
        for index in range(2):
            channel = tracer.call("mimo.generate_channel", generate_channel, REPLAY_ANTENNAS,
                                  REPLAY_USERS_PER_FILE, REPLAY_SUBCARRIERS,
                                  rng=rng.integers(2**63))
            if index == 0:
                channel.gains[singular, :, 1] = channel.gains[singular, :, 0]
            path = self.out_dir / f"channel{index}.bin"
            tracer.call("mimo.save_channel", save_channel, channel, path)
            paths.append(str(path))
        return paths

    def is_main(self, op) -> bool:
        return op == "ber"

    @staticmethod
    def group(op) -> str:
        return f"{op} study"

    def call(self, op):
        return STUDIES[op](self.config, self.out_dir)

    def trace_scope(self, tracer):
        return tracer.patched(TRACED)

    def traced_call(self, op, tracer):
        return tracer.call(f"studies.{STUDIES[op].__name__}", STUDIES[op], self.config,
                           self.out_dir)

    def counted_call(self, op, counts):
        path = self.call(op)
        if op == "ber":
            skipped, points = _read_ber(path)
            counts["mimo.skipped_subcarriers"] += skipped
            counts["mimo.bits_simulated"] += sum(n_bits for _, n_bits, _ in points)
            counts["mimo.ber_max_z"] = max(counts["mimo.ber_max_z"], self._max_z(points))
        return path

    def check(self, op, path) -> list:
        rows = _read_rows(path)
        if op == "latency":
            return _check_latency(rows)
        if op == "power":
            return _check_power(rows)
        skipped, points = _read_ber(path)
        errors = []
        if self.replay and skipped != self.n_singular:
            errors.append(f"skipped {skipped} subcarriers, {self.n_singular} were singular")
        bits_per_point = self.config.ber["bits_per_point"]
        if any(n_bits < bits_per_point for _, n_bits, _ in points):
            errors.append(f"a BER point simulated fewer than {bits_per_point} bits")
        z = self._max_z(points)
        if not z <= BER_MAX_Z:
            errors.append(f"Monte-Carlo BER {z:.2f} standard errors from the exact value")
        return errors

    def _max_z(self, points) -> float:
        """Largest |MC - exact| BER distance in standard errors over the curve."""
        order = self.config.ber["modulation_order"]
        worst = 0.0
        for snr_db, n_bits, n_errors in points:
            expected = qam_ber_exact(10.0 ** (snr_db / 10.0), order)
            se = math.sqrt(expected * (1.0 - expected) / n_bits)
            worst = max(worst, abs(n_errors / n_bits - expected) / se)
        return worst

    def compare(self, path, reference) -> list:
        if Path(path).read_bytes() != reference:
            return ["traced study output differs from the untraced one"]
        return []

    def reference(self, path):
        return Path(path).read_bytes()

    def work(self, op, path) -> float:
        if op != "ber":
            return 0.0
        return sum(n_bits for _, n_bits, _ in _read_ber(path)[1]) / 1e6


def _read_rows(path) -> list:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")][1:]


def _read_ber(path):
    """(skipped subcarriers, [(snr_db, n_bits, n_errors)]) from ber.csv."""
    text = Path(path).read_text(encoding="ascii")
    skipped = int(text.split("singular_subcarriers_skipped=")[1].split()[0])
    points = [(float(r[0]), int(r[2]), int(r[3])) for r in _read_rows(path)]
    return skipped, points


def _check_latency(rows) -> list:
    means = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    return [f"latency {key} is {means.get(key)} s, golden {value} s"
            for key, value in LATENCY_GOLDEN_S.items()
            if key not in means or abs(means[key] - value) > LATENCY_REL_TOL * value]


def _check_power(rows) -> list:
    dbm = {float(r[0]): float(r[2]) for r in rows}
    errors = [f"power at BER {target} is {dbm.get(target)} dBm, reference {ref:.3f} dBm"
              for target, ref in POWER_REF_DBM.items()
              if target not in dbm or abs(dbm[target] - ref) > POWER_BAND_DB]
    if not errors:
        step = dbm[1e-5] - dbm[1e-4]
        if not POWER_STEP_DB[0] <= step <= POWER_STEP_DB[1]:
            errors.append(f"power step {step:.3f} dB outside {POWER_STEP_DB}")
    return errors
