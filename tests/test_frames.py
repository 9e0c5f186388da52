"""Frame structure and latency model tests against hand-derived values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrmimo import frames
from xrmimo.config import build_config
from xrmimo.exceptions import ConfigurationError
from xrmimo.frames import (
    ExecTimeModel,
    ExecTimePair,
    FrameStructure,
    SymbolRole,
    pose_latency,
    slots_per_pose,
    symbols_per_pose,
    transmission_latency,
    worst_case_wait,
)
from xrmimo.scenarios import SCENARIO_UL_BITS

# The default presets: A is balanced (4 UL + 4 DL of 10), B uplink-heavy (8 UL + 1 DL).
PRESETS = build_config().frame_structures()
STRUCTURE_A, STRUCTURE_B = PRESETS["A"], PRESETS["B"]
TAU_BS_S = 132e-6


def make_structure(layout, name="t", n_subcarriers=1200, bits_per_qam_symbol=6,
                   tau_symb=71.4e-6):
    return FrameStructure(name=name, layout=layout, n_subcarriers=n_subcarriers,
                          bits_per_qam_symbol=bits_per_qam_symbol, tau_symb=tau_symb)


def constant(value):
    return ExecTimeModel(kind="constant", value=value)


def truncated_normal(mean, std):
    return ExecTimeModel(kind="truncated_normal", mean=mean, std=std)


def contiguous_structure(n_ul, n_dl, n_pilot=1):
    return make_structure(("pilot",) * n_pilot + ("ul",) * n_ul + ("dl",) * n_dl)


class TestFrameStructure:
    def test_defaults(self):
        fs = STRUCTURE_A
        assert fs.n_symb == 10
        assert fs.n_direction_symbols("ul") == 4
        assert fs.n_direction_symbols("dl") == 4
        assert fs.bits_per_data_symbol == 7200

    def test_structure_b_counts(self):
        fs = STRUCTURE_B
        assert fs.n_direction_symbols("ul") == 8
        assert fs.n_direction_symbols("dl") == 1

    @pytest.mark.parametrize("kwargs", [
        {"layout": ("ul",)},
        {"layout": ("ul", "ul")},
        {"layout": ("dl", "pilot")},
        {"layout": ("ul", "dl"), "n_subcarriers": 0},
        {"layout": ("ul", "dl"), "bits_per_qam_symbol": 3},
        {"layout": ("ul", "dl"), "tau_symb": 0.0},
    ])
    def test_invalid_structures(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_structure(**kwargs)

    def test_layout_accepts_strings_and_roles(self):
        fs = make_structure(("pilot", SymbolRole.UPLINK_DATA, "dl"))
        assert fs.layout[1] is SymbolRole.UPLINK_DATA


class TestSymbolsPerPose:
    def test_scenario_1_uplink(self):
        # 900 KiB over 1200 subcarriers x 6 bits
        assert symbols_per_pose(7_372_800, STRUCTURE_A) == 1024

    def test_scenario_3_uplink(self):
        assert symbols_per_pose(688_128, STRUCTURE_A) == 96

    def test_minimal_payload(self):
        assert symbols_per_pose(1, STRUCTURE_A) == 1

    def test_rejects_nonpositive_payload(self):
        with pytest.raises(ValueError):
            symbols_per_pose(0, STRUCTURE_A)


class TestSlotsPerPose:
    def test_structure_b_uplink(self):
        assert slots_per_pose(96, STRUCTURE_B, "ul") == 11

    def test_structure_a_uplink(self):
        assert slots_per_pose(1024, STRUCTURE_A, "ul") == 255

    def test_single_symbol_fits_first_slot(self):
        for fs in (STRUCTURE_A, STRUCTURE_B):
            for direction in ("ul", "dl"):
                assert slots_per_pose(1, fs, direction) == 0


class TestWorstCaseWait:
    def test_structure_a_uplink(self):
        assert worst_case_wait(STRUCTURE_A, "ul") == 7

    def test_structure_b_uplink(self):
        assert worst_case_wait(STRUCTURE_B, "ul") == 3

    def test_structure_b_downlink_single_symbol(self):
        assert worst_case_wait(STRUCTURE_B, "dl") == 10

    def test_uplink_run_around_one_downlink_symbol(self):
        fs = make_structure((SymbolRole.UPLINK_DATA,) * 5 + (SymbolRole.DOWNLINK_DATA,))
        # Consecutive UL starts are 1 apart; the wrap past the DL symbol is 2.
        assert worst_case_wait(fs, "ul") == 2
        assert worst_case_wait(fs, SymbolRole.DOWNLINK_DATA) == 6

    @pytest.mark.parametrize("direction, error", [
        ("pilot", ConfigurationError), (SymbolRole.GUARD, ConfigurationError),
        ("uplink", ValueError), ("UL", ValueError),
    ])
    def test_only_data_role_values_are_directions(self, direction, error):
        with pytest.raises(error):
            worst_case_wait(STRUCTURE_A, direction)

    def test_non_contiguous_layout(self):
        layout = ("ul", "pilot", "ul", "dl", "dl", "pilot")
        fs = make_structure(layout)
        # UL starts at 0 and 2: gaps 2 and 0 + 6 - 2 = 4
        assert worst_case_wait(fs, "ul") == 4

    def test_guard_symbols_count_as_overhead(self):
        fs = make_structure(("pilot", "ul", "ul", "guard", "dl"))
        assert fs.n_symb == 5
        assert worst_case_wait(fs, "ul") == 4  # 5 - 2 + 1
        assert worst_case_wait(fs, "dl") == 5
        # Slot overhead per crossing includes pilot and guard symbols.
        got = transmission_latency(7200 * 3, fs, "ul")
        assert got == fs.tau_symb * (4 + 3 + 1 * (5 - 2))


class TestTransmissionLatency:
    def test_scenario_3_structure_b(self):
        fs = STRUCTURE_B
        got = transmission_latency(SCENARIO_UL_BITS[3], fs, "ul")
        assert got == fs.tau_symb * (3 + 96 + 11 * 2)
        assert got == pytest.approx(8.6394e-3, rel=1e-12)

    def test_scenario_1_structure_a(self):
        fs = STRUCTURE_A
        got = transmission_latency(SCENARIO_UL_BITS[1], fs, "ul")
        assert got == fs.tau_symb * (7 + 1024 + 255 * 6)
        assert got == pytest.approx(182.8554e-3, rel=1e-12)

    def test_pose_downlink_structure_a(self):
        fs = STRUCTURE_A
        got = transmission_latency(frames.POSE_RECORD_BITS, fs, "dl")
        assert got == fs.tau_symb * (7 + 1 + 0)
        assert got == pytest.approx(571.2e-6, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(min_value=1, max_value=10**8),
           extra=st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_payload(self, bits, extra):
        fs = STRUCTURE_A
        assert (transmission_latency(bits + extra, fs, "ul")
                >= transmission_latency(bits, fs, "ul"))

    @settings(max_examples=60, deadline=None)
    @given(n_ul=st.integers(min_value=1, max_value=7),
           bits=st.integers(min_value=1, max_value=10**7))
    def test_more_uplink_symbols_never_slower(self, n_ul, bits):
        # Equal slot length and equal total data symbols (8), uplink share varies.
        slower = contiguous_structure(n_ul, 8 - n_ul, n_pilot=2)
        faster = contiguous_structure(n_ul + 1, 8 - n_ul - 1, n_pilot=2) \
            if n_ul < 7 else None
        if faster is not None:
            assert (transmission_latency(bits, faster, "ul")
                    <= transmission_latency(bits, slower, "ul"))

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(min_value=1, max_value=7200 * 4))
    def test_fit_in_one_slot(self, bits):
        fs = STRUCTURE_A
        n = symbols_per_pose(bits, fs)
        if n <= fs.n_direction_symbols("ul"):
            assert slots_per_pose(n, fs, "ul") == 0
            expected = fs.tau_symb * (worst_case_wait(fs, "ul") + n)
            assert transmission_latency(bits, fs, "ul") == expected


class TestExecTimeModel:
    def test_constant(self):
        draws = ExecTimeModel(kind="constant", value=0.02).sample(0, size=3)
        assert draws.tolist() == [0.02, 0.02, 0.02]

    def test_constant_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecTimeModel(kind="constant", value=-1.0)

    def test_empirical_requires_samples(self):
        with pytest.raises(ConfigurationError):
            ExecTimeModel(kind="empirical", samples=())

    def test_empirical_draws_from_list(self):
        model = ExecTimeModel(kind="empirical", samples=(0.01, 0.02, 0.03))
        draws = model.sample(np.random.default_rng(0), size=200)
        assert set(np.round(draws, 6)) <= {0.01, 0.02, 0.03}

    def test_truncated_normal_nonnegative(self):
        model = ExecTimeModel(kind="truncated_normal", mean=0.001, std=0.05)
        draws = model.sample(np.random.default_rng(1), size=500)
        assert (draws >= 0).all()

    def test_default_models_feature_extraction_doubling(self):
        models = build_config().exec_models()
        baseline = models[1].device.value
        assert models[2].device.value > 2 * baseline
        assert models[3].device.value > 2 * baseline


class TestPoseLatency:
    def zero_exec(self):
        zero = constant(0.0)
        return ExecTimePair(zero, zero)

    def latency(self, pair, fs, scenario, rng=0, trials=1):
        return pose_latency(pair, fs, SCENARIO_UL_BITS[scenario], frames.POSE_RECORD_BITS,
                            TAU_BS_S, rng, trials)

    def test_scenario_3_structure_b_zero_exec(self):
        terms = self.latency(self.zero_exec(), STRUCTURE_B, 3)
        assert list(terms) == ["device", "ul", "bs", "offloaded", "dl", "total"]
        assert terms["ul"][0] == pytest.approx(8.6394e-3, rel=1e-12)
        assert terms["dl"][0] == pytest.approx(785.4e-6, rel=1e-12)
        assert terms["total"][0] == pytest.approx(9.5568e-3, rel=1e-12)
        assert terms["total"][0] <= 0.200

    def test_constant_passthrough(self):
        pair = ExecTimePair(constant(0.01), constant(0.02))
        terms = self.latency(pair, STRUCTURE_A, 2, trials=5)
        assert (terms["device"] == 0.01).all()
        assert (terms["offloaded"] == 0.02).all()
        assert (terms["bs"] == TAU_BS_S).all()

    def test_scenario_1_structure_a_violates_deadline(self):
        pair = ExecTimePair(constant(0.035), constant(0.020))
        terms = self.latency(pair, STRUCTURE_A, 1)
        assert terms["total"][0] == pytest.approx(238.5586e-3, rel=1e-6)
        assert terms["total"][0] > 0.200

    def test_sum_identity_exact(self):
        pair = ExecTimePair(truncated_normal(0.02, 0.01),
                            ExecTimeModel(kind="empirical", samples=(0.01, 0.013, 0.04)))
        terms = self.latency(pair, STRUCTURE_B, 2, rng=np.random.default_rng(3), trials=50)
        total = terms["device"] + terms["ul"] + terms["bs"] + terms["offloaded"] + terms["dl"]
        assert (terms["total"] == total).all()

    def test_device_drawn_before_offloaded(self):
        pair = ExecTimePair(truncated_normal(0.02, 0.01), truncated_normal(0.01, 0.005))
        terms = self.latency(pair, STRUCTURE_B, 3, rng=np.random.default_rng(4), trials=20)
        rng = np.random.default_rng(4)
        assert (terms["device"] == pair.device.sample(rng, size=20)).all()
        assert (terms["offloaded"] == pair.offloaded.sample(rng, size=20)).all()

    def test_deterministic_given_seed(self):
        pair = ExecTimePair(truncated_normal(0.02, 0.01), truncated_normal(0.01, 0.005))
        a = self.latency(pair, STRUCTURE_B, 3, rng=np.random.default_rng(9), trials=3)
        b = self.latency(pair, STRUCTURE_B, 3, rng=np.random.default_rng(9), trials=3)
        for term in a:
            assert (a[term] == b[term]).all()
