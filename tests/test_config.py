"""Config schema, validation, merging, and hashing tests."""

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrmimo.config import build_config, config_hash, load_config
from xrmimo.exceptions import ConfigurationError
from xrmimo.linkbudget import LinkBudgetConfig, snr_target_for_ber
from xrmimo.mimo import generate_channel, save_channel
from xrmimo.studies import run_power_study

README = Path(__file__).resolve().parents[1] / "README.md"
LAYOUT_A = ["pilot", "ul", "ul", "ul", "ul", "pilot", "dl", "dl", "dl", "dl"]


def settable(resolved: dict) -> dict:
    """A resolved config less the values ``build_config`` derives: a loadable fragment."""
    for entry in resolved["frame_structures"].values():
        del entry["bits_per_qam_symbol"]
    del resolved["power"]["modulation_order"]
    del resolved["power"]["link_budget"]["antennas"], resolved["power"]["link_budget"]["users"]
    return resolved


def _names(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _names(value)


# Every key the schema knows, some it does not, and scenario ids in both forms.
KEYS = st.sampled_from(sorted(set(_names(build_config().resolved)))
                       + ["samples", "mean", "std", "C", "noise_var", 1, 2, 9, None])
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2**80, max_value=2**80)
    | st.just(10**400), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "ul", "dl", "pilot", "constant", "empirical", "truncated_normal",
                     "files", "simulated", "1"]),
    st.text(max_size=5),
)
NESTED = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(KEYS | st.floats() | st.text(max_size=3), inner,
                                        max_size=4), max_leaves=20)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


DEFAULT_PATHS = list(_paths(settable(build_config().resolved)))


@st.composite
def mutated_defaults(draw):
    """The default config with a few values, anywhere in it, replaced."""
    fragment = settable(build_config().resolved)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(DEFAULT_PATHS))
        node = fragment
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = draw(NESTED)
    return fragment


class TestDefaults:
    def test_builds_and_hash_is_stable(self):
        a = build_config()
        b = build_config()
        assert a.hash == b.hash
        assert len(a.hash) == 16

    def test_default_tables(self):
        cfg = build_config()
        structures = cfg.frame_structures()
        assert set(structures) == {"A", "B"}
        assert structures["A"].n_direction_symbols("ul") == 4
        assert structures["B"].n_direction_symbols("ul") == 8
        assert cfg.scenario_ids() == [1, 2, 3]
        assert cfg.sensitivity["ber_grid"] == [1e-5, 1e-4, 1e-3, 1e-2]

    def test_hash_changes_with_content(self):
        base = config_hash(build_config().resolved)
        changed = build_config().resolved
        changed["seed"] = 999
        assert config_hash(changed) != base

    def test_output_dir_does_not_change_hash(self):
        assert build_config({"output_dir": "a"}).hash == build_config({"output_dir": "b"}).hash

    def test_default_hash_pinned(self):
        # Line 1 of every default CSV: it changes only with the resolved settings.
        assert build_config().hash == "62500d89f5f3cf38"

    def test_default_array_is_the_link_budget_default(self):
        chan, budget = build_config().ber["channel"], LinkBudgetConfig()
        assert (chan["antennas"], chan["users"]) == (budget.antennas, budget.users)

    def test_resolved_less_derived_values_reloads(self):
        cfg = build_config()
        assert build_config(settable(build_config().resolved)).resolved == cfg.resolved


class TestRadioDescription:
    """``ber.modulation_order`` and ``ber.channel`` describe the radio; the rest is derived."""

    def test_modulation_order_sets_frame_bits_and_power_order(self, tmp_path):
        cfg = build_config({"ber": {"modulation_order": 16}, "frame_structures": {
            "A": {"layout": LAYOUT_A}, "C": {"layout": ["pilot", "ul", "dl"]}}})
        assert {name: fs.bits_per_qam_symbol for name, fs in cfg.frame_structures().items()} \
            == {"A": 4, "C": 4}
        assert cfg.power["modulation_order"] == 16
        text = run_power_study(cfg, out_dir=tmp_path).read_text()
        snr_db = float(text.splitlines()[2].split(",")[1])
        assert snr_db == pytest.approx(snr_target_for_ber(1e-4, 16), rel=1e-11)

    def test_synthetic_channel_sets_link_budget_array(self):
        cfg = build_config({"ber": {"channel": {"antennas": 40, "users": 8}}})
        budget = cfg.power["link_budget"]
        assert (budget["antennas"], budget["users"]) == (40, 8)
        assert LinkBudgetConfig(**budget).resolved_array_gain_db == pytest.approx(
            10.0 * math.log10(33.0), rel=1e-15)

    @pytest.mark.parametrize("fragment, key", [
        ({"frame_structures": {"A": {"layout": LAYOUT_A, "bits_per_qam_symbol": 2}}},
         "frame_structures.A.bits_per_qam_symbol"),
        ({"power": {"modulation_order": 16}}, "power.modulation_order"),
        ({"power": {"link_budget": {"antennas": 100}}}, "power.link_budget.antennas"),
        ({"power": {"link_budget": {"users": 40}}}, "power.link_budget.users"),
        # BER at 64-QAM with 4 users, power at 16-QAM with a 40-user array
        # gain, frame structure A at QPSK: one radio described three ways.
        ({"ber": {"modulation_order": 64, "channel": {"users": 4}},
          "power": {"modulation_order": 16, "link_budget": {"users": 40}},
          "frame_structures": {"A": {"layout": LAYOUT_A, "bits_per_qam_symbol": 2}}},
         "frame_structures.A.bits_per_qam_symbol"),
    ], ids=["frame-bits", "power-order", "budget-antennas", "budget-users", "inconsistent"])
    def test_removed_keys_rejected(self, fragment, key):
        with pytest.raises(ConfigurationError, match=rf"unknown keys \['{re.escape(key)}'\]"):
            build_config(fragment)


HEADER_8_2_4 = b"XMCH" + np.array([8, 2, 4], dtype="<u4").tobytes()


def _channel_file(path, n_antennas, n_users, n_subcarriers, rng=0) -> str:
    save_channel(generate_channel(n_antennas, n_users, n_subcarriers, rng=rng), path)
    return str(path)


def _files_config(paths, **channel) -> dict:
    return {"ber": {"channel": {"source": "files", "paths": [str(p) for p in paths], **channel}}}


class TestChannelFileSource:
    """With ``source: files`` the channel's sizes come from the files' headers at load."""

    def test_sizes_from_headers_users_summed(self, tmp_path):
        paths = [_channel_file(tmp_path / "a.bin", 32, 4, 16, rng=1),
                 _channel_file(tmp_path / "b.bin", 32, 3, 16, rng=2)]
        cfg = build_config(_files_config(paths))
        chan = cfg.ber["channel"]
        assert (chan["antennas"], chan["users"], chan["subcarriers"]) == (32, 7, 16)
        budget = cfg.power["link_budget"]
        assert (budget["antennas"], budget["users"]) == (32, 7)

    @pytest.mark.parametrize("key", ["antennas", "users", "subcarriers"])
    def test_sizes_not_settable(self, tmp_path, key):
        path = _channel_file(tmp_path / "a.bin", 8, 2, 4)
        with pytest.raises(ConfigurationError,
                           match=rf"^ber\.channel\.{key}: is read from the channel files"):
            build_config(_files_config([path], **{key: 4}))

    def test_summed_users_must_stay_below_antennas(self, tmp_path):
        paths = [_channel_file(tmp_path / "a.bin", 8, 4, 4, rng=1),
                 _channel_file(tmp_path / "b.bin", 8, 4, 4, rng=2)]
        with pytest.raises(ConfigurationError,
                           match=r"^ber\.channel\.paths: antennas must exceed users, got 8 and 8$"):
            build_config(_files_config(paths))

    @pytest.mark.parametrize("second", [(9, 2, 4), (8, 2, 5)], ids=["antennas", "subcarriers"])
    def test_files_must_share_antennas_and_subcarriers(self, tmp_path, second):
        paths = [_channel_file(tmp_path / "a.bin", 8, 2, 4),
                 _channel_file(tmp_path / "b.bin", *second)]
        with pytest.raises(ConfigurationError,
                           match=r"^ber\.channel\.paths: files differ in \(antennas, subcarriers\)"):
            build_config(_files_config(paths))

    @pytest.mark.parametrize("data, message", [
        (b"NOPE" + bytes(20), r"bad magic in .* \(byte offset 0\)"),
        (b"XMCH\x08\x00\x00", r"truncated header in .* \(byte offset 7\)"),
        (b"XMCH" + np.array([2, 2, 1], dtype="<u4").tobytes() + bytes(32),
         r"invalid dimensions M=2, K=2, F=1 in .* \(byte offset 4\)"),
        # The payload is parsed at load too: an 8 x 2 x 4 file holds 528 bytes.
        (HEADER_8_2_4 + bytes(504),
         r"payload size mismatch in .*: expected 528 bytes, found 520 \(byte offset 520\)"),
        (HEADER_8_2_4 + np.array([np.nan], dtype="<f4").tobytes() + bytes(508),
         r"non-finite channel entry in .* \(byte offset 16\)"),
    ], ids=["magic", "truncated-header", "dimensions", "short-payload", "non-finite"])
    def test_bad_header_fails_at_load(self, tmp_path, data, message):
        good = _channel_file(tmp_path / "a.bin", 8, 2, 4)
        (tmp_path / "b.bin").write_bytes(data)
        with pytest.raises(ConfigurationError, match=rf"^ber\.channel\.paths\[1\]: {message}$"):
            build_config(_files_config([good, tmp_path / "b.bin"]))

    def test_hash_covers_file_bytes_not_paths(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        first = _channel_file(tmp_path / "x" / "ch.bin", 8, 2, 4)
        second = shutil.copy(first, tmp_path / "y" / "other.bin")
        reference = build_config(_files_config([first])).hash
        assert build_config(_files_config([second])).hash == reference
        data = bytearray(Path(second).read_bytes())
        data[-1] ^= 1
        Path(second).write_bytes(bytes(data))
        assert build_config(_files_config([second])).hash != reference


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            build_config({"sed": 1})

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigurationError, match="latency"):
            build_config({"latency": {"trails": 10}})

    def test_ber_grid_bounds(self):
        with pytest.raises(ConfigurationError, match="ber_grid"):
            build_config({"sensitivity": {"ber_grid": [0.0]}})
        with pytest.raises(ConfigurationError, match="ber_grid"):
            build_config({"sensitivity": {"ber_grid": [0.5]}})

    def test_trials_minimum(self):
        with pytest.raises(ConfigurationError, match="trials"):
            build_config({"latency": {"trials": 0}})

    def test_scenario_keys_must_be_known(self):
        with pytest.raises(ConfigurationError):
            build_config({"scenarios": {"9": {}}})

    @pytest.mark.parametrize("key", [2.7, 2.0, True, " 3", "3 ", "+3", b"3"],
                             ids=["float", "integral-float", "bool", "leading-space",
                                  "trailing-space", "signed", "bytes"])
    def test_scenario_keys_only_ints_and_digit_strings(self, key):
        with pytest.raises(ConfigurationError,
                           match=r"^scenarios\..*: scenario keys must be integers"):
            build_config({"scenarios": {key: {}}})

    @pytest.mark.parametrize("table, first, second, row", [
        ("frame_structures", 1, "1", {"layout": ["pilot", "ul", "dl"]}),
        ("scenarios", 1, "1", {}),
        ("scenarios", 3, "03", {}),
    ])
    def test_colliding_table_names_rejected(self, table, first, second, row):
        with pytest.raises(ConfigurationError,
                           match=rf"^{table}\.{second}: names the .* '\d' a second time"):
            build_config({table: {first: row, second: row}})

    def test_empty_frame_structures_rejected(self):
        with pytest.raises(ConfigurationError, match="frame"):
            build_config({"frame_structures": {}})

    def test_bad_layout_role(self):
        with pytest.raises(ConfigurationError, match="layout"):
            build_config({"frame_structures": {
                "X": {"layout": ["pilot", "up", "dl"]}}})

    def test_channel_paths_need_file_source(self):
        build_config({"ber": {"channel": {"paths": []}}})
        with pytest.raises(ConfigurationError, match=r"^ber\.channel\.paths: is read only with "
                                                     r"ber\.channel\.source: files$"):
            build_config({"ber": {"channel": {"paths": ["missing.bin"]}}})

    def test_channel_file_source_needs_paths(self):
        with pytest.raises(ConfigurationError, match="paths"):
            build_config({"ber": {"channel": {"source": "files"}}})

    @pytest.mark.parametrize("bad", ["missing.bin", ".", "x" * 300])
    def test_channel_paths_must_be_existing_files(self, tmp_path, bad):
        (tmp_path / "ch.bin").write_bytes(b"")
        paths = [str(tmp_path / "ch.bin"), str(tmp_path / bad)]
        with pytest.raises(ConfigurationError,
                           match=r"^ber\.channel\.paths\[1\]: .* is not an existing regular file$"):
            build_config({"ber": {"channel": {"source": "files", "paths": paths}}})

    def test_channel_antennas_exceed_users(self):
        with pytest.raises(ConfigurationError, match="antennas"):
            build_config({"ber": {"channel": {"antennas": 4, "users": 4}}})

    def test_exec_model_kinds(self):
        cfg = build_config({"scenarios": {
            "1": {"device_exec": {"kind": "empirical", "samples": [0.01, 0.02]},
                  "offloaded_exec": {"kind": "truncated_normal", "mean": 0.01,
                                      "std": 0.002}},
        }})
        models = cfg.exec_models()
        assert set(models) == {1}
        with pytest.raises(ConfigurationError):
            build_config({"scenarios": {
                "1": {"device_exec": {"kind": "empirical", "samples": []}}}})

    @pytest.mark.parametrize("text, path", [
        ("ber:\n  snr_grid_db: [.nan]\n", r"ber\.snr_grid_db\[0\]"),
        ("latency:\n  tau_bs_s: .inf\n", r"latency\.tau_bs_s"),
    ], ids=["nan-snr-grid", "inf-tau-bs"])
    def test_non_finite_rejected(self, tmp_path, text, path):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text(text)
        with pytest.raises(ConfigurationError, match=rf"^{path}: must be finite"):
            load_config(config_path)

    @pytest.mark.parametrize("fragment, path", [
        ({"ber": {"snr_grid_db": [10.0, 15.0, 10.0]}}, r"ber\.snr_grid_db"),
        ({"sensitivity": {"ber_grid": [1e-4, 1e-4]}}, r"sensitivity\.ber_grid"),
    ], ids=["snr-grid", "ber-grid"])
    def test_duplicate_grid_values_rejected(self, fragment, path):
        with pytest.raises(ConfigurationError, match=rf"^{path}: duplicate values"):
            build_config(fragment)

    def test_noise_var_removed(self):
        with pytest.raises(ConfigurationError, match=r"ber\.noise_var"):
            build_config({"ber": {"noise_var": 2.0}})

    @pytest.mark.parametrize("layout", [["pilot", "ul"], ["dl", "pilot", "dl"]])
    def test_layout_needs_uplink_and_downlink(self, layout):
        with pytest.raises(ConfigurationError, match=r"^frame_structures\.A\.layout: needs"):
            build_config({"frame_structures": {"A": {"layout": layout}}})

    def test_repeated_scenario_ids_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^sensitivity\.scenarios: duplicate values"):
            build_config({"sensitivity": {"scenarios": [1, 1]}})

    @pytest.mark.parametrize("fragment, message", [
        ({"latency": {"deadline_s": 10**400}}, r"^latency\.deadline_s: must be finite"),
        ({"scenarios": {float("inf"): {}}}, r"^scenarios\.inf: scenario keys must be integers"),
    ], ids=["int-too-large-for-float", "infinite-scenario-key"])
    def test_overflowing_values_rejected(self, fragment, message):
        with pytest.raises(ConfigurationError, match=message):
            build_config(fragment)

    @settings(max_examples=300, deadline=None)
    @given(fragment=st.dictionaries(KEYS, NESTED, max_size=6) | mutated_defaults())
    def test_arbitrary_fragments_fail_only_with_configuration_error(self, fragment):
        try:
            cfg = build_config(fragment)
        except ConfigurationError:
            return
        assert len(cfg.hash) == 16

    def test_simulated_power_targets_inside_the_snr_grid(self):
        # The default grid tops out at 24.32 dB, where the exact BER is 9.71e-5;
        # 3 standard errors of 1e7 bits put the lowest checkable BER at 1.064e-4,
        # so a measured curve need not reach 1e-4.
        with pytest.raises(ConfigurationError,
                           match=r"^power\.ber_targets: \[0\.0001, 1e-05\] outside \[1\.064e-04, "):
            build_config({"power": {"mode": "simulated", "ber_targets": [1e-4, 1e-5]}})
        with pytest.raises(ConfigurationError, match=r"^power\.ber_targets: \[0\.0001\] outside"):
            build_config({"power": {"mode": "simulated", "ber_targets": [1e-4]}})
        assert build_config({"power": {"mode": "simulated", "ber_targets": [1.1e-4, 0.15]}})
        assert build_config({"power": {"mode": "analytic", "ber_targets": [1e-4, 1e-5]}})

    @pytest.mark.parametrize("snr_db, target", [([-1e300, 10.0], 0.3), ([10.0, 1e300], 1e-2)],
                             ids=["low", "high"])
    def test_simulated_power_check_takes_any_finite_grid(self, snr_db, target):
        # Grid ends at 0 and inf in linear SNR, where the exact BER is 1/2 and 0.
        cfg = build_config({"ber": {"snr_grid_db": snr_db},
                            "power": {"mode": "simulated", "ber_targets": [target]}})
        assert cfg.ber["snr_grid_db"] == snr_db
        with pytest.raises(ConfigurationError, match=r"^power\.ber_targets: "):
            build_config({"ber": {"snr_grid_db": snr_db},
                          "power": {"mode": "simulated", "ber_targets": [0.4999]}})

    def test_sensitivity_needs_three_frames(self):
        # ATE needs 3 associated poses, so 2 frames could only fail inside the study.
        with pytest.raises(ConfigurationError, match=r"^sensitivity\.n_frames: "):
            build_config({"sensitivity": {"n_frames": 2}})
        assert build_config({"sensitivity": {"n_frames": 3}}).sensitivity["n_frames"] == 3

    def test_sensitivity_landmarks_bounded(self):
        # The scene's (n, n) descriptor check would need 40 GB at 100 000.
        message = r"^sensitivity\.n_landmarks: must be <= 4096, got 100000"
        with pytest.raises(ConfigurationError, match=message):
            build_config({"sensitivity": {"n_landmarks": 100_000}})
        config = build_config({"sensitivity": {"n_landmarks": 4096}})
        assert config.sensitivity["n_landmarks"] == 4096

    def test_bad_type_messages(self):
        with pytest.raises(ConfigurationError, match="seed"):
            build_config({"seed": "abc"})
        with pytest.raises(ConfigurationError, match="expected a mapping"):
            build_config({"latency": 5})


class TestReplaceAndMerge:
    def test_frame_structures_replaced_wholesale(self):
        cfg = build_config({"frame_structures": {
            "C": {"layout": ["pilot", "ul", "dl"]}}})
        assert set(cfg.frame_structures()) == {"C"}

    def test_scalar_sections_merge(self):
        cfg = build_config({"latency": {"trials": 7}})
        assert cfg.latency["trials"] == 7
        assert cfg.latency["deadline_s"] == 0.200

    def test_scenarios_replaced_wholesale(self):
        cfg = build_config({"scenarios": {
            "3": {"ul_payload_bits": 1000,
                  "device_exec": {"kind": "constant", "value": 0.0},
                  "offloaded_exec": {"kind": "constant", "value": 0.0}}}})
        assert cfg.scenario_ids() == [3]
        assert cfg.scenario_payload_bits() == {3: 1000}


class TestLoadConfig:
    def test_yaml_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 42\nlatency:\n  trials: 5\n")
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.latency["trials"] == 5

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "output_dir": "out"}))
        cfg = load_config(path)
        assert cfg.seed == 7
        assert str(cfg.output_dir) == "out"

    # JSON and YAML 1.2 read both spellings as numbers; PyYAML's YAML 1.1
    # rules alone read ``1e-5`` as a string.
    @pytest.mark.parametrize("spelling", ["1e-5", "1.0e-5"])
    @pytest.mark.parametrize("text, suffix", [
        ('{{"sensitivity": {{"ber_grid": [{}, 2E-3]}}}}', "json"),
        ("sensitivity:\n  ber_grid: [{}, 2E-3]\n", "yaml"),
    ], ids=["json", "yaml"])
    def test_exponent_floats(self, tmp_path, text, suffix, spelling):
        path = tmp_path / f"cfg.{suffix}"
        path.write_text(text.format(spelling))
        assert load_config(path).sensitivity["ber_grid"] == [1e-5, 2e-3]

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 42\n")
        cfg = load_config(path, overrides={"seed": 100})
        assert cfg.seed == 100

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_yaml_integer_scenario_keys(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scenarios:\n"
            "  1:\n"
            "    ul_payload_bits: 500\n"
        )
        cfg = load_config(path)
        assert cfg.scenario_payload_bits() == {1: 500}

    def test_readme_yaml_examples_load(self, tmp_path):
        examples = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert examples
        for i, text in enumerate(examples):
            path = tmp_path / f"readme{i}.yaml"
            path.write_text(text, encoding="utf-8")
            load_config(path)
