"""Config schema, validation, merging, and hashing tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrmimo.config import build_config, config_hash, load_config
from xrmimo.exceptions import ConfigurationError


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


DEFAULT_PATHS = list(_paths(build_config().resolved))


@st.composite
def mutated_defaults(draw):
    """The default config with a few values, anywhere in it, replaced."""
    fragment = build_config().resolved
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

    def test_channel_file_source_needs_paths(self):
        with pytest.raises(ConfigurationError, match="paths"):
            build_config({"ber": {"channel": {"source": "files"}}})

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

    def test_bits_per_qam_symbol_choices(self):
        with pytest.raises(ConfigurationError,
                           match=r"^frame_structures\.X\.bits_per_qam_symbol: must be one of"):
            build_config({"frame_structures": {
                "X": {"layout": ["pilot", "ul", "dl"], "bits_per_qam_symbol": 8}}})

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
        # The default grid tops out at 24.32 dB, where the analytic BER is 9.7e-5.
        with pytest.raises(ConfigurationError, match=r"^power\.ber_targets: \[1e-05\] outside"):
            build_config({"power": {"mode": "simulated", "ber_targets": [1e-4, 1e-5]}})
        assert build_config({"power": {"mode": "simulated", "ber_targets": [1e-4]}})
        assert build_config({"power": {"mode": "analytic", "ber_targets": [1e-4, 1e-5]}})

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
