"""Experiment configuration: schema, defaults, strict validation, hashing.

Configs are YAML (JSON is a subset) with nested sections.  Unknown keys
raise with their dotted path so sweep typos fail loudly.  Scalar settings
deep-merge over the defaults; the ``frame_structures`` and ``scenarios``
tables are replaced wholesale when present, which is how a sweep narrows
or extends the grid.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .exceptions import ConfigurationError
from .frames import ExecTimeModel, ExecTimePair, FrameStructure
from .scenarios import SCENARIO_IDS, SCENARIO_UL_BITS

_STRUCTURE_A_LAYOUT = ["pilot", "ul", "ul", "ul", "ul", "pilot", "dl", "dl", "dl", "dl"]
_STRUCTURE_B_LAYOUT = ["pilot", "ul", "ul", "ul", "ul", "ul", "ul", "ul", "ul", "dl"]


def default_config_dict() -> dict:
    """Fully resolved defaults; every study can run from these alone."""
    return {
        "seed": 12345,
        "output_dir": "results",
        "frame_structures": {
            "A": {
                "layout": list(_STRUCTURE_A_LAYOUT),
                "n_subcarriers": 1200,
                "bits_per_qam_symbol": 6,
                "tau_symb": 71.4e-6,
            },
            "B": {
                "layout": list(_STRUCTURE_B_LAYOUT),
                "n_subcarriers": 1200,
                "bits_per_qam_symbol": 6,
                "tau_symb": 71.4e-6,
            },
        },
        "scenarios": {
            # Execution-time constants are placeholders, not measurements;
            # feature-extracting scenarios take > 2x the device time of
            # scenario 1.
            "1": {
                "ul_payload_bits": SCENARIO_UL_BITS[1],
                "device_exec": {"kind": "constant", "value": 0.015},
                "offloaded_exec": {"kind": "constant", "value": 0.025},
            },
            "2": {
                "ul_payload_bits": SCENARIO_UL_BITS[2],
                "device_exec": {"kind": "constant", "value": 0.035},
                "offloaded_exec": {"kind": "constant", "value": 0.018},
            },
            "3": {
                "ul_payload_bits": SCENARIO_UL_BITS[3],
                "device_exec": {"kind": "constant", "value": 0.035},
                "offloaded_exec": {"kind": "constant", "value": 0.015},
            },
        },
        "latency": {
            "trials": 1000,
            "deadline_s": 0.200,
            "tau_bs_s": 132e-6,
            "dl_payload_bits": 320,
        },
        "sensitivity": {
            "ber_grid": [1e-5, 1e-4, 1e-3, 1e-2],
            "scenarios": [1, 2, 3],
            "n_trajectories": 10,
            "n_frames": 100,
            "trials": 1,
            "n_landmarks": 400,
            "bootstrap_draws": 10000,
            "ci_level": 0.95,
        },
        "ber": {
            "snr_grid_db": [10.0, 15.0, 20.0, 24.32],
            "bits_per_point": 10_000_000,
            "modulation_order": 64,
            "channel": {
                "source": "synthetic",
                "antennas": 100,
                "users": 10,
                "subcarriers": 1200,
                "paths": [],
            },
        },
        "power": {
            "ber_targets": [1e-4, 1e-5],
            "modulation_order": 64,
            "mode": "analytic",
            "link_budget": {
                "carrier_hz": 3.7e9,
                "bandwidth_hz": 20e6,
                "distance_m": 100.0,
                "temperature_k": 300.0,
                "noise_figure_db": 8.0,
                "fading_margin_db": 2.5,
                "antennas": 100,
                "users": 10,
                "array_gain_db": None,
            },
        },
    }


def _fail(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_unknown(mapping: dict, allowed, path: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        prefix = "" if path == "<config>" else f"{path}."
        dotted = sorted(f"{prefix}{key}" for key in unknown)
        _fail(path, f"unknown keys {dotted}; allowed: {sorted(allowed)}")


def _as_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _as_choice(value, path: str, choices) -> int:
    value = _as_int(value, path)
    if value not in choices:
        _fail(path, f"must be one of {', '.join(map(str, choices))}, got {value}")
    return value


def _as_float(value, path: str, minimum=None, exclusive_minimum=False, maximum=None,
              exclusive_maximum=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, f"must be finite, got {v}")
    if minimum is not None:
        if exclusive_minimum and not v > minimum:
            _fail(path, f"must be > {minimum}, got {v}")
        if not exclusive_minimum and v < minimum:
            _fail(path, f"must be >= {minimum}, got {v}")
    if maximum is not None:
        if exclusive_maximum and not v < maximum:
            _fail(path, f"must be < {maximum}, got {v}")
        if not exclusive_maximum and v > maximum:
            _fail(path, f"must be <= {maximum}, got {v}")
    return v


def _as_grid(value, path: str, **bounds) -> list:
    """A non-empty list of distinct numbers, each checked by ``_as_float``."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    grid = [_as_float(v, f"{path}[{i}]", **bounds) for i, v in enumerate(value)]
    if len(set(grid)) != len(grid):
        _fail(path, f"duplicate values in {grid}")
    return grid


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _validate_exec_model(raw, path: str) -> dict:
    raw = _require_mapping(raw, path)
    kind = _as_str(raw.get("kind", ""), f"{path}.kind",
                   choices=("constant", "empirical", "truncated_normal"))
    if kind == "constant":
        _check_unknown(raw, ("kind", "value"), path)
        return {"kind": kind, "value": _as_float(raw.get("value", 0.0), f"{path}.value",
                                                 minimum=0.0)}
    if kind == "empirical":
        _check_unknown(raw, ("kind", "samples"), path)
        samples = raw.get("samples")
        if not isinstance(samples, list) or not samples:
            _fail(f"{path}.samples", "expected a non-empty list of numbers")
        return {"kind": kind,
                "samples": [_as_float(s, f"{path}.samples[{i}]", minimum=0.0)
                            for i, s in enumerate(samples)]}
    _check_unknown(raw, ("kind", "mean", "std"), path)
    return {"kind": kind,
            "mean": _as_float(raw.get("mean", 0.0), f"{path}.mean", minimum=0.0),
            "std": _as_float(raw.get("std", 0.0), f"{path}.std", minimum=0.0)}


def _validate_frame_structures(raw, path: str) -> dict:
    raw = _require_mapping(raw, path)
    if not raw:
        _fail(path, "at least one frame structure is required")
    out = {}
    for name, entry in raw.items():
        entry_path = f"{path}.{name}"
        entry = _require_mapping(entry, entry_path)
        _check_unknown(entry, ("layout", "n_subcarriers", "bits_per_qam_symbol", "tau_symb"),
                       entry_path)
        layout = entry.get("layout")
        if not isinstance(layout, list) or not layout:
            _fail(f"{entry_path}.layout", "expected a non-empty list of symbol roles")
        roles = [_as_str(r, f"{entry_path}.layout[{i}]",
                         choices=("pilot", "ul", "dl", "guard"))
                 for i, r in enumerate(layout)]
        out[str(name)] = {
            "layout": roles,
            "n_subcarriers": _as_int(entry.get("n_subcarriers", 1200),
                                     f"{entry_path}.n_subcarriers", minimum=1),
            "bits_per_qam_symbol": _as_choice(entry.get("bits_per_qam_symbol", 6),
                                              f"{entry_path}.bits_per_qam_symbol", (2, 4, 6)),
            "tau_symb": _as_float(entry.get("tau_symb", 71.4e-6), f"{entry_path}.tau_symb",
                                  minimum=0.0, exclusive_minimum=True),
        }
    return out


def _validate_scenarios(raw, path: str) -> dict:
    raw = _require_mapping(raw, path)
    if not raw:
        _fail(path, "at least one scenario is required")
    out = {}
    for key, entry in raw.items():
        try:
            sid = int(key)
        except (TypeError, ValueError):
            _fail(f"{path}.{key}", "scenario keys must be integers")
        if sid not in SCENARIO_IDS:
            _fail(f"{path}.{key}", f"scenario id must be one of {SCENARIO_IDS}")
        entry_path = f"{path}.{sid}"
        entry = _require_mapping(entry, entry_path)
        _check_unknown(entry, ("ul_payload_bits", "device_exec", "offloaded_exec"), entry_path)
        out[str(sid)] = {
            "ul_payload_bits": _as_int(entry.get("ul_payload_bits", SCENARIO_UL_BITS[sid]),
                                       f"{entry_path}.ul_payload_bits", minimum=1),
            "device_exec": _validate_exec_model(
                entry.get("device_exec", {"kind": "constant", "value": 0.0}),
                f"{entry_path}.device_exec"),
            "offloaded_exec": _validate_exec_model(
                entry.get("offloaded_exec", {"kind": "constant", "value": 0.0}),
                f"{entry_path}.offloaded_exec"),
        }
    return out


def _validate_top_level(raw: dict) -> dict:
    """Validate a user config fragment; returns the normalised fragment."""
    _require_mapping(raw, "<config>")
    allowed = ("seed", "output_dir", "frame_structures", "scenarios",
               "latency", "sensitivity", "ber", "power")
    _check_unknown(raw, allowed, "<config>")
    out: dict = {}
    if "seed" in raw:
        out["seed"] = _as_int(raw["seed"], "seed", minimum=0)
    if "output_dir" in raw:
        out["output_dir"] = _as_str(raw["output_dir"], "output_dir")
    if "frame_structures" in raw:
        out["frame_structures"] = _validate_frame_structures(raw["frame_structures"],
                                                             "frame_structures")
    if "scenarios" in raw:
        out["scenarios"] = _validate_scenarios(raw["scenarios"], "scenarios")
    if "latency" in raw:
        sec = _require_mapping(raw["latency"], "latency")
        _check_unknown(sec, ("trials", "deadline_s", "tau_bs_s", "dl_payload_bits"), "latency")
        part = {}
        if "trials" in sec:
            part["trials"] = _as_int(sec["trials"], "latency.trials", minimum=1)
        if "deadline_s" in sec:
            part["deadline_s"] = _as_float(sec["deadline_s"], "latency.deadline_s",
                                           minimum=0.0, exclusive_minimum=True)
        if "tau_bs_s" in sec:
            part["tau_bs_s"] = _as_float(sec["tau_bs_s"], "latency.tau_bs_s", minimum=0.0)
        if "dl_payload_bits" in sec:
            part["dl_payload_bits"] = _as_int(sec["dl_payload_bits"],
                                              "latency.dl_payload_bits", minimum=1)
        out["latency"] = part
    if "sensitivity" in raw:
        sec = _require_mapping(raw["sensitivity"], "sensitivity")
        _check_unknown(sec, ("ber_grid", "scenarios", "n_trajectories", "n_frames", "trials",
                             "n_landmarks", "bootstrap_draws", "ci_level"), "sensitivity")
        part = {}
        if "ber_grid" in sec:
            part["ber_grid"] = _as_grid(sec["ber_grid"], "sensitivity.ber_grid", minimum=0.0,
                                        exclusive_minimum=True, maximum=0.5,
                                        exclusive_maximum=True)
        if "scenarios" in sec:
            ids = sec["scenarios"]
            if not isinstance(ids, list) or not ids:
                _fail("sensitivity.scenarios", "expected a non-empty list")
            part["scenarios"] = [
                _as_int(s, f"sensitivity.scenarios[{i}]") for i, s in enumerate(ids)
            ]
            for s in part["scenarios"]:
                if s not in SCENARIO_IDS:
                    _fail("sensitivity.scenarios", f"scenario id must be one of {SCENARIO_IDS}")
        for key, minimum in (("n_trajectories", 1), ("n_frames", 2), ("trials", 1),
                             ("n_landmarks", 4), ("bootstrap_draws", 1)):
            if key in sec:
                part[key] = _as_int(sec[key], f"sensitivity.{key}", minimum=minimum)
        if "ci_level" in sec:
            part["ci_level"] = _as_float(sec["ci_level"], "sensitivity.ci_level",
                                         minimum=0.0, exclusive_minimum=True,
                                         maximum=1.0, exclusive_maximum=True)
        out["sensitivity"] = part
    if "ber" in raw:
        sec = _require_mapping(raw["ber"], "ber")
        _check_unknown(sec, ("snr_grid_db", "bits_per_point", "modulation_order", "channel"),
                       "ber")
        part = {}
        if "snr_grid_db" in sec:
            part["snr_grid_db"] = _as_grid(sec["snr_grid_db"], "ber.snr_grid_db")
        if "bits_per_point" in sec:
            part["bits_per_point"] = _as_int(sec["bits_per_point"], "ber.bits_per_point",
                                             minimum=1)
        if "modulation_order" in sec:
            part["modulation_order"] = _as_choice(sec["modulation_order"],
                                                  "ber.modulation_order", (4, 16, 64))
        if "channel" in sec:
            chan = _require_mapping(sec["channel"], "ber.channel")
            _check_unknown(chan, ("source", "antennas", "users", "subcarriers", "paths"),
                           "ber.channel")
            cpart = {}
            if "source" in chan:
                cpart["source"] = _as_str(chan["source"], "ber.channel.source",
                                          choices=("synthetic", "files"))
            for key, minimum in (("antennas", 2), ("users", 1), ("subcarriers", 1)):
                if key in chan:
                    cpart[key] = _as_int(chan[key], f"ber.channel.{key}", minimum=minimum)
            if "paths" in chan:
                paths = chan["paths"]
                if not isinstance(paths, list):
                    _fail("ber.channel.paths", "expected a list of file paths")
                cpart["paths"] = [_as_str(p, f"ber.channel.paths[{i}]")
                                  for i, p in enumerate(paths)]
            part["channel"] = cpart
        out["ber"] = part
    if "power" in raw:
        sec = _require_mapping(raw["power"], "power")
        _check_unknown(sec, ("ber_targets", "modulation_order", "mode", "link_budget"), "power")
        part = {}
        if "ber_targets" in sec:
            part["ber_targets"] = _as_grid(sec["ber_targets"], "power.ber_targets", minimum=0.0,
                                           exclusive_minimum=True, maximum=0.5,
                                           exclusive_maximum=True)
        if "modulation_order" in sec:
            part["modulation_order"] = _as_choice(sec["modulation_order"],
                                                  "power.modulation_order", (4, 16, 64))
        if "mode" in sec:
            part["mode"] = _as_str(sec["mode"], "power.mode", choices=("analytic", "simulated"))
        if "link_budget" in sec:
            budget = _require_mapping(sec["link_budget"], "power.link_budget")
            allowed_budget = ("carrier_hz", "bandwidth_hz", "distance_m", "temperature_k",
                              "noise_figure_db", "fading_margin_db", "antennas", "users",
                              "array_gain_db")
            _check_unknown(budget, allowed_budget, "power.link_budget")
            bpart = {}
            for key in ("carrier_hz", "bandwidth_hz", "distance_m", "temperature_k"):
                if key in budget:
                    bpart[key] = _as_float(budget[key], f"power.link_budget.{key}",
                                           minimum=0.0, exclusive_minimum=True)
            for key in ("noise_figure_db", "fading_margin_db"):
                if key in budget:
                    bpart[key] = _as_float(budget[key], f"power.link_budget.{key}")
            for key in ("antennas", "users"):
                if key in budget:
                    bpart[key] = _as_int(budget[key], f"power.link_budget.{key}", minimum=1)
            if "array_gain_db" in budget:
                gain = budget["array_gain_db"]
                bpart["array_gain_db"] = (None if gain is None
                                          else _as_float(gain, "power.link_budget.array_gain_db"))
            part["link_budget"] = bpart
        out["power"] = part
    return out


_REPLACED_SECTIONS = ("frame_structures", "scenarios")


def _merge(defaults: dict, fragment: dict) -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in fragment.items():
        if key in _REPLACED_SECTIONS:
            merged[key] = copy.deepcopy(value)
        elif isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment configuration."""

    resolved: dict

    @property
    def seed(self) -> int:
        return int(self.resolved["seed"])

    @property
    def output_dir(self) -> Path:
        return Path(self.resolved["output_dir"])

    @property
    def hash(self) -> str:
        return config_hash(self.resolved)

    def frame_structures(self) -> dict:
        out = {}
        for name, entry in sorted(self.resolved["frame_structures"].items()):
            out[name] = FrameStructure(
                name=name,
                layout=tuple(entry["layout"]),
                n_subcarriers=entry["n_subcarriers"],
                bits_per_qam_symbol=entry["bits_per_qam_symbol"],
                tau_symb=entry["tau_symb"],
            )
        return out

    def scenario_ids(self) -> list:
        return sorted(int(k) for k in self.resolved["scenarios"])

    def scenario_payload_bits(self) -> dict:
        return {int(k): v["ul_payload_bits"] for k, v in self.resolved["scenarios"].items()}

    def exec_models(self) -> dict:
        out = {}
        for key, entry in self.resolved["scenarios"].items():
            out[int(key)] = ExecTimePair(
                device=_build_exec_model(entry["device_exec"]),
                offloaded=_build_exec_model(entry["offloaded_exec"]),
            )
        return out

    @property
    def latency(self) -> dict:
        return self.resolved["latency"]

    @property
    def sensitivity(self) -> dict:
        return self.resolved["sensitivity"]

    @property
    def ber(self) -> dict:
        return self.resolved["ber"]

    @property
    def power(self) -> dict:
        return self.resolved["power"]


def _build_exec_model(entry: dict) -> ExecTimeModel:
    kind = entry["kind"]
    if kind == "constant":
        return ExecTimeModel.constant(entry["value"])
    if kind == "empirical":
        return ExecTimeModel.empirical(entry["samples"])
    return ExecTimeModel.truncated_normal(entry["mean"], entry["std"])


def build_config(fragment: dict | None = None) -> ExperimentConfig:
    """Validate a config fragment and resolve it over the defaults."""
    fragment = fragment or {}
    validated = _validate_top_level(fragment)
    resolved = _merge(default_config_dict(), validated)
    if resolved["ber"]["channel"]["source"] == "synthetic":
        chan = resolved["ber"]["channel"]
        if chan["antennas"] <= chan["users"]:
            _fail("ber.channel", "antennas must exceed users")
    elif not resolved["ber"]["channel"]["paths"]:
        _fail("ber.channel.paths", "file source needs at least one path")
    budget = resolved["power"]["link_budget"]
    if budget["antennas"] <= budget["users"]:
        _fail("power.link_budget", "antennas must exceed users")
    return ExperimentConfig(resolved=resolved)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Load a YAML/JSON config file (optional) and apply overrides on top."""
    fragment: dict = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        loaded = yaml.safe_load(text)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{path}: top level must be a mapping")
        fragment = loaded
    if overrides:
        fragment = _merge_fragments(fragment, overrides)
    return build_config(fragment)


def _merge_fragments(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_fragments(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out
