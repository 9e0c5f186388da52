"""Experiment configuration: one schema table, strict validation, hashing.

Configs are YAML (JSON is a subset) with nested sections.  ``SCHEMA``
writes every setting once, with its check and its default, and one walk
(``_resolve``) validates a fragment and fills in the defaults.  Unknown
keys raise with their dotted path so sweep typos fail loudly.  Scalar
settings deep-merge over the defaults; the ``frame_structures`` and
``scenarios`` tables are replaced wholesale when present, which is how a
sweep narrows or extends the grid.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .exceptions import ConfigurationError
from .frames import (
    BITS_PER_QAM_SYMBOL,
    POSE_RECORD_BITS,
    ExecKind,
    ExecTimeModel,
    ExecTimePair,
    FrameStructure,
    SymbolRole,
)
from .linkbudget import LinkBudgetConfig
from .modem import VALID_QAM_ORDERS, qam_ber_approx
from .scenarios import SCENARIO_IDS, SCENARIO_UL_BITS


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


# Leaf checkers: each factory returns ``check(value, path)``, which raises
# ``ConfigurationError`` naming ``path`` or returns the normalised value.

def _int(minimum=None, choices=None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            _fail(path, f"must be >= {minimum}, got {value}")
        if choices is not None and value not in choices:
            _fail(path, f"must be one of {', '.join(map(str, choices))}, got {value}")
        return int(value)
    return check


def _float(at_least=None, above=None, below=None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError:
            _fail(path, f"must be finite, got {value}")
        if not math.isfinite(v):
            _fail(path, f"must be finite, got {v}")
        if at_least is not None and v < at_least:
            _fail(path, f"must be >= {at_least}, got {v}")
        if above is not None and not v > above:
            _fail(path, f"must be > {above}, got {v}")
        if below is not None and not v < below:
            _fail(path, f"must be < {below}, got {v}")
        return v
    return check


def _str(choices=None):
    def check(value, path):
        if not isinstance(value, str):
            _fail(path, f"expected a string, got {value!r}")
        if choices is not None and value not in choices:
            _fail(path, f"must be one of {sorted(choices)}, got {value!r}")
        return value
    return check


def _list(item, distinct=False, allow_empty=False):
    def check(value, path):
        if not isinstance(value, list) or not (value or allow_empty):
            _fail(path, "expected a list" if allow_empty else "expected a non-empty list")
        out = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
        if distinct and len(set(out)) != len(out):
            _fail(path, f"duplicate values in {out}")
        return out
    return check


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _grid(**bounds):
    """A sweep axis: a non-empty list of distinct finite numbers."""
    return _list(_float(**bounds), distinct=True)


_ROLES = _list(_str(tuple(role.value for role in SymbolRole)))


def _layout(value, path: str) -> list:
    roles = _ROLES(value, path)
    if SymbolRole.UPLINK_DATA.value not in roles or SymbolRole.DOWNLINK_DATA.value not in roles:
        _fail(path, "needs at least one 'ul' and one 'dl' symbol")
    return roles


_EXEC_MODELS = {
    ExecKind.CONSTANT.value: {"value": (_float(at_least=0.0), 0.0)},
    ExecKind.EMPIRICAL.value: {"samples": (_list(_float(at_least=0.0)), None)},
    ExecKind.TRUNCATED_NORMAL.value: {"mean": (_float(at_least=0.0), 0.0),
                                      "std": (_float(at_least=0.0), 0.0)},
}
_EXEC_KIND = _str(tuple(_EXEC_MODELS))


def _exec_model(value, path: str) -> dict:
    """An execution-time model; its ``kind`` decides which fields may follow."""
    value = _require_mapping(value, path)
    kind = _EXEC_KIND(value.get("kind", ""), f"{path}.kind")
    return _resolve({"kind": (_EXEC_KIND, kind), **_EXEC_MODELS[kind]}, value, path)


def _table(entry, what: str):
    """A table replaced wholesale; ``entry(key, path)`` gives each row's name and schema."""
    def check(value, path):
        value = _require_mapping(value, path)
        if not value:
            _fail(path, f"at least one {what} is required")
        out = {}
        for key, row in value.items():
            name, schema = entry(key, f"{path}.{key}")
            if name in out:
                _fail(f"{path}.{key}", f"names the {what} {name!r} a second time")
            out[name] = _resolve(schema, row, f"{path}.{name}")
        return out
    return check


_FRAME_STRUCTURE = {
    "layout": (_layout, None),  # no default: a structure must give its layout
    "n_subcarriers": (_int(minimum=1), 1200),
    "bits_per_qam_symbol": (_int(choices=BITS_PER_QAM_SYMBOL), 6),
    "tau_symb": (_float(above=0.0), 71.4e-6),
}


def _frame_structure(key, path: str):
    return str(key), _FRAME_STRUCTURE


def _scenario(key, path: str):
    if isinstance(key, str) and key.isascii() and key.isdigit():
        sid = int(key)
    elif isinstance(key, int) and not isinstance(key, bool):
        sid = key
    else:
        _fail(path, "scenario keys must be integers")
    if sid not in SCENARIO_IDS:
        _fail(path, f"scenario id must be one of {SCENARIO_IDS}")
    no_exec = {"kind": ExecKind.CONSTANT.value}
    return str(sid), {
        "ul_payload_bits": (_int(minimum=1), SCENARIO_UL_BITS[sid]),
        "device_exec": (_exec_model, no_exec),
        "offloaded_exec": (_exec_model, no_exec),
    }


def _constant_exec(value: float) -> dict:
    return {"kind": ExecKind.CONSTANT.value, "value": value}


_QAM_ORDER = _int(choices=VALID_QAM_ORDERS)
_BUDGET = LinkBudgetConfig()  # the link-budget defaults live on the dataclass

# Every setting once.  A section is a nested mapping; a leaf is
# ``(check, default)`` and the default goes through the same check.
SCHEMA = {
    "seed": (_int(minimum=0), 12345),
    "output_dir": (_str(), "results"),
    "frame_structures": (_table(_frame_structure, "frame structure"), {
        "A": {"layout": ["pilot", "ul", "ul", "ul", "ul", "pilot", "dl", "dl", "dl", "dl"]},
        "B": {"layout": ["pilot", "ul", "ul", "ul", "ul", "ul", "ul", "ul", "ul", "dl"]},
    }),
    # Execution-time constants are placeholders, not measurements;
    # feature-extracting scenarios take > 2x the device time of scenario 1.
    "scenarios": (_table(_scenario, "scenario"), {
        "1": {"device_exec": _constant_exec(0.015), "offloaded_exec": _constant_exec(0.025)},
        "2": {"device_exec": _constant_exec(0.035), "offloaded_exec": _constant_exec(0.018)},
        "3": {"device_exec": _constant_exec(0.035), "offloaded_exec": _constant_exec(0.015)},
    }),
    "latency": {
        "trials": (_int(minimum=1), 1000),
        "deadline_s": (_float(above=0.0), 0.200),
        "tau_bs_s": (_float(at_least=0.0), 132e-6),
        "dl_payload_bits": (_int(minimum=1), POSE_RECORD_BITS),
    },
    "sensitivity": {
        "ber_grid": (_grid(above=0.0, below=0.5), [1e-5, 1e-4, 1e-3, 1e-2]),
        "scenarios": (_list(_int(choices=SCENARIO_IDS), distinct=True), list(SCENARIO_IDS)),
        "n_trajectories": (_int(minimum=1), 10),
        "n_frames": (_int(minimum=2), 100),
        "trials": (_int(minimum=1), 1),
        "n_landmarks": (_int(minimum=4), 400),
        "bootstrap_draws": (_int(minimum=1), 10000),
        "ci_level": (_float(above=0.0, below=1.0), 0.95),
    },
    "ber": {
        "snr_grid_db": (_grid(), [10.0, 15.0, 20.0, 24.32]),
        "bits_per_point": (_int(minimum=1), 10_000_000),
        "modulation_order": (_QAM_ORDER, 64),
        "channel": {
            "source": (_str(("synthetic", "files")), "synthetic"),
            "antennas": (_int(minimum=2), 100),
            "users": (_int(minimum=1), 10),
            "subcarriers": (_int(minimum=1), 1200),
            "paths": (_list(_str(), allow_empty=True), []),
        },
    },
    "power": {
        "ber_targets": (_grid(above=0.0, below=0.5), [1e-4, 1e-5]),
        "modulation_order": (_QAM_ORDER, 64),
        "mode": (_str(("analytic", "simulated")), "analytic"),
        "link_budget": {
            "carrier_hz": (_float(above=0.0), _BUDGET.carrier_hz),
            "bandwidth_hz": (_float(above=0.0), _BUDGET.bandwidth_hz),
            "distance_m": (_float(above=0.0), _BUDGET.distance_m),
            "temperature_k": (_float(above=0.0), _BUDGET.temperature_k),
            "noise_figure_db": (_float(), _BUDGET.noise_figure_db),
            "fading_margin_db": (_float(), _BUDGET.fading_margin_db),
            "antennas": (_int(minimum=1), _BUDGET.antennas),
            "users": (_int(minimum=1), _BUDGET.users),
            "array_gain_db": (_optional(_float()), _BUDGET.array_gain_db),
        },
    },
}


def _resolve(schema: dict, raw, path: str) -> dict:
    """Check ``raw`` against ``schema`` and fill in every default, in one pass."""
    raw = _require_mapping(raw, path)
    _check_unknown(raw, schema, path)
    out = {}
    for key, spec in schema.items():
        sub = key if path == "<config>" else f"{path}.{key}"
        if isinstance(spec, dict):
            out[key] = _resolve(spec, raw.get(key, {}), sub)
        else:
            check, default = spec
            out[key] = check(raw.get(key, default), sub)
    return out


def config_hash(resolved: dict) -> str:
    """Hash of the settings that shape results; where they are written is left out."""
    settings = {key: value for key, value in resolved.items() if key != "output_dir"}
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
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
        return {name: FrameStructure(name=name, **entry)
                for name, entry in sorted(self.resolved["frame_structures"].items())}

    def scenario_ids(self) -> list:
        return sorted(int(k) for k in self.resolved["scenarios"])

    def scenario_payload_bits(self) -> dict:
        return {int(k): v["ul_payload_bits"] for k, v in self.resolved["scenarios"].items()}

    def exec_models(self) -> dict:
        return {int(key): ExecTimePair(device=ExecTimeModel(**entry["device_exec"]),
                                       offloaded=ExecTimeModel(**entry["offloaded_exec"]))
                for key, entry in self.resolved["scenarios"].items()}

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


def build_config(fragment: dict | None = None) -> ExperimentConfig:
    """Validate a config fragment and resolve it over the defaults."""
    resolved = _resolve(SCHEMA, fragment or {}, "<config>")
    if resolved["ber"]["channel"]["source"] == "synthetic":
        chan = resolved["ber"]["channel"]
        if chan["antennas"] <= chan["users"]:
            _fail("ber.channel", "antennas must exceed users")
    elif not resolved["ber"]["channel"]["paths"]:
        _fail("ber.channel.paths", "file source needs at least one path")
    budget = resolved["power"]["link_budget"]
    if budget["antennas"] <= budget["users"]:
        _fail("power.link_budget", "antennas must exceed users")
    if resolved["power"]["mode"] == "simulated":
        _check_simulated_targets(resolved["power"], resolved["ber"]["snr_grid_db"])
    return ExperimentConfig(resolved=resolved)


def _check_simulated_targets(power: dict, snr_grid_db: list) -> None:
    """Fail unless the analytic BER over the simulated SNR grid spans every target.

    The simulated study interpolates each target between measured points
    of that grid, so a target outside the analytic range would fail only
    after the whole Monte Carlo.
    """
    snr = 10.0 ** (np.asarray(snr_grid_db, dtype=float) / 10.0)
    ber = qam_ber_approx(snr, power["modulation_order"])
    lo, hi = float(ber.min()), float(ber.max())
    outside = [t for t in power["ber_targets"] if not lo <= t <= hi]
    if outside:
        _fail("power.ber_targets",
              f"{outside} outside the analytic BER range [{lo:.3e}, {hi:.3e}] of "
              f"ber.snr_grid_db for {power['modulation_order']}-QAM")


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
