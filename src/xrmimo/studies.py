"""Experiment studies: sweeps over (scenario, frame structure, BER) with CSV output.

Every study derives its random streams from the master seed through
``SeedSequence(master, spawn_key=(study_id, ...))`` with study ids
latency=1, sensitivity=2, ber=3, power=4, so identical configs produce
byte-identical CSVs.  Each CSV starts with a provenance comment carrying
the config hash and seed.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path

import numpy as np

from . import frames
from .config import ExperimentConfig
from .exceptions import SimulationError
from .linkbudget import (
    LinkBudgetConfig,
    required_tx_power,
    snr_target_for_ber,
    snr_target_from_curve,
)
from .metrics import ate_translation, bootstrap_stats, trajectory_error_percentages
from .mimo import ber_curve, generate_channel, load_channels
from .modem import QamConstellation
from .sandbox import CameraModel, generate_scene, generate_trajectory, run_pipeline
from .seeding import generator, seed_sequence

log = logging.getLogger("xrmimo")

STUDY_LATENCY = 1
STUDY_SENSITIVITY = 2
STUDY_BER = 3
STUDY_POWER = 4

LATENCY_CSV_HEADER = ("scenario", "structure", "term", "mean_s", "std_s", "worst_s",
                      "meets_deadline")
SENSITIVITY_CSV_HEADER = ("scenario", "ber", "boot_mean_pct", "boot_std_pct",
                          "ci_lo_pct", "ci_hi_pct", "n_unsolved")
BER_CSV_HEADER = ("snr_db", "ber", "n_bits", "n_errors")
POWER_CSV_HEADER = ("ber_target", "snr_db", "power_dbm", "power_mw")


def _format_value(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _write_csv(path: Path, header, rows, config: ExperimentConfig,
               extra_comments=()) -> Path:
    """Write the CSV to a temporary sibling and rename it over ``path``.

    The rename is atomic, so an interrupted run leaves either the previous
    file or the complete new one, never a truncated file that still carries
    a valid provenance line.
    """
    lines = [f"# config_sha256={config.hash} seed={config.seed}"]
    lines.extend(extra_comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_text("\n".join(lines) + "\n", encoding="ascii")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def _resolve_out_dir(config: ExperimentConfig, out_dir) -> Path:
    return Path(out_dir) if out_dir is not None else config.output_dir


def run_latency_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Mean, deviation, and worst case of every latency term per combination."""
    structures = config.frame_structures()
    exec_models = config.exec_models()
    payload_bits = config.scenario_payload_bits()
    settings = config.latency
    rows = []
    for scenario in config.scenario_ids():
        for struct_idx, (name, fs) in enumerate(sorted(structures.items())):
            series = frames.pose_latency(
                exec_models[scenario], fs, payload_bits[scenario], settings["dl_payload_bits"],
                settings["tau_bs_s"], generator(config.seed, STUDY_LATENCY, scenario, struct_idx),
                settings["trials"])
            meets = bool(series["total"].mean() <= settings["deadline_s"])
            for term, values in series.items():
                rows.append((scenario, name, term, float(values.mean()),
                             float(values.std(ddof=0)), float(values.max()), meets))
    out = _resolve_out_dir(config, out_dir) / "latency.csv"
    return _write_csv(out, LATENCY_CSV_HEADER, rows, config)


def run_sensitivity_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Bootstrap-aggregated normalised localisation error per (scenario, BER).

    Each trajectory gets its own scene; the no-corruption run of the same
    scenario and trajectory is the normalisation baseline.  Trajectories
    whose error metric cannot be computed are excluded and reported.
    """
    settings = config.sensitivity
    camera = CameraModel()
    ber_grid = list(settings["ber_grid"])
    scenario_ids = list(settings["scenarios"])
    n_traj = settings["n_trajectories"]
    trials = settings["trials"]

    scenes = []
    trajectories = []
    for traj_idx in range(n_traj):
        scenes.append(generate_scene(settings["n_landmarks"],
                                     rng=seed_sequence(config.seed, STUDY_SENSITIVITY,
                                                       traj_idx, 0)))
        trajectories.append(generate_trajectory(settings["n_frames"],
                                                rng=seed_sequence(config.seed,
                                                                  STUDY_SENSITIVITY,
                                                                  traj_idx, 1)))

    rows = []
    for scenario in scenario_ids:
        baselines = {}
        for traj_idx in range(n_traj):
            estimate = run_pipeline(
                scenes[traj_idx], camera, trajectories[traj_idx], scenario, 0.0,
                rng=seed_sequence(config.seed, STUDY_SENSITIVITY, traj_idx, 2, scenario, 0, 0),
            )
            try:
                baselines[traj_idx] = ate_translation(estimate, trajectories[traj_idx]).rmse
            except SimulationError as exc:
                log.warning("scenario %d trajectory %d: baseline excluded (%s)",
                            scenario, traj_idx, exc)
        for ber_idx, ber in enumerate(sorted(ber_grid)):
            per_traj_runs = []
            per_traj_baselines = []
            n_unsolved = 0
            n_excluded = 0
            for traj_idx in range(n_traj):
                if traj_idx not in baselines:
                    n_excluded += 1
                    continue
                run_errors = []
                for trial in range(trials):
                    estimate = run_pipeline(
                        scenes[traj_idx], camera, trajectories[traj_idx], scenario, ber,
                        rng=seed_sequence(config.seed, STUDY_SENSITIVITY, traj_idx, 2,
                                          scenario, ber_idx + 1, trial),
                    )
                    n_unsolved += estimate.n_unsolved
                    try:
                        run_errors.append(ate_translation(estimate,
                                                          trajectories[traj_idx]).rmse)
                    except SimulationError as exc:
                        log.warning("scenario %d trajectory %d ber %g: run excluded (%s)",
                                    scenario, traj_idx, ber, exc)
                if run_errors:
                    per_traj_runs.append(run_errors)
                    per_traj_baselines.append(baselines[traj_idx])
                else:
                    n_excluded += 1
            if not per_traj_runs:
                raise SimulationError(
                    f"scenario {scenario} ber {ber}: every trajectory was excluded"
                )
            if n_excluded:
                log.warning("scenario %d ber %g: %d trajectories excluded",
                            scenario, ber, n_excluded)
            percentages = trajectory_error_percentages(per_traj_runs, per_traj_baselines)
            stats = bootstrap_stats(percentages, n_draws=settings["bootstrap_draws"],
                                    ci_level=settings["ci_level"],
                                    rng=generator(config.seed, STUDY_SENSITIVITY, 999,
                                                  scenario, ber_idx))
            rows.append((scenario, ber, stats.mean, stats.std, stats.ci_low,
                         stats.ci_high, n_unsolved))
    out = _resolve_out_dir(config, out_dir) / "sensitivity.csv"
    return _write_csv(out, SENSITIVITY_CSV_HEADER, rows, config)


def _build_channel(config: ExperimentConfig, study_id: int):
    chan = config.ber["channel"]
    if chan["source"] == "synthetic":
        return generate_channel(chan["antennas"], chan["users"], chan["subcarriers"],
                                rng=seed_sequence(config.seed, study_id, 0))
    return load_channels(chan["paths"])


def run_ber_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Monte-Carlo uncoded BER over the configured SNR grid and channel."""
    settings = config.ber
    channel = _build_channel(config, STUDY_BER)
    curve = ber_curve(
        channel, settings["snr_grid_db"], settings["bits_per_point"],
        seed=seed_sequence(config.seed, STUDY_BER, 1),
        constellation=QamConstellation(settings["modulation_order"]),
    )
    if curve.n_singular_subcarriers:
        log.warning("ber study: skipped %d singular subcarriers",
                    curve.n_singular_subcarriers)
    rows = [(p.snr_db, p.ber, p.n_bits, p.n_errors) for p in curve]
    out = _resolve_out_dir(config, out_dir) / "ber.csv"
    extra = (f"# singular_subcarriers_skipped={curve.n_singular_subcarriers}",)
    return _write_csv(out, BER_CSV_HEADER, rows, config, extra_comments=extra)


def run_power_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Required device transmit power for each target uncoded BER."""
    settings = config.power
    budget = LinkBudgetConfig(**settings["link_budget"])
    curve = None
    if settings["mode"] == "simulated":
        channel = _build_channel(config, STUDY_POWER)
        curve = ber_curve(
            channel, config.ber["snr_grid_db"], config.ber["bits_per_point"],
            seed=seed_sequence(config.seed, STUDY_POWER, 1),
            constellation=QamConstellation(settings["modulation_order"]),
        )
    rows = []
    for target in settings["ber_targets"]:
        if curve is None:
            snr_db = snr_target_for_ber(target, settings["modulation_order"])
        else:
            snr_db = snr_target_from_curve(target, [(p.snr_db, p.ber) for p in curve])
        power = required_tx_power(snr_db, budget)
        rows.append((target, snr_db, power.dbm, power.mw))
    out = _resolve_out_dir(config, out_dir) / "power.csv"
    return _write_csv(out, POWER_CSV_HEADER, rows, config)


def run_all(config: ExperimentConfig, out_dir=None) -> list:
    return [
        run_latency_study(config, out_dir),
        run_sensitivity_study(config, out_dir),
        run_ber_study(config, out_dir),
        run_power_study(config, out_dir),
    ]
