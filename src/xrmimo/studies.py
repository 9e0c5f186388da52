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
from .mimo import BerCurve, ber_curve, generate_channel, load_channels
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


def _write_csv(config: ExperimentConfig, out_dir, name: str, header, rows,
               extra_comments=()) -> Path:
    """Write ``name`` into ``out_dir`` (default: the config's output directory).

    The CSV goes to a temporary sibling that is renamed over the target.
    The rename is atomic, so an interrupted run leaves either the previous
    file or the complete new one, never a truncated file that still carries
    a valid provenance line.
    """
    lines = [f"# config_sha256={config.hash} seed={config.seed}"]
    lines.extend(extra_comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path = (Path(out_dir) if out_dir is not None else config.output_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_text("\n".join(lines) + "\n", encoding="ascii")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def run_latency_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Pose-correction latency per scenario and frame structure, term by term.

    Each row is the mean, deviation and worst case of one latency term.
    """
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
    return _write_csv(config, out_dir, "latency.csv", LATENCY_CSV_HEADER, rows)


def _score_runs(config: ExperimentConfig, worlds, traj_ids, scenario: int, ber: float,
                ber_key: int, trials: int):
    """ATE RMSE of each sandbox run, per trajectory, and the unsolved frames of all runs.

    Run ``trial`` of trajectory ``t`` draws from
    ``seed_sequence(seed, 2, t, 2, scenario, ber_key, trial)``.  A run whose
    ATE cannot be computed is logged and left out; a trajectory with no
    scored run is left out of the returned mapping.
    """
    camera = CameraModel()
    errors = {}
    n_unsolved = 0
    for traj_idx in traj_ids:
        scene, truth = worlds[traj_idx]
        for trial in range(trials):
            estimate = run_pipeline(
                scene, camera, truth, scenario, ber,
                rng=seed_sequence(config.seed, STUDY_SENSITIVITY, traj_idx, 2, scenario,
                                  ber_key, trial),
            )
            n_unsolved += estimate.n_unsolved
            try:
                rmse = ate_translation(estimate, truth).rmse
            except SimulationError as exc:
                log.warning("scenario %d trajectory %d ber %g trial %d: run excluded (%s)",
                            scenario, traj_idx, ber, trial, exc)
                continue
            errors.setdefault(traj_idx, []).append(rmse)
    return errors, n_unsolved


def run_sensitivity_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Normalised localisation error versus bit error rate, per scenario.

    Each (scenario, BER) cell is a bootstrap over per-trajectory errors,
    and each trajectory gets its own scene.  The no-corruption run of the
    same scenario and trajectory (BER 0, ``ber_key`` 0) is the normalisation
    baseline, and BER ``i`` of the sorted grid is ``ber_key`` ``i + 1``.  A
    trajectory whose baseline or every BER run cannot be scored is excluded
    and reported; a cell with no trajectory left fails the study.
    """
    settings = config.sensitivity
    n_traj = settings["n_trajectories"]
    worlds = [
        (generate_scene(settings["n_landmarks"],
                        rng=seed_sequence(config.seed, STUDY_SENSITIVITY, traj_idx, 0)),
         generate_trajectory(settings["n_frames"],
                             rng=seed_sequence(config.seed, STUDY_SENSITIVITY, traj_idx, 1)))
        for traj_idx in range(n_traj)
    ]
    rows = []
    for scenario in settings["scenarios"]:
        baselines, _ = _score_runs(config, worlds, range(n_traj), scenario, 0.0, 0, 1)
        for ber_idx, ber in enumerate(sorted(settings["ber_grid"])):
            runs, n_unsolved = _score_runs(config, worlds, list(baselines), scenario, ber,
                                           ber_idx + 1, settings["trials"])
            if not runs:
                raise SimulationError(
                    f"scenario {scenario} ber {ber}: every trajectory was excluded"
                )
            if len(runs) < n_traj:
                log.warning("scenario %d ber %g: %d trajectories excluded",
                            scenario, ber, n_traj - len(runs))
            percentages = trajectory_error_percentages(
                list(runs.values()), [baselines[traj_idx][0] for traj_idx in runs])
            stats = bootstrap_stats(percentages, n_draws=settings["bootstrap_draws"],
                                    ci_level=settings["ci_level"],
                                    rng=generator(config.seed, STUDY_SENSITIVITY, 999,
                                                  scenario, ber_idx))
            rows.append((scenario, ber, stats.mean, stats.std, stats.ci_low,
                         stats.ci_high, n_unsolved))
    return _write_csv(config, out_dir, "sensitivity.csv", SENSITIVITY_CSV_HEADER, rows)


def _simulate_ber(config: ExperimentConfig, study_id: int) -> tuple[BerCurve, tuple]:
    """Monte-Carlo BER over ``ber.snr_grid_db`` on the configured channel and QAM order.

    Serves the BER study and the simulated power study.  Returns the curve
    and the CSV comment line counting the singular subcarriers skipped,
    which are also logged.
    """
    settings = config.ber
    chan = settings["channel"]
    if chan["source"] == "synthetic":
        channel = generate_channel(chan["antennas"], chan["users"], chan["subcarriers"],
                                   rng=seed_sequence(config.seed, study_id, 0))
    else:
        channel = load_channels(chan["paths"])
    curve = ber_curve(channel, settings["snr_grid_db"], settings["bits_per_point"],
                      seed=seed_sequence(config.seed, study_id, 1),
                      constellation=QamConstellation(settings["modulation_order"]))
    skipped = curve.n_singular_subcarriers
    if skipped:
        log.warning("%s study: skipped %d singular subcarriers",
                    "ber" if study_id == STUDY_BER else "power", skipped)
    return curve, (f"# singular_subcarriers_skipped={skipped}",)


def run_ber_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Monte-Carlo uncoded BER versus post-equalisation SNR on the configured channel."""
    curve, extra = _simulate_ber(config, STUDY_BER)
    rows = [(p.snr_db, p.ber, p.n_bits, p.n_errors) for p in curve]
    return _write_csv(config, out_dir, "ber.csv", BER_CSV_HEADER, rows, extra_comments=extra)


def run_power_study(config: ExperimentConfig, out_dir=None) -> Path:
    """Required device transmit power for each target uncoded BER."""
    settings = config.power
    budget = LinkBudgetConfig(**settings["link_budget"])
    curve, extra = None, ()
    if settings["mode"] == "simulated":
        curve, extra = _simulate_ber(config, STUDY_POWER)
    rows = []
    for target in settings["ber_targets"]:
        if curve is None:
            snr_db = snr_target_for_ber(target, config.ber["modulation_order"])
        else:
            snr_db = snr_target_from_curve(target, [(p.snr_db, p.ber) for p in curve])
        power = required_tx_power(snr_db, budget)
        rows.append((target, snr_db, power.dbm, power.mw))
    return _write_csv(config, out_dir, "power.csv", POWER_CSV_HEADER, rows,
                      extra_comments=extra)


def run_all(config: ExperimentConfig, out_dir=None) -> list:
    """Run every study."""
    return [study(config, out_dir) for study in STUDIES.values()]


# Each study by its CLI subcommand name, in the order ``run_all`` runs them.
STUDIES = {
    "latency": run_latency_study,
    "sensitivity": run_sensitivity_study,
    "ber": run_ber_study,
    "power": run_power_study,
}
