"""Study orchestration and CLI tests (reduced-size configs)."""

import argparse
import errno
import hashlib
import logging
from pathlib import Path

import pytest

from xrmimo import cli
from xrmimo.config import build_config
from xrmimo.exceptions import SimulationError
from xrmimo.mimo import generate_channel, save_channel
from xrmimo.studies import (
    STUDIES,
    run_all,
    run_ber_study,
    run_latency_study,
    run_power_study,
    run_sensitivity_study,
)

SMALL_SENSITIVITY = {
    "n_trajectories": 2,
    "n_frames": 12,
    "n_landmarks": 150,
    "bootstrap_draws": 500,
    "ber_grid": [1e-4, 1e-2],
}
# Only 25 landmarks: some runs keep fewer than the 3 poses ATE needs.  At
# seed 12345 this excludes one baseline (scenario 3, trajectory 2), single
# trials (scenario 1, trajectory 2, BER 1e-2) and whole trajectories.
EXCLUDING_SENSITIVITY = {
    "n_trajectories": 4,
    "n_frames": 12,
    "n_landmarks": 25,
    "bootstrap_draws": 200,
    "ber_grid": [1e-4, 1e-2],
    "trials": 2,
}
SMALL_BER = {
    "bits_per_point": 100_000,
    "snr_grid_db": [15.0, 20.0],
    "channel": {"subcarriers": 60},
}


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestLatencyStudy:
    def test_zeroed_exec_reproduces_hand_total(self, tmp_path):
        zero_exec = {"kind": "constant", "value": 0.0}
        cfg = build_config({
            "output_dir": str(tmp_path),
            "latency": {"trials": 3},
            "scenarios": {"3": {"device_exec": zero_exec, "offloaded_exec": zero_exec}},
        })
        header, rows = read_rows(run_latency_study(cfg))
        total_b = [r for r in rows if r["structure"] == "B" and r["term"] == "total"]
        assert len(total_b) == 1
        assert float(total_b[0]["mean_s"]) == pytest.approx(9.5568e-3, rel=1e-9)

    def test_default_deadline_verdicts(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path), "latency": {"trials": 10}})
        _, rows = read_rows(run_latency_study(cfg))
        verdicts = {(r["scenario"], r["structure"]): r["meets_deadline"]
                    for r in rows if r["term"] == "total"}
        assert verdicts[("1", "A")] == "false"
        assert sum(v == "true" for v in verdicts.values()) >= 4

    def test_deterministic_bytes(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path), "latency": {"trials": 64}})
        first = run_latency_study(cfg, tmp_path / "a").read_bytes()
        second = run_latency_study(cfg, tmp_path / "b").read_bytes()
        assert first == second


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    out = tmp_path_factory.mktemp("sens")
    return build_config({"output_dir": str(out), "sensitivity": SMALL_SENSITIVITY})


class TestSensitivityStudy:
    def test_rows_and_columns(self, small_config):
        header, rows = read_rows(run_sensitivity_study(small_config))
        assert header == ["scenario", "ber", "boot_mean_pct", "boot_std_pct",
                          "ci_lo_pct", "ci_hi_pct", "n_unsolved"]
        assert len(rows) == 3 * 2  # scenarios x ber grid

    def test_deterministic_bytes(self, small_config, tmp_path):
        first = run_sensitivity_study(small_config, tmp_path / "a").read_bytes()
        second = run_sensitivity_study(small_config, tmp_path / "b").read_bytes()
        assert first == second

    def test_single_trajectory_has_zero_spread(self, tmp_path):
        # One trajectory gives one percentage per (scenario, BER) cell, so
        # the bootstrap distribution is a single point.
        cfg = build_config({"output_dir": str(tmp_path),
                            "sensitivity": {**SMALL_SENSITIVITY, "n_trajectories": 1}})
        _, rows = read_rows(run_sensitivity_study(cfg))
        assert len(rows) == 3 * 2
        assert [r["boot_std_pct"] for r in rows] == ["0"] * len(rows)

    def test_every_trajectory_excluded_raises(self, tmp_path):
        # Six landmarks solve no frame, so every scenario-1 baseline fails.
        cfg = build_config({"output_dir": str(tmp_path),
                            "sensitivity": {**EXCLUDING_SENSITIVITY, "n_landmarks": 6}})
        with pytest.raises(SimulationError,
                           match=r"^scenario 1 ber 0\.0001: every trajectory was excluded$"):
            run_sensitivity_study(cfg)


class TestBerStudy:
    def test_rows_and_singular_comment(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path), "ber": SMALL_BER})
        path = run_ber_study(cfg)
        text = path.read_text()
        assert "# singular_subcarriers_skipped=0" in text
        header, rows = read_rows(path)
        assert header == ["snr_db", "ber", "n_bits", "n_errors"]
        assert len(rows) == 2
        assert int(rows[0]["n_bits"]) >= 100_000

    def test_deterministic_bytes(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path), "ber": SMALL_BER})
        first = run_ber_study(cfg, tmp_path / "a").read_bytes()
        second = run_ber_study(cfg, tmp_path / "b").read_bytes()
        assert first == second


class TestPowerStudy:
    def test_analytic_rows(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path)})
        header, rows = read_rows(run_power_study(cfg))
        assert header == ["ber_target", "snr_db", "power_dbm", "power_mw"]
        by_target = {float(r["ber_target"]): r for r in rows}
        assert float(by_target[1e-4]["snr_db"]) == pytest.approx(24.32, abs=0.05)
        mw = float(by_target[1e-4]["power_mw"])
        assert 10 ** (-3 / 10) * 0.856 <= mw <= 10 ** (3 / 10) * 0.856

    def test_simulated_mode(self, tmp_path):
        cfg = build_config({
            "output_dir": str(tmp_path),
            "ber": {"bits_per_point": 150_000, "snr_grid_db": [16.0, 22.0],
                     "channel": {"subcarriers": 60}},
            "power": {"mode": "simulated", "ber_targets": [1e-2]},
        })
        _, rows = read_rows(run_power_study(cfg))
        snr = float(rows[0]["snr_db"])
        assert 16.0 <= snr <= 22.0

    def test_simulated_mode_reports_singular_subcarriers(self, tmp_path, caplog):
        channel = generate_channel(16, 4, 64, rng=5)
        channel.gains[[3, 10, 11, 40, 63], :, 1] = channel.gains[[3, 10, 11, 40, 63], :, 0]
        save_channel(channel, tmp_path / "ch.bin")
        cfg = build_config({
            "output_dir": str(tmp_path),
            "ber": {"bits_per_point": 50_000, "snr_grid_db": [10.0, 16.0], "modulation_order": 16,
                    "channel": {"source": "files", "paths": [str(tmp_path / "ch.bin")]}},
            "power": {"mode": "simulated", "ber_targets": [1e-2]},
        })
        with caplog.at_level(logging.WARNING, logger="xrmimo"):
            power = run_power_study(cfg).read_text()
            ber = run_ber_study(cfg).read_text()
        assert "# singular_subcarriers_skipped=5\n" in power
        assert "# singular_subcarriers_skipped=5\n" in ber
        assert caplog.messages == ["power study: skipped 5 singular subcarriers",
                                   "ber study: skipped 5 singular subcarriers"]

    def test_deterministic_bytes(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path)})
        first = run_power_study(cfg, tmp_path / "a").read_bytes()
        second = run_power_study(cfg, tmp_path / "b").read_bytes()
        assert first == second


class TestProvenance:
    def test_comment_line_carries_hash_and_seed(self, tmp_path):
        cfg = build_config({"output_dir": str(tmp_path), "seed": 777})
        path = run_power_study(cfg)
        first_line = path.read_text().splitlines()[0]
        assert first_line == f"# config_sha256={cfg.hash} seed=777"

    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch):
        path = run_latency_study(build_config({"output_dir": str(tmp_path),
                                               "latency": {"trials": 4}}))
        before = path.read_bytes()
        write_text = Path.write_text

        def write_half_then_fail(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError):
            run_latency_study(build_config({"output_dir": str(tmp_path),
                                            "latency": {"trials": 8}}))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["latency.csv"]

    def test_run_all_produces_four_files(self, tmp_path):
        cfg = build_config({
            "output_dir": str(tmp_path),
            "latency": {"trials": 4},
            "sensitivity": SMALL_SENSITIVITY,
            "ber": SMALL_BER,
        })
        paths = run_all(cfg)
        names = sorted(p.name for p in paths)
        assert names == ["ber.csv", "latency.csv", "power.csv", "sensitivity.csv"]
        for p in paths:
            assert p.exists()


class TestPinnedBytes:
    """CSV bytes change only when a study's random draws change.

    Digests of acceptance criterion 9's reduced config.  Re-pin one only
    for a change of that study's draws, and record it in CHANGES.md.
    """

    CONFIG = {"latency": {"trials": 32}, "sensitivity": SMALL_SENSITIVITY, "ber": SMALL_BER}

    @pytest.mark.parametrize("study, digest", [
        (run_latency_study, "70c3a785c35be2d08e53c0341cc55f86977ff864e916bfab0b6d0493a0367b3e"),
        (run_sensitivity_study,
         "4dc3c29cebb784d868a6889970c1390ab27fd8620a154a6e0d41657cb24d6fb4"),
        (run_ber_study, "5c372c391efef7db5bf98251c4657ce969139159698fc66a984cff2ab1b02c30"),
        (run_power_study, "3a2ec81558eec5c6dc1df39591b882281924fa85479b66df7d45430f46b8c8c3"),
    ], ids=["latency", "sensitivity", "ber", "power"])
    def test_sha256(self, study, digest, tmp_path):
        path = study(build_config(self.CONFIG), out_dir=tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # The default config's CSVs, as ``xrmimo all`` writes them (the default
    # sensitivity study takes seconds and is left out).
    @pytest.mark.parametrize("study, digest", [
        (run_latency_study, "32e2e24c958dd6f7034dadf4219d086e0fa377f79a34abf79a62db9e4d09e845"),
        (run_ber_study, "0967623624ef2f70296bf815a7b70b25808de700af944bc70f24e14ead4f7de4"),
        (run_power_study, "4ab301abab5e8b124967a6227a10f4f501d194a84e3c6c80d610bf8b013ec9fb"),
    ], ids=["latency", "ber", "power"])
    def test_default_config_sha256(self, study, digest, tmp_path):
        path = study(build_config(), out_dir=tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_sensitivity_exclusions_sha256(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="xrmimo"):
            path = run_sensitivity_study(build_config({"sensitivity": EXCLUDING_SENSITIVITY}),
                                         out_dir=tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a13ede29eb7e6f296e32c16e04dab8a721d7c2d4c527d945c53b77dc6f2e4b49")
        # Every excluded run and every cell that lost trajectories is logged.
        assert [m.split(" (")[0] for m in caplog.messages] == [
            "scenario 1 trajectory 2 ber 0.01 trial 0: run excluded",
            "scenario 2 trajectory 0 ber 0.01 trial 0: run excluded",
            "scenario 2 trajectory 1 ber 0.01 trial 0: run excluded",
            "scenario 2 trajectory 2 ber 0.01 trial 0: run excluded",
            "scenario 3 trajectory 2 ber 0 trial 0: run excluded",
            "scenario 3 ber 0.0001: 1 trajectories excluded",
            "scenario 3 trajectory 0 ber 0.01 trial 1: run excluded",
            "scenario 3 trajectory 1 ber 0.01 trial 0: run excluded",
            "scenario 3 trajectory 1 ber 0.01 trial 1: run excluded",
            "scenario 3 ber 0.01: 2 trajectories excluded",
        ]


class TestCli:
    def test_subcommands_are_the_study_table_and_all(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [*STUDIES, "all"]
        assert list(STUDIES) == ["latency", "sensitivity", "ber", "power"]

    def test_latency_subcommand(self, tmp_path, capsys):
        code = cli.main(["latency", "--out", str(tmp_path), "--trials", "4"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("latency.csv")
        assert (tmp_path / "latency.csv").exists()

    def test_config_file_and_seed_override(self, tmp_path):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("latency:\n  trials: 2\n")
        code = cli.main(["power", "--config", str(config_path), "--seed", "9",
                         "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert "seed=9" in (tmp_path / "power.csv").read_text().splitlines()[0]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "bad.yaml"
        config_path.write_text("latency:\n  trails: 2\n")
        code = cli.main(["latency", "--config", str(config_path), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["latency", "--config", str(tmp_path / "nope.yaml")])
        assert code == 1

    def test_all_subcommand(self, tmp_path):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text(
            "latency: {trials: 4}\n"
            "sensitivity: {n_trajectories: 2, n_frames: 12, n_landmarks: 150,\n"
            "  bootstrap_draws: 200, ber_grid: [1.0e-3]}\n"
            "ber: {bits_per_point: 50000, snr_grid_db: [18.0],\n"
            "  channel: {subcarriers: 40}}\n"
        )
        code = cli.main(["all", "--config", str(config_path), "--out", str(tmp_path),
                         "--quiet"])
        assert code == 0
        for name in ("latency.csv", "sensitivity.csv", "ber.csv", "power.csv"):
            assert (tmp_path / name).exists()
