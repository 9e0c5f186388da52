"""The names the benchmark patches and replays must stay resolvable.

``perfbench`` wraps the functions listed in its ``TRACED`` tables in spans
by attribute name, and its counting round replays ``run_pipeline`` stage by
stage through the stage functions it imports.  These tests read those
tables and names without changing them.  One traced run per workload also
checks that every benchmark call still passes the benchmark's own output
checks.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import xrmimo.biterrors
import xrmimo.sandbox
import xrmimo.sandbox.pipeline as pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = [w["name"] for w in
             json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
SANDBOX_STAGES = ("observe", "encode_payload", "decode_payload", "match_features", "solve_pose")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["uplink_load", "sandbox_load"])
def test_traced_targets_are_callable(name):
    for owner, attr, span, _ in _load(name).TRACED:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"


def test_replayed_stages_are_the_pipeline_globals():
    sandbox_load = _load("sandbox_load")
    assert {attr for _, attr, _, _ in sandbox_load.TRACED} == {*SANDBOX_STAGES, "corrupt"}
    for stage in SANDBOX_STAGES:
        exported = getattr(xrmimo.sandbox, stage)
        assert exported is getattr(pipeline, stage) is getattr(sandbox_load, stage), stage
    assert xrmimo.biterrors.corrupt is pipeline.corrupt is sandbox_load.corrupt


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_has_no_failed_calls(workload):
    # One untimed reference round and one traced pair; writes only the
    # git-ignored .perfbench_out/ beside perfbench/.
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, run.stdout
