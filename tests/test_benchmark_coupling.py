"""The names the benchmark patches and replays must stay resolvable.

``perfbench`` wraps the functions listed in its ``TRACED`` tables in spans
by attribute name, and its counting round replays ``run_pipeline`` stage by
stage through the stage functions it imports.  These tests read those
tables and names without changing them.
"""

import importlib.util
from pathlib import Path

import pytest

import xrmimo.biterrors
import xrmimo.sandbox
import xrmimo.sandbox.pipeline as pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
