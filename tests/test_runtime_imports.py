"""The runtime imports nothing beyond the standard library, numpy and PyYAML."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xrmimo

RUNTIME_PACKAGES = {"numpy", "yaml", "xrmimo"}

# Run in a fresh interpreter: lists the top-level packages that ``action``
# loads, leaving out the standard library and what start-up had loaded.
# Modules without a spec were not imported: numpy's Cython extensions
# register their runtime (``cython_runtime``, ``_cython_3_1_4``) that way.
PROBE = """
import runpy, sys
before = set(sys.modules)
{action}
loaded = {{name.partition(".")[0] for name, module in list(sys.modules.items())
          if name not in before and getattr(module, "__spec__", None) is not None}}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))), file=sys.stderr)
"""

ACTIONS = {
    "import xrmimo": "import xrmimo",
    "python -m xrmimo --help": (
        "sys.argv = ['xrmimo', '--help']\n"
        "try:\n"
        "    runpy.run_module('xrmimo', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    ),
}


def loaded_packages(action: str) -> set:
    src = str(Path(xrmimo.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", PROBE.format(action=action)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    return set(run.stderr.split())


@pytest.mark.parametrize("action", sorted(ACTIONS))
def test_runtime_loads_only_numpy_and_yaml(action):
    loaded = loaded_packages(ACTIONS[action])
    assert "xrmimo" in loaded
    assert loaded <= RUNTIME_PACKAGES, sorted(loaded - RUNTIME_PACKAGES)


def test_import_leaves_yaml_unloaded():
    # Only ``load_config`` with a file reads YAML, so it imports PyYAML itself.
    loaded = loaded_packages(ACTIONS["import xrmimo"] + "\nassert 'yaml' not in sys.modules")
    assert "xrmimo" in loaded and "yaml" not in loaded


def test_import_leaves_thread_pool_unloaded():
    # ``parallel.in_two_halves`` imports ``concurrent.futures`` only when it
    # splits: for ``run_pipeline``'s link stage of a block, or for
    # ``ber_curve``'s SNR points.
    loaded = loaded_packages(ACTIONS["import xrmimo"]
                             + "\nassert 'concurrent.futures' not in sys.modules")
    assert "xrmimo" in loaded
