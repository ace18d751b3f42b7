"""Each command loads only the layers it runs; every module imports on its own.

Each check runs in a fresh interpreter, so the modules this test session
has already imported do not hide a load.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import guidelab

from test_experiment_cli import small_config, write_config
from test_par import FIXTURES

SRC = Path(guidelab.__file__).parents[1]
SUBMODULES = sorted(f"guidelab.{m.name}" for m in pkgutil.iter_modules(guidelab.__path__))

# The modules whose load LOADED reports, beside guidelab's own.
PROBED = ("numpy", "numpy.ma", "orjson", "inspect", "csv")
# Prints which guidelab modules and which PROBED modules were loaded, as the last line of stdout.
LOADED = f"import json, sys; print(json.dumps({{**{{m: m in sys.modules for m in {PROBED!r}}}, " \
         "'guidelab': sorted(m for m in sys.modules if m.startswith('guidelab'))}))"


def loaded_after(code):
    """{module in PROBED: bool, ..., 'guidelab': [module names]} after code in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"], capture_output=True, text=True,
                         check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def after_main(argv):
    return loaded_after(f"from guidelab.cli import main\nassert main({argv!r}) == 0")


def test_cli_import_loads_only_config():
    loaded = loaded_after("import guidelab.cli")
    assert not loaded["numpy"]
    assert not loaded["orjson"]
    # only the commands that write a CSV file load the csv module
    assert not loaded["csv"]
    assert loaded["guidelab"] == ["guidelab", "guidelab.cli", "guidelab.config"]


def test_par_generate_leaves_numpy_unloaded(tmp_path):
    config = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    loaded = after_main(["par-generate", "--config", str(config), str(prompts), "--mock", str(FIXTURES),
                         "--out", str(tmp_path / "out")])
    assert not loaded["numpy"]
    assert not loaded["orjson"]
    assert not loaded["csv"]
    assert (tmp_path / "out" / "corpus.jsonl").exists()


@pytest.mark.parametrize("command", ["sample", "compare-guidance"])
def test_sampling_commands_leave_par_and_diagnostics_unloaded(tmp_path, command):
    config = write_config(tmp_path, small_config())
    loaded = after_main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert "guidelab.experiment" in loaded["guidelab"]
    assert "guidelab.par" not in loaded["guidelab"]
    assert "guidelab.diagnostics" not in loaded["guidelab"]
    # only sample's trajectory writer encodes with orjson
    assert loaded["orjson"] == (command == "sample")
    # numpy's set operations (np.unique and kin) import numpy.ma, a start-up cost no sampling command needs
    assert not loaded["numpy.ma"]


def test_diagnose_lag_leaves_orjson_unloaded(tmp_path):
    raw = small_config()
    raw["guidance"]["strategy"] = "NP"
    loaded = after_main(["diagnose-lag", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")])
    assert "guidelab.diagnostics" in loaded["guidelab"]
    assert not loaded["orjson"]
    assert not loaded["numpy.ma"]


@pytest.mark.parametrize("module", SUBMODULES)
def test_module_imports_alone(module):
    assert module in loaded_after(f"import {module}")["guidelab"]
