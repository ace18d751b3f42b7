"""The README's config example and artifact table, checked against what the code gives and writes."""

import itertools
import json
import re
import shutil
from pathlib import Path

import pytest

from guidelab.cli import COMMANDS, main
from guidelab.experiment import default_config

from test_experiment_cli import small_config, write_config
from test_par import FIXTURE_PROMPTS, FIXTURES, HOLLOW_RESPONSE

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_config_example_is_the_default_config():
    blocks = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == default_config()


def artifact_table() -> dict:
    """{command: [file names]} from the README's "Artifacts per command" table."""
    lines = README.split("Artifacts per command:\n\n", 1)[1].splitlines()
    table = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines):
        command, artifacts = (cell.strip() for cell in line.strip("|").split("|"))
        if command.startswith("`"):
            table[command.strip("`")] = re.findall(r"`([\w.]+\.(?:csv|jsonl|json))`", artifacts)
    return table


def test_artifact_table_has_one_row_per_command():
    assert sorted(artifact_table()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_artifact_table_names_what_each_command_writes(tmp_path, command):
    raw = small_config(guidance={"strategy": "NP"}) if command == "diagnose-lag" else small_config()
    out = tmp_path / "out"
    argv = [command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]
    if command == "par-generate":
        # the fixture prompts all pass validation; one hollow response puts a record in the quarantine too
        mock = tmp_path / "fixtures"
        shutil.copytree(FIXTURES, mock)
        (mock / "hollow.prompt.txt").write_text("A ball rolls down a ramp.\n")
        (mock / "hollow.response.txt").write_text(HOLLOW_RESPONSE)
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("\n".join(FIXTURE_PROMPTS + ["A ball rolls down a ramp."]) + "\n")
        argv += [str(prompts), "--mock", str(mock)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(artifact_table()[command])


def test_python_blocks_run():
    # every python block of the README runs as written, each in a fresh namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
