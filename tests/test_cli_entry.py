"""The `python -m guidelab.cli` entry path: what it leaves behind, and what its exit relies on.

`main` registers `gc.freeze` with atexit, so the collector's passes at
interpreter exit find nothing to walk. That is safe only while no file
is left for the collector to close, which the `ast` check below guards.
"""

import ast
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import guidelab
from guidelab import cli

from test_experiment_cli import small_config, write_config
from test_par import FIXTURES

SRC = Path(guidelab.__file__).parent


def test_main_freezes_the_heap_at_exit(tmp_path, monkeypatch):
    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    assert cli.main(["schedule-dump", "--config", str(write_config(tmp_path, small_config())),
                     "--out", str(tmp_path / "out")]) == 0
    assert registered == [gc.freeze]


def _par_inputs(tmp_path):
    """Prompts that end ok, in the quarantine, and unanswered (so the exit status is 1), with their fixtures."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    (fixtures / "hollow.prompt.txt").write_text("A ball rolls down a ramp.")
    (fixtures / "hollow.response.txt").write_text("[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\n"
                                                  "Temporal evolution: w\n[COUNTERFACTUAL]\nUnrelated gibberish.")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\nA ball rolls down a ramp.\n"
                       "a prompt no fixture answers\n")
    return [str(prompts), "--mock", str(fixtures)]


def _outputs(out, command):
    """Every file of an output directory, by name; par's record timestamps blanked, with the checksums over them."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files["manifest.json"])
    assert manifest["artifacts"] == {name: hashlib.sha256(files[name]).hexdigest() for name in manifest["artifacts"]}
    if command == "par-generate":
        for name in manifest["artifacts"]:
            records = [json.loads(line) for line in files[name].splitlines()]
            for rec in records:
                (rec.get("record") or rec)["created_at"] = ""
            files[name] = b"".join(json.dumps(rec, sort_keys=True).encode() + b"\n" for rec in records)
        manifest["artifacts"] = dict.fromkeys(manifest["artifacts"], "")
        files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


@pytest.mark.parametrize("command, expected_exit", [("sample", 0), ("compare-guidance", 0), ("diagnose-lag", 0),
                                                    ("schedule-dump", 0), ("par-generate", 1)])
def test_module_entry_matches_an_in_process_run(tmp_path, capsys, monkeypatch, command, expected_exit):
    # Both runs write to the relative --out "out" from their own directory, so their manifests record the same path.
    raw = small_config()
    raw["guidance"]["strategy"] = "NP"  # diagnose-lag's strategy; the others run it as well
    argv = [command, "--config", str(write_config(tmp_path, raw)), "--out", "out"]
    if command == "par-generate":
        argv[3:3] = _par_inputs(tmp_path)
    runs = {}
    for side in ("module", "in_process"):
        (tmp_path / side).mkdir()
        if side == "module":
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-m", "guidelab.cli"] + argv, cwd=tmp_path / side, env=env,
                                  capture_output=True, text=True)
            result = proc.returncode, proc.stdout, proc.stderr
        else:
            monkeypatch.chdir(tmp_path / side)
            code = cli.main(argv)
            result = (code, *capsys.readouterr())
        runs[side] = result + (_outputs(tmp_path / side / "out", command),)
    assert runs["module"][0] == expected_exit
    assert runs["module"] == runs["in_process"]


def test_csv_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    # The config is read as strict UTF-8 whatever the locale; a CSV written in the locale's encoding failed on a
    # non-ASCII label under LC_ALL=C, naming no field and leaving a truncated samples.csv.
    raw = small_config()
    raw["mass_labels"] = {"plausibel\u00e9": [0], "counterfactual": [1]}
    config = write_config(tmp_path, raw)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    samples = {}
    for side, locale in (("default", {}), ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})):
        proc = subprocess.run([sys.executable, "-m", "guidelab.cli", "sample", "--config", str(config),
                               "--out", str(tmp_path / side)], env={**env, **locale}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        samples[side] = (tmp_path / side / "samples.csv").read_bytes()
    assert "plausibel\u00e9".encode() in samples["default"]
    assert samples["ascii"] == samples["default"]


def _is_closed_by_with(node, parents) -> bool:
    """node is a with item's expression, or the argument of an ExitStack's enter_context."""
    parent = parents[node]
    if isinstance(parent, ast.withitem):
        return parent.context_expr is node
    return (isinstance(parent, ast.Call) and node in parent.args and isinstance(parent.func, ast.Attribute)
            and parent.func.attr == "enter_context")


def _opens(tree):
    """Calls of open() or of an .open() method; os.open gives a descriptor, which read_text closes in a finally."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "open") or (
                    isinstance(f, ast.Attribute) and f.attr == "open"
                    and not (isinstance(f.value, ast.Name) and f.value.id == "os")):
                yield node


def _unclosed_opens(tree):
    """Lines of the file objects in a module that no with block closes.

    An open() may also be what a function returns; such an opener's
    every call must then be closed by a with block in its place.
    """
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    openers, bad = set(), []
    for call in _opens(tree):
        if _is_closed_by_with(call, parents):
            continue
        owner = parents[call]
        if isinstance(owner, ast.Return):
            while not isinstance(owner, ast.FunctionDef):
                owner = parents[owner]
            openers.add(owner.name)
            continue
        bad.append(call.lineno)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in openers
                and not _is_closed_by_with(node, parents)):
            bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_opened_file_is_closed_by_a_with_block(path):
    # A file left to the collector would lose its unflushed writes at exit, where the frozen heap is never collected.
    assert _unclosed_opens(ast.parse(path.read_text())) == []


def test_the_open_check_flags_a_file_left_open():
    opened = ("def f(path):\n    fh = open(path)\n    return fh.read()\n\n"
              "def _create(path):\n    return open(path, 'w')\n\n"
              "def g(path):\n    with _create(path) as fh:\n        fh.write('x')\n    _create(path).write('y')\n")
    assert _unclosed_opens(ast.parse(opened)) == [2, 11]
