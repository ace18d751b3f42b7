"""Config parsing, seed-sweep runners, and the command-line entry points."""

import hashlib
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from guidelab import sampler
from guidelab.cli import (
    _trajectory_lines,
    cmd_compare_guidance,
    cmd_diagnose_lag,
    cmd_par_generate,
    cmd_sample,
    cmd_schedule_dump,
    main,
)
from guidelab.config import ConfigError, config_hash
from guidelab.experiment import (
    default_config,
    load_config,
    parse_config,
    strategy_comparison,
)

from guidelab.guidance import STRATEGIES, GuidanceConfig
from guidelab.sampler import TrajectoryBatch, run_single_batch

from test_par import FIXTURES

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "configs" / "two_well.json"


def small_config(**overrides):
    """Default config shrunk to a fast seed sweep."""
    raw = default_config()
    raw["run"]["seeds"] = {"count": 3, "base": 0}
    raw["schedule"] = {"num_steps": 10, "beta_start": 0.05, "beta_end": 0.25}
    for key, value in overrides.items():
        raw[key] = value
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return path


def test_parse_default_config():
    cfg = parse_config(default_config())
    assert cfg.seeds == tuple(range(64))
    assert cfg.guidance.strategy == "SDG"
    assert cfg.world.num_components == 2
    assert cfg.positive_condition.indices == (0, 1)
    assert cfg.negative_condition.indices == (1,)
    assert cfg.schedule.num_steps == 50
    assert cfg.deterministic
    assert cfg.mass_labels == {"plausible": (0,), "counterfactual": (1,)}


def test_parse_rejects_unknown_condition_names():
    raw = default_config()
    raw["positive"] = "missing_name"
    with pytest.raises(ConfigError, match="missing_name"):
        parse_config(raw)
    raw = default_config()
    raw["negative"] = "also_missing"
    with pytest.raises(ConfigError, match="also_missing"):
        parse_config(raw)


def test_parse_rejects_unknown_strategy():
    raw = default_config()
    raw["guidance"]["strategy"] = "WAT"
    with pytest.raises(ConfigError, match="guidance.strategy"):
        parse_config(raw)


def test_parse_rejects_missing_and_invalid_fields():
    raw = default_config()
    del raw["schedule"]
    with pytest.raises(ConfigError, match="schedule"):
        parse_config(raw)
    raw = default_config()
    raw["schedule"]["beta_end"] = 1.5
    with pytest.raises(ConfigError, match="schedule"):
        parse_config(raw)
    raw = default_config()
    raw["run"]["seeds"] = "nope"
    with pytest.raises(ConfigError, match="run.seeds"):
        parse_config(raw)
    raw = default_config()
    raw["conditions"]["bad"] = {"components": [7]}
    with pytest.raises(ConfigError, match="bad"):
        parse_config(raw)


def test_seed_base_override():
    raw = small_config()
    cfg = parse_config(raw, seed_base=100)
    assert cfg.seeds == (100, 101, 102)
    assert cfg.raw["run"]["seeds"]["base"] == 100


@pytest.mark.parametrize("command", ["sample", "compare-guidance", "diagnose-lag", "schedule-dump"])
def test_seed_list_is_a_named_mapping_error(tmp_path, capsys, command):
    # run.seeds used to read a list of seeds as well; {count, base} is its one format.
    raw = small_config()
    raw["run"]["seeds"] = [0, 1]
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{command}: error: field 'run.seeds' must be a mapping, got [0, 1]"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "compare-guidance"])
def test_run_sample_count_is_an_unknown_field(tmp_path, capsys, command):
    # run.sample_count used to keep the first that many seeds, which run.seeds already states.
    raw = small_config()
    raw["run"]["sample_count"] = 2
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: error: unknown field 'run.sample_count'; 'run' reads seeds, deterministic"]
    assert not out.exists()


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_cli_names_a_config_file_that_is_not_utf8(tmp_path, capsys):
    # A Latin-1 byte in the config used to give a bare codec error that
    # named no file (or decode in the locale's encoding, if not UTF-8).
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps({**small_config(), "note": "caf\u00e9"}, ensure_ascii=False).encode("latin-1"))
    assert main(["schedule-dump", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"schedule-dump: error: config file {path} is not valid UTF-8: ")


def test_cli_names_an_input_that_is_a_directory(tmp_path, capsys):
    # The config, the prompts file and the fixtures share one reader, and
    # its error must name the path, as open() does: a raw os.read of a
    # directory fails with "[Errno 21] Is a directory" and no name.
    config = write_config(tmp_path, small_config())
    fixtures = tmp_path / "fixtures"
    (fixtures / "dir.response.txt").mkdir(parents=True)
    (fixtures / "dir.prompt.txt").write_text("a prompt\n")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a prompt\n")
    for argv, named in ((["schedule-dump", "--config", str(tmp_path)], tmp_path),
                        (["par-generate", "--config", str(config), str(tmp_path), "--mock", str(FIXTURES)], tmp_path),
                        (["par-generate", "--config", str(config), str(prompts), "--mock", str(fixtures)],
                         fixtures / "dir.response.txt")):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"{argv[0]}: error: [Errno 21] Is a directory: '{named}'"]
    assert not (tmp_path / "out").exists()


def test_default_config_is_the_shipped_demo_config():
    assert default_config() == json.loads(DEMO_CONFIG.read_text())


def test_config_hash_is_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})


def test_strategy_comparison_batch_matches_per_seed():
    # Each strategy runs its seeds as one batch; every final must equal
    # the final of that seed run alone, and the masses follow from them.
    raw = small_config()
    raw["run"]["seeds"] = {"count": 3, "base": 5}
    cfg = parse_config(raw)
    assert cfg.seeds == (5, 6, 7)
    table = strategy_comparison(cfg)
    assert tuple(table) == STRATEGIES
    for strategy, row in table.items():
        solo = replace(cfg.guidance, strategy=strategy)
        for seed, final in zip(cfg.seeds, row["finals"]):
            alone = run_single_batch(cfg.world, cfg.positive_condition, cfg.negative_condition, cfg.schedule, solo,
                                     [seed], cfg.deterministic)
            np.testing.assert_array_equal(final, alone.finals[0])
        assert row["seeds"] == 3


def test_cmd_sample_writes_artifacts(tmp_path):
    raw = small_config()
    raw["run"]["seeds"] = {"count": 2, "base": 0}
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_sample(path, out_dir=out) == 0
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,x0,x1,mode"
    assert len(lines) == 3
    # each seed's last plus-branch x_after in trajectories.jsonl is its row of samples.csv
    last = {}
    for line in (out / "trajectories.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["branch"] in ("plus", "single"):
            last[rec["seed"]] = rec["x_after"]
    assert len(last) == 2
    for row in lines[1:]:
        seed, x0, x1, _ = row.split(",")
        assert last[int(seed)] == [float(x0), float(x1)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["seeds"] == [0, 1]
    assert manifest["config_hash"] == config_hash(manifest["config"])
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_cmd_sample_unknown_condition_exit(tmp_path, capsys):
    raw = small_config()
    raw["positive"] = "ghost_condition"
    path = write_config(tmp_path, raw)
    assert cmd_sample(path, out_dir=tmp_path / "out") == 2
    assert "ghost_condition" in capsys.readouterr().err


def test_cmd_sample_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path, small_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cmd_sample(path, out_dir=out1) == 0
    assert cmd_sample(path, out_dir=out2) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "trajectories.jsonl").read_bytes() == (out2 / "trajectories.jsonl").read_bytes()


def _bits(a):
    """The float64 bytes of an array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trajectories_jsonl_rebuilds_every_recorded_array(tmp_path, strategy, deterministic):
    # trajectories.jsonl writes each recorded number once. What it leaves
    # out (delta, a minus branch's eps_pos and zero correction) follows
    # from what it keeps, bit for bit against the in-process batch.
    raw = small_config()
    raw["guidance"]["strategy"] = strategy
    raw["run"]["deterministic"] = deterministic
    cfg = parse_config(raw)
    out = tmp_path / "out"
    assert cmd_sample(write_config(tmp_path, raw), out_dir=out) == 0
    batch = run_single_batch(cfg.world, cfg.positive_condition, cfg.negative_condition, cfg.schedule, cfg.guidance,
                             cfg.seeds, cfg.deterministic)
    dual = strategy in ("TDD_ONLY", "SDG")
    lines = [json.loads(line) for line in (out / "trajectories.jsonl").read_text().splitlines()]
    branches = ("plus", "minus") if dual else ("single",)
    steps = range(cfg.schedule.num_steps, 0, -1)
    assert [(r["seed"], r["branch"], r["t"]) for r in lines] == [
        (seed, branch, t) for seed in cfg.seeds for branch in branches for t in steps]
    predicted = {"branch", "correction", "eps_neg", "eps_pos", "seed", "t", "x_after"}
    keys = {"plus": predicted, "single": predicted, "minus": {"branch", "seed", "t", "x_after"}}
    for r in lines:
        assert set(r) == keys[r["branch"]]

    def column(branch, key):
        """The key's values of one branch as a (T, N, dim) array, like the batch's."""
        return np.array([[r[key] for r in lines if r["seed"] == seed and r["branch"] == branch]
                         for seed in cfg.seeds], dtype=np.float64).transpose(1, 0, 2)

    name, kept = branches[0], batch
    eps_pos, correction = column(name, "eps_pos"), column(name, "correction")
    assert _bits(eps_pos) == _bits(kept.eps_pos)
    assert _bits(correction) == _bits(kept.correction)
    assert _bits(column(name, "x_after")) == _bits(kept.states[1:])
    if strategy == "CFG":
        assert kept.eps_neg is None and kept.delta is None
        assert all(r["eps_neg"] is None for r in lines)
        return
    eps_neg = column(name, "eps_neg")
    assert _bits(eps_neg) == _bits(kept.eps_neg)
    assert _bits(eps_pos - eps_neg) == _bits(kept.delta)
    if dual:
        assert _bits(eps_neg) == _bits(batch.minus.eps_pos)
        assert _bits(np.zeros_like(eps_neg)) == _bits(batch.minus.correction)
        assert _bits(column("minus", "x_after")) == _bits(batch.minus.states[1:])


def test_trajectory_writer_round_trips_every_float64(tmp_path):
    # The writer spells some floats unlike repr (0.00001 for 1e-05, 1e16
    # for 1e+16). Read back by the stdlib's own parser, every value must
    # still be the float64 that was recorded, sign of zero included.
    rng = np.random.default_rng(20261018)
    drawn = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    near = np.concatenate([v * (1 + np.arange(-40, 41) * 2.0**-52)
                           for v in (1e-5, -1e-5, 1e-4, 1e15, 1e16, -1e16, 1e22)])
    edges = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max,
             np.finfo(np.float64).tiny, 1e-5, 1e16, 1e22]
    values = np.concatenate([drawn[np.isfinite(drawn)], near, edges])
    dim = 100
    values = np.concatenate([values, np.zeros(-len(values) % dim)]).reshape(-1, 1, dim)
    batch = TrajectoryBatch(seeds=(7,), config=GuidanceConfig("NP"), states=np.concatenate([values[:1], values[::-1]]),
                            eps_pos=values, eps_neg=-values, correction=values[::-1] * 0.5)
    path = tmp_path / "trajectories.jsonl"
    with open(path, "wb") as fh:
        fh.writelines(_trajectory_lines(batch))
    lines = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert [(r["seed"], r["branch"], r["t"]) for r in lines] == [(7, "single", t) for t in batch.steps]
    assert all(type(v) is float for r in lines for v in r["eps_pos"])
    for key, recorded in (("eps_pos", values), ("eps_neg", -values), ("correction", values[::-1] * 0.5),
                          ("x_after", values[::-1])):
        assert _bits([r[key] for r in lines]) == _bits(recorded[:, 0])
    # the spellings that differ from repr are covered
    tokens = path.read_text().replace("[", ",").replace("]", ",").split(",")
    assert "0.00001" in tokens and "1e16" in tokens and "-0.0" in tokens and "5e-324" in tokens


def test_cmd_sample_refuses_non_finite_records(tmp_path, capsys, monkeypatch):
    # The latents can stay finite while a recorded prediction does not: CFG
    # at w = 0 steps on the null prediction alone, so a non-finite positive
    # one reaches only eps_pos. Such a value must stop the run with its field
    # and step, not reach trajectories.jsonl as NaN, Infinity or null.
    real = sampler.epsilon_oracle

    def poisoned(world, conds, schedule, x, t):
        eps = real(world, conds, schedule, x, t)
        if t != 7:
            return eps
        pos = eps[0].copy()  # the null shares the positive's array when both select every component
        pos[1, 0] = np.inf
        return (pos,) + eps[1:]

    monkeypatch.setattr(sampler, "epsilon_oracle", poisoned)
    raw = small_config()
    raw["guidance"].update(strategy="CFG", w=0.0)
    out = tmp_path / "out"
    assert main(["sample", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "sample: error: sampling under CFG recorded a non-finite eps_pos at step t=7"]
    assert not out.exists()


def test_cmd_compare_degenerate_conditions(tmp_path):
    # Positive bound to the counterfactual condition itself: every
    # strategy collapses to conditional sampling of that component, so
    # all mass columns read 1.0.
    raw = default_config()
    raw["run"]["seeds"] = {"count": 4, "base": 0}
    raw["positive"] = "counterfactual"
    raw["negative"] = "counterfactual"
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_compare_guidance(path, out_dir=out) == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert rows[0] == "strategy,counterfactual_mass_mean,counterfactual_mass_stderr,seeds"
    assert len(rows) == 6
    for row in rows[1:]:
        strategy, mean, stderr, seeds = row.split(",")
        assert float(mean) == 1.0
        assert float(stderr) == 0.0
        assert seeds == "4"


def test_cmd_sample_negative_condition_named_empty_string(tmp_path):
    # A condition named "" bound as negative parsed, then read as no binding:
    # SDG failed with "requires a 'negative' condition binding".
    raw = small_config()
    raw["conditions"][""] = raw["conditions"].pop("counterfactual")
    raw["negative"] = ""
    cfg = parse_config(raw)
    assert cfg.negative_condition.indices == (1,)
    assert cmd_sample(write_config(tmp_path, raw), out_dir=tmp_path / "out") == 0


def test_cmd_sample_cfg_with_null_negative(tmp_path):
    # A present "negative": null means no binding, like an absent one; CFG needs none.
    raw = small_config(negative=None)
    raw["guidance"]["strategy"] = "CFG"
    assert parse_config(raw).negative_condition is None
    assert cmd_sample(write_config(tmp_path, raw), out_dir=tmp_path / "out") == 0


def test_cmd_compare_dotted_condition_and_label_names(tmp_path):
    # Field names are built from keys, never split on dots: "a.b" and "x.y" are plain names.
    raw = small_config()
    raw["conditions"]["a.b"] = raw["conditions"].pop("counterfactual")
    raw["negative"] = "a.b"
    raw["mass_labels"] = {"x.y": [0], "counterfactual": [1]}
    cfg = parse_config(raw)
    assert cfg.negative_condition.indices == (1,)
    assert cfg.mass_labels == {"x.y": (0,), "counterfactual": (1,)}
    out = tmp_path / "out"
    assert cmd_compare_guidance(write_config(tmp_path, raw), out_dir=out) == 0
    assert len((out / "comparison.csv").read_text().splitlines()) == 6


def test_cmd_compare_requires_negative(tmp_path, capsys):
    raw = small_config()
    del raw["negative"]
    path = write_config(tmp_path, raw)
    assert cmd_compare_guidance(path, out_dir=tmp_path / "out") == 2
    assert "negative" in capsys.readouterr().err


def test_cmd_diagnose_rejects_cfg_strategy(tmp_path, capsys):
    raw = small_config()
    raw["guidance"]["strategy"] = "CFG"
    path = write_config(tmp_path, raw)
    assert cmd_diagnose_lag(path, out_dir=tmp_path / "out") == 2
    assert "NP or SDN" in capsys.readouterr().err


def test_cmd_diagnose_degenerate_all_zero(tmp_path):
    raw = small_config()
    raw["guidance"]["strategy"] = "NP"
    raw["positive"] = "counterfactual"
    raw["negative"] = "counterfactual"
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_diagnose_lag(path, out_dir=out) == 0
    for name in ("delta_norms.csv", "suppression_proj.csv", "bias_gap.csv", "eigen.csv",
                 "report.json", "summary.json", "manifest.json"):
        assert (out / name).exists()
    lines = (out / "delta_norms.csv").read_text().strip().splitlines()
    assert len(lines) == 11
    assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])


def test_cmd_diagnose_degenerate_writes_strict_json(tmp_path):
    # With negative == positive the late mean delta norm is 0, and the
    # ratio used to be written as Infinity, which strict parsers reject.
    raw = small_config()
    raw["guidance"]["strategy"] = "NP"
    raw["negative"] = "scene"
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_diagnose_lag(path, out_dir=out) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["late_mean_delta_norm"] == 0.0
    assert summary["ratio"] is None
    json.loads((out / "report.json").read_text(), parse_constant=reject)


def test_cmd_diagnose_emits_summary(tmp_path):
    raw = small_config()
    raw["guidance"]["strategy"] = "NP"
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_diagnose_lag(path, out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "early_mean_delta_norm", "late_mean_delta_norm", "ratio",
        "bias_gap_at_T", "bias_gap_early_mean", "bias_gap_late_mean", "window",
    }
    assert summary["bias_gap_at_T"] == 0.0
    assert summary["window"] == 1


def test_cmd_diagnose_csv_floats_parse_back_exactly(tmp_path):
    # Every float the diagnose-lag CSVs hold parses back to the report's value bit for bit.
    from guidelab.diagnostics import build_report

    raw = small_config()
    raw["guidance"]["strategy"] = "NP"
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_diagnose_lag(path, out_dir=out) == 0
    c = load_config(path)
    report = build_report(c.world, c.positive_condition, c.negative_condition, c.schedule, c.guidance, c.seeds,
                          c.mass_labels)
    for name, header, key in (("delta_norms.csv", "delta_norm", "delta_norms"),
                              ("suppression_proj.csv", "projection", "suppression_proj"),
                              ("bias_gap.csv", "gap", "bias_gap")):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == f"t,{header}"
        assert [(int(t), float(val)) for t, val in (line.split(",") for line in lines[1:])] == report[key]
    lines = (out / "eigen.csv").read_text().splitlines()
    assert lines[0] == "t,eigenvalue,v0,v1"
    assert len(lines) == len(report["leading_eigs"]) + 1
    for line, (t, lam, v) in zip(lines[1:], report["leading_eigs"]):
        fields = line.split(",")
        assert (int(fields[0]), float(fields[1])) == (t, lam)
        assert [float(x) for x in fields[2:]] == v


@pytest.mark.parametrize("world_edit, message", [
    ({"components": [{"mean": [float("nan"), 0.0], "cov_diag": [1.0, 1.0]},
                     {"mean": [12.0, 0.0], "cov_diag": [1.0, 1.0]}]},
     "field 'world.components[0].mean[0]' must be a finite number, got nan"),
    ({"components": [{"mean": [-12.0, 0.0], "cov_diag": [1.0, float("inf")]},
                     {"mean": [12.0, 0.0], "cov_diag": [1.0, 1.0]}]},
     "field 'world.components[0].cov_diag[1]' must be a finite number, got inf"),
    ({"weights": [1.0, 0.0]}, "field 'world' invalid"),
], ids=["nan_mean", "inf_cov", "zero_weight"])
def test_cmd_sample_rejects_bad_world(tmp_path, capsys, world_edit, message):
    # Non-finite parameters used to give NaN samples with exit 0, and a
    # zero weight a log(0) RuntimeWarning; both must fail naming the field.
    raw = small_config()
    raw["world"].update(world_edit)
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_sample(path, out_dir=out) == 2
    assert message in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("path, value, field", [
    (("guidance", "w"), None, "guidance.w"),
    (("guidance", "lambda"), [30.0], "guidance.lambda"),
    (("schedule", "num_steps"), None, "schedule.num_steps"),
    (("schedule", "num_steps"), 2.5, "schedule.num_steps"),
    (("schedule", "beta_start"), "0.05", "schedule.beta_start"),
    (("run", "seeds", "count"), 3.7, "run.seeds.count"),
    (("run", "seeds", "base"), None, "run.seeds.base"),
    (("mass_labels", "plausible"), 0, "mass_labels.plausible"),
    (("mass_labels", "counterfactual"), [1.5], "mass_labels.counterfactual[0]"),
    (("run", "deterministic"), "false", "run.deterministic"),
    (("run", "deterministic"), 0, "run.deterministic"),
    (("positive",), ["scene"], "positive"),
    (("negative",), ["counterfactual"], "negative"),
    (("run",), 5, "run"),
    (("conditions", "scene"), 3, "conditions.scene"),
    (("mass_labels",), [0, 1], "mass_labels"),
    (("output",), ["runs"], "output"),
    (("conditions", "plausible", "components"), [0.7], "conditions.plausible.components[0]"),
    (("conditions", "plausible", "components"), ["1"], "conditions.plausible.components[0]"),
    (("conditions", "plausible", "components"), [True], "conditions.plausible.components[0]"),
    (("conditions", "plausible", "components"), 1, "conditions.plausible.components"),
    (("run", "seeds"), [], "run.seeds"),
    (("run", "seeds", "base"), -1, "run.seeds.base"),
    (("world", "components", 1, "mean"), [1.0, 2.0, 3.0], "world.components[1].mean"),
    (("world", "components", 0, "cov_diag"), [1.0], "world.components[0].cov_diag"),
    (("output", "directory"), 5, "output.directory"),
    (("output", "directory"), None, "output.directory"),
    (("output", "directory"), ["a"], "output.directory"),
    (("world", "components", 0, "mean"), ["-12.0", "0"], "world.components[0].mean[0]"),
    (("world", "components", 0, "mean"), [True, 0], "world.components[0].mean[0]"),
    (("world", "components", 1, "cov_diag"), ["-12.0", "0"], "world.components[1].cov_diag[0]"),
    (("world", "components", 1, "cov_diag"), [True, 0], "world.components[1].cov_diag[0]"),
    (("world", "weights"), {"a": 1}, "world.weights"),
    (("guidance", "w"), 10 ** 400, "guidance.w"),
], ids=["w_null", "lambda_list", "num_steps_null", "num_steps_fraction", "beta_string",
        "count_fraction", "base_null", "mass_label_int", "mass_label_fraction",
        "deterministic_string", "deterministic_int", "positive_list", "negative_list", "run_int",
        "condition_int", "mass_labels_list", "output_list", "component_fraction", "component_string",
        "component_bool", "components_int", "seeds_empty", "base_negative",
        "mean_too_long", "cov_diag_too_short", "directory_int", "directory_null", "directory_list",
        "mean_strings", "mean_bool", "cov_diag_strings", "cov_diag_bool", "weights_mapping", "w_overflow"])
def test_cmd_sample_rejects_non_numeric_fields(tmp_path, capsys, path, value, field):
    # A null, list or mapping used to end in a TypeError traceback; 2.5, 3.7, "0.05" and
    # true were truncated or coerced and ran with exit 0. Each must fail naming its field.
    # "deterministic": "false" ran deterministic (bool("false") is True) with exit 0; a list
    # where a condition name belongs, or a number where a mapping belongs, ended in a
    # TypeError or AttributeError traceback. Condition components of [0.7], ["1"] and
    # [true] ran as components 0, 1 and 1 with exit 0, and a bare 1 was a TypeError
    # traceback. An empty or negative seed failed with a message naming no field, and a
    # world vector of the wrong length with numpy's "inhomogeneous shape". An output.directory
    # of 5, null or ["a"] and world weights of {"a": 1} were TypeError tracebacks; world
    # vector entries of "-12.0" or true were read as numbers. A JSON integer too large for a
    # float was an OverflowError traceback.
    raw = small_config()
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config = write_config(tmp_path, raw)
    assert main(["sample", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}' must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "samples.csv").exists()


@pytest.mark.parametrize("path, value, message", [
    (("world", "components"), [], "field 'world.components' must be a nonempty list"),
    (("world", "components", 0, "mean"), [], "field 'world.components[0].mean' must be a nonempty list, got []"),
    (("conditions",), {}, "field 'conditions' must be a nonempty mapping"),
    (("guidance", "w"), -1, "field 'guidance' invalid: w must be finite and >= 0, got -1.0"),
    (("run", "seeds", "count"), 0, "field 'run.seeds.count' must be >= 1"),
], ids=["components_empty", "mean_empty", "conditions_empty", "w_negative", "count_zero"])
def test_cmd_sample_names_empty_and_out_of_range_fields(tmp_path, capsys, path, value, message):
    raw = small_config()
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    out = tmp_path / "out"
    assert main(["sample", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"sample: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("path, key, value, reads", [
    (("world",), "weight", [0.5, 0.5], "components, weights"),
    (("world", "components", 1), "covdiag", [2.0, 2.0], "mean, cov_diag"),
    (("conditions", "plausible"), "component", [1], "components"),
    (("schedule",), "num_step", 7, "num_steps, beta_start, beta_end"),
    (("guidance",), "lamda", 5.0, "strategy, w, lambda, eps_stab"),
    (("run",), "determinstic", False, "seeds, deterministic"),
    (("run", "seeds"), "bases", 4, "count, base"),
], ids=["world", "component", "condition", "schedule", "guidance", "run", "run_seeds"])
def test_misspelled_config_key_is_a_named_error(tmp_path, capsys, path, key, value, reads):
    # guidance.lamda, schedule.num_step and run.determinstic ran silently with lambda 30, the configured
    # steps and a deterministic sampler, and manifest.json recorded the misspelled keys as if they applied.
    raw = small_config()
    section = raw
    for part in path:
        section = section[part]
    section[key] = value
    name = "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in path)[1:]
    out = tmp_path / "out"
    assert main(["sample", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    message = f"unknown field '{name}.{key}'; '{name}' reads {reads}"
    assert capsys.readouterr().err.splitlines() == [f"sample: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare-guidance", "par-generate"])
def test_repeated_config_key_is_a_named_error(tmp_path, capsys, command):
    # "w": 6.0, "w": 600.0 ran compare-guidance at w = 600 and recorded it in manifest.json.
    text = json.dumps(small_config(), indent=1).replace('"w": 6.0', '"w": 6.0, "w": 600.0')
    assert text.count('"w"') == 2
    path = tmp_path / "config.json"
    path.write_text(text)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    out = tmp_path / "out"
    args = [str(prompts), "--mock", str(FIXTURES)] if command == "par-generate" else []
    assert main([command, "--config", str(path), *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{command}: error: config key 'w' is given twice in one object"]
    assert not out.exists()


def test_misspelled_par_key_is_a_named_error(tmp_path, capsys):
    raw = {"par": {"modle": "mock-model"}, "output": {"directory": str(tmp_path / "out")}}
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert main(["par-generate", "--config", str(write_config(tmp_path, raw)), str(prompts),
                 "--mock", str(FIXTURES)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "par-generate: error: unknown field 'par.modle'; 'par' reads base_url, model, api_key_env, timeout,"
        " max_retries"]
    assert not (tmp_path / "out").exists()


def test_top_level_and_output_keys_stay_open(tmp_path):
    # Keys no command reads may sit at the top level and in output, as output.formats does in the
    # benchmark's sample-wide config.
    raw = small_config(notes="two wells")
    raw["output"]["formats"] = ["csv", "jsonl"]
    out = tmp_path / "out"
    assert main(["sample", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
    assert (out / "samples.csv").exists()


@pytest.mark.parametrize("command, strategy", [("sample", "SDG"), ("compare-guidance", None), ("diagnose-lag", "NP")])
def test_a_far_component_passes_strict(tmp_path, capsys, command, strategy):
    # With component 0's mean at [1e300, 0] each command printed numpy's "overflow encountered in
    # multiply", and under --strict failed with it, naming no field, though every sample and label was right.
    raw = small_config()
    raw["world"]["components"][0]["mean"] = [1e300, 0.0]
    if strategy is not None:
        raw["guidance"]["strategy"] = strategy
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out), "--strict"]) == 0
    assert capsys.readouterr().err == ""
    if command == "sample":
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["counterfactual"] * 3


@pytest.mark.parametrize("command, edit, message", [
    ("sample", {"negative": None}, "strategy SDG requires a 'negative' condition binding"),
    ("compare-guidance", {"negative": None, "guidance": {"strategy": "CFG"}},
     "comparison runs need a 'negative' condition binding"),
    ("compare-guidance", {"mass_labels": {"plausible": [0, 1]}},
     "field 'mass_labels' must define a 'counterfactual' label for comparison runs"),
    ("diagnose-lag", {"guidance": {"strategy": "CFG"}}, "diagnose-lag needs guidance.strategy NP or SDN, got 'CFG'"),
    ("diagnose-lag", {"guidance": {"strategy": "NP"}, "negative": None},
     "strategy NP requires a 'negative' condition binding"),
    # a stochastic diagnose-lag ran deterministic chains yet wrote the stochastic config to its manifest
    ("diagnose-lag",
     {"guidance": {"strategy": "NP"}, "run": {"seeds": {"count": 3, "base": 0}, "deterministic": False}},
     "field 'run.deterministic' must be true for diagnose-lag, which steps its chains without noise"),
], ids=["sample_sdg_no_negative", "compare_no_negative", "compare_no_counterfactual_label", "diagnose_cfg",
        "diagnose_no_negative", "diagnose_stochastic"])
def test_failed_sampling_command_leaves_no_output_directory(tmp_path, capsys, command, edit, message):
    # The output directory used to be made before the run, so each of these left an empty one.
    raw = small_config(**edit)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{command}: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "schedule-dump"])
def test_a_strategy_without_its_negative_binding_fails_at_parse(tmp_path, capsys, command):
    # schedule-dump of an SDG config without 'negative' used to exit 0; the config cannot run its own strategy.
    raw = small_config()
    del raw["negative"]
    with pytest.raises(ConfigError, match="^strategy SDG requires a 'negative' condition binding$"):
        parse_config(raw)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: error: strategy SDG requires a 'negative' condition binding"]
    assert not out.exists()
    raw["guidance"]["strategy"] = "CFG"
    assert parse_config(raw).negative_condition is None
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0


@pytest.mark.parametrize("strict", [False, True])
def test_diagnose_rejects_a_one_step_schedule(tmp_path, capsys, strict):
    # With one step the bias gap's early window was empty: numpy warned
    # "Mean of empty slice", the summary failed on a NaN, and five
    # artifacts were left with no summary or manifest.
    raw = json.loads(DEMO_CONFIG.read_text())
    raw["guidance"]["strategy"] = "NP"
    raw["schedule"]["num_steps"] = 1
    raw["run"]["seeds"] = {"count": 4, "base": 0}
    out = tmp_path / "out"
    argv = ["diagnose-lag", "--config", str(write_config(tmp_path, raw)), "--out", str(out)] + ["--strict"] * strict
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [
        "diagnose-lag: error: field 'schedule.num_steps' must be at least 2 for diagnose-lag, got 1"]
    assert not out.exists()


@pytest.mark.parametrize("command, strategy", [("sample", s) for s in STRATEGIES]
                         + [("compare-guidance", None), ("diagnose-lag", "NP"), ("diagnose-lag", "SDN"),
                            ("schedule-dump", None)])
def test_strict_passes_on_the_shipped_config(tmp_path, capsys, command, strategy):
    # Every command on the shipped two_well world passes --strict: no
    # sampling or diagnostic step raises a RuntimeWarning or prints anything to stderr.
    path = DEMO_CONFIG
    if strategy is not None:
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["guidance"]["strategy"] = strategy
        path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--strict"]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("command, strategy", [("sample", "NP"), ("sample", "TDD_ONLY"), ("compare-guidance", None),
                                               ("diagnose-lag", "NP")])
def test_guidance_w_zero_runs_under_strict(tmp_path, capsys, command, strategy):
    # w has one rule, w >= 0, in the config and in every combine rule that reads it, so
    # a run at w = 0 never stops mid-sampling with an error that names no field.
    raw = small_config()
    raw["guidance"]["w"] = 0
    if strategy is not None:
        raw["guidance"]["strategy"] = strategy
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out), "--strict"]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("strategy", ["NP", "TDD_ONLY"])
def test_w_zero_push_samples_like_cfg_at_w_one(tmp_path, strategy, deterministic):
    # With no push, NP and TDD_ONLY advance on the positive prediction alone: CFG at w = 1.
    samples = {}
    for name, w in ((strategy, 0), ("CFG", 1)):
        raw = small_config()
        raw["guidance"].update(strategy=name, w=w)
        raw["run"]["deterministic"] = deterministic
        assert cmd_sample(write_config(tmp_path, raw, f"{name}.json"), out_dir=tmp_path / name) == 0
        samples[name] = (tmp_path / name / "samples.csv").read_bytes()
    assert samples[strategy] == samples["CFG"]


@pytest.mark.parametrize("seeds, seed_base", [({"count": 3, "base": 0}, "-2")], ids=["count_base"])
def test_cli_rejects_seed_base_that_gives_negative_seeds(tmp_path, capsys, seeds, seed_base):
    # A negative seed used to fail with numpy's "expected non-negative integer", naming no field.
    raw = small_config()
    raw["run"]["seeds"] = seeds
    config = write_config(tmp_path, raw)
    assert main(["sample", "--config", str(config), "--out", str(tmp_path / "out"), "--seed-base", seed_base]) == 2
    assert capsys.readouterr().err.splitlines() == ["sample: error: field 'run.seeds.base' must be >= 0, got -2"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds, seed_base, message", [
    ({"count": 3, "base": 2**64 - 2}, None,
     "field 'run.seeds.base' must give seeds below 2**64, got seed 18446744073709551616"),
    ({"count": 2, "base": 0}, str(2**64 - 1),
     "field 'run.seeds.base' must give seeds below 2**64, got seed 18446744073709551616"),
    ({"count": 2, "base": 2**64 + 5}, None,
     "field 'run.seeds.base' must give seeds below 2**64, got seed 18446744073709551621"),
], ids=["count_base", "seed_base_count", "base_above"])
def test_cli_rejects_seeds_of_2_to_the_64_and_above(tmp_path, capsys, seeds, seed_base, message):
    # trajectories.jsonl holds seeds as 64-bit integers, the widest its
    # encoder writes. Unchecked, a larger seed stopped the encoder midway,
    # after samples.csv and part of trajectories.jsonl were written and
    # before the manifest.
    raw = small_config()
    raw["run"]["seeds"] = seeds
    out = tmp_path / "out"
    argv = ["sample", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]
    assert main(argv + (["--seed-base", seed_base] if seed_base else [])) == 2
    assert capsys.readouterr().err.splitlines() == [f"sample: error: {message}"]
    assert not out.exists()


def test_largest_64_bit_seed_is_written(tmp_path):
    raw = small_config()
    raw["run"]["seeds"] = {"count": 1, "base": 2**64 - 1}
    out = tmp_path / "out"
    assert main(["sample", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
    assert {json.loads(line)["seed"] for line in (out / "trajectories.jsonl").read_text().splitlines()} == {2**64 - 1}


@pytest.mark.parametrize("command, artifact", [("sample", "samples.csv"), ("compare-guidance", "comparison.csv")])
@pytest.mark.parametrize("labels", [
    {"plausible": [0], "counterfactual": [7]},
    {"plausible": [0], "counterfactual": [0, 1]},
    {"counterfactual": [1]},
], ids=["out_of_range", "overlap", "missing"])
def test_cli_rejects_mass_labels_that_do_not_partition(tmp_path, capsys, command, artifact, labels):
    # A counterfactual label of [7] in a 2-component world used to give
    # compare-guidance all-0.0 masses with exit 0.
    config = write_config(tmp_path, small_config(mass_labels=labels))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "field 'mass_labels' must partition components 0..1" in capsys.readouterr().err
    assert not (tmp_path / "out" / artifact).exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_par_generate_rejects_jobs_below_one(tmp_path, capsys, jobs):
    # --jobs 0 and --jobs -1 used to run silently as --jobs 1.
    config = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["par-generate", "--config", str(config), str(prompts), "--mock", str(FIXTURES),
              "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["33", "1000"])
def test_par_generate_rejects_jobs_above_32(tmp_path, capsys, jobs):
    # A thread pool starts a thread per call while none is idle, so --jobs N could start up to N threads
    # against a slow endpoint. The usage error comes from main before any command runs.
    config = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["par-generate", "--config", str(config), str(prompts), "--mock", str(FIXTURES),
              "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at most 32, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # 32 itself is within the bound: schedule-dump, which runs no pool, refuses it only as a flag it ignores
    with pytest.raises(SystemExit):
        main(["schedule-dump", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "32"])
    assert "argument --jobs: not used by schedule-dump" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("par-generate", ["--seed-base", "5"]),
    ("schedule-dump", ["--jobs", "3"]),
    ("sample", ["--jobs", "2"]),
    ("compare-guidance", ["--jobs", "2"]),
    ("diagnose-lag", ["--jobs", "2"]),
], ids=["par_seed_base", "schedule_jobs", "sample_jobs", "compare_jobs", "diagnose_jobs"])
def test_cli_rejects_flags_the_command_ignores(tmp_path, capsys, command, flag):
    # par-generate --seed-base 5 and schedule-dump --jobs 3 used to exit 0 and ignore the flag.
    config = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    inputs = [str(prompts), "--mock", str(FIXTURES)] if command == "par-generate" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), *inputs, "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert f"argument {flag[0]}: not used by {command}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_accepts_an_unused_flag_at_its_default(tmp_path):
    # The benchmark passes --jobs 1 to every command.
    config = write_config(tmp_path, small_config())
    assert main(["schedule-dump", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert (tmp_path / "out" / "schedule.csv").exists()


def test_integral_floats_are_accepted_for_int_fields():
    raw = small_config()
    raw["run"]["seeds"] = {"count": 3.0, "base": 2.0}
    raw["schedule"]["num_steps"] = 10.0
    cfg = parse_config(raw)
    assert cfg.seeds == (2, 3, 4)
    assert cfg.schedule.num_steps == 10


@pytest.mark.parametrize("key, value", [("timeout", None), ("max_retries", 1.5), ("timeout", "60"),
                                        ("model", None), ("base_url", 5), ("api_key_env", ["KEY"])])
def test_cmd_par_generate_rejects_non_numeric_endpoint_fields(tmp_path, capsys, key, value):
    # The string fields went through str(), so "model": null ran and recorded model_id "None".
    raw = {"par": {"model": "mock-model", key: value}, "output": {"directory": str(tmp_path / "out")}}
    path = write_config(tmp_path, raw)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert cmd_par_generate(path, prompts, mock=FIXTURES) == 2
    assert f"field 'par.{key}' must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


@pytest.mark.parametrize("par, mock, message", [
    ({}, False, "missing field 'par.base_url'"),
    ({"base_url": "https://llm.example"}, False, "missing field 'par.model'"),
    (None, False, "field 'par' (endpoint settings) is required without --mock"),
    ({"timeout": 0}, True, "field 'par' invalid: timeout must be > 0, got 0.0"),
    # 30 retries scheduled waits of up to 8.5 years, and from 36 on time.sleep raised OverflowError
    ({"max_retries": 36}, True, "field 'par' invalid: max_retries must be from 0 to 10, got 36"),
    ({"max_retries": 11}, True, "field 'par' invalid: max_retries must be from 0 to 10, got 11"),
], ids=["live_no_base_url", "live_no_model", "live_no_par", "timeout_zero", "retries_36", "retries_11"])
def test_cmd_par_generate_rejects_incomplete_endpoint(tmp_path, capsys, par, mock, message):
    # base_url and model default only under --mock: a live run on "par": {} used to
    # send every prompt to http://localhost:0 and exit 1 with transport errors.
    raw = {"output": {"directory": str(tmp_path / "out")}}
    if par is not None:
        raw["par"] = par
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    argv = ["par-generate", "--config", str(write_config(tmp_path, raw)), str(prompts)]
    assert main(argv + ["--mock", str(FIXTURES)] * mock) == 2
    assert capsys.readouterr().err.splitlines() == [f"par-generate: error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal, shown", [("NaN", "nan"), ("Infinity", "inf"), ("1e999", "inf")])
def test_cmd_par_generate_rejects_a_non_finite_timeout(tmp_path, capsys, literal, shown):
    # json reads all three literals as floats, and a NaN or infinite timeout used to be accepted.
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(f'{{"par": {{"timeout": {literal}}}, "output": {{"directory": {json.dumps(str(out))}}}}}')
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert main(["par-generate", "--config", str(path), str(prompts), "--mock", str(FIXTURES)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"par-generate: error: field 'par.timeout' must be a finite number, got {shown}"]
    assert not out.exists()


def test_a_non_finite_number_no_command_reads_is_refused_by_sample(tmp_path, capsys):
    # A top-level "notes": NaN used to run with exit 0 and land in manifest.json as a bare NaN, which
    # strict JSON parsers reject.
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(notes=float("nan"), output={"directory": str(out)}))
    assert main(["sample", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["sample: error: field 'notes' must be a finite number, got nan"]
    assert not out.exists()


def test_a_non_finite_number_no_command_reads_is_refused_by_par_generate(tmp_path, capsys):
    # par-generate reads no guidance section, so guidance.w: Infinity used to reach its manifest.json.
    out = tmp_path / "out"
    raw = small_config(output={"directory": str(out)})
    raw["guidance"]["w"] = float("inf")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert main(["par-generate", "--config", str(write_config(tmp_path, raw)), str(prompts),
                 "--mock", str(FIXTURES)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "par-generate: error: field 'guidance.w' must be a finite number, got inf"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "par-generate"])
def test_a_deeply_nested_config_is_invalid_json(tmp_path, capsys, command):
    # 100,000 nested arrays under a key no command reads used to end in a RecursionError traceback
    # (exit 1) that named no file.
    out = tmp_path / "out"
    depth = 100_000
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(output={"directory": str(out)}))[:-1]
                    + ', "notes": ' + "[" * depth + "]" * depth + "}")
    argv = [command, "--config", str(path)]
    if command == "par-generate":
        prompts = tmp_path / "prompts.txt"
        prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
        argv += [str(prompts), "--mock", str(FIXTURES)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command}: error: config file {path} is not valid JSON: "), err
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--strict"]], ids=["plain", "strict"])
def test_cmd_par_generate_on_blank_prompts_writes_only_the_manifest(tmp_path, capsys, flags):
    # A prompts file of blank lines is an empty batch: a warning, exit 0 even under --strict, and a
    # manifest that lists no artifact.
    out = tmp_path / "out"
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("\n  \n\t\n\n")
    argv = ["par-generate", "--config", str(write_config(tmp_path, small_config())), str(prompts),
            "--mock", str(FIXTURES), "--out", str(out)] + flags
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["par-generate: warning: prompts file is empty, nothing to do"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == {}


def test_cmd_par_generate_rejects_non_mapping_endpoint(tmp_path, capsys):
    # "par": 5 used to end in an AttributeError traceback.
    path = write_config(tmp_path, {"par": 5, "output": {"directory": str(tmp_path / "out")}})
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert cmd_par_generate(path, prompts, mock=FIXTURES) == 2
    assert "field 'par' must be a mapping" in capsys.readouterr().err


def test_cmd_par_generate_rerun_is_idempotent(tmp_path):
    # A second run into the same directory must replace, not extend, the corpus and quarantine.
    path = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "quarantine.jsonl").write_text('{"stale": true}\n')
    assert cmd_par_generate(path, prompts, out_dir=out, mock=FIXTURES) == 0
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 1
    assert not (out / "quarantine.jsonl").exists()
    assert cmd_par_generate(path, prompts, out_dir=out, mock=FIXTURES) == 0
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 1


def test_cmd_par_generate_empty_prompts(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("\n\n")
    assert cmd_par_generate(path, prompts, out_dir=tmp_path / "out", mock=FIXTURES) == 0
    assert "empty" in capsys.readouterr().err


def test_cmd_par_generate_with_fixtures(tmp_path):
    path = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text(
        (FIXTURES / "condensation.prompt.txt").read_text().strip() + "\n"
        + (FIXTURES / "butter.prompt.txt").read_text().strip() + "\n"
    )
    out = tmp_path / "out"
    assert cmd_par_generate(path, prompts, out_dir=out, mock=FIXTURES) == 0
    records = [json.loads(line) for line in (out / "corpus.jsonl").read_text().strip().splitlines()]
    assert len(records) == 2
    assert records[0]["counterfactual"].startswith("The glass surface is instantly covered")
    assert records[1]["counterfactual"] == (
        "The butter is fully liquefied from the start, with no observable melting process."
    )


def test_cmd_par_generate_needs_only_par_and_output(tmp_path):
    # No world, conditions, schedule or run sections: par-generate reads
    # only its endpoint settings and the output directory.
    raw = {"par": {"model": "mock-model", "max_retries": 0}, "output": {"directory": str(tmp_path / "unused")}}
    path = write_config(tmp_path, raw)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    out = tmp_path / "out"
    assert cmd_par_generate(path, prompts, out_dir=out, mock=FIXTURES) == 0
    assert len((out / "corpus.jsonl").read_text().strip().splitlines()) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {**raw, "output": {"directory": str(out)}}
    assert manifest["config_hash"] == config_hash(manifest["config"])


def test_cmd_par_generate_null_endpoint_under_mock(tmp_path):
    # "par": null is the same as no par section, which --mock allows.
    path = write_config(tmp_path, {"par": None, "output": {"directory": str(tmp_path / "out")}})
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert cmd_par_generate(path, prompts, mock=FIXTURES) == 0
    assert json.loads((tmp_path / "out" / "corpus.jsonl").read_text())["model_id"] == "mock-model"


def test_cmd_par_generate_unknown_prompt_fails(tmp_path):
    path = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a prompt no fixture answers\n")
    assert cmd_par_generate(path, prompts, out_dir=tmp_path / "out", mock=FIXTURES) == 1


@pytest.mark.parametrize("case", ["prompts_not_utf8", "missing_mock_dir"])
def test_cmd_par_generate_bad_input_leaves_no_output_directory(tmp_path, capsys, case):
    # An unreadable input used to be found only after the output directory was made.
    path = write_config(tmp_path, small_config())
    prompts, mock, out = tmp_path / "prompts.txt", FIXTURES, tmp_path / "out"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    if case == "prompts_not_utf8":
        prompts.write_bytes(b"a prompt\n\xff\n")
        expected = f"par-generate: error: prompts file {prompts} is not valid UTF-8: "
    else:
        mock = tmp_path / "no-such-fixtures"
        expected = f"par-generate: error: [Errno 2] No such file or directory: '{mock}'"
    assert main(["par-generate", "--config", str(path), str(prompts), "--mock", str(mock), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(expected)
    assert not out.exists()


@pytest.mark.parametrize("command", ["par-generate", "sample"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_empty_output_directory_is_a_named_error(tmp_path, capsys, monkeypatch, command, source):
    # An empty directory resolved to Path(""), the working directory: par-generate deleted
    # ./corpus.jsonl there and wrote its manifest in its place.
    monkeypatch.chdir(tmp_path)
    raw = small_config(output={"directory": "" if source == "config" else "runs"})
    path = write_config(tmp_path, raw)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    (tmp_path / "corpus.jsonl").write_text("kept\n")
    argv = [command, "--config", str(path)] + (["--out", ""] if source == "flag" else [])
    argv += [str(prompts), "--mock", str(FIXTURES)] if command == "par-generate" else []
    assert main(argv) == 2
    message = ("field 'output.directory' must be a nonempty string, got ''" if source == "config"
               else "argument --out must be a nonempty path, got ''")
    assert capsys.readouterr().err.splitlines() == [f"{command}: error: {message}"]
    assert (tmp_path / "corpus.jsonl").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus.jsonl", "prompts.txt"]


def test_cmd_par_generate_splits_prompts_at_line_ends_only(tmp_path, monkeypatch):
    # Prompts are split at "\n" (CRLF and CR read as LF), as a file's
    # lines are read; str.splitlines would also split a prompt at a form
    # feed, a file separator, NEL or U+2028.
    import guidelab.par

    seen = []
    monkeypatch.setattr(guidelab.par, "generate_batch", lambda endpoint, prompts, *a, **k: seen.extend(prompts) or [])
    prompts = tmp_path / "prompts.txt"
    prompts.write_bytes("one\x0cprompt\u2028still\x1cone\x85\r\nsecond\rthird\n\n".encode("utf-8"))
    assert cmd_par_generate(write_config(tmp_path, small_config()), prompts, out_dir=tmp_path / "out",
                            mock=FIXTURES) == 0
    assert seen == ["one\x0cprompt\u2028still\x1cone", "second", "third"]


class CountingStdout:
    """A stdout stand-in that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_cmd_par_generate_writes_status_lines_at_once(tmp_path, monkeypatch):
    # One status line per prompt, in prompt order, as one write: with an
    # unbuffered stdout, a print per line cost two system calls per prompt.
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    pairs = {"ok": (FIXTURES / "butter.prompt.txt").read_text(), "broken": "A broken response prompt.",
             "hollow": "A ball rolls down a ramp."}
    responses = {"ok": (FIXTURES / "butter.response.txt").read_text(),
                 "broken": (FIXTURES / "malformed_missing_subfield.txt").read_text(),
                 "hollow": ("[ANALYSIS]\nEntities: x\nEnvironment: y\nInteractions: z\n"
                            "Temporal evolution: w\n[COUNTERFACTUAL]\nUnrelated gibberish entirely.")}
    for name, prompt in pairs.items():
        (fixtures / f"{name}.prompt.txt").write_text(prompt)
        (fixtures / f"{name}.response.txt").write_text(responses[name])
    expected = [(pairs["hollow"], "validation_failure"), ("no fixture answers this", "transport_error"),
                (pairs["ok"].strip(), "ok"), (pairs["broken"], "format_violation")]
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("".join(prompt + "\n" for prompt, _ in expected))
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cmd_par_generate(write_config(tmp_path, small_config()), prompts, out_dir=tmp_path / "out",
                            mock=fixtures) == 1
    assert stdout.writes == ["".join(f"{status:<19} {prompt}\n" for prompt, status in expected)]


def test_cmd_schedule_dump(tmp_path):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert cmd_schedule_dump(path, out_dir=out) == 0
    lines = (out / "schedule.csv").read_text().strip().splitlines()
    assert lines[0] == "t,beta,alpha_bar"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.05, abs=1e-15)


def test_main_dispatch(tmp_path):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert main(["schedule-dump", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "schedule.csv").exists()
    out2 = tmp_path / "out2"
    raw = small_config()
    raw["run"]["seeds"] = {"count": 2, "base": 0}
    path2 = write_config(tmp_path, raw, "c2.json")
    assert main(["sample", "--config", str(path2), "--out", str(out2), "--seed-base", "7"]) == 0
    lines = (out2 / "samples.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["7", "8"]


@pytest.mark.parametrize("name, command, edit, message", [
    ("sample", cmd_sample, {"lambda": 1e305}, "sampling under SDG went non-finite at step t=49"),
    ("compare-guidance", cmd_compare_guidance, {"strategy": "NP", "w": 1e300},
     "sampling under TDD_ONLY went non-finite at step t=50"),
    ("diagnose-lag", cmd_diagnose_lag, {"strategy": "NP", "w": 1e300}, "sampling under NP went non-finite at step t=49"),
])
def test_cli_fails_on_non_finite_latents(tmp_path, capsys, name, command, edit, message):
    # A guidance scale that overflows the latents used to give NaN samples
    # labelled by component 0, a counterfactual mass of 0 that reads as
    # perfect suppression, or partial diagnostics with no manifest. The
    # run must stop with the strategy and the step, and write nothing.
    raw = json.loads(DEMO_CONFIG.read_text())
    raw["run"]["seeds"] = {"count": 4, "base": 0}
    raw["guidance"].update(edit)
    out = tmp_path / "out"
    assert command(write_config(tmp_path, raw), out_dir=out) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"{name}: error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("name, edit, message", [
    ("sample", {"lambda": 1e305}, "sampling under SDG went non-finite at step t=49"),
    ("diagnose-lag", {"strategy": "NP", "w": 1e300}, "sampling under NP went non-finite at step t=49"),
])
def test_overflowing_guidance_gives_one_named_error(tmp_path, capsys, name, edit, message, strict):
    # The latents overflowed inside the oracle a step before they went
    # non-finite: --strict stopped on numpy's "overflow encountered in
    # multiply", naming no strategy or step, and without it two numpy
    # warnings came before the named error.
    raw = json.loads(DEMO_CONFIG.read_text())
    raw["run"]["seeds"] = {"count": 4, "base": 0}
    raw["guidance"].update(edit)
    out = tmp_path / "out"
    argv = [name, "--config", str(write_config(tmp_path, raw)), "--out", str(out)] + ["--strict"] * strict
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [f"{name}: error: {message}"]
    assert not (out / "manifest.json").exists()


@pytest.fixture
def oracle_calls(monkeypatch):
    """The step t of every epsilon_oracle call, counted in every guidelab module that holds the function."""
    import sys

    import guidelab.oracle

    real, calls = guidelab.oracle.epsilon_oracle, []

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("guidelab") and getattr(module, "epsilon_oracle", None) is real:
            monkeypatch.setattr(module, "epsilon_oracle", counted)
    return calls


@pytest.mark.parametrize("command, strategy, expected", [
    (cmd_compare_guidance, "SDG", 50),
    (cmd_sample, "SDG", 50),
    (cmd_sample, "NP", 50),
    (cmd_diagnose_lag, "NP", 50),
    (cmd_diagnose_lag, "SDN", 50),
])
def test_oracle_call_budget(tmp_path, oracle_calls, command, strategy, expected):
    # One oracle call per step over all seeds, strategies and conditions
    # at once: compare-guidance steps all five strategies in lockstep and
    # asks for the positive, null and negative predictions in one call
    # (50), and diagnose-lag steps its decoupled reference chain in the
    # same lockstep run as the coupled batch.
    raw = json.loads(DEMO_CONFIG.read_text())
    raw["guidance"]["strategy"] = strategy
    assert command(write_config(tmp_path, raw), out_dir=tmp_path / "out") == 0
    assert len(oracle_calls) == expected
