"""Config parsing, seed-sweep runners, and the command-line entry points."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from guidelab.cli import (
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
    run_strategy,
    strategy_comparison,
)

from guidelab.guidance import STRATEGIES

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


def test_seed_list_dedup_preserves_order():
    raw = small_config()
    raw["run"]["seeds"] = [5, 3, 5, 1, 3]
    cfg = parse_config(raw)
    assert cfg.seeds == (5, 3, 1)


def test_seed_base_override():
    raw = small_config()
    cfg = parse_config(raw, seed_base=100)
    assert cfg.seeds == (100, 101, 102)
    assert cfg.raw["run"]["seeds"]["base"] == 100
    raw2 = small_config()
    raw2["run"]["seeds"] = [0, 1]
    cfg2 = parse_config(raw2, seed_base=10)
    assert cfg2.seeds == (10, 11)


def test_sample_count_truncates():
    raw = small_config()
    raw["run"]["seeds"] = {"count": 10, "base": 0}
    raw["run"]["sample_count"] = 4
    cfg = parse_config(raw)
    assert cfg.seeds == (0, 1, 2, 3)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_hash_is_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})


def test_run_strategy_dispatch():
    cfg = parse_config(small_config())
    single = run_strategy(cfg, "NP", [0])
    assert hasattr(single, "states")
    dual = run_strategy(cfg, "SDG", [0])
    assert hasattr(dual, "plus")
    assert dual.finals[0].shape == (2,)
    raw = small_config()
    del raw["negative"]
    with pytest.raises(ConfigError):
        run_strategy(parse_config(raw), "NP", [0])


def test_strategy_comparison_batch_matches_per_seed():
    # Each strategy runs its seeds as one batch; every final must equal
    # the final of that seed run alone, and the masses follow from them.
    raw = small_config()
    raw["run"]["seeds"] = [5, 0, 3]
    cfg = parse_config(raw)
    table = strategy_comparison(cfg)
    assert tuple(table) == STRATEGIES
    for strategy, row in table.items():
        for seed, final in zip(cfg.seeds, row["finals"]):
            np.testing.assert_array_equal(final, run_strategy(cfg, strategy, [seed]).finals[0])
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


def test_cmd_diagnose_strict_on_shipped_np_config(tmp_path):
    # The shipped two_well world under NP must pass --strict: no
    # diagnostic step may raise a RuntimeWarning.
    raw = json.loads(DEMO_CONFIG.read_text())
    raw["guidance"]["strategy"] = "NP"
    path = write_config(tmp_path, raw)
    assert cmd_diagnose_lag(path, out_dir=tmp_path / "out", strict=True) == 0


@pytest.mark.parametrize("world_edit", [
    {"components": [{"mean": [float("nan"), 0.0], "cov_diag": [1.0, 1.0]},
                    {"mean": [12.0, 0.0], "cov_diag": [1.0, 1.0]}]},
    {"components": [{"mean": [-12.0, 0.0], "cov_diag": [1.0, float("inf")]},
                    {"mean": [12.0, 0.0], "cov_diag": [1.0, 1.0]}]},
    {"weights": [1.0, 0.0]},
], ids=["nan_mean", "inf_cov", "zero_weight"])
def test_cmd_sample_rejects_bad_world(tmp_path, capsys, world_edit):
    # Non-finite parameters used to give NaN samples with exit 0, and a
    # zero weight a log(0) RuntimeWarning; both must fail naming 'world'.
    raw = small_config()
    raw["world"].update(world_edit)
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cmd_sample(path, out_dir=out) == 2
    assert "field 'world' invalid" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("path, value, field", [
    (("guidance", "w"), None, "guidance.w"),
    (("guidance", "lambda"), [30.0], "guidance.lambda"),
    (("schedule", "num_steps"), None, "schedule.num_steps"),
    (("schedule", "num_steps"), 2.5, "schedule.num_steps"),
    (("schedule", "beta_start"), "0.05", "schedule.beta_start"),
    (("run", "seeds"), [1, {"a": 2}], "run.seeds[1]"),
    (("run", "seeds", "count"), 3.7, "run.seeds.count"),
    (("run", "seeds", "base"), None, "run.seeds.base"),
    (("run", "sample_count"), True, "run.sample_count"),
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
    (("run", "seeds"), [2, -3], "run.seeds[1]"),
    (("world", "components", 1, "mean"), [1.0, 2.0, 3.0], "world.components[1].mean"),
    (("world", "components", 0, "cov_diag"), [1.0], "world.components[0].cov_diag"),
], ids=["w_null", "lambda_list", "num_steps_null", "num_steps_fraction", "beta_string", "seed_mapping",
        "count_fraction", "base_null", "sample_count_bool", "mass_label_int", "mass_label_fraction",
        "deterministic_string", "deterministic_int", "positive_list", "negative_list", "run_int",
        "condition_int", "mass_labels_list", "output_list", "component_fraction", "component_string",
        "component_bool", "components_int", "seeds_empty", "base_negative", "seed_negative",
        "mean_too_long", "cov_diag_too_short"])
def test_cmd_sample_rejects_non_numeric_fields(tmp_path, capsys, path, value, field):
    # A null, list or mapping used to end in a TypeError traceback; 2.5, 3.7, "0.05" and
    # true were truncated or coerced and ran with exit 0. Each must fail naming its field.
    # "deterministic": "false" ran deterministic (bool("false") is True) with exit 0; a list
    # where a condition name belongs, or a number where a mapping belongs, ended in a
    # TypeError or AttributeError traceback. Condition components of [0.7], ["1"] and
    # [true] ran as components 0, 1 and 1 with exit 0, and a bare 1 was a TypeError
    # traceback. An empty or negative seed failed with a message naming no field, and a
    # world vector of the wrong length with numpy's "inhomogeneous shape".
    raw = small_config()
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config = write_config(tmp_path, raw)
    assert main(["sample", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}' must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "samples.csv").exists()


@pytest.mark.parametrize("seeds, seed_base, field", [
    ({"count": 3, "base": 0}, "-2", "run.seeds.base"),
    ([0, 5], "-2", "run.seeds[0]"),
], ids=["count_base", "list"])
def test_cli_rejects_seed_base_that_gives_negative_seeds(tmp_path, capsys, seeds, seed_base, field):
    # A negative seed used to fail with numpy's "expected non-negative integer", naming no field.
    raw = small_config()
    raw["run"]["seeds"] = seeds
    config = write_config(tmp_path, raw)
    assert main(["sample", "--config", str(config), "--out", str(tmp_path / "out"), "--seed-base", seed_base]) == 2
    assert f"field '{field}' must" in capsys.readouterr().err
    assert not (tmp_path / "out" / "samples.csv").exists()


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


def test_integral_floats_are_accepted_for_int_fields():
    raw = small_config()
    raw["run"]["seeds"] = {"count": 3.0, "base": 2.0}
    raw["schedule"]["num_steps"] = 10.0
    cfg = parse_config(raw)
    assert cfg.seeds == (2, 3, 4)
    assert cfg.schedule.num_steps == 10


@pytest.mark.parametrize("key, value", [("timeout", None), ("max_retries", 1.5), ("timeout", "60")])
def test_cmd_par_generate_rejects_non_numeric_endpoint_fields(tmp_path, capsys, key, value):
    raw = {"par": {"model": "mock-model", key: value}, "output": {"directory": str(tmp_path / "out")}}
    path = write_config(tmp_path, raw)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((FIXTURES / "butter.prompt.txt").read_text().strip() + "\n")
    assert cmd_par_generate(path, prompts, mock=FIXTURES) == 2
    assert f"field 'par.{key}' must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


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


def test_cmd_par_generate_unknown_prompt_fails(tmp_path):
    path = write_config(tmp_path, small_config())
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a prompt no fixture answers\n")
    assert cmd_par_generate(path, prompts, out_dir=tmp_path / "out", mock=FIXTURES) == 1


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    assert list(out.iterdir()) == []


@pytest.fixture
def oracle_calls(monkeypatch):
    """The step t of every epsilon_oracle call, counted in every guidelab module that holds the function."""
    import sys

    import guidelab.diagnostics  # noqa: F401  (loaded so its alias gets rebound too)
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
    (cmd_compare_guidance, "SDG", 150),
    (cmd_sample, "SDG", 150),
    (cmd_sample, "NP", 100),
    (cmd_diagnose_lag, "NP", 150),
])
def test_oracle_call_budget(tmp_path, oracle_calls, command, strategy, expected):
    # One oracle call per condition per step over all seeds and strategies
    # at once: compare-guidance steps all five strategies in lockstep
    # (positive, null and negative: 3 x 50), a dual strategy asks for the
    # null prediction of both branches in one call, and diagnose-lag adds
    # one call per step for the decoupled reference chain.
    raw = json.loads(DEMO_CONFIG.read_text())
    raw["guidance"]["strategy"] = strategy
    assert command(write_config(tmp_path, raw), out_dir=tmp_path / "out") == 0
    assert len(oracle_calls) == expected
