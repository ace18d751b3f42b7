"""Command-line experiment runner.

Subcommands: sample (run the configured strategy over the seed sweep),
compare-guidance (all five strategies on the same world and seeds, one
comparison table), diagnose-lag (discrepancy, spectral, and trajectory
bias curves for a shared-latent run), par-generate (counterfactual
prompt generation over a prompt file, live or mocked), and
schedule-dump (the resolved noise schedule as a table). Every command
reads one JSON config, writes its artifacts plus a manifest with the
resolved config, its hash, and per-file checksums, and returns exit
status 0 only if everything requested succeeded.

Each command imports the layers it runs inside its own body, so
par-generate starts without numpy and the sampling commands without the
prompt pipeline or the diagnostics.
"""

import argparse
import csv
import functools
import hashlib
import inspect
import json
import sys
import warnings
from pathlib import Path

from guidelab.config import ConfigError, config_hash, number, output_dir, read_config

__all__ = [
    "cmd_sample",
    "cmd_compare_guidance",
    "cmd_diagnose_lag",
    "cmd_par_generate",
    "cmd_schedule_dump",
    "main",
]

# Subcommand name -> (name of its cmd_* function, help text, extra argparse arguments), filled by @_command.
COMMANDS = {}


def _command(name: str, help_text: str, *extra):
    """Register a command; its config and input errors become "<name>: error: ..." and exit 2.

    Under the keyword argument strict=True a RuntimeWarning is such an error too.
    """

    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            try:
                with warnings.catch_warnings():
                    if kwargs.get("strict"):
                        warnings.simplefilter("error", RuntimeWarning)
                    return body(*args, **kwargs)
            except (ConfigError, ValueError, OSError, RuntimeWarning) as exc:
                print(f"{name}: error: {exc}", file=sys.stderr)
                return 2

        COMMANDS[name] = (body.__name__, help_text, extra)
        return run

    return register


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, raw_config: dict, seeds, artifact_names) -> None:
    manifest = {
        "command": command,
        "config": raw_config,
        "config_hash": config_hash(raw_config),
        "seeds": list(seeds),
        "artifacts": {name: _sha256(out_dir / name) for name in artifact_names},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path: Path, obj, **options) -> None:
    """obj as strict JSON (a NaN or an infinity is a ValueError), indented, with a final newline."""
    text = json.dumps(obj, indent=2, allow_nan=False, **options)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _mode_labels(samples, config) -> list:
    """The mass label of each sample's most responsible component (the index if unlabelled)."""
    from guidelab.oracle import assign_components

    return [next((label for label, idx in config.mass_labels.items() if k in idx), str(k))
            for k in assign_components(config.world, samples).tolist()]


def _trajectory_lines(result):
    """One JSON line per seed, branch and step, in that nesting order, read from the (T, N, dim) arrays."""
    from guidelab.sampler import DualTrajectoryBatch

    dual = isinstance(result, DualTrajectoryBatch)
    branches = [("plus", result.plus), ("minus", result.minus)] if dual else [("single", result)]
    for i, seed in enumerate(result.seeds):
        for branch_name, b in branches:
            fields = {"eps_pos": b.eps_pos, "eps_neg": b.eps_neg, "delta": b.delta,
                      "correction": b.correction, "x_after": b.states[1:]}
            rows = {key: None if a is None else a[:, i].tolist() for key, a in fields.items()}
            for j, t in enumerate(b.steps):
                record = {key: None if r is None else r[j] for key, r in rows.items()}
                yield json.dumps({"seed": seed, "branch": branch_name, "t": t, **record}, sort_keys=True)


def _prepare(config_path, out_dir, seed_base):
    """The resolved experiment config, with its output directory made."""
    from guidelab.experiment import load_config

    config = load_config(config_path, out_dir=out_dir, seed_base=seed_base)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config


@_command("sample", "run the configured strategy over the seed sweep")
def cmd_sample(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """Run the configured strategy over the seeds; write samples + trajectories."""
    from guidelab.experiment import run_strategy

    config = _prepare(config_path, out_dir, seed_base)
    result = run_strategy(config, config.guidance.strategy, config.seeds)

    with open(config.out_dir / "samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed"] + [f"x{i}" for i in range(config.world.dim)] + ["mode"])
        finals = result.finals
        for seed, x, label in zip(result.seeds, finals, _mode_labels(finals, config)):
            writer.writerow([seed] + [repr(float(c)) for c in x] + [label])
    with open(config.out_dir / "trajectories.jsonl", "w") as fh:
        for line in _trajectory_lines(result):
            fh.write(line + "\n")

    _write_manifest(config.out_dir, "sample", config.raw, config.seeds, ["samples.csv", "trajectories.jsonl"])
    return 0


@_command("compare-guidance", "compare all strategies on one world")
def cmd_compare_guidance(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """All five strategies on the same world/seeds; one comparison table."""
    from guidelab.experiment import strategy_comparison
    from guidelab.guidance import STRATEGIES

    config = _prepare(config_path, out_dir, seed_base)
    table = strategy_comparison(config)

    with open(config.out_dir / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "counterfactual_mass_mean", "counterfactual_mass_stderr", "seeds"])
        for strategy in STRATEGIES:
            row = table[strategy]
            writer.writerow([strategy, repr(row["mass_mean"]), repr(row["mass_stderr"]), row["seeds"]])

    _write_manifest(config.out_dir, "compare-guidance", config.raw, config.seeds, ["comparison.csv"])
    for strategy in STRATEGIES:
        print(f"{strategy:<9} counterfactual mass {table[strategy]['mass_mean']:.4f}"
              f" +/- {table[strategy]['mass_stderr']:.4f} over {table[strategy]['seeds']} seeds")
    return 0


@_command("diagnose-lag", "emit lag/bias/spectral diagnostic curves")
def cmd_diagnose_lag(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """Discrepancy-norm, spectral, and trajectory-bias curves for an NP/SDN run."""
    import numpy as np

    from guidelab.diagnostics import build_report, report_to_json, series_to_csv

    config = _prepare(config_path, out_dir, seed_base)
    if config.guidance.strategy not in ("NP", "SDN"):
        raise ConfigError(f"diagnose-lag needs guidance.strategy NP or SDN, got '{config.guidance.strategy}'")
    if config.negative is None:
        raise ConfigError("diagnose-lag needs a 'negative' condition binding")
    report = build_report(
        config.world,
        config.positive_condition,
        config.negative_condition,
        config.schedule,
        config.guidance,
        config.seeds,
        config.mass_labels or {"all": list(range(config.world.num_components))},
    )

    out = config.out_dir
    series_to_csv(out / "delta_norms.csv", report.delta_norms, "delta_norm")
    series_to_csv(out / "suppression_proj.csv", report.suppression_proj, "projection")
    series_to_csv(out / "bias_gap.csv", report.bias_gap, "gap")
    with open(out / "eigen.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eigenvalue"] + [f"v{i}" for i in range(config.world.dim)])
        for t, lam, v in report.leading_eigs:
            writer.writerow([t, repr(float(lam))] + [repr(float(c)) for c in v])
    _write_json(out / "report.json", report_to_json(report))

    k = max(1, config.schedule.num_steps // 10)
    delta_vals = [val for _, val in report.delta_norms]
    gap_vals = [val for _, val in report.bias_gap]
    early = float(np.mean(delta_vals[:k]))
    late = float(np.mean(delta_vals[-k:]))
    ratio = early / late if late > 0 else float("inf")
    summary = {
        "early_mean_delta_norm": early,
        "late_mean_delta_norm": late,
        # null when the late mean is 0 (negative == positive): strict JSON has no Infinity
        "ratio": ratio if late > 0 else None,
        "bias_gap_at_T": gap_vals[0],
        "bias_gap_early_mean": float(np.mean(gap_vals[1:1 + k])),
        "bias_gap_late_mean": float(np.mean(gap_vals[-k:])),
        "window": k,
    }
    _write_json(out / "summary.json", summary, sort_keys=True)

    artifacts = ["delta_norms.csv", "suppression_proj.csv", "bias_gap.csv", "eigen.csv",
                 "report.json", "summary.json"]
    _write_manifest(out, "diagnose-lag", config.raw, config.seeds, artifacts)
    print(f"lag ratio (early/late mean delta norm over window {k}): {ratio:.4f}")
    return 0


def _endpoint_from_config(raw: dict, mock: bool):
    from guidelab.par import LlmEndpointConfig

    par = raw.get("par")
    if par is None and not mock:
        raise ConfigError("field 'par' (endpoint settings) is required without --mock")
    par = par or {}
    if not isinstance(par, dict):
        raise ConfigError(f"field 'par' must be a mapping, got {par!r}")
    # only the keys present are passed on, so the other fields take LlmEndpointConfig's defaults
    fields = {"base_url": str(par.get("base_url", "http://localhost:0")),
              "model": str(par.get("model", "mock-model"))}
    if "api_key_env" in par:
        fields["api_key_env"] = str(par["api_key_env"])
    for key, kind in (("timeout", float), ("max_retries", int)):
        if key in par:
            fields[key] = number(par[key], f"par.{key}", kind)
    try:
        return LlmEndpointConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"field 'par' invalid: {exc}") from exc


@_command("par-generate", "generate counterfactual prompt records",
          (("prompts_path",), {"metavar": "prompts", "help": "file with one user prompt per line"}),
          (("--mock",), {"default": None, "help": "fixture directory for the mock transport"}))
def cmd_par_generate(config_path, prompts_path, out_dir=None, mock=None, jobs=1, *, strict=False) -> int:
    """Generate counterfactual records for each prompt in a file; the config needs only 'par' and 'output'."""
    from guidelab.par import HttpTransport, MockTransport, generate_batch

    raw = read_config(config_path)
    out = output_dir(raw, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    endpoint = _endpoint_from_config(raw, mock is not None)
    with open(prompts_path, encoding="utf-8") as fh:
        prompts = [line.strip() for line in fh if line.strip()]
    transport = MockTransport.from_dir(mock) if mock is not None else HttpTransport()
    corpus = out / "corpus.jsonl"
    quarantine = out / "quarantine.jsonl"
    # records are appended, so a rerun starts from no corpus and no quarantine
    for path in (corpus, quarantine):
        path.unlink(missing_ok=True)

    if not prompts:
        print("par-generate: warning: prompts file is empty, nothing to do", file=sys.stderr)
        _write_manifest(out, "par-generate", raw, [], [])
        return 0

    results = generate_batch(
        endpoint,
        prompts,
        transport,
        corpus_path=corpus,
        quarantine_path=quarantine,
        jobs=jobs,
    )

    for prompt, status, _ in results:
        print(f"{status:<19} {prompt}")
    statuses = {status for _, status, _ in results}

    artifacts = [p.name for p in (corpus, quarantine) if p.exists()]
    _write_manifest(out, "par-generate", raw, [], artifacts)
    if "transport_error" in statuses or (strict and statuses != {"ok"}):
        return 1
    return 0


@_command("schedule-dump", "dump the resolved noise schedule")
def cmd_schedule_dump(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """Write the resolved noise schedule as a (t, beta, alpha_bar) table."""
    config = _prepare(config_path, out_dir, seed_base)
    s = config.schedule
    with open(config.out_dir / "schedule.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "beta", "alpha_bar"])
        for t in range(1, s.num_steps + 1):
            writer.writerow([t, repr(s.beta(t)), repr(s.alpha_bar(t))])
    _write_manifest(config.out_dir, "schedule-dump", config.raw, config.seeds, ["schedule.csv"])
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", dest="config_path", metavar="CONFIG", required=True,
                        help="path to the experiment JSON config")
    common.add_argument("--out", dest="out_dir", metavar="OUT", default=None,
                        help="output directory (overrides config output.directory)")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallelism bound over prompts (par-generate); seed sweeps run as one batch")
    common.add_argument("--seed-base", type=int, default=None,
                        help="replace the seed base (count+base configs) or offset an explicit seed list")
    common.add_argument("--strict", action="store_true",
                        help="fail on soft errors (per-prompt failures, diagnostic warnings)")

    parser = argparse.ArgumentParser(prog="guidelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extra) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, options in extra:
            p.add_argument(*flags, **options)

    args = vars(parser.parse_args(argv))
    if args["jobs"] < 1:
        sub.choices[args["command"]].error(f"argument --jobs: must be at least 1, got {args['jobs']}")
    # looked up at call time, so a rebound cmd_* (a test double, a tracing wrapper) is what runs
    run = globals()[COMMANDS[args.pop("command")][0]]
    accepted = inspect.signature(run).parameters
    return run(**{key: value for key, value in args.items() if key in accepted})


if __name__ == "__main__":
    sys.exit(main())
