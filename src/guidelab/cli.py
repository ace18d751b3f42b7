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
import atexit
import csv
import functools
import gc
import hashlib
import inspect
import json
import sys
import warnings
from pathlib import Path

from guidelab.config import ConfigError, config_hash, field, output_dir, read_config, read_text

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


def _create(path: Path, mode="w", **options):
    """path opened for writing, its directory made first: a command that fails before writing leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, **options)


def _write_manifest(out_dir: Path, command: str, raw_config: dict, seeds, artifact_names) -> None:
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config": raw_config,
        "config_hash": config_hash(raw_config),
        "seeds": list(seeds),
        "artifacts": {name: _sha256(out_dir / name) for name in artifact_names},
    }, sort_keys=True)


def _write_json(path: Path, obj, **options) -> None:
    """obj as strict JSON (a NaN or an infinity is a ValueError), indented, with a final newline."""
    text = json.dumps(obj, indent=2, allow_nan=False, **options)
    with _create(path) as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """A CSV file of the header row and then each row of an iterable, as the caller formatted them, in UTF-8."""
    with _create(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _trajectory_lines(result):
    """One encoded JSON line per seed, branch and step, in that nesting order, each recorded number written once.

    A batch that carries a minus branch gives plus and minus lines, any other batch single lines.
    A plus or single line holds eps_pos, eps_neg (null under CFG), correction and x_after; a minus
    line holds x_after alone. The rest follows bit for bit: delta = eps_pos - eps_neg, a minus
    branch's eps_pos is the plus line's eps_neg at the same seed and t, and its correction is 0.
    The lines are encoded one at a time as they are consumed. Every number is finite, because
    run_lockstep refuses a record that holds a NaN or an infinity.
    """
    import orjson

    branches = []
    for name, b in [("single", result)] if result.minus is None else [("plus", result), ("minus", result.minus)]:
        fields = {"x_after": b.states[1:]}
        if name != "minus":
            fields.update(eps_pos=b.eps_pos, eps_neg=b.eps_neg, correction=b.correction)
        branches.append((name, b.steps, fields))
    # orjson writes the shortest decimal that reads back as the same float64, as repr does, in compact form
    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE

    def lines():
        for i, seed in enumerate(result.seeds):
            for name, steps, fields in branches:
                rows = {key: None if a is None else a[:, i].tolist() for key, a in fields.items()}
                for j, t in enumerate(steps):
                    record = {key: None if r is None else r[j] for key, r in rows.items()}
                    yield orjson.dumps({"seed": seed, "branch": name, "t": t, **record}, option=option)

    return lines()


@_command("sample", "run the configured strategy over the seed sweep")
def cmd_sample(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """Run the configured strategy over the seeds; write samples + trajectories (none if a record is not finite)."""
    from guidelab.experiment import load_config
    from guidelab.oracle import assign_labels
    from guidelab.sampler import run_single_batch

    config = load_config(config_path, out_dir=out_dir, seed_base=seed_base)
    result = run_single_batch(config.world, config.positive_condition, config.negative_condition, config.schedule,
                              config.guidance, config.seeds, config.deterministic)

    labels = assign_labels(config.world, result.finals, config.mass_labels).tolist()
    _write_csv(config.out_dir / "samples.csv", ["seed"] + [f"x{i}" for i in range(config.world.dim)] + ["mode"],
               ([seed] + [repr(float(c)) for c in x] + [label]
                for seed, x, label in zip(result.seeds, result.finals, labels)))
    with _create(config.out_dir / "trajectories.jsonl", "wb") as fh:
        fh.writelines(_trajectory_lines(result))

    _write_manifest(config.out_dir, "sample", config.raw, config.seeds, ["samples.csv", "trajectories.jsonl"])
    return 0


@_command("compare-guidance", "compare all strategies on one world")
def cmd_compare_guidance(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """All five strategies on the same world/seeds; one comparison table."""
    from guidelab.experiment import load_config, strategy_comparison
    from guidelab.guidance import STRATEGIES

    config = load_config(config_path, out_dir=out_dir, seed_base=seed_base)
    table = strategy_comparison(config)

    _write_csv(config.out_dir / "comparison.csv",
               ["strategy", "counterfactual_mass_mean", "counterfactual_mass_stderr", "seeds"],
               ([s, repr(table[s]["mass_mean"]), repr(table[s]["mass_stderr"]), table[s]["seeds"]] for s in STRATEGIES))

    _write_manifest(config.out_dir, "compare-guidance", config.raw, config.seeds, ["comparison.csv"])
    for strategy in STRATEGIES:
        print(f"{strategy:<9} counterfactual mass {table[strategy]['mass_mean']:.4f}"
              f" +/- {table[strategy]['mass_stderr']:.4f} over {table[strategy]['seeds']} seeds")
    return 0


@_command("diagnose-lag", "emit lag/bias/spectral diagnostic curves")
def cmd_diagnose_lag(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """Discrepancy-norm, spectral, and trajectory-bias curves for an NP/SDN run, whose negative parse_config checks."""
    from guidelab.diagnostics import build_report, lag_summary
    from guidelab.experiment import load_config

    config = load_config(config_path, out_dir=out_dir, seed_base=seed_base)
    if config.guidance.strategy not in ("NP", "SDN"):
        raise ConfigError(f"diagnose-lag needs guidance.strategy NP or SDN, got '{config.guidance.strategy}'")
    if not config.deterministic:
        raise ConfigError("field 'run.deterministic' must be true for diagnose-lag, which steps its chains"
                          " without noise")
    if config.schedule.num_steps < 2:
        # the bias gap is 0 by construction at t=T, so its early and late means need a later step
        raise ConfigError(f"field 'schedule.num_steps' must be at least 2 for diagnose-lag,"
                          f" got {config.schedule.num_steps}")
    report = build_report(config.world, config.positive_condition, config.negative_condition, config.schedule,
                          config.guidance, config.seeds, config.mass_labels)
    summary = lag_summary(report)

    out = config.out_dir
    for key, header in (("delta_norms", "delta_norm"), ("suppression_proj", "projection"), ("bias_gap", "gap")):
        _write_csv(out / f"{key}.csv", ["t", header], ([t, repr(val)] for t, val in report[key]))
    _write_csv(out / "eigen.csv", ["t", "eigenvalue"] + [f"v{i}" for i in range(config.world.dim)],
               ([t, repr(lam)] + [repr(c) for c in v] for t, lam, v in report["leading_eigs"]))
    _write_json(out / "report.json", report)
    _write_json(out / "summary.json", summary, sort_keys=True)

    artifacts = ["delta_norms.csv", "suppression_proj.csv", "bias_gap.csv", "eigen.csv",
                 "report.json", "summary.json"]
    _write_manifest(out, "diagnose-lag", config.raw, config.seeds, artifacts)
    ratio = float("inf") if summary["ratio"] is None else summary["ratio"]
    print(f"lag ratio (early/late mean delta norm over window {summary['window']}): {ratio:.4f}")
    return 0


def _endpoint_from_config(raw: dict, mock: bool):
    from guidelab.par import LlmEndpointConfig

    kinds = {"base_url": str, "model": str, "api_key_env": str, "timeout": float, "max_retries": int}
    par = field(raw, "par", "par", dict, None, keys=tuple(kinds))
    if par is None and not mock:
        raise ConfigError("field 'par' (endpoint settings) is required without --mock")
    par = par or {}
    # base_url and model default here under --mock and are required without it;
    # the other keys absent from par take LlmEndpointConfig's defaults
    fields = {"base_url": "http://localhost:0", "model": "mock-model"} if mock else {}
    for key, kind in kinds.items():
        if key in par or (key in ("base_url", "model") and not mock):
            fields[key] = field(par, key, f"par.{key}", kind)
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
    endpoint = _endpoint_from_config(raw, mock is not None)
    # split on "\n" alone, as a file's lines are read: splitlines() would also split at form feeds and the like
    prompts = [line.strip() for line in read_text(prompts_path, "prompts file").split("\n") if line.strip()]
    transport = MockTransport.from_dir(mock) if mock is not None else HttpTransport()
    # every input is read before the output directory is made, so a bad input leaves none behind
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.jsonl"
    quarantine = out / "quarantine.jsonl"
    # records are appended, so a rerun starts from no corpus and no quarantine
    for path in (corpus, quarantine):
        path.unlink(missing_ok=True)

    if not prompts:
        print("par-generate: warning: prompts file is empty, nothing to do", file=sys.stderr)

    results = generate_batch(
        endpoint,
        prompts,
        transport,
        corpus_path=corpus,
        quarantine_path=quarantine,
        jobs=jobs,
    )

    # one write, not one per line: an unbuffered stdout makes each write a system call
    sys.stdout.write("".join(f"{status:<19} {prompt}\n" for prompt, status, _ in results))
    statuses = {status for _, status, _ in results}

    artifacts = [p.name for p in (corpus, quarantine) if p.exists()]
    _write_manifest(out, "par-generate", raw, [], artifacts)
    if "transport_error" in statuses or (strict and statuses - {"ok"}):
        return 1
    return 0


@_command("schedule-dump", "dump the resolved noise schedule")
def cmd_schedule_dump(config_path, out_dir=None, seed_base=None, *, strict=False) -> int:
    """Write the resolved noise schedule as a (t, beta, alpha_bar) table."""
    from guidelab.experiment import load_config

    config = load_config(config_path, out_dir=out_dir, seed_base=seed_base)
    s = config.schedule
    _write_csv(config.out_dir / "schedule.csv", ["t", "beta", "alpha_bar"],
               ([t, repr(s.beta(t)), repr(s.alpha_bar(t))] for t in range(1, s.num_steps + 1)))
    _write_manifest(config.out_dir, "schedule-dump", config.raw, config.seeds, ["schedule.csv"])
    return 0


def main(argv=None) -> int:
    # At exit CPython runs full collections over every tracked object (about 22k once numpy is loaded, some
    # 8 ms a pass), which gc.disable() does not stop. atexit handlers run first, and a heap frozen there leaves
    # them nothing to walk, while an in-process caller keeps its collector until then. No object needs those
    # passes: every file is closed by a with block.
    atexit.register(gc.freeze)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", dest="config_path", metavar="CONFIG", required=True,
                        help="path to the experiment JSON config")
    common.add_argument("--out", dest="out_dir", metavar="OUT", default=None,
                        help="output directory (overrides config output.directory)")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallelism bound over prompts, 1 to 32 (par-generate); seed sweeps run as one batch")
    common.add_argument("--seed-base", type=int, default=None,
                        help="replace run.seeds.base")
    common.add_argument("--strict", action="store_true",
                        help="fail on soft errors (per-prompt failures, diagnostic warnings)")

    parser = argparse.ArgumentParser(prog="guidelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extra) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, options in extra:
            p.add_argument(*flags, **options)

    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    if not 1 <= args["jobs"] <= 32:  # a pool starts a thread per call while none is idle; 32 is its stdlib ceiling
        bound = "at least 1" if args["jobs"] < 1 else "at most 32"
        sub.choices[command].error(f"argument --jobs: must be {bound}, got {args['jobs']}")
    # looked up at call time, so a rebound cmd_* (a test double, a tracing wrapper) is what runs
    run = globals()[COMMANDS[command][0]]
    accepted = inspect.signature(run).parameters
    for key, value in args.items():
        if key not in accepted and value != common.get_default(key):
            sub.choices[command].error(f"argument --{key.replace('_', '-')}: not used by {command}")
    return run(**{key: value for key, value in args.items() if key in accepted})


if __name__ == "__main__":
    sys.exit(main())
