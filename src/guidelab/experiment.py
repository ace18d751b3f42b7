"""Experiment configuration and the strategy-comparison runner.

A single JSON file describes an experiment: the mixture world, a named
condition registry, the schedule, the guidance settings, a sweep of
count seeds from a base, and the output locations. parse_config
resolves it into live objects, refusing a config its own strategy
cannot run, and strategy_comparison steps all five strategies over the
seeds. Every run is deterministic given the resolved config, so
artifact files are byte-reproducible.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from guidelab.config import ConfigError, built, field, output_dir, read_config
from guidelab.guidance import DEFAULT_EPS_STAB, DEFAULT_LAMBDA, DEFAULT_W, STRATEGIES, GuidanceConfig
from guidelab.oracle import Condition, GmmWorld, assign_labels
from guidelab.sampler import run_lockstep
from guidelab.schedule import NoiseSchedule, make_linear_schedule

__all__ = [
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "default_config",
    "parse_config",
    "load_config",
    "strategy_comparison",
]

# The bundled two-well world. Separation between the component means is
# wide enough that the normalized dual-branch strategies empty the
# counterfactual basin while plain negative prompting retains a
# measurable remnant, and the schedule keeps the late-step discrepancy
# growth (and with it the lagged-suppression ordering) intact at 50
# steps.
DEFAULT_CONFIG = {
    "world": {
        "components": [
            {"mean": [-12.0, 0.0], "cov_diag": [1.0, 1.0]},
            {"mean": [12.0, 0.0], "cov_diag": [1.0, 1.0]},
        ],
        "weights": [0.5, 0.5],
    },
    "conditions": {
        "scene": {"components": [0, 1]},
        "plausible": {"components": [0]},
        "counterfactual": {"components": [1]},
    },
    "positive": "scene",
    "negative": "counterfactual",
    "mass_labels": {"plausible": [0], "counterfactual": [1]},
    "schedule": {"num_steps": 50, "beta_start": 0.03, "beta_end": 0.10},
    "guidance": {"strategy": "SDG", "w": 6.0, "lambda": 30.0, "eps_stab": 1e-8},
    "run": {"seeds": {"count": 64, "base": 0}, "deterministic": True},
    "output": {"directory": "runs/two_well"},
}


def default_config() -> dict:
    """A deep copy of the bundled default experiment config."""
    return json.loads(json.dumps(DEFAULT_CONFIG))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment: live objects plus the raw dict they came from."""

    world: GmmWorld
    positive_condition: Condition
    negative_condition: Optional[Condition]
    schedule: NoiseSchedule
    guidance: GuidanceConfig
    seeds: tuple
    deterministic: bool
    mass_labels: dict
    out_dir: Path
    raw: dict


def parse_config(raw: dict, out_dir=None, seed_base=None) -> ExperimentConfig:
    """Validate and resolve a raw config dict.

    run.seeds {count, base} gives the seeds base .. base + count - 1, all
    below 2**64; a strategy other than CFG needs a 'negative' binding.
    out_dir overrides output.directory, seed_base replaces run.seeds.base.
    The resolved raw dict (overrides applied) is kept for the manifest.
    """
    raw = json.loads(json.dumps(raw))
    world_raw = field(raw, "world", "world", dict, keys=("components", "weights"))
    comps = field(world_raw, "components", "world.components", list)
    if not comps:
        raise ConfigError("field 'world.components' must be a nonempty list")
    comps = [field(comps, i, f"world.components[{i}]", dict, keys=("mean", "cov_diag")) for i in range(len(comps))]
    dim = len(field(comps[0], "mean", "world.components[0].mean", [float]))
    if not dim:
        raise ConfigError("field 'world.components[0].mean' must be a nonempty list, got []")
    means, covs = ([field(comp, key, f"world.components[{i}].{key}", [float], length=dim)
                    for i, comp in enumerate(comps)] for key in ("mean", "cov_diag"))
    weights = field(world_raw, "weights", "world.weights", [float])
    world = built("world", GmmWorld, means=means, cov_diags=covs, weights=weights)

    conditions, specs = {}, field(raw, "conditions", "conditions", dict)
    if not specs:
        raise ConfigError("field 'conditions' must be a nonempty mapping")
    for name in specs:
        spec = field(specs, name, f"conditions.{name}", dict, keys=("components",))
        indices = field(spec, "components", f"conditions.{name}.components", [int])
        conditions[name] = built(f"conditions.{name}", Condition.subset, indices)
        built(f"conditions.{name}", conditions[name].resolve, world)

    positive, negative = field(raw, "positive", "positive", str), field(raw, "negative", "negative", str, None)
    for key, name in (("positive", positive), ("negative", negative)):
        if name is not None and name not in conditions:
            raise ConfigError(f"field '{key}' names unknown condition '{name}'")

    sched = field(raw, "schedule", "schedule", dict, keys=("num_steps", "beta_start", "beta_end"))
    steps, beta_start, beta_end = (field(sched, key, f"schedule.{key}", kind)
                                   for key, kind in (("num_steps", int), ("beta_start", float), ("beta_end", float)))
    schedule = built("schedule", make_linear_schedule, steps, beta_start, beta_end)

    g = field(raw, "guidance", "guidance", dict, keys=("strategy", "w", "lambda", "eps_stab"))
    strategy = field(g, "strategy", "guidance.strategy", str)
    if strategy not in STRATEGIES:
        raise ConfigError(f"field 'guidance.strategy' has unknown value '{strategy}'")
    w, lambda_, eps_stab = (field(g, key, f"guidance.{key}", float, default) for key, default
                            in (("w", DEFAULT_W), ("lambda", DEFAULT_LAMBDA), ("eps_stab", DEFAULT_EPS_STAB)))
    guidance = built("guidance", GuidanceConfig, strategy=strategy, w=w, lambda_=lambda_, eps_stab=eps_stab)
    if strategy != "CFG" and negative is None:
        raise ConfigError(f"strategy {strategy} requires a 'negative' condition binding")

    run = field(raw, "run", "run", dict, keys=("seeds", "deterministic"))
    counts = field(run, "seeds", "run.seeds", dict, keys=("count", "base"))
    count = field(counts, "count", "run.seeds.count", int)
    base = field(counts, "base", "run.seeds.base", int, 0)
    if seed_base is not None:
        base = counts["base"] = int(seed_base)
    if count < 1:
        raise ConfigError("field 'run.seeds.count' must be >= 1")
    if base < 0:
        raise ConfigError(f"field 'run.seeds.base' must be >= 0, got {base}")
    if base + count > 2**64:
        # trajectories.jsonl holds each seed as a JSON integer its encoder keeps to 64 bits
        raise ConfigError(f"field 'run.seeds.base' must give seeds below 2**64, got seed {max(base, 2**64)}")
    seeds = tuple(range(base, base + count))
    deterministic = field(run, "deterministic", "run.deterministic", bool, True)

    labels = field(raw, "mass_labels", "mass_labels", dict, {})
    mass_labels = {label: tuple(field(labels, label, f"mass_labels.{label}", [int])) for label in labels}
    # an absent mass_labels leaves samples labelled by component index
    if "mass_labels" in raw and sorted(sum(mass_labels.values(), ())) != list(range(world.num_components)):
        raise ConfigError(f"field 'mass_labels' must partition components 0..{world.num_components - 1}")

    return ExperimentConfig(
        world=world,
        positive_condition=conditions[positive],
        negative_condition=None if negative is None else conditions[negative],
        schedule=schedule,
        guidance=guidance,
        seeds=seeds,
        deterministic=deterministic,
        mass_labels=mass_labels,
        out_dir=output_dir(raw, out_dir),
        raw=raw,
    )


def load_config(path, out_dir=None, seed_base=None) -> ExperimentConfig:
    return parse_config(read_config(path), out_dir=out_dir, seed_base=seed_base)


def strategy_comparison(config: ExperimentConfig) -> dict:
    """Counterfactual-mode mass per strategy over the config's seeds.

    Returns {strategy: {"mass_mean", "mass_stderr", "seeds", "finals"}}.
    All five strategies step the seeds as one lockstep batch that keeps
    no per-step record, only the finals. The counterfactual label must be present in config.mass_labels.
    """
    if config.negative_condition is None:
        raise ConfigError("comparison runs need a 'negative' condition binding")
    if "counterfactual" not in config.mass_labels:
        raise ConfigError("field 'mass_labels' must define a 'counterfactual' label for comparison runs")
    table = {}
    cfgs = [replace(config.guidance, strategy=s) for s in STRATEGIES]
    batches = run_lockstep(config.world, config.positive_condition, config.negative_condition, config.schedule,
                           cfgs, config.seeds, config.deterministic, record=False)
    for strategy, batch in zip(STRATEGIES, batches):
        per_seed = (assign_labels(config.world, batch.finals, config.mass_labels) == "counterfactual").astype(float)
        n = len(per_seed)
        stderr = float(per_seed.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        table[strategy] = {"mass_mean": float(per_seed.mean()), "mass_stderr": stderr, "seeds": n,
                           "finals": batch.finals}
    return table
