"""Experiment configuration and seed-sweep runners.

A single JSON file describes an experiment: the mixture world, a named
condition registry, the schedule, the guidance settings, the seed
sweep, and the output locations. The runners here resolve that file
into live objects, drive the samplers over the seeds, and hand
artifact-ready tables back to the CLI. Every run is deterministic given
the resolved config, so artifact files are byte-reproducible.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from guidelab.config import ConfigError, _need, number, output_dir, read_config
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
    "run_strategy",
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
    conditions: dict
    positive: str
    negative: str
    schedule: NoiseSchedule
    guidance: GuidanceConfig
    seeds: tuple
    deterministic: bool
    mass_labels: dict
    out_dir: Path
    raw: dict

    @property
    def positive_condition(self) -> Condition:
        return self.conditions[self.positive]

    @property
    def negative_condition(self):
        return self.conditions[self.negative] if self.negative else None


def _parse_world(raw) -> GmmWorld:
    comps = _need(raw, "components", "world.")
    if not isinstance(comps, list) or not comps:
        raise ConfigError("field 'world.components' must be a nonempty list")
    means = [_need(comp, "mean", f"world.components[{i}].") for i, comp in enumerate(comps)]
    covs = [_need(comp, "cov_diag", f"world.components[{i}].") for i, comp in enumerate(comps)]
    if not isinstance(means[0], list) or not means[0]:
        raise ConfigError(f"field 'world.components[0].mean' must be a nonempty list, got {means[0]!r}")
    dim = len(means[0])
    for i, (mean, cov) in enumerate(zip(means, covs)):
        for key, vector in (("mean", mean), ("cov_diag", cov)):
            if not isinstance(vector, list) or len(vector) != dim:
                raise ConfigError(f"field 'world.components[{i}].{key}' must be a list of {dim} numbers"
                                  f" (the length of world.components[0].mean), got {vector!r}")
    weights = _need(raw, "weights", "world.")
    try:
        return GmmWorld(means=means, cov_diags=covs, weights=weights)
    except ValueError as exc:
        raise ConfigError(f"field 'world' invalid: {exc}") from exc


def _parse_conditions(raw, world: GmmWorld) -> dict:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("field 'conditions' must be a nonempty mapping")
    conditions = {}
    for name, spec in raw.items():
        comps = _need(spec, "components", f"conditions.{name}.")
        if not isinstance(comps, list):
            raise ConfigError(f"field 'conditions.{name}.components' must be a list of component indices")
        comps = [number(c, f"conditions.{name}.components[{i}]", int) for i, c in enumerate(comps)]
        try:
            cond = Condition.subset(comps)
            cond.resolve(world)
        except ValueError as exc:
            raise ConfigError(f"field 'conditions.{name}' invalid: {exc}") from exc
        conditions[name] = cond
    return conditions


def parse_config(raw: dict, out_dir=None, seed_base=None) -> ExperimentConfig:
    """Validate and resolve a raw config dict.

    out_dir overrides output.directory; seed_base replaces the base of a
    count+base seed spec or offsets an explicit seed list. The resolved
    raw dict (with overrides applied) is kept for hashing and manifest
    embedding.
    """
    raw = json.loads(json.dumps(raw))
    world = _parse_world(_need(raw, "world", ""))
    conditions = _parse_conditions(_need(raw, "conditions", ""), world)

    positive, negative = _need(raw, "positive", ""), raw.get("negative")
    for key, name in (("positive", positive), ("negative", negative)):
        if name is not None and not isinstance(name, str):
            raise ConfigError(f"field '{key}' must be a condition name, got {name!r}")
        if name is not None and name not in conditions:
            raise ConfigError(f"field '{key}' names unknown condition '{name}'")

    sched_raw = _need(raw, "schedule", "")
    steps, beta_start, beta_end = (number(_need(sched_raw, key, "schedule."), f"schedule.{key}", kind)
                                   for key, kind in (("num_steps", int), ("beta_start", float), ("beta_end", float)))
    try:
        schedule = make_linear_schedule(steps, beta_start, beta_end)
    except ValueError as exc:
        raise ConfigError(f"field 'schedule' invalid: {exc}") from exc

    g = _need(raw, "guidance", "")
    strategy = _need(g, "strategy", "guidance.")
    if strategy not in STRATEGIES:
        raise ConfigError(f"field 'guidance.strategy' has unknown value '{strategy}'")
    w, lambda_, eps_stab = (number(g.get(key, default), f"guidance.{key}") for key, default
                            in (("w", DEFAULT_W), ("lambda", DEFAULT_LAMBDA), ("eps_stab", DEFAULT_EPS_STAB)))
    try:
        guidance = GuidanceConfig(strategy=strategy, w=w, lambda_=lambda_, eps_stab=eps_stab)
    except ValueError as exc:
        raise ConfigError(f"field 'guidance' invalid: {exc}") from exc

    run = _need(raw, "run", "")
    seeds_raw = _need(run, "seeds", "run.")
    if isinstance(seeds_raw, dict):
        count = number(_need(seeds_raw, "count", "run.seeds."), "run.seeds.count", int)
        base = number(seeds_raw.get("base", 0), "run.seeds.base", int)
        if seed_base is not None:
            base = int(seed_base)
            raw["run"]["seeds"]["base"] = base
        if count < 1:
            raise ConfigError("field 'run.seeds.count' must be >= 1")
        seeds = list(range(base, base + count))
    elif isinstance(seeds_raw, list):
        seeds = [number(s, f"run.seeds[{i}]", int) for i, s in enumerate(seeds_raw)]
        if seed_base is not None:
            seeds = [s + int(seed_base) for s in seeds]
            raw["run"]["seeds"] = seeds
    else:
        raise ConfigError("field 'run.seeds' must be a list or a {count, base} mapping")
    if not seeds:
        raise ConfigError("field 'run.seeds' must be nonempty")
    for i, s in enumerate(seeds):
        if s < 0:
            where = "run.seeds.base" if isinstance(seeds_raw, dict) else f"run.seeds[{i}]"
            raise ConfigError(f"field '{where}' must be >= 0, got {s}")
    seeds = list(dict.fromkeys(seeds))  # duplicates dropped, first occurrence kept
    if "sample_count" in run:
        sample_count = number(run["sample_count"], "run.sample_count", int)
        if sample_count < 1:
            raise ConfigError("field 'run.sample_count' must be >= 1")
        seeds = seeds[:sample_count]
    deterministic = run.get("deterministic", True)
    if not isinstance(deterministic, bool):
        raise ConfigError(f"field 'run.deterministic' must be true or false, got {deterministic!r}")

    mass_labels = {}
    labels_raw = raw.get("mass_labels", {})
    if not isinstance(labels_raw, dict):
        raise ConfigError(f"field 'mass_labels' must be a mapping, got {labels_raw!r}")
    for label, comps in labels_raw.items():
        if not isinstance(comps, list):
            raise ConfigError(f"field 'mass_labels.{label}' must be a list of component indices")
        mass_labels[label] = tuple(number(c, f"mass_labels.{label}[{i}]", int) for i, c in enumerate(comps))
    # an absent mass_labels leaves samples labelled by component index
    if "mass_labels" in raw and sorted(sum(mass_labels.values(), ())) != list(range(world.num_components)):
        raise ConfigError(f"field 'mass_labels' must partition components 0..{world.num_components - 1}")

    return ExperimentConfig(
        world=world,
        conditions=conditions,
        positive=positive,
        negative=negative,
        schedule=schedule,
        guidance=guidance,
        seeds=tuple(seeds),
        deterministic=deterministic,
        mass_labels=mass_labels,
        out_dir=output_dir(raw, out_dir),
        raw=raw,
    )


def load_config(path, out_dir=None, seed_base=None) -> ExperimentConfig:
    return parse_config(read_config(path), out_dir=out_dir, seed_base=seed_base)


def _lockstep(config: ExperimentConfig, strategies, seeds, record: bool = True) -> list:
    """The strategies stepped over the seeds as one batch, with the config's world, conditions and knobs."""
    g = config.guidance
    cfgs = [GuidanceConfig(strategy=s, w=g.w, lambda_=g.lambda_, eps_stab=g.eps_stab) for s in strategies]
    return run_lockstep(config.world, config.positive_condition, config.negative_condition, config.schedule,
                        cfgs, seeds, deterministic=config.deterministic, record=record)


def run_strategy(config: ExperimentConfig, strategy: str, seeds):
    """Run one strategy over a list of seeds, all of them as one batch.

    Gives a TrajectoryBatch for single-latent strategies and a
    DualTrajectoryBatch for dual-branch ones. The CFG row needs no
    negative condition; the rest use the config's negative binding.
    """
    if strategy != "CFG" and config.negative_condition is None:
        raise ConfigError(f"strategy {strategy} requires a 'negative' condition binding")
    return _lockstep(config, [strategy], seeds)[0]


def strategy_comparison(config: ExperimentConfig) -> dict:
    """Counterfactual-mode mass per strategy over the config's seeds.

    Returns {strategy: {"mass_mean", "mass_stderr", "seeds", "finals"}}.
    All five strategies step the seeds as one lockstep batch that keeps
    only the final latents. The counterfactual label must be present in
    config.mass_labels.
    """
    if config.negative_condition is None:
        raise ConfigError("comparison runs need a 'negative' condition binding")
    if "counterfactual" not in config.mass_labels:
        raise ConfigError("field 'mass_labels' must define a 'counterfactual' label for comparison runs")
    table = {}
    for strategy, finals in zip(STRATEGIES, _lockstep(config, STRATEGIES, config.seeds, record=False)):
        per_seed = (assign_labels(config.world, finals, config.mass_labels) == "counterfactual").astype(float)
        n = len(per_seed)
        stderr = float(per_seed.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        table[strategy] = {"mass_mean": float(per_seed.mean()), "mass_stderr": stderr, "seeds": n,
                           "finals": finals}
    return table
