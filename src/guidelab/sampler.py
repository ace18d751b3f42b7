"""Reverse-process samplers: one shared latent, or two decoupled ones.

CFG, negative prompting and the directionally normalized rule step one
latent per seed. The dual-branch strategies evolve a plus and a minus
latent per seed from the same initial noise; each branch predicts with
internal CFG on its own latent, the plus branch advances on the
combined prediction and the minus branch on its own, so it stays a
clean sample of the negative condition.

One lockstep loop steps any set of strategies over the same seeds, all
latents as rows of one array, with one oracle call per condition per
step. Rows never mix, so a seed's path is bit for bit its path in a
one-strategy, one-seed run; run_single_batch and run_dual_batch are
one-strategy calls of the loop.

Seeding contract: rng = numpy.random.default_rng(seed) for each seed;
the initial latent x_T is the first draw. Deterministic mode draws
nothing else; stochastic mode draws one unit Gaussian per step from each
seed's own generator, and every strategy and branch gets that same draw
(synchronized noise).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from guidelab.guidance import (
    GuidanceConfig,
    cfg_combine,
    np_combine,
    sdn_combine,
    sdg_combine,
    tdd_only_combine,
)
from guidelab.oracle import Condition, GmmWorld, epsilon_oracle
from guidelab.schedule import NoiseSchedule

__all__ = [
    "SamplerStepCoeffs",
    "TrajectoryBatch",
    "DualTrajectoryBatch",
    "ancestral_coeffs",
    "run_lockstep",
    "run_single_batch",
    "run_dual_batch",
]

# The conditions the oracle evaluates on each kind of latent block.
_CONDITIONS = {"CFG": ("pos", "null"), "NP": ("pos", "neg"), "SDN": ("pos", "neg"),
               "plus": ("pos", "null"), "minus": ("neg", "null")}

# The combine rule of each strategy with a negative side, as (positive, negative, config) -> prediction.
_COMBINE = {
    "NP": lambda pos, neg, cfg: np_combine(pos, neg, cfg.w),
    "SDN": lambda pos, neg, cfg: sdn_combine(pos, neg, cfg.lambda_, cfg.eps_stab),
    "TDD_ONLY": lambda plus, minus, cfg: tdd_only_combine(plus, minus, cfg.w),
    "SDG": lambda plus, minus, cfg: sdg_combine(plus, minus, cfg.lambda_, cfg.eps_stab),
}


@dataclass(frozen=True)
class SamplerStepCoeffs:
    """Coefficients of one reverse update x_{t-1} = a_t x_t + b_t eps_hat + sigma_t eta."""

    a_t: float
    b_t: float
    sigma_t: float


@dataclass(frozen=True)
class TrajectoryBatch:
    """The reverse paths of N seeds' latents, as arrays indexed [step, seed, dim].

    states has shape (T+1, N, dim), x_T first. The per-step arrays have
    shape (T, N, dim), and index i holds step t = T - i, whose result is
    states[i + 1]. eps_neg and delta are None for strategies without a
    negative prediction; otherwise delta == eps_pos - eps_neg exactly.
    """

    seeds: tuple
    config: GuidanceConfig
    states: np.ndarray
    eps_pos: np.ndarray
    eps_neg: Optional[np.ndarray]
    delta: Optional[np.ndarray]
    correction: np.ndarray

    @property
    def steps(self) -> range:
        """The step index t of each record, descending from T."""
        return range(len(self.eps_pos), 0, -1)

    @property
    def finals(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class DualTrajectoryBatch:
    plus: TrajectoryBatch
    minus: TrajectoryBatch

    @property
    def seeds(self) -> tuple:
        return self.plus.seeds

    @property
    def finals(self) -> np.ndarray:
        return self.plus.finals


def ancestral_coeffs(schedule: NoiseSchedule, t: int, deterministic: bool = True) -> SamplerStepCoeffs:
    """Standard ancestral update coefficients at step t.

    a_t = 1/sqrt(1-beta_t), b_t = -beta_t/(sqrt(1-beta_t)*sqrt(1-alpha_bar_t)),
    sigma_t = sqrt(beta_t), forced to zero in deterministic mode.
    """
    b = schedule.beta(t)
    ab = schedule.alpha_bar(t)
    a_t = 1.0 / np.sqrt(1.0 - b)
    b_t = -b / (np.sqrt(1.0 - b) * np.sqrt(1.0 - ab))
    sigma_t = 0.0 if deterministic else float(np.sqrt(b))
    return SamplerStepCoeffs(a_t=float(a_t), b_t=float(b_t), sigma_t=sigma_t)


def _draw(rngs, copies: int, dim: int) -> np.ndarray:
    """One unit Gaussian draw of length dim from each seed's generator, stacked in seed order and tiled copies times."""
    return np.tile(np.stack([rng.standard_normal(dim) for rng in rngs]), (copies, 1))


def run_lockstep(
    world: GmmWorld,
    p_plus: Condition,
    p_neg: Optional[Condition],
    schedule: NoiseSchedule,
    cfgs: list,
    seeds,
    deterministic: bool = True,
    record: bool = True,
) -> list:
    """Step the strategies of cfgs over the same seeds as one stacked batch.

    Gives one result per config, in order: a TrajectoryBatch for
    CFG/NP/SDN, a DualTrajectoryBatch for TDD_ONLY/SDG, or with
    record=False just the (N, dim) final latents (a dual strategy's plus
    branch). CFG ignores p_neg. A latent that goes non-finite is a
    ValueError naming the strategy and the step t.
    """
    for cfg in cfgs:
        if cfg.strategy != "CFG" and p_neg is None:
            raise ValueError(f"strategy {cfg.strategy} requires a negative condition")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("a sampler run needs at least one seed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n, T = len(seeds), schedule.num_steps
    # block j (rows j*n to (j+1)*n) holds one strategy's latents, or one branch of a dual strategy
    blocks = [(cfg, kind) for cfg in cfgs for kind in (("plus", "minus") if cfg.strategy in ("TDD_ONLY", "SDG")
                                                       else (cfg.strategy,))]
    x = _draw(rngs, len(blocks), world.dim)
    conditions = {"pos": p_plus, "null": Condition.null(), "neg": p_neg}
    rows = {c: np.flatnonzero(np.repeat([c in _CONDITIONS[kind] for _, kind in blocks], n)) for c in conditions}
    rows = {c: idx for c, idx in rows.items() if len(idx)}
    # a minus branch records nothing itself: its predictions are its plus branch's eps_neg
    records = [{name: np.empty((T, n, world.dim))
                for name in ("eps_pos", "correction") + (() if kind == "CFG" else ("eps_neg", "delta"))}
               if record and kind != "minus" else None for _, kind in blocks]
    states = np.empty((T + 1,) + x.shape) if record else None
    for i, t in enumerate(range(T, 0, -1)):
        if record:
            states[i] = x
        coeffs = ancestral_coeffs(schedule, t, deterministic)
        eps = {c: np.empty_like(x) for c in rows}
        for c, idx in rows.items():
            eps[c][idx] = epsilon_oracle(world, conditions[c], schedule, x[idx], t)
        step = np.empty_like(x)  # the prediction each row advances on
        for j, ((cfg, kind), rec) in enumerate(zip(blocks, records)):
            r, m = slice(j * n, (j + 1) * n), slice((j + 1) * n, (j + 2) * n)
            if kind == "CFG":
                eps_pos, eps_neg, base = eps["pos"][r], None, eps["null"][r]
                step[r] = cfg_combine(base, eps_pos, cfg.w)
            elif kind != "minus":
                eps_pos = eps["pos"][r]
                if kind == "plus":  # each branch's prediction, formed as guidance.branch_guided_eps does
                    eps_pos = eps_pos + cfg.w * (eps_pos - eps["null"][r])
                    eps_neg = step[m] = eps["neg"][m] + cfg.w * (eps["neg"][m] - eps["null"][m])
                else:
                    eps_neg = eps["neg"][r]
                base = eps_pos
                step[r] = _COMBINE[cfg.strategy](eps_pos, eps_neg, cfg)
            if rec is not None:
                rec["eps_pos"][i], rec["correction"][i] = eps_pos, step[r] - base
                if eps_neg is not None:
                    rec["eps_neg"][i], rec["delta"][i] = eps_neg, eps_pos - eps_neg
        x = coeffs.a_t * x + coeffs.b_t * step
        if not deterministic:
            x = x + coeffs.sigma_t * _draw(rngs, len(blocks), world.dim)
        bad = dict.fromkeys(blocks[row // n][0].strategy for row in np.flatnonzero(~np.isfinite(x).all(axis=1)))
        if bad:
            raise ValueError(f"sampling under {', '.join(bad)} went non-finite at step t={t}")
    if not record:
        return [x[j * n:(j + 1) * n] for j, (_, kind) in enumerate(blocks) if kind != "minus"]
    states[T] = x
    results = []
    for j, ((cfg, kind), rec) in enumerate(zip(blocks, records)):
        path = states[:, j * n:(j + 1) * n]
        if kind != "minus":
            results.append(TrajectoryBatch(seeds=seeds, config=cfg, states=path,
                                           **{"eps_neg": None, "delta": None, **rec}))
        else:
            plus = results.pop()
            minus = TrajectoryBatch(seeds, cfg, path, plus.eps_neg, None, None, np.zeros_like(plus.eps_neg))
            results.append(DualTrajectoryBatch(plus=plus, minus=minus))
    return results


def run_single_batch(world: GmmWorld, p_plus: Condition, p_neg: Optional[Condition], schedule: NoiseSchedule,
                     cfg: GuidanceConfig, seeds, deterministic: bool = True) -> TrajectoryBatch:
    """Sample one latent per seed from x_T to x_0 under a single-trajectory strategy."""
    if cfg.strategy not in ("CFG", "NP", "SDN"):
        raise ValueError(f"run_single_batch handles CFG/NP/SDN, got {cfg.strategy}")
    return run_lockstep(world, p_plus, p_neg, schedule, [cfg], seeds, deterministic)[0]


def run_dual_batch(world: GmmWorld, p_plus: Condition, p_minus: Condition, schedule: NoiseSchedule,
                   cfg: GuidanceConfig, seeds, deterministic: bool = True) -> DualTrajectoryBatch:
    """Evolve decoupled plus/minus latents per seed from shared initial noise, under TDD_ONLY or SDG."""
    if cfg.strategy not in ("TDD_ONLY", "SDG"):
        raise ValueError(f"run_dual_batch handles TDD_ONLY/SDG, got {cfg.strategy}")
    return run_lockstep(world, p_plus, p_minus, schedule, [cfg], seeds, deterministic)[0]
