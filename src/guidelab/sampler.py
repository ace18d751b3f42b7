"""Reverse-process samplers: one shared latent, or two decoupled ones.

The single-branch runner drives CFG, negative prompting, and the
directionally normalized rule on one latent. The dual-branch runner
evolves a plus and a minus latent in parallel from the same initial
noise: each branch computes its own internally CFG-guided prediction on
its own latent, the plus update combines the two predictions, and the
minus branch advances on its own prediction alone so it stays a clean
sample of what the negative condition would generate.

Both runners step a whole seed sweep at once: the latents of N seeds
form one (N, dim) array, and each oracle call and combine rule acts on
every row. Rows never mix, so a seed's path is bit for bit the path it
takes in a one-seed run.

Seeding contract: rng = numpy.random.default_rng(seed) for each seed;
the initial latent x_T is the first draw. Deterministic mode draws
nothing else; stochastic mode draws one unit Gaussian per step from each
seed's own generator, and a dual run feeds that same draw to both
branches (synchronized noise).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from guidelab.guidance import (
    GuidanceConfig,
    branch_guided_eps,
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
    "run_single_batch",
    "run_dual_batch",
]


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


def _initial_latents(world: GmmWorld, seeds) -> tuple:
    """One generator per seed and the (N, dim) stack of their first draws."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("a sampler run needs at least one seed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return seeds, rngs, _draw(rngs, world.dim)


def _draw(rngs, dim: int) -> np.ndarray:
    """One unit Gaussian draw of length dim from each seed's generator, stacked in seed order."""
    return np.stack([rng.standard_normal(dim) for rng in rngs])


def run_single_batch(
    world: GmmWorld,
    p_plus: Condition,
    p_neg: Optional[Condition],
    schedule: NoiseSchedule,
    cfg: GuidanceConfig,
    seeds,
    deterministic: bool = True,
) -> TrajectoryBatch:
    """Sample one latent per seed from x_T to x_0 under a single-trajectory strategy."""
    if cfg.strategy not in ("CFG", "NP", "SDN"):
        raise ValueError(f"run_single_batch handles CFG/NP/SDN, got {cfg.strategy}")
    if cfg.strategy in ("NP", "SDN") and p_neg is None:
        raise ValueError(f"strategy {cfg.strategy} requires a negative condition")
    seeds, rngs, x = _initial_latents(world, seeds)
    T = schedule.num_steps
    states = np.empty((T + 1,) + x.shape)
    states[0] = x
    eps_pos, correction = np.empty((T,) + x.shape), np.empty((T,) + x.shape)
    eps_neg = delta = None
    if cfg.strategy != "CFG":
        eps_neg, delta = np.empty((T,) + x.shape), np.empty((T,) + x.shape)
    for i, t in enumerate(range(T, 0, -1)):
        coeffs = ancestral_coeffs(schedule, t, deterministic)
        eps_pos[i] = epsilon_oracle(world, p_plus, schedule, x, t)
        if cfg.strategy == "CFG":
            eps_u = epsilon_oracle(world, Condition.null(), schedule, x, t)
            eps_hat = cfg_combine(eps_u, eps_pos[i], cfg.w)
            correction[i] = eps_hat - eps_u
        else:
            eps_neg[i] = epsilon_oracle(world, p_neg, schedule, x, t)
            delta[i] = eps_pos[i] - eps_neg[i]
            if cfg.strategy == "NP":
                eps_hat = np_combine(eps_pos[i], eps_neg[i], cfg.w)
            else:
                eps_hat = sdn_combine(eps_pos[i], eps_neg[i], cfg.lambda_, cfg.eps_stab)
            correction[i] = eps_hat - eps_pos[i]
        x = coeffs.a_t * x + coeffs.b_t * eps_hat
        if not deterministic:
            x = x + coeffs.sigma_t * _draw(rngs, world.dim)
        states[i + 1] = x
    return TrajectoryBatch(seeds=seeds, config=cfg, states=states, eps_pos=eps_pos, eps_neg=eps_neg,
                           delta=delta, correction=correction)


def run_dual_batch(
    world: GmmWorld,
    p_plus: Condition,
    p_minus: Condition,
    schedule: NoiseSchedule,
    cfg: GuidanceConfig,
    seeds,
    deterministic: bool = True,
) -> DualTrajectoryBatch:
    """Evolve decoupled plus/minus latents per seed from shared initial noise.

    Both branch predictions are internally CFG-guided on their own
    latent with the same w. The plus branch advances on the combined
    prediction (normalized for SDG, unnormalized for the
    decoupling-only ablation); the minus branch advances on its own
    prediction and never reads the plus side.
    """
    if cfg.strategy not in ("TDD_ONLY", "SDG"):
        raise ValueError(f"run_dual_batch handles TDD_ONLY/SDG, got {cfg.strategy}")
    seeds, rngs, xp = _initial_latents(world, seeds)
    xm = xp
    T = schedule.num_steps
    states_p, states_m = np.empty((T + 1,) + xp.shape), np.empty((T + 1,) + xp.shape)
    states_p[0] = states_m[0] = xp
    eps_plus, eps_minus = np.empty((T,) + xp.shape), np.empty((T,) + xp.shape)
    delta, correction = np.empty((T,) + xp.shape), np.empty((T,) + xp.shape)
    for i, t in enumerate(range(T, 0, -1)):
        coeffs = ancestral_coeffs(schedule, t, deterministic)
        eps_plus[i] = branch_guided_eps(world, p_plus, schedule, xp, t, cfg.w)
        eps_minus[i] = branch_guided_eps(world, p_minus, schedule, xm, t, cfg.w)
        delta[i] = eps_plus[i] - eps_minus[i]
        if cfg.strategy == "SDG":
            eps_hat = sdg_combine(eps_plus[i], eps_minus[i], cfg.lambda_, cfg.eps_stab)
        else:
            eps_hat = tdd_only_combine(eps_plus[i], eps_minus[i], cfg.w)
        correction[i] = eps_hat - eps_plus[i]
        xp = coeffs.a_t * xp + coeffs.b_t * eps_hat
        xm = coeffs.a_t * xm + coeffs.b_t * eps_minus[i]
        if not deterministic:
            eta = _draw(rngs, world.dim)
            xp = xp + coeffs.sigma_t * eta
            xm = xm + coeffs.sigma_t * eta
        states_p[i + 1] = xp
        states_m[i + 1] = xm
    plus = TrajectoryBatch(seeds=seeds, config=cfg, states=states_p, eps_pos=eps_plus, eps_neg=eps_minus,
                           delta=delta, correction=correction)
    minus = TrajectoryBatch(seeds=seeds, config=cfg, states=states_m, eps_pos=eps_minus, eps_neg=None,
                            delta=None, correction=np.zeros_like(eps_minus))
    return DualTrajectoryBatch(plus=plus, minus=minus)
