"""Reverse-process samplers: one shared latent, or two decoupled ones.

CFG, NP and SDN step one latent per seed. TDD_ONLY and SDG evolve a
plus and a minus latent per seed from the same initial noise; each
branch predicts on its own latent by np_combine against the null, the
plus branch advances on the push away from the minus prediction and the
minus branch on its own, so it stays a clean sample of the negative
condition. The push is np_combine under NP and TDD_ONLY, sdn_combine
under SDN and SDG.

One lockstep loop steps any set of strategies over the same seeds, all
latents as rows of one array, with one oracle call per step; every
result is a row slice of one set of records, checked once for non-finite
values. Rows never mix, so a seed's path is bit for bit its path in a
one-strategy, one-seed run; run_single_batch and run_dual_batch name the
loop's one-strategy call, whose TrajectoryBatch carries any minus branch.

Seeding contract: rng = numpy.random.default_rng(seed) for each seed;
the initial latent x_T is the first draw. Deterministic mode draws
nothing else; stochastic mode draws one unit Gaussian per step from each
seed's own generator, and every strategy and branch gets that same draw
(synchronized noise).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from guidelab.guidance import DUAL, GuidanceConfig, cfg_combine, np_combine, sdn_combine
from guidelab.oracle import Condition, GmmWorld, epsilon_oracle
from guidelab.schedule import NoiseSchedule

__all__ = [
    "TrajectoryBatch",
    "ancestral_coeffs",
    "run_lockstep",
    "run_single_batch",
    "run_dual_batch",
]

@dataclass(frozen=True)
class TrajectoryBatch:
    """The reverse paths of N seeds' latents, as arrays indexed [step, seed, dim].

    states has shape (T+1, N, dim), x_T first. The per-step arrays have
    shape (T, N, dim), and index i holds step t = T - i, whose result is
    states[i + 1]. eps_neg is None under CFG and on a minus branch; minus
    is the minus branch's batch on a TDD_ONLY or SDG plus branch, else None.
    """

    seeds: tuple
    config: GuidanceConfig
    states: np.ndarray
    eps_pos: np.ndarray
    eps_neg: Optional[np.ndarray]
    correction: np.ndarray
    minus: Optional["TrajectoryBatch"] = None

    @property
    def delta(self) -> Optional[np.ndarray]:
        """The discrepancy eps_pos - eps_neg, a new array on each read; None without eps_neg."""
        return None if self.eps_neg is None else self.eps_pos - self.eps_neg

    @property
    def steps(self) -> range:
        """The step index t of each record, descending from T."""
        return range(len(self.eps_pos), 0, -1)

    @property
    def finals(self) -> np.ndarray:
        return self.states[-1]


def ancestral_coeffs(schedule: NoiseSchedule, t: int) -> tuple:
    """Standard ancestral update coefficients (a_t, b_t, sigma_t) at step t.

    One reverse update is x_{t-1} = a_t x_t + b_t eps_hat + sigma_t eta, with
    a_t = 1/sqrt(1-beta_t), b_t = -beta_t/(sqrt(1-beta_t)*sqrt(1-alpha_bar_t)),
    sigma_t = sqrt(beta_t); deterministic mode adds no sigma_t eta term.
    """
    b = schedule.beta(t)
    ab = schedule.alpha_bar(t)
    a_t = 1.0 / np.sqrt(1.0 - b)
    b_t = -b / (np.sqrt(1.0 - b) * np.sqrt(1.0 - ab))
    return float(a_t), float(b_t), float(np.sqrt(b))


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
) -> list:
    """Step the strategies of cfgs over the same seeds as one stacked batch.

    Gives one TrajectoryBatch per config, in order; under TDD_ONLY/SDG it
    is the plus branch, with the minus branch as its minus. CFG ignores p_neg.
    One oracle call per step predicts the positive, null and any bound
    negative condition on every row. A non-finite latent, then eps_pos,
    eps_neg or correction, is a ValueError naming its strategies and first step t.
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
    blocks = [(cfg, kind) for cfg in cfgs for kind in (("plus", "minus") if cfg.strategy in DUAL else (cfg.strategy,))]
    rows = [slice(j * n, (j + 1) * n) for j in range(len(blocks))]
    conditions = {"pos": p_plus, "null": Condition.null()} | ({} if p_neg is None else {"neg": p_neg})
    x = _draw(rngs, len(blocks), world.dim)
    states = np.empty((T + 1,) + x.shape)
    # each result records its rows of these; eps_neg's CFG and minus rows and a minus row's correction stay 0
    eps_pos, eps_neg, correction = np.empty((T,) + x.shape), np.zeros((T,) + x.shape), np.zeros((T,) + x.shape)
    # an overflowing guidance scale surfaces as the named non-finite error below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(range(T, 0, -1)):
            states[i] = x
            a_t, b_t, sigma_t = ancestral_coeffs(schedule, t)
            eps = dict(zip(conditions, epsilon_oracle(world, tuple(conditions.values()), schedule, x, t)))
            step = np.empty_like(x)  # the prediction each row advances on
            for j, ((cfg, kind), r) in enumerate(zip(blocks, rows)):
                if kind == "minus":  # its plus branch has set its step and eps_pos, its own prediction
                    continue
                pos = eps["pos"][r]
                if kind == "CFG":
                    base = eps["null"][r]
                    step[r] = cfg_combine(base, pos, cfg.w)
                else:
                    if kind == "plus":  # each branch predicts by pushing away from the null
                        m = rows[j + 1]
                        pos = np_combine(pos, eps["null"][r], cfg.w)
                        neg = step[m] = eps_pos[i, m] = np_combine(eps["neg"][m], eps["null"][m], cfg.w)
                    else:
                        neg = eps["neg"][r]
                    base, eps_neg[i, r] = pos, neg
                    step[r] = (sdn_combine(pos, neg, cfg.lambda_, cfg.eps_stab)
                               if cfg.strategy in ("SDN", "SDG") else np_combine(pos, neg, cfg.w))
                eps_pos[i, r], correction[i, r] = pos, step[r] - base
            x = a_t * x + b_t * step
            if not deterministic:
                x = x + sigma_t * _draw(rngs, len(blocks), world.dim)
    states[T] = x
    # index i of each record is step t = T - i
    for key, a in (("latents", states[1:]), ("eps_pos", eps_pos), ("eps_neg", eps_neg), ("correction", correction)):
        bad = ~np.isfinite(a).all(axis=2)
        if bad.any():
            i = int(bad.any(axis=1).argmax())
            names = ", ".join(dict.fromkeys(blocks[row // n][0].strategy for row in np.flatnonzero(bad[i])))
            what = "went non-finite" if key == "latents" else f"recorded a non-finite {key}"
            raise ValueError(f"sampling under {names} {what} at step t={T - i}")

    def batch(j, minus=None):
        (cfg, kind), r = blocks[j], rows[j]
        return TrajectoryBatch(seeds, cfg, states[:, r], eps_pos[:, r],
                               None if kind in ("CFG", "minus") else eps_neg[:, r], correction[:, r], minus)

    return [batch(j, batch(j + 1) if kind == "plus" else None) for j, (_, kind) in enumerate(blocks) if kind != "minus"]


def run_single_batch(world: GmmWorld, p_plus: Condition, p_neg: Optional[Condition], schedule: NoiseSchedule,
                     cfg: GuidanceConfig, seeds, deterministic: bool = True):
    """One strategy over the seeds: a TrajectoryBatch, which carries its minus branch under TDD_ONLY/SDG."""
    return run_lockstep(world, p_plus, p_neg, schedule, [cfg], seeds, deterministic)[0]


run_dual_batch = run_single_batch
