"""Noise-combination rules for guided sampling.

Five strategies are implemented. CFG interpolates between an
unconditional and a conditional prediction. Negative prompting anchors
on the positive prediction and pushes away from the negative one by a
scaled raw discrepancy. The synchronized directional normalization rule
replaces the raw discrepancy with its unit direction times a fixed
scale lambda, so the suppression strength is the same at every step no
matter how small the discrepancy is. The full synchronized decoupled
combination applies that same rule to predictions coming from two
separately evolved trajectories, and the decoupling-only ablation uses
the unnormalized rule across those branches.
"""

from dataclasses import dataclass

import numpy as np

from guidelab.oracle import Condition, GmmWorld, epsilon_oracle
from guidelab.schedule import NoiseSchedule

__all__ = [
    "STRATEGIES",
    "GuidanceConfig",
    "cfg_combine",
    "np_combine",
    "sdn_combine",
    "sdg_combine",
    "tdd_only_combine",
    "branch_guided_eps",
    "row_norms",
]

STRATEGIES = ("CFG", "NP", "SDN", "TDD_ONLY", "SDG")

DEFAULT_W = 6.0
DEFAULT_LAMBDA = 30.0
DEFAULT_EPS_STAB = 1e-8


@dataclass(frozen=True)
class GuidanceConfig:
    """Strategy name plus the scalar knobs every combination rule reads.

    w is the CFG/NP strength, lambda_ the fixed correction scale of the
    normalized rules, eps_stab the stability constant in their
    denominator.
    """

    strategy: str
    w: float = DEFAULT_W
    lambda_: float = DEFAULT_LAMBDA
    eps_stab: float = DEFAULT_EPS_STAB

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not np.isfinite(self.w) or self.w < 0:
            raise ValueError(f"w must be finite and >= 0, got {self.w}")
        if not np.isfinite(self.lambda_) or self.lambda_ < 0:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if not np.isfinite(self.eps_stab) or self.eps_stab <= 0:
            raise ValueError(f"eps_stab must be finite and > 0, got {self.eps_stab}")


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def row_norms(a: np.ndarray):
    """Euclidean norm of each row of a (N, dim) batch, or of a single (dim,) vector.

    sqrt(vecdot) of a contiguous copy sums each row with the same dot
    kernel as the 1-D np.linalg.norm of that row alone, so the two agree
    bit for bit; np.linalg.norm(a, axis=-1) sums in a different order.
    """
    a = np.ascontiguousarray(a)
    return np.sqrt(np.vecdot(a, a))


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, w: float) -> np.ndarray:
    """Classifier-free guidance: eps_uncond + w * (eps_cond - eps_uncond).

    The interpolation endpoints are returned exactly; the generic
    formula only reproduces them up to rounding.
    """
    eps_uncond, eps_cond = _check_pair(eps_uncond, eps_cond)
    if w == 0.0:
        return eps_uncond.copy()
    if w == 1.0:
        return eps_cond.copy()
    return eps_uncond + w * (eps_cond - eps_uncond)


def np_combine(eps_pos: np.ndarray, eps_neg: np.ndarray, w: float) -> np.ndarray:
    """Negative prompting: eps_pos + w * (eps_pos - eps_neg), w > 0."""
    if w <= 0:
        raise ValueError(f"negative-prompting strength w must be > 0, got {w}")
    eps_pos, eps_neg = _check_pair(eps_pos, eps_neg)
    return eps_pos + w * (eps_pos - eps_neg)


def sdn_combine(eps_pos: np.ndarray, eps_neg: np.ndarray, lam: float, eps_stab: float) -> np.ndarray:
    """Directionally normalized suppression with fixed scale lam.

    The correction is lam * delta / (||delta|| + eps_stab), so its norm
    is lam * ||delta|| / (||delta|| + eps_stab): capped by lam,
    essentially equal to lam whenever ||delta|| dominates eps_stab, and
    vanishing smoothly as delta -> 0. For (N, dim) batches each row is
    normalized by its own norm.
    """
    if eps_stab <= 0:
        raise ValueError(f"eps_stab must be > 0, got {eps_stab}")
    eps_pos, eps_neg = _check_pair(eps_pos, eps_neg)
    delta = eps_pos - eps_neg
    return eps_pos + lam * delta / (row_norms(delta)[..., None] + eps_stab)


def sdg_combine(eps_plus: np.ndarray, eps_minus: np.ndarray, lam: float, eps_stab: float) -> np.ndarray:
    """Normalized suppression over branch-guided predictions from decoupled latents.

    Same algebra as sdn_combine; typed separately because the inputs
    come from two different trajectories.
    """
    return sdn_combine(eps_plus, eps_minus, lam, eps_stab)


def tdd_only_combine(eps_plus: np.ndarray, eps_minus: np.ndarray, w: float) -> np.ndarray:
    """Decoupling-only ablation: unnormalized push across branch predictions."""
    return np_combine(eps_plus, eps_minus, w)


def branch_guided_eps(
    world: GmmWorld,
    cond: Condition,
    schedule: NoiseSchedule,
    x: np.ndarray,
    t: int,
    w: float,
) -> np.ndarray:
    """CFG-guided prediction of one branch on its own latent (dim,) or latents (N, dim).

    Anchored at the conditional prediction: eps_c + w * (eps_c - eps_null),
    which equals cfg_combine(eps_null, eps_c, w + 1). With the full
    component set as condition the CFG delta is identically zero and the
    unconditional prediction comes back unchanged for any w.
    """
    if cond.is_null:
        raise ValueError("branch_guided_eps requires a Subset condition")
    eps_c = epsilon_oracle(world, cond, schedule, x, t)
    eps_u = epsilon_oracle(world, Condition.null(), schedule, x, t)
    return eps_c + w * (eps_c - eps_u)
