"""Noise-combination rules for guided sampling.

Three rules serve the five strategies. CFG interpolates between an
unconditional and a conditional prediction. Negative prompting anchors
on the positive prediction and pushes away from the negative one by a
scaled raw discrepancy. The directionally normalized rule replaces the
raw discrepancy with its unit direction times a fixed scale lambda, so
the suppression strength is the same at every step no matter how small
the discrepancy is. The decoupled strategies apply the same two push
rules to predictions from two separately evolved trajectories: SDG the
normalized one, the decoupling-only ablation (TDD_ONLY) the raw one.
"""

from collections import namedtuple

import numpy as np

__all__ = [
    "STRATEGIES",
    "GuidanceConfig",
    "cfg_combine",
    "np_combine",
    "sdn_combine",
    "sdg_combine",
    "row_norms",
]

STRATEGIES = ("CFG", "NP", "SDN", "TDD_ONLY", "SDG")
DUAL = ("TDD_ONLY", "SDG")  # the strategies that evolve a plus and a minus latent per seed

DEFAULT_W = 6.0
DEFAULT_LAMBDA = 30.0
DEFAULT_EPS_STAB = 1e-8


class GuidanceConfig(namedtuple("GuidanceConfig", "strategy w lambda_ eps_stab",
                                defaults=(DEFAULT_W, DEFAULT_LAMBDA, DEFAULT_EPS_STAB))):
    """Strategy name plus the scalar knobs every combination rule reads.

    w is the CFG/NP strength, lambda_ the fixed correction scale of the
    normalized rules, eps_stab the stability constant in their
    denominator.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not np.isfinite(self.w) or self.w < 0:
            raise ValueError(f"w must be finite and >= 0, got {self.w}")
        if not np.isfinite(self.lambda_) or self.lambda_ < 0:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if not np.isfinite(self.eps_stab) or self.eps_stab <= 0:
            raise ValueError(f"eps_stab must be finite and > 0, got {self.eps_stab}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its result too


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
    """Negative prompting: eps_pos + w * (eps_pos - eps_neg), w >= 0; w = 0 gives eps_pos."""
    if w < 0:
        raise ValueError(f"negative-prompting strength w must be >= 0, got {w}")
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


# SDG's rule is SDN's, applied to predictions from the plus and minus branches' decoupled latents.
sdg_combine = sdn_combine
