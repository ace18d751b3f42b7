"""Forward diffusion noise schedules.

Time runs t = 1..T with t = T the fully noised end of the chain. Arrays
are stored with index t-1, and the alpha_bar_0 = 1 convention is applied
implicitly wherever a step needs the previous cumulative product.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseSchedule", "make_linear_schedule"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances beta_t and cumulative products alpha_bar_t.

    betas[t-1] is the variance added at step t; alpha_bars[t-1] is the
    running product of (1 - beta_s) for s <= t.
    """

    num_steps: int
    betas: np.ndarray
    alpha_bars: np.ndarray

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        """Cumulative signal retention through step t, with alpha_bar(0) = 1."""
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bars[t - 1])

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.num_steps:
            raise ValueError(f"step index t={t} outside 1..{self.num_steps}")


def make_linear_schedule(num_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly spaced betas from beta_start to beta_end over num_steps steps.

    With num_steps = 1 the single beta is beta_start (the endpoints
    coincide only if beta_start == beta_end, which is allowed).
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    for name, b in (("beta_start", beta_start), ("beta_end", beta_end)):
        if not 0.0 < b < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {b}")
    betas = np.linspace(beta_start, beta_end, num_steps, dtype=np.float64)
    alpha_bars = np.cumprod(1.0 - betas)
    return NoiseSchedule(num_steps=num_steps, betas=betas, alpha_bars=alpha_bars)
