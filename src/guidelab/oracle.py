"""Exact conditional noise-prediction oracles over Gaussian mixtures.

The data distribution is a diagonal-covariance Gaussian mixture, so the
noised marginal at any step is again a Gaussian mixture in closed form.
That makes the Bayes-optimal noise prediction exact: no network, no
approximation error, just responsibilities and Gaussian scores. A
condition restricts the mixture to a component subset (the "prompt");
the null condition is the full mixture, matching the unconditional
branch semantics of classifier-free guidance.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from guidelab.schedule import NoiseSchedule

__all__ = [
    "GmmWorld",
    "Condition",
    "NoisedMixture",
    "noised_mixture",
    "log_density_and_score",
    "epsilon_oracle",
    "assign_components",
]


@dataclass(frozen=True)
class GmmWorld:
    """A Gaussian mixture data world with diagonal covariances.

    means and cov_diags have shape (K, dim); weights is a length-K
    simplex vector.
    """

    means: np.ndarray
    cov_diags: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        covs = np.atleast_2d(np.asarray(self.cov_diags, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cov_diags", covs)
        object.__setattr__(self, "weights", weights)
        if means.shape != covs.shape:
            raise ValueError(f"means shape {means.shape} != cov_diags shape {covs.shape}")
        if len(weights) != means.shape[0]:
            raise ValueError(f"{len(weights)} weights for {means.shape[0]} components")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()}, expected 1 within 1e-12")
        if np.any(covs <= 0):
            raise ValueError("cov_diag entries must be strictly positive")

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class Condition:
    """Component-subset conditioning. indices=None means the null condition."""

    indices: Optional[tuple] = None

    def __post_init__(self):
        if self.indices is not None:
            idx = tuple(sorted(set(int(i) for i in self.indices)))
            if len(idx) == 0:
                raise ValueError("condition subset must be non-empty")
            object.__setattr__(self, "indices", idx)

    @classmethod
    def null(cls) -> "Condition":
        return cls(indices=None)

    @classmethod
    def subset(cls, indices) -> "Condition":
        return cls(indices=tuple(indices))

    @property
    def is_null(self) -> bool:
        return self.indices is None

    def resolve(self, world: GmmWorld) -> np.ndarray:
        """Component indices selected by this condition in the given world."""
        if self.indices is None:
            return np.arange(world.num_components)
        idx = np.asarray(self.indices, dtype=int)
        if idx.min() < 0 or idx.max() >= world.num_components:
            raise ValueError(f"condition indices {self.indices} out of range for {world.num_components} components")
        return idx


@dataclass(frozen=True)
class NoisedMixture:
    """Closed-form Gaussian mixture marginal of a (conditioned) world at step t."""

    means: np.ndarray
    cov_diags: np.ndarray
    weights: np.ndarray
    t: int = field(default=0)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def noised_mixture(world: GmmWorld, cond: Condition, schedule: NoiseSchedule, t: int) -> NoisedMixture:
    """Conditioned mixture pushed through the forward process to step t.

    Component means scale by sqrt(alpha_bar_t); each diagonal variance
    becomes alpha_bar_t * sigma^2 + (1 - alpha_bar_t). Subset conditions
    renormalize the selected weights. The null condition and the
    full-index subset share this code path, so they agree exactly.
    """
    ab = schedule.alpha_bar(t)
    idx = cond.resolve(world)
    weights = world.weights[idx]
    total = weights.sum()
    if total <= 0:
        raise ValueError("condition selects zero total weight")
    return NoisedMixture(
        means=np.sqrt(ab) * world.means[idx],
        cov_diags=ab * world.cov_diags[idx] + (1.0 - ab),
        weights=weights / total,
        t=t,
    )


def log_density_and_score(mixture: NoisedMixture, x: np.ndarray) -> tuple:
    """Log-density and its gradient at x, via stable log-sum-exp responsibilities.

    x is one point of shape (dim,) or a batch of shape (N, dim). One
    point gives a float and a (dim,) score; a batch gives (N,)
    log-densities and an (N, dim) score whose rows equal the one-point
    results bit for bit, because every row goes through the same
    operations in the same order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != mixture.dim:
        raise ValueError(f"x shape {x.shape} incompatible with mixture dim {mixture.dim}")
    means, covs = mixture.means, mixture.cov_diags
    diff = means - np.atleast_2d(x)[:, None, :]
    # per-component Gaussian log densities, diagonal covariance
    log_comp = (
        -0.5 * np.sum(diff * diff / covs, axis=2)
        - 0.5 * np.sum(np.log(covs), axis=1)
        - 0.5 * mixture.dim * np.log(2.0 * np.pi)
        + np.log(mixture.weights)
    )
    m = log_comp.max(axis=1, keepdims=True)
    log_density = m + np.log(np.sum(np.exp(log_comp - m), axis=1, keepdims=True))
    resp = np.exp(log_comp - log_density)
    score = np.sum(resp[:, :, None] * diff / covs, axis=1)
    if x.ndim == 1:
        return float(log_density[0, 0]), score[0]
    return log_density[:, 0], score


def epsilon_oracle(world: GmmWorld, cond: Condition, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """Bayes-optimal noise prediction for the conditioned world at (x, t).

    Uses the identity eps*(x, t) = -sqrt(1 - alpha_bar_t) * score of the
    noised conditional marginal. Deterministic and exact. x is one point
    (dim,) or a batch (N, dim); the result has the same shape.
    """
    mixture = noised_mixture(world, cond, schedule, t)
    _, score = log_density_and_score(mixture, x)
    return -np.sqrt(1.0 - schedule.alpha_bar(t)) * score


def assign_components(world: GmmWorld, samples: np.ndarray) -> np.ndarray:
    """Index of the most responsible component for each row of samples (N, dim).

    Hard argmax of log w_k + log N(x; mu_k, diag(sigma_k^2)) on the
    un-noised world; the shared -dim/2 log(2 pi) term is left out.
    """
    diff = np.atleast_2d(np.asarray(samples, dtype=np.float64))[:, None, :] - world.means[None]
    log_comp = (
        -0.5 * np.sum(diff * diff / world.cov_diags[None], axis=2)
        - 0.5 * np.sum(np.log(world.cov_diags), axis=1)[None]
        + np.log(world.weights)[None]
    )
    return np.argmax(log_comp, axis=1)
