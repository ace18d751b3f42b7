"""Exact conditional noise-prediction oracles over Gaussian mixtures.

The data distribution is a diagonal-covariance Gaussian mixture, so the
noised marginal at any step is again a Gaussian mixture in closed form.
That makes the Bayes-optimal noise prediction exact: no network, no
approximation error, just responsibilities and Gaussian scores. A
condition restricts the mixture to a component subset (the "prompt");
the null condition is the full mixture, matching the unconditional
branch semantics of classifier-free guidance.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from guidelab.schedule import NoiseSchedule

__all__ = [
    "GmmWorld",
    "Condition",
    "epsilon_oracle",
    "epsilon_jacobian",
    "assign_components",
    "assign_labels",
]


@dataclass(frozen=True)
class GmmWorld:
    """A Gaussian mixture data world with diagonal covariances.

    means and cov_diags have shape (K, dim); weights is a length-K
    simplex vector with strictly positive entries. Every entry must be
    finite.
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
        for name, values in (("means", means), ("cov_diags", covs), ("weights", weights)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
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

    def resolve(self, world: GmmWorld) -> np.ndarray:
        """Component indices selected by this condition in the given world."""
        if self.indices is None:
            return np.arange(world.num_components)
        idx = np.asarray(self.indices, dtype=int)
        if idx.min() < 0 or idx.max() >= world.num_components:
            raise ValueError(f"condition indices {self.indices} out of range for {world.num_components} components")
        return idx


def _log_components(means: np.ndarray, covs: np.ndarray, weights: np.ndarray, x: np.ndarray) -> tuple:
    """Offsets diff = mu_k - x (N, K, dim) and log w_k + log N(x; mu_k, diag(c_k)) (N, K) at x (dim,) or (N, dim)."""
    diff = means - np.atleast_2d(x)[:, None, :]
    log_comp = (
        -0.5 * np.sum(diff * diff / covs, axis=2)
        - 0.5 * np.sum(np.log(covs), axis=1)
        - 0.5 * means.shape[1] * np.log(2.0 * np.pi)
        + np.log(weights)
    )
    return diff, log_comp


def _posterior(world: GmmWorld, cond: Condition, schedule: NoiseSchedule, x: np.ndarray, t: int) -> tuple:
    """The conditioned mixture noised to step t, and its component posterior at x.

    Component means scale by sqrt(alpha_bar_t); each diagonal variance
    becomes alpha_bar_t * sigma^2 + (1 - alpha_bar_t). Subset conditions
    renormalize the selected weights. The null condition and the
    full-index subset share this code path, so they agree exactly.

    x is one point (dim,) or a batch (N, dim). Gives the noised variances
    (K, dim), the offsets diff = mu_k - x (N, K, dim) and the
    responsibilities (N, K), normalized by a stable log-sum-exp. Every
    row goes through the same operations in the same order, so a batch
    row equals the one-point result bit for bit.
    """
    ab = schedule.alpha_bar(t)
    idx = cond.resolve(world)
    weights = world.weights[idx]
    means = np.sqrt(ab) * world.means[idx]
    covs = ab * world.cov_diags[idx] + (1.0 - ab)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != world.dim:
        raise ValueError(f"x shape {x.shape} incompatible with mixture dim {world.dim}")
    diff, log_comp = _log_components(means, covs, weights / weights.sum(), x)
    m = log_comp.max(axis=1, keepdims=True)
    log_density = m + np.log(np.sum(np.exp(log_comp - m), axis=1, keepdims=True))
    return covs, diff, np.exp(log_comp - log_density)


def epsilon_oracle(world: GmmWorld, cond: Condition, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """Bayes-optimal noise prediction for the conditioned world at (x, t).

    Uses the identity eps*(x, t) = -sqrt(1 - alpha_bar_t) * score of the
    noised conditional marginal, where the score is sum_k r_k (mu_k - x) / c_k.
    Deterministic and exact. x is one point (dim,) or a batch (N, dim);
    the result has the same shape, and each batch row equals the
    one-point result bit for bit.
    """
    covs, diff, resp = _posterior(world, cond, schedule, x, t)
    score = np.sum(resp[:, :, None] * diff / covs, axis=1)
    if np.ndim(x) == 1:
        score = score[0]
    return -np.sqrt(1.0 - schedule.alpha_bar(t)) * score


def epsilon_jacobian(world: GmmWorld, cond: Condition, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """Exact Jacobian J[i, j] = d eps_i / d x_j of the noise prediction at one point x (dim,).

    With component scores s_k = (mu_k - x) / c_k, responsibilities r_k
    and the mixture score s = sum_k r_k s_k, the log-density Hessian is
    sum_k r_k (s_k s_k^T - diag(1 / c_k)) - s s^T, so
    J = -sqrt(1 - alpha_bar_t) * Hessian: symmetric, in closed form.
    """
    if np.ndim(x) != 1:
        raise ValueError(f"epsilon_jacobian takes one point of shape (dim,), got shape {np.shape(x)}")
    covs, diff, resp = _posterior(world, cond, schedule, x, t)
    r = resp[0]
    s_k = diff[0] / covs
    s = r @ s_k
    hessian = (s_k.T * r) @ s_k - np.diag(r @ (1.0 / covs)) - np.outer(s, s)
    return -np.sqrt(1.0 - schedule.alpha_bar(t)) * hessian


def assign_components(world: GmmWorld, samples: np.ndarray) -> np.ndarray:
    """Index of the most responsible component for each row of samples (N, dim).

    Hard argmax of log w_k + log N(x; mu_k, diag(sigma_k^2)) on the
    un-noised world.
    """
    _, log_comp = _log_components(world.means, world.cov_diags, world.weights, samples)
    return np.argmax(log_comp, axis=1)


def assign_labels(world: GmmWorld, samples: np.ndarray, label_sets: dict) -> np.ndarray:
    """Each sample's mode label: the first label claiming its component, else the component index as a string."""
    names = [next((label for label, idx in label_sets.items() if k in idx), str(k))
             for k in range(world.num_components)]
    return np.array(names)[assign_components(world, samples)]
