"""Exact conditional noise-prediction oracles over Gaussian mixtures.

The data distribution is a diagonal-covariance Gaussian mixture, so the
noised marginal at any step is again a Gaussian mixture in closed form.
That makes the Bayes-optimal noise prediction exact: no network, no
approximation error, just responsibilities and Gaussian scores. A
condition restricts the mixture to a component subset (the "prompt");
the null condition is the full mixture, matching the unconditional
branch semantics of classifier-free guidance.
"""

from collections import namedtuple

import numpy as np

from guidelab.schedule import NoiseSchedule

__all__ = [
    "GmmWorld",
    "Condition",
    "epsilon_oracle",
    "epsilon_jacobian",
    "assign_labels",
]


class GmmWorld(namedtuple("GmmWorld", "means cov_diags weights")):
    """A Gaussian mixture data world with diagonal covariances.

    means and cov_diags have shape (K, dim); weights is a length-K
    simplex vector with strictly positive entries. Every entry must be
    finite.
    """

    __slots__ = ()

    def __new__(cls, means, cov_diags, weights):
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        covs = np.atleast_2d(np.asarray(cov_diags, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64).ravel()
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
        return super().__new__(cls, means, covs, weights)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace normalises and checks its result too

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


class Condition(namedtuple("Condition", "indices")):
    """Component-subset conditioning. indices=None means the null condition."""

    __slots__ = ()

    def __new__(cls, indices=None):
        if indices is not None:
            indices = tuple(sorted(set(int(i) for i in indices)))
            if len(indices) == 0:
                raise ValueError("condition subset must be non-empty")
        return super().__new__(cls, indices)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace normalises and checks its result too

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


def _log_components(means: np.ndarray, covs: np.ndarray, x: np.ndarray) -> tuple:
    """Offsets diff = mu_k - x (N, K, dim) and unweighted log N(x; mu_k, diag(c_k)) (N, K) at x (dim,) or (N, dim)."""
    diff = means - np.atleast_2d(x)[:, None, :]
    # a squared offset past the float range gives -inf, the float64 value of its log-density: no warning is due
    with np.errstate(over="ignore"):
        terms = (
            -0.5 * np.sum(diff * diff / covs, axis=2)
            - 0.5 * np.sum(np.log(covs), axis=1)
            - 0.5 * means.shape[1] * np.log(2.0 * np.pi)
        )
    return diff, terms


def _posterior(world: GmmWorld, conds: tuple, schedule: NoiseSchedule, x: np.ndarray, t: int) -> tuple:
    """Each condition's component posterior at x (dim,) or (N, dim) under the mixture noised to step t.

    Means scale by sqrt(alpha_bar_t) and variances become
    alpha_bar_t * sigma^2 + (1 - alpha_bar_t). Every call noises all
    components once; each distinct component set gathers its own terms
    and adds its renormalized log weights. Gives each condition's
    component set as a key, and per distinct key the noised variances
    (k, dim), offsets mu_k - x (N, k, dim) and responsibilities (N, k).
    np.take keeps gathered columns C-ordered, so every reduction adds in
    one order whatever conditions share the call: a shared posterior
    and a batch row equal the lone results bit for bit.
    """
    ab = schedule.alpha_bar(t)
    idxs = [cond.resolve(world) for cond in conds]
    means = np.sqrt(ab) * world.means
    covs = ab * world.cov_diags + (1.0 - ab)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != world.dim:
        raise ValueError(f"x shape {x.shape} incompatible with mixture dim {world.dim}")
    diff, terms = _log_components(means, covs, x)
    keys = [tuple(idx.tolist()) for idx in idxs]
    posteriors = {}
    for key, idx in dict(zip(keys, idxs)).items():  # each distinct component set once
        weights = world.weights[idx]
        log_comp = np.take(terms, idx, axis=1) + np.log(weights / weights.sum())
        m = log_comp.max(axis=1, keepdims=True)
        log_density = m + np.log(np.sum(np.exp(log_comp - m), axis=1, keepdims=True))
        posteriors[key] = (np.take(covs, idx, axis=0), np.take(diff, idx, axis=1), np.exp(log_comp - log_density))
    return keys, posteriors


def epsilon_oracle(world: GmmWorld, cond, schedule: NoiseSchedule, x: np.ndarray, t: int):
    """Bayes-optimal noise prediction for the conditioned world at (x, t).

    Uses the identity eps*(x, t) = -sqrt(1 - alpha_bar_t) * score of the
    noised conditional marginal, where the score is sum_k r_k (mu_k - x) / c_k.
    Deterministic and exact. x is one point (dim,) or a batch (N, dim);
    each prediction has the same shape, and each batch row equals the
    one-point result bit for bit. cond is one Condition, or a tuple of
    them for a tuple of predictions from one evaluation of the mixture,
    the same array for conditions that select the same components.
    """
    single = isinstance(cond, Condition)
    keys, posteriors = _posterior(world, (cond,) if single else tuple(cond), schedule, x, t)
    scale = -np.sqrt(1.0 - schedule.alpha_bar(t))
    eps = {}
    for key, (covs, diff, resp) in posteriors.items():
        score = np.sum(resp[:, :, None] * diff / covs, axis=1)
        eps[key] = scale * (score[0] if np.ndim(x) == 1 else score)
    return eps[keys[0]] if single else tuple(eps[key] for key in keys)


def epsilon_jacobian(world: GmmWorld, cond: Condition, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """Exact Jacobian J[i, j] = d eps_i / d x_j of the noise prediction at one point x (dim,).

    With component scores s_k = (mu_k - x) / c_k, responsibilities r_k
    and the mixture score s = sum_k r_k s_k, the log-density Hessian is
    sum_k r_k (s_k s_k^T - diag(1 / c_k)) - s s^T, so
    J = -sqrt(1 - alpha_bar_t) * Hessian: symmetric, in closed form.
    """
    if np.ndim(x) != 1:
        raise ValueError(f"epsilon_jacobian takes one point of shape (dim,), got shape {np.shape(x)}")
    (covs, diff, resp), = _posterior(world, (cond,), schedule, x, t)[1].values()
    # a component of zero responsibility adds exactly nothing, and its score can overflow: 0 * inf is NaN
    keep = resp[0] > 0
    r, covs = resp[0][keep], covs[keep]
    s_k = diff[0][keep] / covs
    s = r @ s_k
    hessian = (s_k.T * r) @ s_k - np.diag(r @ (1.0 / covs)) - np.outer(s, s)
    return -np.sqrt(1.0 - schedule.alpha_bar(t)) * hessian


def assign_labels(world: GmmWorld, samples: np.ndarray, label_sets: dict) -> np.ndarray:
    """Each row's mode label: the first label claiming its most responsible un-noised component k, else str(k)."""
    names = [next((label for label, idx in label_sets.items() if k in idx), str(k))
             for k in range(world.num_components)]
    _, terms = _log_components(world.means, world.cov_diags, samples)
    return np.array(names)[np.argmax(terms + np.log(world.weights), axis=1)]
