"""Mixture oracle tests with an independent scipy-based density reference.

The reference log-density below is built from scipy.stats Gaussian
logpdfs combined with scipy's log-sum-exp, so it shares no code with the
package implementation. Scores are then checked against central finite
differences of that reference.
"""

import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from guidelab.oracle import (
    Condition,
    GmmWorld,
    NoisedMixture,
    assign_components,
    epsilon_oracle,
    log_density_and_score,
    noised_mixture,
)
from guidelab.schedule import make_linear_schedule

from conftest import random_world


def ref_log_density(world, cond, schedule, x, t):
    """Independent log-density of the conditioned noised mixture."""
    ab = schedule.alpha_bar(t)
    if cond.is_null:
        idx = list(range(world.num_components))
    else:
        idx = list(cond.indices)
    w = world.weights[idx]
    w = w / w.sum()
    terms = []
    for j, k in enumerate(idx):
        mean = np.sqrt(ab) * world.means[k]
        cov = np.diag(ab * world.cov_diags[k] + (1.0 - ab))
        terms.append(np.log(w[j]) + multivariate_normal.logpdf(x, mean=mean, cov=cov))
    return logsumexp(terms)


def ref_fd_score(world, cond, schedule, x, t, h=1e-5):
    """Central finite differences of the reference log-density."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        up = ref_log_density(world, cond, schedule, x + e, t)
        dn = ref_log_density(world, cond, schedule, x - e, t)
        g[j] = (up - dn) / (2.0 * h)
    return g


def jacobian_fd(world, cond, schedule, x, t, h):
    """Central finite differences of the oracle: J[i, j] = d eps_i / d x_j at step size h.

    The 2*dim probe points x +/- h e_j go to the oracle as one batch.
    """
    x = np.asarray(x, dtype=np.float64)
    steps = h * np.eye(len(x))
    eps = epsilon_oracle(world, cond, schedule, np.concatenate([x + steps, x - steps]), t)
    return ((eps[:len(x)] - eps[len(x):]) / (2.0 * h)).T


def test_noised_mixture_unit_gaussian_fixed_point():
    world = GmmWorld(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(10, 0.05, 0.25)
    for t in (1, 5, 10):
        m = noised_mixture(world, Condition.null(), s, t)
        np.testing.assert_array_equal(m.means, np.zeros((1, 2)))
        np.testing.assert_allclose(m.cov_diags, np.ones((1, 2)), rtol=0, atol=1e-15)


def test_noised_mixture_subset_renormalizes():
    world = GmmWorld(
        means=np.array([[0.0], [4.0]]),
        cov_diags=np.ones((2, 1)),
        weights=np.array([0.25, 0.75]),
    )
    s = make_linear_schedule(5, 0.1, 0.2)
    m = noised_mixture(world, Condition.subset([0]), s, 3)
    assert m.means.shape == (1, 1)
    np.testing.assert_array_equal(m.weights, [1.0])


def test_noised_mixture_arithmetic():
    world = GmmWorld(means=np.array([[2.0, 0.0]]), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(1, 0.75, 0.75)
    assert s.alpha_bar(1) == 0.25
    m = noised_mixture(world, Condition.null(), s, 1)
    np.testing.assert_allclose(m.means, [[1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(m.cov_diags, [[1.0, 1.0]], atol=1e-15)


def test_full_subset_equals_null_exactly():
    rng = np.random.default_rng(11)
    s = make_linear_schedule(10, 0.05, 0.25)
    for _ in range(10):
        world = random_world(rng)
        full = Condition.subset(range(world.num_components))
        x = rng.normal(size=world.dim)
        t = int(rng.integers(1, 11))
        np.testing.assert_array_equal(
            epsilon_oracle(world, Condition.null(), s, x, t),
            epsilon_oracle(world, full, s, x, t),
        )


def test_score_zero_at_unit_gaussian_mode():
    m = NoisedMixture(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]), t=1)
    logp, score = log_density_and_score(m, np.zeros(2))
    np.testing.assert_array_equal(score, [0.0, 0.0])
    assert logp == pytest.approx(-np.log(2 * np.pi), abs=1e-12)


def test_score_zero_by_symmetry():
    m = NoisedMixture(
        means=np.array([[3.0, 1.0], [-3.0, -1.0]]),
        cov_diags=np.full((2, 2), 1.7),
        weights=np.array([0.5, 0.5]),
        t=1,
    )
    _, score = log_density_and_score(m, np.zeros(2))
    np.testing.assert_allclose(score, [0.0, 0.0], atol=1e-15)


def test_log_density_matches_scipy_reference():
    rng = np.random.default_rng(21)
    s = make_linear_schedule(10, 0.05, 0.25)
    for _ in range(20):
        world = random_world(rng)
        cond = Condition.null() if rng.random() < 0.5 else Condition.subset(
            rng.choice(world.num_components, size=int(rng.integers(1, world.num_components + 1)), replace=False)
        )
        x = rng.normal(scale=3.0, size=world.dim)
        t = int(rng.integers(1, 11))
        logp, _ = log_density_and_score(noised_mixture(world, cond, s, t), x)
        ref = ref_log_density(world, cond, s, x, t)
        assert logp == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_score_matches_finite_differences():
    # 100 random probes on a fixed random 3-component 2-D mixture.
    rng = np.random.default_rng(31)
    world = random_world(rng, dim=2, num_components=3)
    s = make_linear_schedule(10, 0.05, 0.25)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(scale=3.0, size=2)
        t = int(rng.integers(1, 11))
        m = noised_mixture(world, Condition.null(), s, t)
        _, score = log_density_and_score(m, x)
        fd = ref_fd_score(world, Condition.null(), s, x, t)
        rel = np.linalg.norm(score - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_epsilon_closed_form_single_gaussian():
    world = GmmWorld(means=np.zeros((1, 3)), cov_diags=np.ones((1, 3)), weights=np.array([1.0]))
    s = make_linear_schedule(10, 0.05, 0.25)
    rng = np.random.default_rng(5)
    for t in (1, 4, 10):
        x = rng.normal(size=3)
        expect = np.sqrt(1.0 - s.alpha_bar(t)) * x
        np.testing.assert_allclose(epsilon_oracle(world, Condition.null(), s, x, t), expect, atol=1e-12)


def test_epsilon_zero_by_symmetry():
    world = GmmWorld(
        means=np.array([[2.0, 0.0], [-2.0, 0.0]]),
        cov_diags=np.ones((2, 2)),
        weights=np.array([0.5, 0.5]),
    )
    s = make_linear_schedule(10, 0.05, 0.25)
    np.testing.assert_allclose(epsilon_oracle(world, Condition.null(), s, np.zeros(2), 5), [0.0, 0.0], atol=1e-15)


def test_epsilon_matches_finite_difference_score():
    # Asymmetric world, subset condition, 50 random (x, t) pairs.
    rng = np.random.default_rng(41)
    world = GmmWorld(
        means=np.array([[1.0, -2.0], [4.0, 3.0], [-3.0, 0.5]]),
        cov_diags=np.array([[0.5, 1.5], [2.0, 0.8], [1.0, 1.0]]),
        weights=np.array([0.5, 0.3, 0.2]),
    )
    cond = Condition.subset([0, 2])
    s = make_linear_schedule(10, 0.05, 0.25)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=2)
        t = int(rng.integers(1, 11))
        eps = epsilon_oracle(world, cond, s, x, t)
        fd = -np.sqrt(1.0 - s.alpha_bar(t)) * ref_fd_score(world, cond, s, x, t)
        rel = np.linalg.norm(eps - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4


def test_epsilon_translation_equivariance_single_gaussian():
    # Translating a single-Gaussian world by d and the probe point by
    # sqrt(alpha_bar)*d leaves the prediction unchanged.
    rng = np.random.default_rng(51)
    s = make_linear_schedule(10, 0.05, 0.25)
    mu = np.array([1.0, -0.5])
    world = GmmWorld(means=mu[None, :], cov_diags=np.array([[0.7, 1.3]]), weights=np.array([1.0]))
    for _ in range(10):
        d = rng.normal(size=2)
        shifted = GmmWorld(means=(mu + d)[None, :], cov_diags=np.array([[0.7, 1.3]]), weights=np.array([1.0]))
        x = rng.normal(scale=2.0, size=2)
        t = int(rng.integers(1, 11))
        ab = s.alpha_bar(t)
        np.testing.assert_allclose(
            epsilon_oracle(shifted, Condition.null(), s, x + np.sqrt(ab) * d, t),
            epsilon_oracle(world, Condition.null(), s, x, t),
            atol=1e-12,
        )


def test_world_validation():
    with pytest.raises(ValueError):
        GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([-0.2, 1.2]))
    with pytest.raises(ValueError):
        GmmWorld(means=np.zeros((2, 2)), cov_diags=np.array([[1.0, 0.0], [1.0, 1.0]]), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 3)), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        GmmWorld(means=np.zeros((3, 2)), cov_diags=np.ones((3, 2)), weights=np.array([0.5, 0.5]))
    # a zero weight would put log(0) into every responsibility computation
    with pytest.raises(ValueError, match="strictly positive"):
        GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([1.0, 0.0]))
    # a NaN or inf parameter would otherwise flow through the oracle into NaN samples
    good = dict(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.5]))
    for name, bad in (
        ("means", np.array([[np.nan, 0.0], [1.0, 0.0]])),
        ("means", np.array([[np.inf, 0.0], [1.0, 0.0]])),
        ("cov_diags", np.array([[1.0, np.inf], [1.0, 1.0]])),
        ("cov_diags", np.array([[1.0, np.nan], [1.0, 1.0]])),
        ("weights", np.array([np.nan, 0.5])),
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GmmWorld(**{**good, name: bad})


def test_condition_validation_and_dedup():
    with pytest.raises(ValueError):
        Condition.subset([])
    c = Condition.subset([2, 0, 2, 1])
    assert c.indices == (0, 1, 2)
    assert not c.is_null
    assert Condition.null().is_null
    world = GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Condition.subset([3]).resolve(world)
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        noised_mixture(world, Condition.subset([2]), s, 1)


def test_score_dimension_mismatch():
    m = NoisedMixture(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]), t=1)
    with pytest.raises(ValueError):
        log_density_and_score(m, np.zeros(3))


def one_point_eps(world, cond, schedule, x, t):
    """The prediction at one point, each operation written out in the package's order."""
    m = noised_mixture(world, cond, schedule, t)
    diff = m.means - x[None, :]
    log_comp = (
        -0.5 * np.sum(diff * diff / m.cov_diags, axis=1)
        - 0.5 * np.sum(np.log(m.cov_diags), axis=1)
        - 0.5 * m.dim * np.log(2.0 * np.pi)
        + np.log(m.weights)
    )
    top = log_comp.max()
    log_density = top + np.log(np.sum(np.exp(log_comp - top)))
    resp = np.exp(log_comp - log_density)
    score = np.sum(resp[:, None] * diff / m.cov_diags, axis=0)
    return -np.sqrt(1.0 - schedule.alpha_bar(t)) * score, log_density


def test_batched_oracle_equals_row_by_row_exactly():
    # A batch of points must give each row bit for bit what that point
    # gives alone; seed sweeps run batched and their artifacts must not
    # depend on how many seeds share a batch.
    rng = np.random.default_rng(71)
    s = make_linear_schedule(20, 0.03, 0.2)
    for trial in range(60):
        world = random_world(rng, dim=int(rng.integers(1, 17)), num_components=int(rng.integers(1, 9)))
        k = world.num_components
        cond = Condition.null() if trial % 2 else Condition.subset(
            rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
        X = rng.normal(scale=4.0, size=(int(rng.integers(1, 40)), world.dim))
        t = int(rng.integers(1, 21))
        eps = epsilon_oracle(world, cond, s, X, t)
        logp, score = log_density_and_score(noised_mixture(world, cond, s, t), X)
        assert eps.shape == score.shape == X.shape and logp.shape == (len(X),)
        for i, x in enumerate(X):
            expect, expect_logp = one_point_eps(world, cond, s, x, t)
            assert np.array_equal(eps[i], expect)
            assert np.array_equal(eps[i], epsilon_oracle(world, cond, s, x, t))
            assert logp[i] == expect_logp


def test_oracle_rejects_bad_batch_shapes():
    world = GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.5]))
    s = make_linear_schedule(5, 0.1, 0.2)
    for bad in (np.zeros((4, 3)), np.zeros((2, 4, 2)), np.zeros(())):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
            epsilon_oracle(world, Condition.null(), s, bad, 1)


def test_assign_components_matches_scipy_argmax():
    # Hard assignment against argmax of log w_k + a scipy Gaussian logpdf per component.
    rng = np.random.default_rng(101)
    for _ in range(10):
        world = random_world(rng, dim=3, num_components=4)
        X = rng.normal(scale=4.0, size=(25, 3))
        ref = [
            int(np.argmax([np.log(world.weights[k]) + multivariate_normal.logpdf(
                x, mean=world.means[k], cov=np.diag(world.cov_diags[k])) for k in range(4)]))
            for x in X
        ]
        np.testing.assert_array_equal(assign_components(world, X), ref)
