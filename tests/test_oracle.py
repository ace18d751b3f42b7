"""Mixture oracle tests with an independent scipy-based density reference.

The reference log-density below is built from scipy.stats Gaussian
logpdfs combined with scipy's log-sum-exp, so it shares no code with the
package implementation. The oracle's predictions, -sqrt(1 - alpha_bar_t)
times the score, are then checked against central finite differences of
that reference, so a wrong normalizer, which would rescale every
responsibility, shows up as a wrong score.
"""

import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from guidelab.oracle import Condition, GmmWorld, assign_labels, epsilon_jacobian, epsilon_oracle
from guidelab.schedule import make_linear_schedule

from conftest import random_world


def ref_log_density(world, cond, schedule, x, t):
    """Independent log-density of the conditioned noised mixture."""
    ab = schedule.alpha_bar(t)
    if cond.indices is None:
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


def single_gaussian_eps(mu, c, ab, x):
    """Closed-form prediction of a one-Gaussian world N(mu, diag(c)) noised to alpha_bar = ab."""
    return np.sqrt(1.0 - ab) * (x - np.sqrt(ab) * mu) / (ab * c + 1.0 - ab)


def test_noised_mixture_unit_gaussian_fixed_point():
    # N(0, I) is the forward process's fixed point: the prediction is sqrt(1 - alpha_bar) x at every step.
    world = GmmWorld(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(10, 0.05, 0.25)
    x = np.array([0.7, -1.9])
    for t in (1, 5, 10):
        eps = epsilon_oracle(world, Condition.null(), s, x, t)
        np.testing.assert_allclose(eps, np.sqrt(1.0 - s.alpha_bar(t)) * x, rtol=1e-15, atol=0)
        np.testing.assert_allclose(eps, single_gaussian_eps(np.zeros(2), np.ones(2), s.alpha_bar(t), x),
                                   rtol=1e-15, atol=0)


def test_noised_mixture_subset_renormalizes():
    # A subset condition is the oracle of a world holding just that subset, with its weights renormalized.
    rng = np.random.default_rng(61)
    s = make_linear_schedule(10, 0.05, 0.25)
    for _ in range(20):
        world = random_world(rng, dim=3, num_components=4)
        idx = sorted(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
        sub = GmmWorld(means=world.means[idx], cov_diags=world.cov_diags[idx],
                       weights=world.weights[idx] / world.weights[idx].sum())
        x = rng.normal(scale=3.0, size=(5, 3))
        t = int(rng.integers(1, 11))
        np.testing.assert_allclose(epsilon_oracle(world, Condition.subset(idx), s, x, t),
                                   epsilon_oracle(sub, Condition.null(), s, x, t), rtol=1e-12, atol=0)


def test_noised_mixture_arithmetic():
    # alpha_bar = 1/4 halves the mean and leaves unit variances at one: eps = sqrt(3/4) (x - (1, 0)).
    world = GmmWorld(means=np.array([[2.0, 0.0]]), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(1, 0.75, 0.75)
    assert s.alpha_bar(1) == 0.25
    x = np.array([3.0, -2.0])
    eps = epsilon_oracle(world, Condition.null(), s, x, 1)
    np.testing.assert_allclose(eps, np.sqrt(0.75) * (x - [1.0, 0.0]), rtol=1e-15, atol=0)
    np.testing.assert_allclose(eps, single_gaussian_eps(world.means[0], world.cov_diags[0], 0.25, x),
                               rtol=1e-15, atol=0)


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
    world = GmmWorld(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(10, 0.05, 0.25)
    np.testing.assert_array_equal(epsilon_oracle(world, Condition.null(), s, np.zeros(2), 4), [0.0, 0.0])


def test_score_zero_by_symmetry():
    world = GmmWorld(
        means=np.array([[3.0, 1.0], [-3.0, -1.0]]),
        cov_diags=np.full((2, 2), 1.7),
        weights=np.array([0.5, 0.5]),
    )
    s = make_linear_schedule(10, 0.05, 0.25)
    np.testing.assert_allclose(epsilon_oracle(world, Condition.null(), s, np.zeros(2), 4), [0.0, 0.0], atol=1e-15)


def test_score_matches_finite_differences():
    # 100 random probes on a fixed random 3-component 2-D mixture.
    rng = np.random.default_rng(31)
    world = random_world(rng, dim=2, num_components=3)
    s = make_linear_schedule(10, 0.05, 0.25)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(scale=3.0, size=2)
        t = int(rng.integers(1, 11))
        score = -epsilon_oracle(world, Condition.null(), s, x, t) / np.sqrt(1.0 - s.alpha_bar(t))
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
    assert Condition.null().indices is None
    world = GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Condition.subset([3]).resolve(world)
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        epsilon_oracle(world, Condition.subset([2]), s, np.zeros(2), 1)


def test_score_dimension_mismatch():
    world = GmmWorld(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        epsilon_oracle(world, Condition.null(), s, np.zeros(3), 1)


def one_point_eps(world, cond, schedule, x, t):
    """The prediction at one point, each operation written out in the package's order."""
    ab = schedule.alpha_bar(t)
    idx = cond.resolve(world)
    means = np.sqrt(ab) * world.means[idx]
    covs = ab * world.cov_diags[idx] + (1.0 - ab)
    weights = world.weights[idx] / world.weights[idx].sum()
    diff = means - x[None, :]
    log_comp = (
        -0.5 * np.sum(diff * diff / covs, axis=1)
        - 0.5 * np.sum(np.log(covs), axis=1)
        - 0.5 * world.dim * np.log(2.0 * np.pi)
        + np.log(weights)
    )
    top = log_comp.max()
    log_density = top + np.log(np.sum(np.exp(log_comp - top)))
    resp = np.exp(log_comp - log_density)
    score = np.sum(resp[:, None] * diff / covs, axis=0)
    return -np.sqrt(1.0 - ab) * score


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
        assert eps.shape == X.shape
        for i, x in enumerate(X):
            assert np.array_equal(eps[i], one_point_eps(world, cond, s, x, t))
            assert np.array_equal(eps[i], epsilon_oracle(world, cond, s, x, t))


def subset_eps(world, cond, schedule, x, t):
    """The prediction at x (dim,) or (N, dim) from the condition's own C-ordered means, variances and weights."""
    ab = schedule.alpha_bar(t)
    idx = cond.resolve(world)
    means = np.ascontiguousarray(np.sqrt(ab) * world.means[idx])
    covs = np.ascontiguousarray(ab * world.cov_diags[idx] + (1.0 - ab))
    weights = world.weights[idx] / world.weights[idx].sum()
    diff = means - np.atleast_2d(x)[:, None, :]
    log_comp = (
        -0.5 * np.sum(diff * diff / covs, axis=2)
        - 0.5 * np.sum(np.log(covs), axis=1)
        - 0.5 * world.dim * np.log(2.0 * np.pi)
        + np.log(weights)
    )
    top = log_comp.max(axis=1, keepdims=True)
    log_density = top + np.log(np.sum(np.exp(log_comp - top), axis=1, keepdims=True))
    resp = np.exp(log_comp - log_density)
    score = np.sum(resp[:, :, None] * diff / covs, axis=1)
    return -np.sqrt(1.0 - ab) * (score[0] if np.ndim(x) == 1 else score)


@pytest.mark.parametrize("num_components, sizes", [(8, (1, 3, 4, 8)), (12, (8, 9, 12))])
def test_shared_evaluation_equals_each_condition_alone_exactly(num_components, sizes):
    # A tuple of conditions shares one evaluation of every component's
    # Gaussian terms; each prediction must still equal the one computed
    # from that condition's own components alone, bit for bit. The world
    # is 16-D, and the 12-component one gathers subsets of 8 and more, so
    # each reduction adds enough terms for its order to depend on memory
    # layout: a gather that leaves columns F-ordered shows.
    rng = np.random.default_rng(num_components)
    world = random_world(rng, dim=16, num_components=num_components)
    s = make_linear_schedule(50, 0.03, 0.10)
    conds = tuple(Condition.subset(rng.choice(num_components, size=k, replace=False)) for k in sizes)
    conds += (Condition.null(),)
    for x in (rng.normal(scale=4.0, size=16), rng.normal(scale=4.0, size=(64, 16))):
        for t in (1, 25, 50):
            want = [subset_eps(world, cond, s, x, t) for cond in conds]
            got = epsilon_oracle(world, conds, s, x, t)
            assert len(got) == len(conds)
            for cond, g, w in zip(conds, got, want):
                assert g.shape == x.shape
                assert np.array_equal(g, w), (cond, t, x.shape)
                assert np.array_equal(epsilon_oracle(world, cond, s, x, t), w), (cond, t, x.shape)


def test_oracle_rejects_bad_batch_shapes():
    world = GmmWorld(means=np.zeros((2, 2)), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.5]))
    s = make_linear_schedule(5, 0.1, 0.2)
    for bad in (np.zeros((4, 3)), np.zeros((2, 4, 2)), np.zeros(())):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
            epsilon_oracle(world, Condition.null(), s, bad, 1)


def test_assign_labels_matches_scipy_argmax():
    # Hard assignment against argmax of log w_k + a scipy Gaussian logpdf per component; with no
    # label sets each sample is named by its component index.
    rng = np.random.default_rng(101)
    for _ in range(10):
        world = random_world(rng, dim=3, num_components=4)
        X = rng.normal(scale=4.0, size=(25, 3))
        ref = [
            int(np.argmax([np.log(world.weights[k]) + multivariate_normal.logpdf(
                x, mean=world.means[k], cov=np.diag(world.cov_diags[k])) for k in range(4)]))
            for x in X
        ]
        assert assign_labels(world, X, {}).tolist() == [str(k) for k in ref]


def test_assign_labels_names_unclaimed_components_by_index():
    world = GmmWorld(means=np.array([[-10.0, 0.0], [0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]),
                     cov_diags=np.ones((4, 2)), weights=np.full(4, 0.25))
    samples = world.means[[3, 0, 2, 1, 0]]
    assert assign_labels(world, samples, {"left": [0], "middle": (1, 2)}).tolist() == \
        ["3", "left", "middle", "middle", "left"]
    assert assign_labels(world, samples, {}).tolist() == ["3", "0", "2", "1", "0"]
    # the first label that claims a component names it
    assert assign_labels(world, samples[:2], {"a": [3], "b": [3, 0]}).tolist() == ["a", "b"]


def test_a_far_component_is_exact_and_quiet():
    # With a mean at 1e300 the squared offset overflowed, and numpy warned "overflow encountered in
    # multiply" on every oracle call and every assignment. The -inf log-density it gives is the float64
    # value of the true one, so the far component takes no responsibility and no warning is due.
    world = GmmWorld(means=np.array([[1e300, 0.0], [12.0, 0.0]]), cov_diags=np.ones((2, 2)),
                     weights=np.array([0.5, 0.5]))
    s = make_linear_schedule(10, 0.05, 0.25)
    X = np.array([[11.0, 0.5], [-12.0, 0.0], [0.0, 3.0]])
    assert assign_labels(world, X, {}).tolist() == ["1", "1", "1"]
    for t in (1, 5, 10):
        near = epsilon_oracle(world, Condition.subset([1]), s, X, t)
        assert epsilon_oracle(world, Condition.null(), s, X, t).tobytes() == near.tobytes()
        assert np.all(np.isfinite(epsilon_jacobian(world, Condition.null(), s, X[0], t)))


def test_jacobian_skips_a_far_component_of_zero_responsibility():
    # With a mean at 1e307 and a narrow variance the component score (mu_k - x) / c_k overflowed, and its
    # zero responsibility times inf made the Jacobian NaN. The component adds exactly nothing, so the
    # Jacobian is the one of the world without it.
    far = GmmWorld(means=np.array([[1e307, 0.0], [12.0, 0.0]]), cov_diags=np.array([[0.01, 1.0], [1.0, 1.0]]),
                   weights=np.array([0.5, 0.5]))
    near = GmmWorld(means=np.array([[12.0, 0.0]]), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(50, 0.03, 0.10)
    for x in ([11.0, 0.5], [-12.0, 0.0], [0.0, 3.0]):
        for t in (1, 2, 25, 50):  # the score overflows while alpha_bar_t is near 1
            J = epsilon_jacobian(far, Condition.null(), s, np.array(x), t)
            np.testing.assert_array_equal(J, epsilon_jacobian(near, Condition.null(), s, np.array(x), t))
            np.testing.assert_allclose(J, jacobian_fd(far, Condition.null(), s, x, t, 1e-5), atol=1e-6)
