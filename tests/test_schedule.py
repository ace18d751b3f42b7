"""Schedule construction, and the forward chain against the closed-form marginal."""

from fractions import Fraction

import numpy as np
import pytest

from guidelab.schedule import make_linear_schedule


def test_single_step_schedule():
    s = make_linear_schedule(1, 0.5, 0.5)
    assert s.num_steps == 1
    np.testing.assert_array_equal(s.betas, [0.5])
    np.testing.assert_array_equal(s.alpha_bars, [0.5])


def test_single_step_schedule_takes_beta_start():
    s = make_linear_schedule(1, 0.03, 0.10)
    assert s.betas.tolist() == [0.03]
    assert s.alpha_bars.tolist() == [0.97]


def test_two_step_schedule_products():
    s = make_linear_schedule(2, 0.1, 0.3)
    np.testing.assert_allclose(s.betas, [0.1, 0.3], rtol=0, atol=1e-15)
    np.testing.assert_allclose(s.alpha_bars, [0.9, 0.63], rtol=0, atol=1e-15)


def test_fifty_step_schedule_against_extended_precision_product():
    # Recompute the running product with exact rational arithmetic and
    # compare the float64 cumulative product against it.
    T = 50
    s = make_linear_schedule(T, 1e-4, 0.02)
    exact = []
    acc = Fraction(1)
    for b in s.betas:
        acc *= 1 - Fraction(float(b))
        exact.append(acc)
    for t in range(1, T + 1):
        rel = abs(s.alpha_bar(t) - float(exact[t - 1])) / float(exact[t - 1])
        assert rel <= 1e-12
    diffs = np.diff(s.alpha_bars)
    assert np.all(diffs < 0)
    assert np.all(s.alpha_bars > 0) and np.all(s.alpha_bars < 1)


def test_running_product_invariant_random_schedules():
    rng = np.random.default_rng(7)
    for _ in range(25):
        T = int(rng.integers(1, 80))
        b0 = float(rng.uniform(1e-4, 0.2))
        b1 = float(rng.uniform(b0, 0.5))
        s = make_linear_schedule(T, b0, b1)
        acc = Fraction(1)
        for t in range(1, T + 1):
            acc *= 1 - Fraction(float(s.beta(t)))
            assert abs(s.alpha_bar(t) - float(acc)) <= 1e-12 * float(acc)
        assert np.all(np.diff(s.alpha_bars) < 0) or T == 1


def test_alpha_bar_zero_convention():
    s = make_linear_schedule(5, 0.1, 0.3)
    assert s.alpha_bar(0) == 1.0


def test_construction_validation():
    with pytest.raises(ValueError):
        make_linear_schedule(0, 0.1, 0.2)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.0, 0.2)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.1, 1.0)
    with pytest.raises(ValueError):
        make_linear_schedule(10, -0.1, 0.2)


def test_step_index_bounds():
    s = make_linear_schedule(5, 0.1, 0.3)
    with pytest.raises(ValueError):
        s.beta(0)
    with pytest.raises(ValueError):
        s.beta(6)
    with pytest.raises(ValueError):
        s.alpha_bar(6)


def test_forward_chain_matches_marginal_in_distribution():
    # Iterating x_t = sqrt(1 - beta_t) x_{t-1} + sqrt(beta_t) noise through
    # steps 1..t with independent noises must match the closed-form
    # marginal's mean sqrt(alpha_bar_t) x_0 and variance 1 - alpha_bar_t.
    s = make_linear_schedule(8, 0.05, 0.3)
    t = 8
    x0 = np.array([2.0, 1.0])
    rng = np.random.default_rng(42)
    n = 100_000
    x = np.tile(x0, (n, 1))
    for step in range(1, t + 1):
        b = s.beta(step)
        x = np.sqrt(1 - b) * x + np.sqrt(b) * rng.standard_normal((n, 2))
    ab = s.alpha_bar(t)
    mean_tol = 3 * np.sqrt((1 - ab) / n)
    var_tol = 3 * (1 - ab) * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(x.mean(axis=0) - np.sqrt(ab) * x0) < mean_tol)
    assert np.all(np.abs(x.var(axis=0, ddof=1) - (1 - ab)) < var_tol)
