"""Reverse-process sampling: coefficients, seeding, collapse and decoupling.

Several tests mirror the update recursion independently (closed-form
single-Gaussian prediction plus the stated coefficient formulas) and
compare states bit-for-bit, which pins the exact seeding and noise
draw order, not just approximate agreement.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from guidelab import sampler
from guidelab.experiment import default_config, parse_config, strategy_comparison
from guidelab.guidance import STRATEGIES, GuidanceConfig, cfg_combine, np_combine, sdn_combine
from guidelab.oracle import Condition, GmmWorld, epsilon_oracle
from guidelab.sampler import TrajectoryBatch, ancestral_coeffs, run_dual_batch, run_lockstep, run_single_batch
from guidelab.schedule import NoiseSchedule, make_linear_schedule

from conftest import random_world


TWO_WELL = GmmWorld(
    means=np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
    cov_diags=np.ones((3, 2)),
    weights=np.array([0.4, 0.4, 0.2]),
)


def test_ancestral_coeffs_arithmetic():
    s = NoiseSchedule(num_steps=1, betas=np.array([0.19]), alpha_bars=np.array([0.81]))
    a_t, b_t, sigma_t = ancestral_coeffs(s, 1)
    assert a_t == pytest.approx(1.0 / 0.9, abs=1e-12)
    assert b_t == pytest.approx(-0.19 / (0.9 * np.sqrt(0.19)), abs=1e-12)
    assert b_t == pytest.approx(-0.48432, abs=1e-5)
    # sigma_t is the same in both modes: a deterministic run adds no noise term at all
    assert sigma_t == pytest.approx(np.sqrt(0.19), abs=1e-12)


def test_initial_state_follows_seeding_contract():
    s = make_linear_schedule(5, 0.05, 0.2)
    for seed in (0, 1, 17):
        tr = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [seed])
        np.testing.assert_array_equal(tr.states[0, 0], np.random.default_rng(seed).standard_normal(2))


def test_trajectory_shapes_and_step_order():
    s = make_linear_schedule(7, 0.05, 0.2)
    tr = run_single_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("NP"), [3])
    assert tr.states.shape == (8, 1, 2)
    for name in ("eps_pos", "eps_neg", "delta", "correction"):
        assert getattr(tr, name).shape == (7, 1, 2)
    assert list(tr.steps) == [7, 6, 5, 4, 3, 2, 1]
    np.testing.assert_array_equal(tr.finals, tr.states[-1])


def test_determinism_bitwise():
    s = make_linear_schedule(10, 0.05, 0.25)
    for cfg, runner in [
        (GuidanceConfig("NP"), lambda c, sd: run_single_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, c, [sd])),
        (GuidanceConfig("SDG"), lambda c, sd: run_dual_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, c, [sd])),
    ]:
        a = runner(cfg, 5)
        b = runner(cfg, 5)
        sa = [a.states] + ([a.minus.states] if a.minus is not None else [])
        sb = [b.states] + ([b.minus.states] if b.minus is not None else [])
        for xa, xb in zip(sa, sb):
            np.testing.assert_array_equal(xa, xb)


def test_different_seeds_differ():
    s = make_linear_schedule(5, 0.05, 0.2)
    a = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [0])
    b = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [1])
    assert np.any(a.states[0, 0] != b.states[0, 0])


def closed_form_eps(mu, cov, schedule, x, t):
    """Single-Gaussian prediction written out independently."""
    ab = schedule.alpha_bar(t)
    noised_cov = ab * cov + (1.0 - ab)
    score = (np.sqrt(ab) * mu - x) / noised_cov
    return -np.sqrt(1.0 - ab) * score


def test_single_gaussian_reference_recursion():
    # Mirror the full deterministic recursion with the closed-form
    # prediction and the stated coefficient formulas; the package
    # trajectory must match to 1e-12 and converge on the data mode at
    # least as tightly as the reference run does.
    mu = np.array([2.0, -1.0])
    cov = np.array([0.8, 1.4])
    world = GmmWorld(means=mu[None, :], cov_diags=cov[None, :], weights=np.array([1.0]))
    s = make_linear_schedule(30, 0.02, 0.2)
    seed = 9
    tr = run_single_batch(world, Condition.subset([0]), None, s, GuidanceConfig("CFG", w=1.0), [seed])

    x = np.random.default_rng(seed).standard_normal(2)
    ref_states = [x.copy()]
    for t in range(30, 0, -1):
        b = s.beta(t)
        ab = s.alpha_bar(t)
        a_t = 1.0 / np.sqrt(1.0 - b)
        b_t = -b / (np.sqrt(1.0 - b) * np.sqrt(1.0 - ab))
        x = a_t * x + b_t * closed_form_eps(mu, cov, s, x, t)
        ref_states.append(x.copy())

    for got, ref in zip(tr.states[:, 0], ref_states):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    ref_dist = np.linalg.norm(ref_states[-1] - mu)
    start_dist = np.linalg.norm(ref_states[0] - mu)
    assert ref_dist < start_dist
    assert np.linalg.norm(tr.finals[0] - mu) <= ref_dist * (1.0 + 1e-9)


def conditional_reference_states(world, cond, schedule, seed, deterministic=True):
    """Sampling on the raw conditional prediction alone, mirrored independently."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(world.dim)
    states = [x.copy()]
    for t in range(schedule.num_steps, 0, -1):
        b = schedule.beta(t)
        ab = schedule.alpha_bar(t)
        a_t = 1.0 / np.sqrt(1.0 - b)
        b_t = -b / (np.sqrt(1.0 - b) * np.sqrt(1.0 - ab))
        x = a_t * x + b_t * epsilon_oracle(world, cond, schedule, x, t)
        if not deterministic:
            x = x + np.sqrt(b) * rng.standard_normal(world.dim)
        states.append(x.copy())
    return states


def test_np_with_matching_negative_collapses_to_conditional():
    # Zero discrepancy means the combination rule returns the positive
    # prediction untouched, so the run must equal plain conditional
    # sampling bit-for-bit, in both sampling modes.
    s = make_linear_schedule(10, 0.05, 0.25)
    cond = Condition.subset([0])
    for deterministic in (True, False):
        tr = run_single_batch(TWO_WELL, cond, cond, s, GuidanceConfig("NP", w=4.0), [11],
                              deterministic=deterministic)
        ref = conditional_reference_states(TWO_WELL, cond, s, 11, deterministic=deterministic)
        for got, expect in zip(tr.states[:, 0], ref):
            np.testing.assert_array_equal(got, expect)
        for delta in tr.delta[:, 0]:
            np.testing.assert_array_equal(delta, np.zeros(2))


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
@pytest.mark.parametrize("strategy", ["NP", "SDN"])
def test_np_and_sdn_chains_equal_the_closed_form_replay(strategy, deterministic):
    # two_well with "positive": "plausible" makes the positive and the negative condition one
    # Gaussian each, with a shared covariance c. Each prediction is then closed form,
    # eps_k(x, t) = sqrt(1 - ab_t) (x - sqrt(ab_t) mu_k) / (ab_t c + 1 - ab_t), and the replay
    # below uses no oracle and no combine rule of the package. Betas and ab_t are formed from
    # the raw config, apart from schedule.py; noise is drawn by the seeding contract.
    raw = default_config()
    raw["positive"] = "plausible"
    raw["guidance"]["strategy"] = strategy
    raw["run"].update(seeds={"count": 16, "base": 0}, deterministic=deterministic)
    config = parse_config(raw)
    batch = run_single_batch(config.world, config.positive_condition, config.negative_condition, config.schedule,
                             config.guidance, config.seeds, deterministic)

    comps, sched, g = raw["world"]["components"], raw["schedule"], raw["guidance"]
    assert comps[0]["cov_diag"] == comps[1]["cov_diag"]
    mu_pos, mu_neg, c = np.array(comps[0]["mean"]), np.array(comps[1]["mean"]), np.array(comps[0]["cov_diag"])
    T = sched["num_steps"]
    betas = np.linspace(sched["beta_start"], sched["beta_end"], T)
    ab = np.cumprod(1.0 - betas)  # ab[t - 1] is alpha_bar_t
    for i, seed in enumerate(config.seeds):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2)
        for t in range(T, 0, -1):
            a, b = ab[t - 1], betas[t - 1]
            eps_pos, eps_neg = (np.sqrt(1 - a) * (x - np.sqrt(a) * mu) / (a * c + 1 - a) for mu in (mu_pos, mu_neg))
            delta = eps_pos - eps_neg
            if strategy == "NP":
                correction = g["w"] * delta
            else:
                correction = g["lambda"] * delta / (np.sqrt(delta @ delta) + g["eps_stab"])
            x = x / np.sqrt(1 - b) - b / (np.sqrt(1 - b) * np.sqrt(1 - a)) * (eps_pos + correction)
            if not deterministic:
                x = x + np.sqrt(b) * rng.standard_normal(2)
        got = batch.finals[i]
        assert np.abs(got - x).max() <= 1e-12 * max(1.0, np.abs(x).max()), (seed, got, x)


@pytest.mark.parametrize("strategy, scale, exact", [("NP", 1.0, 0.074), ("SDN", 0.3, 0.105)])
def test_np_and_sdn_counterfactual_mass_equals_the_exact_expectation(strategy, scale, exact):
    # Two unit-variance components at (+-0.5, 0), positive {0}, negative {1}:
    # each noised condition is one unit Gaussian, so eps_pos is affine in x
    # and delta = sqrt(1 - ab) sqrt(ab) (mu_neg - mu_pos) does not depend
    # on x. Each stochastic NP or SDN step is then an affine map of x_1
    # plus Gaussian noise, and x_1 at t = 0 is Gaussian with a mean and
    # variance from a scalar recursion. The counterfactual mass is the
    # chance x_1 lands past the bisecting hyperplane x_1 = 0: Phi(m / sqrt(v)).
    # (two_well cannot serve here: with positive "plausible" its mass is
    # 0 for every w >= 0.)
    mu_pos, mu_neg = -0.5, 0.5
    world = GmmWorld(means=np.array([[mu_pos, 0.0], [mu_neg, 0.0]]), cov_diags=np.ones((2, 2)),
                     weights=np.array([0.5, 0.5]))
    T, eps_stab = 50, 1e-8
    betas = np.linspace(0.03, 0.10, T)
    ab = np.cumprod(1.0 - betas)  # ab[t - 1] is alpha_bar_t
    m, v = 0.0, 1.0  # x_T is a unit Gaussian
    for t in range(T, 0, -1):
        a, b = ab[t - 1], betas[t - 1]
        delta = np.sqrt(1 - a) * np.sqrt(a) * (mu_neg - mu_pos)  # delta_1; delta_2 is 0
        correction = scale * delta if strategy == "NP" else scale * delta / (abs(delta) + eps_stab)
        # x_1 <- x_1 / sqrt(1 - b) + coef * (eps_pos_1 + correction) + sqrt(b) eta,
        # with eps_pos_1 = sqrt(1 - a) (x_1 - sqrt(a) mu_pos)
        coef = -b / (np.sqrt(1 - b) * np.sqrt(1 - a))
        slope = 1 / np.sqrt(1 - b) + coef * np.sqrt(1 - a)
        m = slope * m + coef * (correction - np.sqrt(1 - a) * np.sqrt(a) * mu_pos)
        v = slope * slope * v + b
    expected = 0.5 * (1 + math.erf(m / np.sqrt(v) / np.sqrt(2)))
    assert expected == pytest.approx(exact, abs=5e-4)

    cfg = GuidanceConfig(strategy, w=scale) if strategy == "NP" else GuidanceConfig(strategy, lambda_=scale)
    batch = run_single_batch(world, Condition.subset([0]), Condition.subset([1]), make_linear_schedule(T, 0.03, 0.10),
                             cfg, range(64), deterministic=False)
    mass = np.mean(batch.finals[:, 0] > 0)
    stderr = np.sqrt(expected * (1 - expected) / 64)
    assert abs(mass - expected) <= 4 * stderr, (mass, expected, (mass - expected) / stderr)


def test_cfg_unit_weight_equals_conditional_sampling():
    s = make_linear_schedule(10, 0.05, 0.25)
    cond = Condition.subset([1])
    tr = run_single_batch(TWO_WELL, cond, None, s, GuidanceConfig("CFG", w=1.0), [13])
    ref = conditional_reference_states(TWO_WELL, cond, s, 13)
    for got, expect in zip(tr.states[:, 0], ref):
        np.testing.assert_array_equal(got, expect)


def test_step_records_self_consistent():
    s = make_linear_schedule(10, 0.05, 0.25)
    lam, eps_stab = 30.0, 1e-8
    tr = run_single_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s,
                          GuidanceConfig("SDN", lambda_=lam, eps_stab=eps_stab), [7])
    for delta, eps_pos, eps_neg, correction in zip(tr.delta[:, 0], tr.eps_pos[:, 0], tr.eps_neg[:, 0],
                                                   tr.correction[:, 0]):
        np.testing.assert_array_equal(delta, eps_pos - eps_neg)
        d = np.linalg.norm(delta)
        assert np.linalg.norm(correction) == pytest.approx(lam * d / (d + eps_stab), abs=1e-10)


def test_cfg_records_have_no_negative_side():
    s = make_linear_schedule(5, 0.05, 0.2)
    tr = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [1])
    assert tr.eps_neg is None and tr.delta is None


def test_single_branch_strategy_validation():
    # one function answers to both names and returns one TrajectoryBatch, which carries a minus branch
    # exactly under TDD_ONLY and SDG; the minus branch carries none and has the plus branch's seeds
    s = make_linear_schedule(3, 0.05, 0.2)
    assert run_single_batch is run_dual_batch
    for strategy in STRATEGIES:
        d = run_single_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig(strategy),
                             [0, 4])
        assert isinstance(d, TrajectoryBatch), strategy
        assert (d.minus is None) == (strategy in ("CFG", "NP", "SDN")), strategy
        if d.minus is not None:
            assert isinstance(d.minus, TrajectoryBatch)
            assert d.minus.minus is None and d.minus.eps_neg is None and d.minus.seeds == d.seeds == (0, 4)
    with pytest.raises(ValueError):
        run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("NP"), [0])
    with pytest.raises(ValueError):
        run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("SDN"), [0])


def test_dual_branches_share_initial_noise():
    s = make_linear_schedule(8, 0.05, 0.25)
    d = run_dual_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("SDG"), [21])
    np.testing.assert_array_equal(d.states[0, 0], d.minus.states[0, 0])
    np.testing.assert_array_equal(d.states[0, 0], np.random.default_rng(21).standard_normal(2))


def test_dual_symmetric_collapse_both_modes():
    # With identical conditions the two branches see identical inputs
    # forever; in stochastic mode that only holds if the injected noise
    # stream is shared, so this doubles as the synchronization test.
    s = make_linear_schedule(10, 0.05, 0.25)
    cond = Condition.subset([0])
    for strategy in ("SDG", "TDD_ONLY"):
        for deterministic in (True, False):
            d = run_dual_batch(TWO_WELL, cond, cond, s, GuidanceConfig(strategy), [31],
                               deterministic=deterministic)
            for xp, xm in zip(d.states[:, 0], d.minus.states[:, 0]):
                np.testing.assert_array_equal(xp, xm)
            for correction in d.correction[:, 0]:
                np.testing.assert_allclose(correction, np.zeros(2), rtol=0, atol=0)


def test_minus_branch_decoupled_from_positive_condition():
    # Swapping the positive condition must leave every minus-branch
    # state untouched, in both sampling modes.
    s = make_linear_schedule(10, 0.05, 0.25)
    p_minus = Condition.subset([2])
    for deterministic in (True, False):
        a = run_dual_batch(TWO_WELL, Condition.subset([0]), p_minus, s, GuidanceConfig("SDG"), [41],
                           deterministic=deterministic)
        b = run_dual_batch(TWO_WELL, Condition.subset([1]), p_minus, s, GuidanceConfig("SDG"), [41],
                           deterministic=deterministic)
        for xa, xb in zip(a.minus.states[:, 0], b.minus.states[:, 0]):
            np.testing.assert_array_equal(xa, xb)
        assert np.any(a.finals[0] != b.finals[0])


def test_tdd_only_minus_branch_at_zero_scale_is_the_raw_conditional_chain():
    # At w = 0 the minus branch's push away from the null is exactly zero, so it is the raw chain of the
    # negative condition from the shared x_T: CFG at w = 1 on that condition, which returns it exactly.
    rng = np.random.default_rng(29)
    s = make_linear_schedule(8, 0.05, 0.25)
    for dim in (1, 2, 3, 4):
        k = int(rng.integers(2, 5))
        world = random_world(rng, dim=dim, num_components=k)
        plus, minus = (Condition.subset(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
                       for _ in range(2))
        seeds = [int(seed) for seed in rng.integers(0, 1000, size=3)]
        d = run_dual_batch(world, plus, minus, s, GuidanceConfig("TDD_ONLY", w=0.0), seeds)
        raw = run_single_batch(world, minus, None, s, GuidanceConfig("CFG", w=1.0), seeds)
        assert d.minus.states.tobytes() == raw.states.tobytes(), dim
        assert d.minus.eps_pos.tobytes() == raw.eps_pos.tobytes(), dim


def test_stochastic_mode_changes_trajectory():
    s = make_linear_schedule(5, 0.05, 0.2)
    det = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [2])
    sto = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [2],
                           deterministic=False)
    np.testing.assert_array_equal(det.states[0, 0], sto.states[0, 0])
    assert np.any(det.states[1, 0] != sto.states[1, 0])


def test_dual_runs_on_random_worlds():
    # Smoke over random worlds: records stay self-consistent and the
    # plus correction obeys the normalized-magnitude identity.
    rng = np.random.default_rng(61)
    s = make_linear_schedule(6, 0.05, 0.2)
    for _ in range(5):
        world = random_world(rng, dim=2, num_components=3)
        d = run_dual_batch(world, Condition.subset([0]), Condition.subset([1]), s,
                           GuidanceConfig("SDG"), [int(rng.integers(0, 100))])
        for delta, eps_pos, eps_neg, correction in zip(d.delta[:, 0], d.eps_pos[:, 0], d.eps_neg[:, 0],
                                                       d.correction[:, 0]):
            np.testing.assert_array_equal(delta, eps_pos - eps_neg)
            dn = np.linalg.norm(delta)
            assert np.linalg.norm(correction) == pytest.approx(30.0 * dn / (dn + 1e-8), abs=1e-10)


# Relabelling a world's components changes nothing but the order of every sum over components, each of which
# is then off by at most (K - 1) u relative, u = 2**-53. A linear rule (CFG, NP, TDD_ONLY) scales a prediction's
# error by at most 1 + 2w per step, and T steps add up: T (K - 1) u (1 + 2w) = 2.2e-13 at T = 50, K = 4, w = 6;
# ten times that covers the log-sum-exp and each latent's feedback into its next prediction.
RELABEL_RTOL_LINEAR = 10 * 50 * 3 * 2.0**-53 * (1 + 2 * 6.0)
# A normalised push (SDN, SDG) divides delta by ||delta|| + eps_stab, so it takes delta's rounding error times
# lambda / (||delta|| + eps_stab): unbounded short of lambda / eps_stab = 3e9, where one step alone may err by
# 3e9 * (K - 1) u (1 + 2w) = 1.3e-5, and compounding from step to step as delta shrinks. The tolerance sits
# between that one-step bound and the worst of 60 relabelled runs (worlds 0-29, both modes), 1.2e-8 for SDG.
RELABEL_RTOL_NORMALISED = 1e-6


def relabelled_comparisons(world_seed, deterministic):
    """strategy_comparison on a random K = 4, D = 3 world, and on the same world with its components permuted."""
    rng = np.random.default_rng(world_seed)
    world = random_world(rng, dim=3, num_components=4)
    perm = rng.permutation(4).tolist()  # component i of the relabelled world is component perm[i]
    negative = [int(rng.integers(4))]
    positive = [k for k in range(4) if k not in negative or rng.random() < 0.5]
    tables = []
    for order in (range(4), perm):
        index = {k: i for i, k in enumerate(order)}  # a component's index in this labelling

        def relabel(components):
            return sorted(index[k] for k in components)

        raw = default_config()
        raw["world"] = {"components": [{"mean": world.means[k].tolist(), "cov_diag": world.cov_diags[k].tolist()}
                                       for k in order], "weights": [float(world.weights[k]) for k in order]}
        raw["conditions"] = {"positive": {"components": relabel(positive)},
                             "negative": {"components": relabel(negative)}}
        raw["positive"], raw["negative"] = "positive", "negative"
        raw["mass_labels"] = {"counterfactual": relabel(negative),
                              "plausible": relabel(k for k in range(4) if k not in negative)}
        raw["run"]["deterministic"] = deterministic
        tables.append(strategy_comparison(parse_config(raw)))
    return tables


# world 17 gives the largest discrepancy of worlds 0-29
@pytest.mark.parametrize("world_seed", [0, 1, 2, 17])
@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_relabelling_the_components_changes_no_mass_and_finals_only_by_rounding(world_seed, deterministic):
    # A metamorphic check that needs no reference implementation: the same world, conditions and mass labels
    # under other component indices, 64 seeds, w = 6 and lambda = 30.
    table, relabelled = relabelled_comparisons(world_seed, deterministic)
    for strategy in STRATEGIES:
        assert relabelled[strategy]["mass_mean"] == table[strategy]["mass_mean"], strategy
        assert relabelled[strategy]["mass_stderr"] == table[strategy]["mass_stderr"], strategy
        finals, other = table[strategy]["finals"], relabelled[strategy]["finals"]
        rtol = RELABEL_RTOL_NORMALISED if strategy in ("SDN", "SDG") else RELABEL_RTOL_LINEAR
        assert np.max(np.abs(other - finals)) <= rtol * np.max(np.abs(finals)), strategy


@pytest.mark.parametrize("strategy", ["TDD_ONLY", "SDG"])
@pytest.mark.parametrize("deterministic", [True, False])
def test_dual_branch_predictions_match_fresh_oracle_calls(strategy, deterministic):
    # Independent of the stacked loop's row bookkeeping: at every step each
    # branch's recorded prediction is np_combine of fresh oracle calls
    # on that branch's own recorded latents, bit for bit.
    rng = np.random.default_rng(97)
    s = make_linear_schedule(8, 0.05, 0.25)
    null = Condition.null()
    for dim in (1, 2, 3, 4):
        k = int(rng.integers(2, 5))
        world = random_world(rng, dim=dim, num_components=k)
        plus, minus = (Condition.subset(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
                       for _ in range(2))
        cfg = GuidanceConfig(strategy, w=float(rng.uniform(0.5, 8.0)))
        d = run_dual_batch(world, plus, minus, s, cfg, [3, 0, 7], deterministic=deterministic)
        for i, t in enumerate(d.steps):
            xp, xm = d.states[i], d.minus.states[i]
            want_plus = np_combine(epsilon_oracle(world, plus, s, xp, t),
                                   epsilon_oracle(world, null, s, xp, t), cfg.w)
            want_minus = np_combine(epsilon_oracle(world, minus, s, xm, t),
                                    epsilon_oracle(world, null, s, xm, t), cfg.w)
            assert np.array_equal(d.eps_pos[i], want_plus), (dim, t)
            assert np.array_equal(d.eps_neg[i], want_minus), (dim, t)
            assert np.array_equal(d.minus.eps_pos[i], want_minus), (dim, t)


@pytest.mark.parametrize("deterministic", [True, False])
def test_each_strategy_steps_on_its_rule(deterministic):
    # Each recorded correction is its strategy's rule on the recorded predictions, bit for bit: CFG
    # interpolates from a fresh null prediction, NP and TDD_ONLY push with np_combine, SDN and SDG with
    # sdn_combine. In deterministic mode the next latent is the ancestral update on that rule's output.
    rng = np.random.default_rng(131)
    s = make_linear_schedule(8, 0.05, 0.25)
    for dim in (1, 2, 3, 4):
        k = int(rng.integers(2, 5))
        world = random_world(rng, dim=dim, num_components=k)
        plus, neg = (Condition.subset(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
                     for _ in range(2))
        w, lam = float(rng.uniform(0.5, 8.0)), float(rng.uniform(1.0, 40.0))
        cfgs = [GuidanceConfig(name, w=w, lambda_=lam) for name in STRATEGIES]
        for cfg, tr in zip(cfgs, run_lockstep(world, plus, neg, s, cfgs, [5, 2], deterministic)):
            for i, t in enumerate(tr.steps):
                x, pos = tr.states[i], tr.eps_pos[i]
                if cfg.strategy == "CFG":
                    base = epsilon_oracle(world, Condition.null(), s, x, t)
                    step = cfg_combine(base, pos, w)
                elif cfg.strategy in ("NP", "TDD_ONLY"):
                    base, step = pos, np_combine(pos, tr.eps_neg[i], w)
                else:
                    base, step = pos, sdn_combine(pos, tr.eps_neg[i], lam, cfg.eps_stab)
                assert np.array_equal(tr.correction[i], step - base), (cfg.strategy, dim, t)
                if deterministic:
                    a_t, b_t, _ = ancestral_coeffs(s, t)
                    assert np.array_equal(tr.states[i + 1], a_t * x + b_t * step), (cfg.strategy, dim, t)


def assert_same_path(batch, i, alone):
    """Seed i of a batch run against the same seed run alone: states and records bit for bit."""
    assert alone.seeds == (batch.seeds[i],)
    assert list(batch.steps) == list(alone.steps)
    assert np.array_equal(batch.finals[i], alone.finals[0])
    for name in ("states", "eps_pos", "eps_neg", "delta", "correction"):
        a, b = getattr(batch, name), getattr(alone, name)
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a[:, i], b[:, 0]), name


def test_batch_equals_per_seed_runs_all_strategies():
    # Every strategy, both sampling modes, on a 3-D 4-component world:
    # seed i of one batch must reproduce the one-seed run exactly.
    world = random_world(np.random.default_rng(81), dim=3, num_components=4)
    s = make_linear_schedule(12, 0.05, 0.25)
    plus, neg = Condition.subset([0, 1, 2]), Condition.subset([2, 3])
    seeds = [7, 0, 3, 11, 5]
    for deterministic in (True, False):
        for strategy in ("CFG", "NP", "SDN"):
            cfg = GuidanceConfig(strategy)
            p_neg = None if strategy == "CFG" else neg
            batch = run_single_batch(world, plus, p_neg, s, cfg, seeds, deterministic=deterministic)
            assert batch.states.shape == (13, 5, 3)
            for i, seed in enumerate(seeds):
                alone = run_single_batch(world, plus, p_neg, s, cfg, [seed], deterministic=deterministic)
                assert_same_path(batch, i, alone)
        for strategy in ("TDD_ONLY", "SDG"):
            cfg = GuidanceConfig(strategy)
            batch = run_dual_batch(world, plus, neg, s, cfg, seeds, deterministic=deterministic)
            for i, seed in enumerate(seeds):
                alone = run_dual_batch(world, plus, neg, s, cfg, [seed], deterministic=deterministic)
                assert alone.seeds == (seed,)
                assert_same_path(batch, i, alone)
                assert_same_path(batch.minus, i, alone.minus)


def test_batch_rows_follow_the_seeding_contract():
    # Row i of x_T is the first draw of default_rng(seeds[i]), whatever
    # the other seeds in the batch are.
    s = make_linear_schedule(4, 0.05, 0.2)
    seeds = [3, 1, 2]
    batch = run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), seeds)
    for i, seed in enumerate(seeds):
        np.testing.assert_array_equal(batch.states[0, i], np.random.default_rng(seed).standard_normal(2))
    with pytest.raises(ValueError):
        run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [])
    with pytest.raises(ValueError):
        run_dual_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("SDG"), [])


def wide_world(seed):
    """A 16-D, 8-component world with well separated means."""
    rng = np.random.default_rng([seed, 16, 8])
    return GmmWorld(means=rng.normal(scale=4.0, size=(8, 16)), cov_diags=rng.uniform(0.5, 2.0, size=(8, 16)),
                    weights=np.full(8, 1.0 / 8))


@pytest.mark.parametrize("world, plus, neg, seeds", [
    (GmmWorld(means=np.array([[-12.0, 0.0], [12.0, 0.0]]), cov_diags=np.ones((2, 2)), weights=np.array([0.5, 0.5])),
     Condition.subset([0, 1]), Condition.subset([1]), [0, 1, 2, 3, 4, 5]),
    (wide_world(1), Condition.subset(range(8)), Condition.subset([4, 5, 6, 7]), [3, 4, 5, 6]),
])
@pytest.mark.parametrize("deterministic", [True, False])
def test_lockstep_equals_solo_runs(world, plus, neg, seeds, deterministic):
    # All five strategies stepped as one stacked batch: every recorded
    # array of each strategy, both branches of the dual ones, must equal
    # that strategy's solo run bit for bit, and so must the finals that
    # strategy_comparison reads (a dual strategy's plus branch). A run
    # that records no step reaches the same finals on both branches and
    # holds nothing else.
    s = make_linear_schedule(50, 0.03, 0.10)
    cfgs = [GuidanceConfig(strategy) for strategy in ("CFG", "NP", "SDN", "TDD_ONLY", "SDG")]
    together = run_lockstep(world, plus, neg, s, cfgs, seeds, deterministic=deterministic)
    unrecorded = run_lockstep(world, plus, neg, s, cfgs, seeds, deterministic=deterministic, record=False)
    for cfg, batch, bare in zip(cfgs, together, unrecorded):
        if cfg.strategy in ("CFG", "NP", "SDN"):
            alone = run_single_batch(world, plus, neg, s, cfg, seeds, deterministic=deterministic)
            pairs = [(batch, alone)]
        else:
            alone = run_dual_batch(world, plus, neg, s, cfg, seeds, deterministic=deterministic)
            pairs = [(batch, alone), (batch.minus, alone.minus)]
        assert batch.seeds == alone.seeds == tuple(seeds)
        for (got, want), unkept in zip(pairs, (bare, bare.minus)):
            assert got.config == want.config == cfg
            for name in ("states", "eps_pos", "eps_neg", "delta", "correction"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (cfg.strategy, name)
                assert a is None or np.array_equal(a, b), (cfg.strategy, name)
            assert unkept.states.shape == (1, len(seeds), world.dim) and unkept.config == cfg
            assert len(unkept.eps_pos) == len(unkept.correction) == 0 and list(unkept.steps) == []
            assert unkept.finals.tobytes() == got.finals.tobytes(), cfg.strategy
        assert np.array_equal(batch.finals, alone.finals)


def test_lockstep_results_are_row_slices_of_one_record():
    # Every result views its own rows of one states, eps_pos, eps_neg and correction array; a minus
    # row's eps_pos is its plus row's eps_neg and its correction is exactly 0.
    s = make_linear_schedule(6, 0.05, 0.25)
    cfgs = [GuidanceConfig("CFG"), GuidanceConfig("SDN"), GuidanceConfig("SDG")]
    cfg_run, sdn, sdg = run_lockstep(TWO_WELL, Condition.subset([0, 1]), Condition.subset([1]), s, cfgs, [5, 6, 7])
    batches = [cfg_run, sdn, sdg, sdg.minus]
    for name in ("states", "eps_pos", "correction"):
        record = getattr(cfg_run, name).base
        assert record.shape[1] == 4 * 3
        for j, batch in enumerate(batches):
            assert getattr(batch, name).base is record
            assert np.shares_memory(getattr(batch, name), record[:, 3 * j:3 * (j + 1)])
    assert sdn.eps_neg.base is sdg.eps_neg.base
    # eps_neg holds the rows of the blocks that keep it alone: SDN's and SDG's plus branch
    assert sdn.eps_neg.base.shape[1] == 2 * 3
    assert cfg_run.eps_neg is None and sdg.minus.eps_neg is None
    assert sdg.minus.eps_pos.tobytes() == sdg.eps_neg.tobytes()
    assert not sdg.minus.correction.any() and sdg.correction.any()


def test_recording_lockstep_allocates_no_eps_neg_for_cfg():
    # CFG keeps no eps_neg, so a CFG-only recording run allocates none: its allocation peak beyond the
    # arrays it returns stays below 3/4 of one (T, rows, dim) array. An eps_neg over every row, which
    # every CFG batch threw away, made the peak exceed that by a whole array.
    world = GmmWorld(means=np.stack([np.full(16, -3.0), np.full(16, 3.0)]), cov_diags=np.ones((2, 16)),
                     weights=np.array([0.5, 0.5]))
    s = make_linear_schedule(50, 0.03, 0.10)

    def peak():
        tracemalloc.start()
        try:
            [batch] = run_lockstep(world, Condition.subset([0]), None, s, [GuidanceConfig("CFG")], range(64))
            return tracemalloc.get_traced_memory()[1], batch
        finally:
            tracemalloc.stop()

    peak()  # warm up numpy's caches, so the measurement does not pay for them
    allocated, batch = peak()
    assert batch.eps_neg is None
    kept = batch.states.nbytes + batch.eps_pos.nbytes + batch.correction.nbytes
    assert allocated - kept < 0.75 * batch.eps_pos.nbytes


@pytest.mark.parametrize("record", [True, False], ids=["record", "no_record"])
def test_lockstep_names_the_strategy_of_a_non_finite_eps_neg(monkeypatch, record):
    # eps_neg holds only the blocks that keep it, so its row 0 is SDN's first seed, not CFG's: a non-finite
    # negative prediction behind finite latents is reported under SDN. SDN's push is stubbed to step on the
    # positive alone, which keeps the latents, eps_pos and correction finite.
    real = sampler.epsilon_oracle

    def poisoned(world, conds, schedule, x, t):
        eps = real(world, conds, schedule, x, t)
        return eps if t != 1 else eps[:2] + (np.full_like(eps[2], np.inf),)

    monkeypatch.setattr(sampler, "epsilon_oracle", poisoned)
    monkeypatch.setattr(sampler, "sdn_combine", lambda pos, neg, lambda_, eps_stab: pos)
    s = make_linear_schedule(5, 0.05, 0.2)
    with pytest.raises(ValueError, match=r"^sampling under SDN recorded a non-finite eps_neg at step t=1$"):
        run_lockstep(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s,
                     [GuidanceConfig("CFG"), GuidanceConfig("SDN")], [0, 1], record=record)


@pytest.mark.parametrize("record", [True, False], ids=["record", "no_record"])
def test_lockstep_rejects_non_finite_latents(record):
    s = make_linear_schedule(5, 0.05, 0.2)
    cfgs = [GuidanceConfig("CFG"), GuidanceConfig("NP", w=1e300), GuidanceConfig("SDG")]
    # the overflow is reported by the non-finite check alone, with no numpy warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^sampling under NP went non-finite at step t=4$"):
            run_lockstep(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, cfgs, [0, 1], record=record)
    assert caught == []
    with pytest.raises(ValueError, match="requires a negative condition"):
        run_lockstep(TWO_WELL, Condition.subset([0]), None, s, cfgs, [0], record=record)


@pytest.mark.parametrize("record", [True, False], ids=["record", "no_record"])
def test_lockstep_reports_non_finite_latents_before_an_earlier_non_finite_record(monkeypatch, record):
    # CFG at w = 0 records a non-finite eps_pos at t = 5 while stepping on the null alone, and NP at
    # w = 1e300 overflows its latents only at t = 4: the latents are reported first all the same.
    real = sampler.epsilon_oracle

    def poisoned(world, conds, schedule, x, t):
        eps = real(world, conds, schedule, x, t)
        if t != 5:
            return eps
        pos = eps[0].copy()
        pos[:2] = np.inf  # the CFG rows of seeds 0 and 1
        return (pos,) + eps[1:]

    monkeypatch.setattr(sampler, "epsilon_oracle", poisoned)
    s = make_linear_schedule(5, 0.05, 0.2)
    cfgs = [GuidanceConfig("CFG", w=0.0), GuidanceConfig("NP", w=1e300)]
    with pytest.raises(ValueError, match=r"^sampling under NP went non-finite at step t=4$"):
        run_lockstep(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, cfgs, [0, 1], record=record)


@pytest.mark.parametrize("w, pos, null, message, record", [
    pytest.param(*case, record, id=name if record else f"{name}-no_record")
    for record in (True, False) for name, case in (
        ("eps_pos", (0.0, np.inf, 0.0, "sampling under CFG recorded a non-finite eps_pos at step t=1")),
        ("correction", (1.0, 1e308, -1e308, "sampling under CFG recorded a non-finite correction at step t=1")))])
def test_lockstep_rejects_a_non_finite_record_behind_finite_latents(monkeypatch, w, pos, null, message, record):
    # CFG at w = 0 steps on the null alone, and at w = 1 on the positive alone, whose
    # correction 1e308 - (-1e308) overflows: the latents stay finite, the record does not.
    real = sampler.epsilon_oracle

    def poisoned(world, conds, schedule, x, t):
        eps = real(world, conds, schedule, x, t)
        if t != 1:
            return eps
        return (np.full_like(eps[0], pos), np.full_like(eps[1], null)) + eps[2:]

    monkeypatch.setattr(sampler, "epsilon_oracle", poisoned)
    s = make_linear_schedule(5, 0.05, 0.2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_lockstep(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, [GuidanceConfig("CFG", w=w)], [0, 1],
                     record=record)


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "stochastic"])
def test_delta_is_eps_pos_minus_eps_neg_exactly(deterministic):
    # delta is derived, not recorded: None exactly where there is no negative prediction (CFG and a
    # minus branch), and otherwise eps_pos - eps_neg bit for bit, step by step as the sampler records them.
    s = make_linear_schedule(6, 0.05, 0.25)
    results = run_lockstep(TWO_WELL, Condition.subset([0, 2]), Condition.subset([1]), s,
                           [GuidanceConfig(strategy) for strategy in STRATEGIES], [0, 5, 9], deterministic)
    has_negative = {}
    for strategy, result in zip(STRATEGIES, results):
        batches = (result, result.minus) if strategy in ("TDD_ONLY", "SDG") else (result,)
        has_negative[strategy] = [b.eps_neg is not None for b in batches]
        for b in batches:
            if b.eps_neg is None:
                assert b.delta is None
                continue
            assert b.delta.shape == b.eps_pos.shape
            for i in range(len(b.eps_pos)):
                assert b.delta[i].tobytes() == (b.eps_pos[i] - b.eps_neg[i]).tobytes()
    assert has_negative == {"CFG": [False], "NP": [True], "SDN": [True], "TDD_ONLY": [True, False],
                            "SDG": [True, False]}
