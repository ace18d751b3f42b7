"""Reverse-process sampling: coefficients, seeding, collapse and decoupling.

Several tests mirror the update recursion independently (closed-form
single-Gaussian prediction plus the stated coefficient formulas) and
compare states bit-for-bit, which pins the exact seeding and noise
draw order, not just approximate agreement.
"""

import numpy as np
import pytest

from guidelab.guidance import GuidanceConfig
from guidelab.oracle import Condition, GmmWorld, epsilon_oracle
from guidelab.sampler import ancestral_coeffs, run_dual_batch, run_lockstep, run_single_batch
from guidelab.schedule import NoiseSchedule, make_linear_schedule

from conftest import random_world


TWO_WELL = GmmWorld(
    means=np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
    cov_diags=np.ones((3, 2)),
    weights=np.array([0.4, 0.4, 0.2]),
)


def test_ancestral_coeffs_arithmetic():
    s = NoiseSchedule(num_steps=1, betas=np.array([0.19]), alpha_bars=np.array([0.81]))
    c = ancestral_coeffs(s, 1, deterministic=True)
    assert c.a_t == pytest.approx(1.0 / 0.9, abs=1e-12)
    assert c.b_t == pytest.approx(-0.19 / (0.9 * np.sqrt(0.19)), abs=1e-12)
    assert c.b_t == pytest.approx(-0.48432, abs=1e-5)
    assert c.sigma_t == 0.0
    c2 = ancestral_coeffs(s, 1, deterministic=False)
    assert c2.sigma_t == pytest.approx(np.sqrt(0.19), abs=1e-12)
    assert (c2.a_t, c2.b_t) == (c.a_t, c.b_t)


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
        sa = [a.states] if hasattr(a, "states") else [a.plus.states, a.minus.states]
        sb = [b.states] if hasattr(b, "states") else [b.plus.states, b.minus.states]
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
    s = make_linear_schedule(3, 0.05, 0.2)
    with pytest.raises(ValueError):
        run_single_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("SDG"), [0])
    with pytest.raises(ValueError):
        run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("NP"), [0])
    with pytest.raises(ValueError):
        run_single_batch(TWO_WELL, Condition.subset([0]), None, s, GuidanceConfig("SDN"), [0])
    with pytest.raises(ValueError):
        run_dual_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("CFG"), [0])


def test_dual_branches_share_initial_noise():
    s = make_linear_schedule(8, 0.05, 0.25)
    d = run_dual_batch(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("SDG"), [21])
    np.testing.assert_array_equal(d.plus.states[0, 0], d.minus.states[0, 0])
    np.testing.assert_array_equal(d.plus.states[0, 0], np.random.default_rng(21).standard_normal(2))


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
            for xp, xm in zip(d.plus.states[:, 0], d.minus.states[:, 0]):
                np.testing.assert_array_equal(xp, xm)
            for correction in d.plus.correction[:, 0]:
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
        assert np.any(a.plus.finals[0] != b.plus.finals[0])


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
        p = d.plus
        for delta, eps_pos, eps_neg, correction in zip(p.delta[:, 0], p.eps_pos[:, 0], p.eps_neg[:, 0],
                                                       p.correction[:, 0]):
            np.testing.assert_array_equal(delta, eps_pos - eps_neg)
            dn = np.linalg.norm(delta)
            assert np.linalg.norm(correction) == pytest.approx(30.0 * dn / (dn + 1e-8), abs=1e-10)


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
                assert_same_path(batch.plus, i, alone.plus)
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
    # that strategy's solo run bit for bit, and the record=False finals
    # must equal the recorded ones.
    s = make_linear_schedule(50, 0.03, 0.10)
    cfgs = [GuidanceConfig(strategy) for strategy in ("CFG", "NP", "SDN", "TDD_ONLY", "SDG")]
    together = run_lockstep(world, plus, neg, s, cfgs, seeds, deterministic=deterministic)
    finals = run_lockstep(world, plus, neg, s, cfgs, seeds, deterministic=deterministic, record=False)
    for cfg, batch, final in zip(cfgs, together, finals):
        if cfg.strategy in ("CFG", "NP", "SDN"):
            alone = run_single_batch(world, plus, neg, s, cfg, seeds, deterministic=deterministic)
            pairs = [(batch, alone)]
        else:
            alone = run_dual_batch(world, plus, neg, s, cfg, seeds, deterministic=deterministic)
            pairs = [(batch.plus, alone.plus), (batch.minus, alone.minus)]
        assert batch.seeds == alone.seeds == tuple(seeds)
        for got, want in pairs:
            assert got.config == want.config == cfg
            for name in ("states", "eps_pos", "eps_neg", "delta", "correction"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (cfg.strategy, name)
                assert a is None or np.array_equal(a, b), (cfg.strategy, name)
        assert np.array_equal(final, batch.finals)


def test_lockstep_rejects_non_finite_latents():
    s = make_linear_schedule(5, 0.05, 0.2)
    cfgs = [GuidanceConfig("CFG"), GuidanceConfig("NP", w=1e300), GuidanceConfig("SDG")]
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match=r"^sampling under NP went non-finite at step t=4$"):
        run_lockstep(TWO_WELL, Condition.subset([0]), Condition.subset([1]), s, cfgs, [0, 1])
    with pytest.raises(ValueError, match="requires a negative condition"):
        run_lockstep(TWO_WELL, Condition.subset([0]), None, s, cfgs, [0])
