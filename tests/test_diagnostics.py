"""Diagnostics: discrepancy curves, Jacobian spectra, mode masses, bias probe.

The spectral tests use numpy's general dense eigensolver (not the
symmetric one the package calls) as an independent oracle. The
closed-form Jacobian is checked against central finite differences of
the oracle, whose error is bounded empirically by Richardson
extrapolation instead of trusted at a fixed step size.
"""

import json
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from guidelab.diagnostics import (
    DiagnosticsReport,
    build_report,
    delta_norm_curve,
    leading_eigen,
    mode_mass,
    report_to_json,
    series_to_csv,
    suppression_projection,
    trajectory_bias_probe,
)
from guidelab.guidance import GuidanceConfig
from guidelab.oracle import Condition, GmmWorld, epsilon_jacobian, epsilon_oracle
from guidelab.sampler import run_single_batch
from guidelab.schedule import make_linear_schedule

from conftest import random_world
from test_oracle import jacobian_fd


MIX = GmmWorld(
    means=np.array([[1.5, -0.5], [-2.0, 1.0], [0.5, 2.5]]),
    cov_diags=np.array([[0.6, 1.2], [1.5, 0.7], [0.9, 0.9]]),
    weights=np.array([0.5, 0.3, 0.2]),
)

TWO_WELL = GmmWorld(
    means=np.array([[-12.0, 0.0], [12.0, 0.0]]),
    cov_diags=np.ones((2, 2)),
    weights=np.array([0.5, 0.5]),
)


def test_delta_norm_curve_replays_records():
    s = make_linear_schedule(8, 0.05, 0.25)
    tr = run_single_batch(MIX, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("NP"), [3])
    curve = delta_norm_curve(tr)
    assert [t for t, _ in curve] == list(range(8, 0, -1))
    for (t, val), delta in zip(curve, tr.delta[:, 0]):
        assert val == float(np.linalg.norm(delta))


def test_delta_norm_curve_zero_when_conditions_match():
    s = make_linear_schedule(8, 0.05, 0.25)
    cond = Condition.subset([0])
    tr = run_single_batch(MIX, cond, cond, s, GuidanceConfig("NP"), [3])
    assert all(val == 0.0 for _, val in delta_norm_curve(tr))


def test_delta_norm_curve_rejects_cfg_trajectory():
    s = make_linear_schedule(5, 0.05, 0.2)
    tr = run_single_batch(MIX, Condition.subset([0]), None, s, GuidanceConfig("CFG"), [0])
    with pytest.raises(ValueError):
        delta_norm_curve(tr)


def test_jacobian_unit_gaussian_closed_form():
    world = GmmWorld(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(10, 0.05, 0.25)
    rng = np.random.default_rng(0)
    for t in (1, 5, 10):
        x = rng.normal(size=2)
        J = epsilon_jacobian(world, Condition.null(), s, x, t)
        np.testing.assert_allclose(J, np.sqrt(1 - s.alpha_bar(t)) * np.eye(2), atol=1e-12)


def test_jacobian_symmetry_within_richardson_bound():
    # The exact Jacobian is a scaled log-density Hessian, hence
    # symmetric up to rounding; its distance from finite differences
    # must be explained by the finite-difference error, which we bound
    # via Richardson extrapolation from two step sizes.
    s = make_linear_schedule(10, 0.05, 0.25)
    x = np.array([0.8, -0.3])
    t = 4
    h = 1e-3
    J = epsilon_jacobian(MIX, Condition.null(), s, x, t)
    assert np.linalg.norm(J - J.T) <= 1e-13 * np.linalg.norm(J)
    J_h = jacobian_fd(MIX, Condition.null(), s, x, t, h)
    J_h2 = jacobian_fd(MIX, Condition.null(), s, x, t, h / 2)
    err_bound = (4.0 / 3.0) * np.linalg.norm(J_h - J_h2)
    assert np.linalg.norm(J_h - J) <= 10.0 * err_bound + 1e-12


def test_jacobian_h_refinement_second_order():
    # Central differences converge at O(h^2): halving h should cut the
    # error against the exact Jacobian by about 4x.
    s = make_linear_schedule(10, 0.05, 0.25)
    x = np.array([0.8, -0.3])
    t = 4
    ref = epsilon_jacobian(MIX, Condition.null(), s, x, t)
    e1 = np.linalg.norm(jacobian_fd(MIX, Condition.null(), s, x, t, 1e-3) - ref)
    e2 = np.linalg.norm(jacobian_fd(MIX, Condition.null(), s, x, t, 5e-4) - ref)
    assert 2.8 < e1 / e2 < 6.0


def test_jacobian_matches_finite_differences_over_random_worlds():
    # Includes a 17-D world, one dimension past the cap the dense
    # finite-difference route used to impose.
    rng = np.random.default_rng(23)
    s = make_linear_schedule(20, 0.03, 0.2)
    worst = 0.0
    for dim in (1, 2, 3, 5, 8, 17):
        for _ in range(6):
            world = random_world(rng, dim=dim, num_components=int(rng.integers(1, 6)))
            k = world.num_components
            cond = Condition.subset(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
            x = rng.normal(scale=3.0, size=dim)
            t = int(rng.integers(1, 21))
            J = epsilon_jacobian(world, cond, s, x, t)
            assert J.shape == (dim, dim)
            worst = max(worst, np.max(np.abs(J - jacobian_fd(world, cond, s, x, t, 1e-5))))
    assert worst <= 1e-5


def test_jacobian_validation():
    s = make_linear_schedule(5, 0.05, 0.2)
    for bad in (np.zeros((2, 2)), np.zeros(3), np.zeros(())):
        with pytest.raises(ValueError):
            epsilon_jacobian(MIX, Condition.null(), s, bad, 1)
    big = GmmWorld(means=np.zeros((1, 17)), cov_diags=np.ones((1, 17)), weights=np.array([1.0]))
    assert epsilon_jacobian(big, Condition.null(), s, np.zeros(17), 1).shape == (17, 17)


def test_leading_eigen_diagonal():
    lam, v = leading_eigen(np.diag([3.0, 1.0]))
    assert lam == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-10)


def test_leading_eigen_scaled_identity():
    for c in (2.5, -2.5):
        lam, v = leading_eigen(c * np.eye(3))
        assert lam == pytest.approx(c, abs=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_leading_eigen_against_dense_solver():
    # Random symmetric 8x8 matrices with a forced spectral gap; the
    # symmetric solver must match numpy's general dense eigensolver.
    rng = np.random.default_rng(77)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        lams = rng.uniform(-5.0, 5.0, size=8)
        order = np.argsort(-np.abs(lams))
        lams = lams[order]
        lams[0] = np.sign(lams[0] or 1.0) * max(abs(lams[0]), 1.3 * abs(lams[1]) + 0.5)
        J = (q * lams) @ q.T
        J = 0.5 * (J + J.T)
        ref_vals, ref_vecs = np.linalg.eig(J)
        k = int(np.argmax(np.abs(ref_vals)))
        lam, v = leading_eigen(J)
        assert lam == pytest.approx(float(ref_vals[k]), abs=1e-8)
        assert abs(abs(np.dot(v, ref_vecs[:, k])) - 1.0) <= 1e-8


def test_leading_eigen_degenerate_magnitudes_are_exact():
    # Tied |lambda|: the first pair in eigh's ascending order wins, the
    # same exact pair on every call, and no warning is raised.
    cases = [(np.diag([3.0, -3.0]), -3.0, [0.0, 1.0])]
    cases += [(c * np.eye(3), c, [1.0, 0.0, 0.0]) for c in (0.1732, 2.5, -2.5)]
    for J, lam_expect, v_expect in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, v = leading_eigen(J)
            again = leading_eigen(J)
        assert lam == lam_expect
        assert np.array_equal(v, v_expect)
        assert again[0] == lam and np.array_equal(again[1], v)


def test_leading_eigen_rejects_nonsquare():
    with pytest.raises(ValueError):
        leading_eigen(np.zeros((2, 3)))


def test_suppression_projection_values():
    assert suppression_projection(np.array([1.0, 0.0]), np.array([0.0, 0.7]), 2.0) == 0.0
    assert suppression_projection(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 2.0) == pytest.approx(-1.0, abs=1e-15)
    rng = np.random.default_rng(4)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    d = rng.normal(size=3)
    assert suppression_projection(v, 2.0 * d, 1.5) == 2.0 * suppression_projection(v, d, 1.5)


def test_suppression_projection_rejects_non_unit():
    with pytest.raises(ValueError):
        suppression_projection(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1.0)


def test_mode_mass_point_masses():
    labels = {"A": [0], "B": [1]}
    samples = np.tile(TWO_WELL.means[0], (5, 1))
    masses = mode_mass(samples, TWO_WELL, labels)
    assert masses == {"A": 1.0, "B": 0.0}


def test_mode_mass_partition_sums_to_one():
    rng = np.random.default_rng(8)
    samples = rng.normal(scale=6.0, size=(40, 2))
    masses = mode_mass(samples, MIX, {"low": [0, 1], "high": [2]})
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-12)


def test_mode_mass_symmetric_monte_carlo():
    # Unguided draws from a symmetric two-well world split evenly
    # within 3 sigma binomial error at 10^4 samples.
    world = GmmWorld(
        means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
        cov_diags=np.ones((2, 2)),
        weights=np.array([0.5, 0.5]),
    )
    rng = np.random.default_rng(15)
    n = 10_000
    comp = rng.integers(0, 2, size=n)
    draws = world.means[comp] + rng.standard_normal((n, 2))
    masses = mode_mass(draws, world, {"A": [0], "B": [1]})
    assert abs(masses["A"] - 0.5) < 3 * np.sqrt(0.25 / n)


def test_mode_mass_validation():
    with pytest.raises(ValueError):
        mode_mass(np.zeros((0, 2)), TWO_WELL, {"A": [0], "B": [1]})
    with pytest.raises(ValueError):
        mode_mass(np.zeros((3, 2)), TWO_WELL, {"A": [0]})
    with pytest.raises(ValueError):
        mode_mass(np.zeros((3, 2)), TWO_WELL, {"A": [0, 0], "B": [1]})


def test_bias_probe_zero_when_conditions_match():
    s = make_linear_schedule(10, 0.05, 0.25)
    cond = Condition.subset([0])
    gaps = trajectory_bias_probe(MIX, cond, cond, s, GuidanceConfig("NP"), [0, 1, 2])
    assert [t for t, _ in gaps] == list(range(10, 0, -1))
    assert all(val == 0.0 for _, val in gaps)


def test_bias_probe_exact_zero_at_start():
    s = make_linear_schedule(10, 0.05, 0.25)
    gaps = trajectory_bias_probe(MIX, Condition.subset([0]), Condition.subset([1]), s,
                                 GuidanceConfig("NP"), [0, 1, 2])
    assert gaps[0][0] == 10
    assert gaps[0][1] == 0.0
    assert any(val > 0 for _, val in gaps[1:])


def test_bias_probe_gap_grows():
    # Seed-mean gap over the last tenth of the run exceeds the mean
    # just after initialization, at 20 seeds on the two-well world.
    s = make_linear_schedule(50, 0.03, 0.10)
    gaps = trajectory_bias_probe(TWO_WELL, Condition.subset([0, 1]), Condition.subset([1]), s,
                                 GuidanceConfig("NP", w=6.0), range(20))
    vals = np.array([v for _, v in gaps])
    k = 5
    assert vals[0] == 0.0
    assert vals[1:1 + k].mean() < vals[-k:].mean()


def test_bias_probe_validation():
    s = make_linear_schedule(5, 0.05, 0.2)
    with pytest.raises(ValueError):
        trajectory_bias_probe(MIX, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("CFG"), [0])
    with pytest.raises(ValueError):
        trajectory_bias_probe(MIX, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("NP"), [])


def test_build_report_shapes_and_determinism():
    s = make_linear_schedule(10, 0.05, 0.25)
    kwargs = dict(
        world=MIX,
        p_plus=Condition.subset([0]),
        p_minus=Condition.subset([1]),
        schedule=s,
        cfg=GuidanceConfig("NP"),
        seeds=[0, 1, 2],
        label_sets={"A": [0, 2], "B": [1]},
    )
    rep = build_report(**kwargs)
    assert [t for t, _ in rep.delta_norms] == list(range(10, 0, -1))
    assert len(rep.leading_eigs) == 10
    assert len(rep.suppression_proj) == 10
    assert len(rep.bias_gap) == 10
    assert set(rep.mode_masses) == {"A", "B"}
    assert sum(rep.mode_masses.values()) == pytest.approx(1.0, abs=1e-12)
    again = build_report(**kwargs)
    assert json.dumps(report_to_json(rep)) == json.dumps(report_to_json(again))


def test_report_validation():
    with pytest.raises(ValueError):
        DiagnosticsReport(delta_norms=[], leading_eigs=[(1, 2.0, np.array([1.0, 1.0]))],
                          suppression_proj=[], mode_masses={})
    with pytest.raises(ValueError):
        DiagnosticsReport(delta_norms=[], leading_eigs=[], suppression_proj=[],
                          mode_masses={"A": 1.2})


def test_series_to_csv_round_trip(tmp_path):
    series = [(3, 0.1234567890123456), (2, 1.5), (1, 0.0)]
    path = tmp_path / "series.csv"
    series_to_csv(path, series, "delta_norm")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,delta_norm"
    assert len(lines) == 4
    for (t, val), line in zip(series, lines[1:]):
        st, sval = line.split(",")
        assert int(st) == t
        assert float(sval) == val


def test_build_report_shares_the_coupled_batch(monkeypatch):
    # One coupled batch feeds the delta norms, the spectra and the bias
    # gap; the decoupled reference is a raw conditional chain, not a
    # second sampler batch, and the report's gap equals the probe's.
    import guidelab.diagnostics as diag

    s = make_linear_schedule(10, 0.05, 0.25)
    run = diag.run_single_batch
    seen = []

    def counting(*args, **kwargs):
        batch = run(*args, **kwargs)
        seen.append(len(batch.seeds))
        return batch

    monkeypatch.setattr(diag, "run_single_batch", counting)
    args = (MIX, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("NP"), [4, 0, 2])
    rep = build_report(*args, label_sets={"A": [0, 2], "B": [1]})
    assert seen == [3]
    assert rep.bias_gap == trajectory_bias_probe(*args)
    curves = [delta_norm_curve(run_single_batch(*args[:5], [seed])) for seed in (4, 0, 2)]
    for i, (t, val) in enumerate(rep.delta_norms):
        assert val == float(np.mean([c[i][1] for c in curves]))


def test_build_report_rejects_cfg():
    s = make_linear_schedule(5, 0.05, 0.2)
    with pytest.raises(ValueError):
        build_report(MIX, Condition.subset([0]), Condition.subset([1]), s, GuidanceConfig("CFG"), [0],
                     {"A": [0, 2], "B": [1]})


def test_jacobian_batch_equals_column_loop():
    # The vectorised closed form must equal the Hessian written out
    # entry by entry, with responsibilities from scipy's log-sum-exp.
    s = make_linear_schedule(10, 0.05, 0.25)
    rng = np.random.default_rng(91)
    cond = Condition.subset([0, 1])
    for _ in range(5):
        x = rng.normal(scale=2.0, size=2)
        t = int(rng.integers(1, 11))
        ab = s.alpha_bar(t)
        means = np.sqrt(ab) * MIX.means[:2]
        covs = ab * MIX.cov_diags[:2] + (1.0 - ab)
        logs = [np.log(MIX.weights[k]) + multivariate_normal.logpdf(x, mean=means[k], cov=np.diag(covs[k]))
                for k in range(2)]
        r = np.exp(np.array(logs) - logsumexp(logs))
        sk = (means - x) / covs
        score = [sum(r[k] * sk[k, i] for k in range(2)) for i in range(2)]
        expect = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                hess = sum(r[k] * (sk[k, i] * sk[k, j] - (i == j) / covs[k, i]) for k in range(2))
                expect[i, j] = -np.sqrt(1.0 - ab) * (hess - score[i] * score[j])
        np.testing.assert_allclose(epsilon_jacobian(MIX, cond, s, x, t), expect, rtol=1e-12, atol=1e-14)


def test_bias_probe_equals_seed_by_seed_accumulation():
    # Reference: the probe's definition run one seed at a time, each
    # seed's per-step gap added in seed order, with the decoupled
    # reference sampled by the sampler as CFG at w=1 (the conditional
    # prediction returned exactly).
    s = make_linear_schedule(10, 0.05, 0.25)
    p_plus, p_minus = Condition.subset([0, 2]), Condition.subset([1])
    cfg = GuidanceConfig("SDN")
    seeds = list(range(3, 23))
    gaps = np.zeros(10)
    for seed in seeds:
        coupled = run_single_batch(MIX, p_plus, p_minus, s, cfg, [seed])
        reference = run_single_batch(MIX, p_minus, None, s, GuidanceConfig("CFG", w=1.0), [seed])
        for i, t in enumerate(range(10, 0, -1)):
            shared = epsilon_oracle(MIX, p_minus, s, coupled.states[i, 0], t)
            own = epsilon_oracle(MIX, p_minus, s, reference.states[i, 0], t)
            gaps[i] += np.linalg.norm(shared - own)
    gaps /= len(seeds)
    expect = [(t, float(gaps[i])) for i, t in enumerate(range(10, 0, -1))]
    assert trajectory_bias_probe(MIX, p_plus, p_minus, s, cfg, seeds) == expect
