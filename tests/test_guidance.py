"""Combination-rule algebra: endpoints, fixed examples, and invariants."""

import numpy as np
import pytest

from guidelab.guidance import (
    GuidanceConfig,
    branch_guided_eps,
    cfg_combine,
    np_combine,
    row_norms,
    sdg_combine,
    sdn_combine,
    tdd_only_combine,
)
from guidelab.oracle import Condition, epsilon_oracle
from guidelab.schedule import make_linear_schedule

from conftest import random_world


def test_cfg_endpoints_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=3)
        c = rng.normal(size=3)
        np.testing.assert_array_equal(cfg_combine(u, c, 0.0), u)
        np.testing.assert_array_equal(cfg_combine(u, c, 1.0), c)


def test_cfg_arithmetic():
    np.testing.assert_allclose(cfg_combine(np.array([1.0, 1.0]), np.array([2.0, 1.0]), 3.0), [4.0, 1.0], atol=1e-15)


def test_np_degenerate_and_arithmetic():
    p = np.array([0.4, -1.1])
    np.testing.assert_array_equal(np_combine(p, p, 2.5), p)
    np.testing.assert_allclose(np_combine(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 2.0), [3.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np_combine(np.array([0.0, 1.0]), np.array([0.0, 3.0]), 0.5), [0.0, 0.0], atol=1e-15)


def test_np_rejects_nonpositive_w():
    a = np.zeros(2)
    with pytest.raises(ValueError):
        np_combine(a, a, 0.0)
    with pytest.raises(ValueError):
        np_combine(a, a, -1.0)
    with pytest.raises(ValueError):
        tdd_only_combine(a, a, 0.0)


def test_sdn_degenerate_discrepancy():
    p = np.array([2.0, 3.0])
    np.testing.assert_array_equal(sdn_combine(p, p, 30.0, 1e-8), p)


def test_sdn_arithmetic():
    np.testing.assert_allclose(
        sdn_combine(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 30.0, 1e-8), [31.0, 0.0], atol=1e-6
    )
    np.testing.assert_allclose(
        sdn_combine(np.array([0.0, 1.0]), np.array([0.0, -1.0]), 2.0, 1e-8), [0.0, 3.0], atol=1e-6
    )


def test_sdn_rejects_bad_eps_stab():
    a = np.zeros(2)
    with pytest.raises(ValueError):
        sdn_combine(a, a, 30.0, 0.0)
    with pytest.raises(ValueError):
        sdn_combine(a, a, 30.0, -1e-8)


def test_sdg_matches_sdn_contract():
    np.testing.assert_allclose(
        sdg_combine(np.array([2.0, 0.0]), np.array([0.0, 0.0]), 30.0, 1e-8), [32.0, 0.0], atol=1e-6
    )
    p = np.array([0.3, 0.3])
    np.testing.assert_array_equal(sdg_combine(p, p, 30.0, 1e-8), p)


def test_tdd_only_arithmetic():
    p = np.array([-0.5, 0.9])
    np.testing.assert_array_equal(tdd_only_combine(p, p, 6.0), p)
    np.testing.assert_allclose(tdd_only_combine(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 2.0), [3.0, 0.0], atol=1e-15)


def test_correction_norm_identity():
    # The correction added by the normalized rules has norm
    # lam * |d| / (|d| + eps) for every input pair.
    rng = np.random.default_rng(201)
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        p = rng.normal(scale=rng.uniform(0.01, 100.0), size=dim)
        n = rng.normal(scale=rng.uniform(0.01, 100.0), size=dim)
        lam = rng.uniform(0.1, 50.0)
        eps = 10.0 ** rng.uniform(-10, -4)
        d = np.linalg.norm(p - n)
        expect = lam * d / (d + eps)
        for rule in (sdn_combine, sdg_combine):
            got = np.linalg.norm(rule(p, n, lam, eps) - p)
            assert abs(got - expect) <= 1e-10


def test_correction_norm_cap_and_saturation():
    rng = np.random.default_rng(17)
    lam, eps = 30.0, 1e-8
    for _ in range(100):
        p = rng.normal(size=2)
        n = rng.normal(size=2)
        corr = np.linalg.norm(sdn_combine(p, n, lam, eps) - p)
        assert corr <= lam + 1e-12
        if np.linalg.norm(p - n) >= 100 * eps:
            assert corr == pytest.approx(lam, rel=1e-6)


def test_rotation_equivariance():
    rng = np.random.default_rng(301)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        pairs = [
            (np_combine(q @ a, q @ b, 2.0), q @ np_combine(a, b, 2.0)),
            (sdn_combine(q @ a, q @ b, 30.0, 1e-8), q @ sdn_combine(a, b, 30.0, 1e-8)),
            (tdd_only_combine(q @ a, q @ b, 6.0), q @ tdd_only_combine(a, b, 6.0)),
            (sdg_combine(q @ a, q @ b, 30.0, 1e-8), q @ sdg_combine(a, b, 30.0, 1e-8)),
        ]
        for got, expect in pairs:
            np.testing.assert_allclose(got, expect, atol=1e-10)


def test_direction_only_dependence():
    # Rescaling the discrepancy leaves the correction direction fixed.
    rng = np.random.default_rng(401)
    p = rng.normal(size=3)
    d = rng.normal(size=3)
    dirs = []
    for s in (1e-3, 1.0, 1e3):
        out = sdn_combine(p, p - s * d, 30.0, 1e-12)
        corr = out - p
        dirs.append(corr / np.linalg.norm(corr))
    np.testing.assert_allclose(dirs[0], dirs[1], atol=1e-6)
    np.testing.assert_allclose(dirs[1], dirs[2], atol=1e-6)


def test_dimension_mismatch_errors():
    a, b = np.zeros(2), np.zeros(3)
    with pytest.raises(ValueError):
        cfg_combine(a, b, 1.0)
    with pytest.raises(ValueError):
        np_combine(a, b, 1.0)
    with pytest.raises(ValueError):
        sdn_combine(a, b, 30.0, 1e-8)
    with pytest.raises(ValueError):
        tdd_only_combine(a, b, 1.0)


def test_branch_guided_w_zero_is_conditional():
    rng = np.random.default_rng(501)
    world = random_world(rng, dim=2, num_components=3)
    s = make_linear_schedule(10, 0.05, 0.25)
    cond = Condition.subset([0, 1])
    x = rng.normal(size=2)
    np.testing.assert_array_equal(
        branch_guided_eps(world, cond, s, x, 4, 0.0),
        epsilon_oracle(world, cond, s, x, 4),
    )


def test_branch_guided_full_set_collapses():
    rng = np.random.default_rng(601)
    world = random_world(rng, dim=2, num_components=3)
    s = make_linear_schedule(10, 0.05, 0.25)
    full = Condition.subset(range(world.num_components))
    x = rng.normal(size=2)
    for w in (0.0, 3.0, 6.0):
        np.testing.assert_array_equal(
            branch_guided_eps(world, full, s, x, 7, w),
            epsilon_oracle(world, Condition.null(), s, x, 7),
        )


def test_branch_guided_compositional():
    # The branch prediction anchored on the conditional equals the
    # plain interpolation rule applied at strength w + 1.
    rng = np.random.default_rng(701)
    s = make_linear_schedule(10, 0.05, 0.25)
    for _ in range(10):
        world = random_world(rng, dim=2, num_components=3)
        cond = Condition.subset([0])
        x = rng.normal(scale=2.0, size=2)
        t = int(rng.integers(1, 11))
        w = float(rng.uniform(0.0, 6.0))
        u = epsilon_oracle(world, Condition.null(), s, x, t)
        c = epsilon_oracle(world, cond, s, x, t)
        np.testing.assert_allclose(
            branch_guided_eps(world, cond, s, x, t, w),
            cfg_combine(u, c, w + 1.0),
            atol=1e-10,
        )


def test_branch_guided_rejects_null_condition():
    rng = np.random.default_rng(801)
    world = random_world(rng, dim=2, num_components=2)
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        branch_guided_eps(world, Condition.null(), s, np.zeros(2), 1, 6.0)


def test_guidance_config_validation():
    cfg = GuidanceConfig(strategy="SDG")
    assert cfg.w == 6.0
    assert cfg.lambda_ == 30.0
    assert cfg.eps_stab == 1e-8
    with pytest.raises(ValueError):
        GuidanceConfig(strategy="FOO")
    with pytest.raises(ValueError):
        GuidanceConfig(strategy="CFG", w=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(strategy="SDN", lambda_=-5.0)
    with pytest.raises(ValueError):
        GuidanceConfig(strategy="SDN", eps_stab=0.0)
    with pytest.raises(ValueError):
        GuidanceConfig(strategy="CFG", w=float("nan"))


def test_normalized_rules_batch_rows_equal_single_vectors():
    # Each row of a batch is normalized by its own 1-D norm, so a row's
    # result equals the rule applied to that row alone, bit for bit.
    rng = np.random.default_rng(111)
    for _ in range(30):
        dim = int(rng.integers(1, 17))
        a = rng.normal(scale=3.0, size=(12, dim))
        b = rng.normal(scale=3.0, size=(12, dim))
        norms = row_norms(a - b)
        got = sdn_combine(a, b, 30.0, 1e-8)
        got_sdg = sdg_combine(a, b, 30.0, 1e-8)
        for i in range(12):
            assert norms[i] == np.linalg.norm(a[i] - b[i])
            assert np.array_equal(got[i], sdn_combine(a[i], b[i], 30.0, 1e-8))
            assert np.array_equal(got_sdg[i], sdg_combine(a[i], b[i], 30.0, 1e-8))


@pytest.mark.parametrize("dim", [1, 2, 16, 33])
def test_row_norms_equal_per_row_linalg_norm(dim):
    # Bit for bit the 1-D np.linalg.norm of each row alone, across the
    # whole float range (squares that underflow to 0 or overflow to inf
    # included), for a contiguous batch, a batch sliced to every other
    # column, and a single vector.
    rng = np.random.default_rng(dim)
    for scale in (1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e160, 1e300):
        wide = rng.normal(scale=scale, size=(9, 2 * dim))
        for batch in (wide[:, :dim], wide[:, ::2], wide[::2, 1::2]):
            with np.errstate(over="ignore", under="ignore"):
                want = np.array([np.linalg.norm(row) for row in batch])
                got = row_norms(batch)
                single = row_norms(batch[0])
            assert got.shape == (len(batch),)
            assert np.array_equal(got, want), (dim, scale)
            assert single == want[0] and np.ndim(single) == 0


def test_row_norms_overflow_warns():
    with pytest.warns(RuntimeWarning, match="overflow"):
        norms = row_norms(np.full((2, 3), 1e200))
    assert np.all(np.isinf(norms))
