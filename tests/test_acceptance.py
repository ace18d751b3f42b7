"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a single pass/fail line (with the measured numbers)
and then asserts, so a full run doubles as the acceptance report.
Every check here routes through an independent oracle where one is
required: scipy-based finite differences for scores, numpy's dense
eigensolver for spectra, and byte comparison for artifact
reproducibility. Runtime budgets are measured inside each test.
"""

import json
import time

import numpy as np

from guidelab.cli import cmd_compare_guidance, cmd_diagnose_lag, cmd_sample, cmd_schedule_dump
from guidelab.diagnostics import delta_norm_curve, leading_eigen, trajectory_bias_probe
from guidelab.experiment import default_config, parse_config, strategy_comparison
from guidelab.guidance import GuidanceConfig, cfg_combine, np_combine, sdg_combine, sdn_combine
from guidelab.oracle import Condition, GmmWorld, epsilon_jacobian, epsilon_oracle
from guidelab.par import (
    Analysis,
    CounterfactualRecord,
    FormatViolation,
    LlmEndpointConfig,
    MockTransport,
    default_template,
    generate,
    parse_response,
    render_record,
)
from guidelab.sampler import run_dual_batch, run_single_batch
from guidelab.schedule import make_linear_schedule

from conftest import random_world
from test_oracle import jacobian_fd, ref_fd_score
from test_par import FIXTURES


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_criterion_1_oracle_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    s = make_linear_schedule(10, 0.05, 0.25)
    worst = 0.0
    for _ in range(120):
        world = random_world(rng, dim=2)
        if world.num_components > 1 and rng.random() < 0.5:
            size = int(rng.integers(1, world.num_components))
            cond = Condition.subset(rng.choice(world.num_components, size=size, replace=False))
        else:
            cond = Condition.null()
        x = rng.normal(scale=3.0, size=2)
        t = int(rng.integers(1, 11))
        eps = epsilon_oracle(world, cond, s, x, t)
        ref = -np.sqrt(1.0 - s.alpha_bar(t)) * ref_fd_score(world, cond, s, x, t)
        worst = max(worst, np.linalg.norm(eps - ref) / max(np.linalg.norm(ref), 1e-12))
    elapsed = time.perf_counter() - start
    _report(1, "oracle matches finite-difference score oracle", worst <= 1e-4 and elapsed < 5.0,
            f"worst rel err {worst:.2e} over 120 probes, {elapsed:.2f}s")


def test_criterion_2_guidance_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(1, 8))
        u = rng.normal(scale=rng.uniform(0.01, 50.0), size=dim)
        c = rng.normal(scale=rng.uniform(0.01, 50.0), size=dim)
        lam = rng.uniform(0.1, 50.0)
        eps_stab = 10.0 ** rng.uniform(-10, -4)
        w = rng.uniform(0.5, 8.0)
        ok &= bool(np.max(np.abs(cfg_combine(u, c, 0.0) - u)) <= 1e-10)
        ok &= bool(np.max(np.abs(cfg_combine(u, c, 1.0) - c)) <= 1e-10)
        ok &= bool(np.max(np.abs(np_combine(u, u, w) - u)) <= 1e-10)
        d = np.linalg.norm(u - c)
        expect = lam * d / (d + eps_stab)
        ok &= abs(np.linalg.norm(sdn_combine(u, c, lam, eps_stab) - u) - expect) <= 1e-10
        ok &= abs(np.linalg.norm(sdg_combine(u, c, lam, eps_stab) - u) - expect) <= 1e-10
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(2, "guidance algebra identities at 1e-10", ok and elapsed < 1.0,
            f"1000 random inputs, {elapsed:.2f}s")


def test_criterion_3_trajectory_decoupling():
    start = time.perf_counter()
    world = GmmWorld(
        means=np.array([[-6.0, 0.0], [6.0, 0.0], [0.0, 6.0]]),
        cov_diags=np.ones((3, 2)),
        weights=np.array([0.4, 0.4, 0.2]),
    )
    s = make_linear_schedule(20, 0.03, 0.2)
    pairs = [
        (Condition.subset([0]), Condition.subset([1]), Condition.subset([2])),
        (Condition.subset([0, 1]), Condition.subset([1]), Condition.subset([2])),
        (Condition.subset([0]), Condition.subset([0, 2]), Condition.subset([1, 2])),
    ]
    ok = True
    for plus_a, plus_b, minus in pairs:
        for seed in range(10):
            a = run_dual_batch(world, plus_a, minus, s, GuidanceConfig("SDG"), [seed])
            b = run_dual_batch(world, plus_b, minus, s, GuidanceConfig("SDG"), [seed])
            for xa, xb in zip(a.minus.states, b.minus.states):
                if not np.array_equal(xa, xb):
                    ok = False
    elapsed = time.perf_counter() - start
    _report(3, "minus branch invariant to positive condition", ok and elapsed < 10.0,
            f"10 seeds x 3 condition pairs, exact equality, {elapsed:.2f}s")


def test_criterion_4_lagged_suppression(tmp_path):
    start = time.perf_counter()
    cfg = parse_config(default_config())
    g = GuidanceConfig("NP", w=cfg.guidance.w)
    curves = []
    for seed in cfg.seeds:
        tr = run_single_batch(cfg.world, cfg.positive_condition, cfg.negative_condition,
                              cfg.schedule, g, [seed])
        curves.append([val for _, val in delta_norm_curve(tr)])
    mean_curve = np.mean(curves, axis=0)
    k = max(1, cfg.schedule.num_steps // 10)
    early = mean_curve[:k].mean()
    late = mean_curve[-k:].mean()

    raw = default_config()
    raw["guidance"]["strategy"] = "NP"
    path = tmp_path / "np_config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "diag"
    status = cmd_diagnose_lag(path, out_dir=out)
    ratio = json.loads((out / "summary.json").read_text())["ratio"]

    elapsed = time.perf_counter() - start
    ok = early < late and status == 0 and ratio < 1.0 and elapsed < 30.0
    _report(4, "early discrepancy below late discrepancy", ok,
            f"early {early:.4f} < late {late:.4f} over {len(cfg.seeds)} seeds, "
            f"cli ratio {ratio:.4f}, {elapsed:.2f}s")


def test_criterion_5_cumulative_trajectory_bias():
    start = time.perf_counter()
    cfg = parse_config(default_config())
    gaps = trajectory_bias_probe(cfg.world, cfg.positive_condition, cfg.negative_condition,
                                 cfg.schedule, GuidanceConfig("NP", w=cfg.guidance.w), cfg.seeds)
    vals = np.array([v for _, v in gaps])
    k = max(1, cfg.schedule.num_steps // 10)
    first = vals[1:1 + k].mean()
    last = vals[-k:].mean()
    elapsed = time.perf_counter() - start
    ok = vals[0] == 0.0 and last > first and elapsed < 30.0
    _report(5, "trajectory bias gap grows from exact zero", ok,
            f"gap(T)={vals[0]}, first 10% {first:.4f} < last 10% {last:.4f} "
            f"over {len(cfg.seeds)} seeds, {elapsed:.2f}s")


def test_criterion_6_ordinal_ablation():
    start = time.perf_counter()
    cfg = parse_config(default_config())
    assert cfg.guidance.lambda_ == 30.0
    table = strategy_comparison(cfg)
    mass = {k: table[k]["mass_mean"] for k in table}
    elapsed = time.perf_counter() - start
    ordered = (
        mass["SDG"] <= min(mass["SDN"], mass["TDD_ONLY"])
        and min(mass["SDN"], mass["TDD_ONLY"]) <= mass["NP"]
        and mass["NP"] <= mass["CFG"]
    )
    strict = mass["SDG"] < mass["NP"]
    ok = ordered and strict and elapsed < 60.0
    _report(6, "counterfactual mass ordering across strategies", ok,
            "masses " + ", ".join(f"{k}={mass[k]:.4f}" for k in ("SDG", "SDN", "TDD_ONLY", "NP", "CFG"))
            + f" over {len(cfg.seeds)} seeds, {elapsed:.2f}s")


def test_criterion_7_jacobian_diagnostics():
    start = time.perf_counter()
    world = GmmWorld(means=np.zeros((1, 2)), cov_diags=np.ones((1, 2)), weights=np.array([1.0]))
    s = make_linear_schedule(10, 0.05, 0.25)
    rng = np.random.default_rng(1007)
    ok = True
    for t in (1, 5, 10):
        x = rng.normal(size=2)
        J = epsilon_jacobian(world, Condition.null(), s, x, t)
        ok &= bool(np.max(np.abs(J - np.sqrt(1 - s.alpha_bar(t)) * np.eye(2))) <= 1e-5)
        ok &= bool(np.max(np.abs(J - jacobian_fd(world, Condition.null(), s, x, t, 1e-5))) <= 1e-5)
    worst = 0.0
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        J = 0.5 * (A + A.T)
        vals, vecs = np.linalg.eig(J)
        k = int(np.argmax(np.abs(vals)))
        lam, v = leading_eigen(J)
        worst = max(worst, abs(lam - float(vals[k])), abs(abs(np.dot(v, vecs[:, k])) - 1.0))
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-8 and elapsed < 5.0
    _report(7, "Jacobian closed form and dense-solver eigen agreement", ok,
            f"worst eigen deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_par_pipeline(tmp_path):
    start = time.perf_counter()
    transport = MockTransport.from_dir(FIXTURES)
    template = default_template()
    endpoint_cfg = LlmEndpointConfig(base_url="http://localhost:0", model="mock-model")
    ok = True
    for name in ("condensation", "butter", "magnifier"):
        prompt = (FIXTURES / f"{name}.prompt.txt").read_text().strip()
        response = (FIXTURES / f"{name}.response.txt").read_text()
        expected_cf = response.split("[COUNTERFACTUAL]\n", 1)[1].strip()
        rec = generate(endpoint_cfg, template, prompt, transport,
                       corpus_path=tmp_path / "corpus.jsonl")
        ok &= rec.counterfactual == expected_cf

    for name in ("malformed_missing_section.txt", "malformed_missing_subfield.txt"):
        try:
            parse_response((FIXTURES / name).read_text(), template)
            ok = False
        except FormatViolation:
            pass

    rng = np.random.default_rng(1008)
    pool = "piston lens mirror flame vapor crystal gear spring marble turbine".split()

    def words(lo, hi):
        n = int(rng.integers(lo, hi))
        return " ".join(pool[int(i)] for i in rng.integers(0, len(pool), size=n))

    for _ in range(20):
        rec = CounterfactualRecord(
            user_prompt=words(4, 8),
            analysis=Analysis(words(2, 5), words(2, 5), words(3, 6), words(3, 6)),
            counterfactual=words(4, 8),
            model_id="m",
            created_at="2026-01-01T00:00:00+00:00",
        )
        parsed = parse_response(render_record(rec), template, user_prompt=rec.user_prompt,
                                model_id="m", created_at=rec.created_at)
        ok &= parsed == rec

    elapsed = time.perf_counter() - start
    _report(8, "counterfactual pipeline on mock fixtures", ok and elapsed < 2.0,
            f"3 fixtures verbatim, 2 malformed rejected, 20 round-trips, {elapsed:.2f}s")


def test_criterion_9_artifact_reproducibility(tmp_path):
    raw = default_config()
    raw["run"]["seeds"] = {"count": 8, "base": 0}
    sample_cfg = tmp_path / "sample.json"
    sample_cfg.write_text(json.dumps(raw))

    raw_np = default_config()
    raw_np["run"]["seeds"] = {"count": 8, "base": 0}
    raw_np["guidance"]["strategy"] = "NP"
    np_cfg = tmp_path / "np.json"
    np_cfg.write_text(json.dumps(raw_np))

    runs = [
        ("sample", cmd_sample, sample_cfg, ["samples.csv"]),
        ("compare-guidance", cmd_compare_guidance, sample_cfg, ["comparison.csv"]),
        ("diagnose-lag", cmd_diagnose_lag, np_cfg,
         ["delta_norms.csv", "suppression_proj.csv", "bias_gap.csv", "eigen.csv"]),
        ("schedule-dump", cmd_schedule_dump, sample_cfg, ["schedule.csv"]),
    ]
    ok = True
    detail = []
    for label, command, cfg_path, artifacts in runs:
        out1 = tmp_path / f"{label}-1"
        out2 = tmp_path / f"{label}-2"
        s1 = command(cfg_path, out_dir=out1)
        s2 = command(cfg_path, out_dir=out2)
        same = s1 == 0 and s2 == 0 and all(
            (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in artifacts
        )
        ok &= same
        detail.append(f"{label}:{'=' if same else '!='}")
    _report(9, "rerun yields byte-identical CSV artifacts", ok, " ".join(detail))
