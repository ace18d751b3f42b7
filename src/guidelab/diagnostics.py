"""Diagnostics for guidance failure mechanisms.

Two mechanisms get quantified. Lagged suppression: the discrepancy
between positive and negative predictions on a shared latent is small
in the early (high-noise) steps, so an unnormalized correction barely
acts until late. Cumulative trajectory bias: evaluating the negative
prediction on the positively shaped latent drifts away from what the
negative condition would predict on its own latent, and the gap grows
as sampling proceeds. Jacobian spectral structure (dominant update
direction and the projection of the correction onto it) and final-mode
occupancy metrics round out the picture.
"""

import numpy as np

from guidelab.guidance import GuidanceConfig, row_norms
from guidelab.oracle import Condition, GmmWorld, assign_labels, epsilon_jacobian
from guidelab.sampler import TrajectoryBatch, run_lockstep
from guidelab.schedule import NoiseSchedule

__all__ = [
    "delta_norm_curve",
    "leading_eigen",
    "trajectory_bias_probe",
    "build_report",
    "lag_summary",
]

# The seed whose latent path the spectra follow.
EIGEN_SEED_INDEX = 0


def delta_norm_curve(batch: TrajectoryBatch) -> list:
    """Seed-mean discrepancy norms (t, mean_i ||delta_t,i||), t descending from T.

    Takes delta from the recorded predictions; for one seed each value is
    exactly that seed's ||delta_t||.
    """
    delta = batch.delta
    if delta is None:
        raise ValueError(f"trajectory strategy {batch.config.strategy} recorded no discrepancy")
    return [(t, float(row_norms(d).mean())) for t, d in zip(batch.steps, delta)]


def leading_eigen(J: np.ndarray) -> tuple:
    """Largest-magnitude eigenpair of a symmetric J, from np.linalg.eigh.

    eigh reads only the lower triangle of J. A tie in |lambda| goes to
    the first pair in eigh's ascending order, so a degenerate J still
    gives one deterministic pair.
    The eigenvector is oriented so its largest-magnitude component is
    nonnegative.
    """
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"leading_eigen needs a square matrix, got shape {J.shape}")
    vals, vecs = np.linalg.eigh(J)
    k = int(np.argmax(np.abs(vals)))
    v = vecs[:, k]
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    return float(vals[k]), v


def trajectory_bias_probe(world: GmmWorld, p_plus: Condition, p_minus: Condition, schedule: NoiseSchedule,
                          cfg: GuidanceConfig, seeds) -> list:
    """Mean gap between the negative prediction on shared vs. decoupled latents: build_report's bias_gap.

    For each seed, a coupled trajectory runs under cfg (a shared-latent
    strategy with the negative condition) and a decoupled reference
    trajectory samples the negative condition raw from the same initial
    noise, both deterministic. At each step t the raw negative prediction
    is evaluated on both latents and the norm of the difference is
    averaged over seeds. The gap is 0 exactly at t=T (identical
    initialization), and an identically zero series when p_plus == p_minus.
    """
    return _coupled_run(world, p_plus, p_minus, schedule, cfg, seeds)[1]


def _coupled_run(world, p_plus, p_minus, schedule, cfg, seeds) -> tuple:
    """The coupled batch of a shared-latent run under cfg and its bias gap as (t, value) pairs, from one lockstep.

    The gap's decoupled reference is the minus branch of TDD_ONLY at w = 0, stepped in the same lockstep run:
    its push away from the null is exactly zero, so it steps on the raw negative prediction on its own latent.
    Per-seed gaps are added one seed at a time, in seed order, so each step's sum rounds exactly as a loop over
    seeds does.
    """
    if cfg.strategy not in ("NP", "SDN"):
        raise ValueError(f"bias probe needs a shared-latent strategy with a negative condition, got {cfg.strategy}")
    coupled, decoupled = run_lockstep(world, p_plus, p_minus, schedule, [cfg, GuidanceConfig("TDD_ONLY", w=0.0)],
                                      seeds)
    gaps = np.zeros(len(coupled.eps_neg))
    for seed_gaps in row_norms(coupled.eps_neg - decoupled.minus.eps_pos).T:
        gaps += seed_gaps
    gaps /= len(coupled.seeds)
    return coupled, [(t, float(gap)) for t, gap in zip(coupled.steps, gaps)]


def build_report(world: GmmWorld, p_plus: Condition, p_minus: Condition, schedule: NoiseSchedule,
                 cfg: GuidanceConfig, seeds, label_sets: dict) -> dict:
    """The diagnostic report of a shared-latent run, as report.json holds it.

    delta_norms, suppression_proj and bias_gap are lists of (t, value);
    leading_eigs is a list of (t, eigenvalue, unit eigenvector as a list);
    mode_masses maps a label to the fraction of final samples that
    assign_labels gives that label, or {"all": 1.0} when label_sets is
    empty; a nonempty label_sets must partition the world's components.
    delta_norms and bias_gap are seed-averaged over one deterministic
    coupled batch; the spectral series follow one representative seed's
    latent path, since eigenvectors do not average across seeds; the
    bias gap is trajectory_bias_probe's, from the same lockstep run.
    Eigenvectors are eigh's unit columns; masses are means of booleans.
    """
    label_sets = label_sets or {"all": list(range(world.num_components))}
    if sorted(int(i) for idx in label_sets.values() for i in idx) != list(range(world.num_components)):
        raise ValueError(f"label_sets {label_sets} do not partition components 0..{world.num_components - 1}")
    coupled, bias_gap = _coupled_run(world, p_plus, p_minus, schedule, cfg, seeds)
    delta = coupled.delta[:, EIGEN_SEED_INDEX]

    leading_eigs, suppression = [], []
    for i, t in enumerate(coupled.steps):
        lam, v = leading_eigen(epsilon_jacobian(world, p_plus, schedule, coupled.states[i, EIGEN_SEED_INDEX], t))
        leading_eigs.append((t, lam, v.tolist()))
        suppression.append((t, float(-cfg.w * np.dot(v, delta[i]))))
    labels = assign_labels(world, coupled.finals, label_sets)

    return {
        "delta_norms": delta_norm_curve(coupled),
        "leading_eigs": leading_eigs,
        "suppression_proj": suppression,
        "mode_masses": {label: float(np.mean(labels == label)) for label in label_sets},
        "bias_gap": bias_gap,
    }


def lag_summary(report: dict) -> dict:
    """The headline numbers of a report of T >= 2 steps, over a window of k = max(1, T // 10) steps.

    The early and late means of the delta norms take the first and last
    k steps, and ratio is early / late, or None when the late mean is 0
    (strict JSON has no Infinity). The bias gap is 0 by construction at
    t=T, so its early mean takes the k steps after T.
    """
    deltas = [val for _, val in report["delta_norms"]]
    gaps = [val for _, val in report["bias_gap"]]
    if len(gaps) < 2:
        raise ValueError(f"the lag summary needs at least 2 steps, got {len(gaps)}")
    k = max(1, len(deltas) // 10)
    early = float(np.mean(deltas[:k]))
    late = float(np.mean(deltas[-k:]))
    return {
        "early_mean_delta_norm": early,
        "late_mean_delta_norm": late,
        "ratio": early / late if late > 0 else None,
        "bias_gap_at_T": gaps[0],
        "bias_gap_early_mean": float(np.mean(gaps[1:1 + k])),
        "bias_gap_late_mean": float(np.mean(gaps[-k:])),
        "window": k,
    }
