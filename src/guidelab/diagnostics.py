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

import csv
from dataclasses import dataclass, field

import numpy as np

from guidelab.guidance import GuidanceConfig, row_norms
from guidelab.oracle import Condition, GmmWorld, assign_components, epsilon_jacobian, epsilon_oracle
from guidelab.sampler import TrajectoryBatch, ancestral_coeffs, run_single_batch
from guidelab.schedule import NoiseSchedule

__all__ = [
    "DiagnosticsReport",
    "delta_norm_curve",
    "leading_eigen",
    "suppression_projection",
    "mode_mass",
    "trajectory_bias_probe",
    "build_report",
    "report_to_json",
    "series_to_csv",
]

# The seed whose latent path the spectra follow.
EIGEN_SEED_INDEX = 0


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-step diagnostic series plus final mode occupancy.

    delta_norms, suppression_proj, and bias_gap are lists of (t, value);
    leading_eigs is a list of (t, eigenvalue, unit eigenvector);
    mode_masses maps a label to the fraction of final samples assigned
    to that label's components.
    """

    delta_norms: list
    leading_eigs: list
    suppression_proj: list
    mode_masses: dict
    bias_gap: list = field(default_factory=list)

    def __post_init__(self):
        for t, lam, v in self.leading_eigs:
            norm = np.linalg.norm(v)
            if abs(norm - 1.0) > 1e-10:
                raise ValueError(f"eigenvector at t={t} has norm {norm}, expected 1 within 1e-10")
        for label, frac in self.mode_masses.items():
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"mode mass for {label!r} is {frac}, outside [0, 1]")


def delta_norm_curve(batch: TrajectoryBatch) -> list:
    """Seed-mean discrepancy norms (t, mean_i ||delta_t,i||), t descending from T.

    Reads the recorded deltas directly; for one seed each value is
    exactly that seed's ||delta_t||.
    """
    if batch.delta is None:
        raise ValueError(f"trajectory strategy {batch.config.strategy} recorded no discrepancy")
    return [(t, float(row_norms(d).mean())) for t, d in zip(batch.steps, batch.delta)]


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


def suppression_projection(v_l: np.ndarray, delta: np.ndarray, w: float) -> float:
    """Projection of the scaled correction onto the dominant direction: -w * <v_l, delta>."""
    v_l = np.asarray(v_l, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    norm = np.linalg.norm(v_l)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"v_l must be a unit vector within 1e-6, got norm {norm}")
    return float(-w * np.dot(v_l, delta))


def mode_mass(samples, world: GmmWorld, label_sets: dict) -> dict:
    """Fraction of samples per label, by hard argmax responsibility at t=0.

    label_sets maps a label to a collection of component indices and
    must partition all components of the world.
    """
    X = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if X.size == 0:
        raise ValueError("mode_mass needs a nonempty sample set")
    claimed = []
    for label, idx in label_sets.items():
        claimed.extend(int(i) for i in idx)
    if sorted(claimed) != list(range(world.num_components)):
        raise ValueError(f"label_sets {label_sets} do not partition components 0..{world.num_components - 1}")
    assign = assign_components(world, X)
    out = {}
    for label, idx in label_sets.items():
        members = np.asarray(sorted(int(i) for i in idx))
        out[label] = float(np.mean(np.isin(assign, members)))
    return out


def _check_shared_latent(cfg: GuidanceConfig, seeds) -> list:
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the bias probe needs at least one seed")
    if cfg.strategy not in ("NP", "SDN"):
        raise ValueError(f"bias probe needs a shared-latent strategy with a negative condition, got {cfg.strategy}")
    return seeds


def _bias_gap(world: GmmWorld, p_minus: Condition, schedule: NoiseSchedule, coupled: TrajectoryBatch) -> list:
    """Seed-mean bias gap of a deterministic coupled NP/SDN batch against decoupled references.

    The raw negative prediction on the coupled latent at step t is the
    coupled run's recorded eps_neg. The reference latent starts at the
    coupled x_T and follows the raw conditional chain
    x <- a_t x + b_t eps(p_minus, x, t); its prediction is the one it
    steps on. Per-seed gaps are added one seed at a time, in seed order,
    not by a pairwise np.sum, so each step's sum rounds exactly as a
    loop over seeds does.
    """
    x = coupled.states[0]
    per_step = []
    for shared, t in zip(coupled.eps_neg, coupled.steps):
        own = epsilon_oracle(world, p_minus, schedule, x, t)
        per_step.append(row_norms(shared - own))
        coeffs = ancestral_coeffs(schedule, t)
        x = coeffs.a_t * x + coeffs.b_t * own
    gaps = np.zeros(len(per_step))
    for seed_gaps in np.array(per_step).T:
        gaps += seed_gaps
    gaps /= len(coupled.seeds)
    return [(t, float(gap)) for t, gap in zip(coupled.steps, gaps)]


def trajectory_bias_probe(
    world: GmmWorld,
    p_plus: Condition,
    p_minus: Condition,
    schedule: NoiseSchedule,
    cfg: GuidanceConfig,
    seeds,
) -> list:
    """Mean gap between the negative prediction on shared vs. decoupled latents.

    For each seed, a coupled trajectory runs under cfg (a shared-latent
    strategy with the negative condition) and a decoupled reference
    trajectory samples the negative condition raw from the same initial
    noise. At each step t the raw negative prediction is evaluated on
    both latents and the norm of the difference is averaged over seeds.
    The gap is 0 exactly at t=T (identical initialization), and an
    identically zero series when p_plus == p_minus. Runs in
    deterministic mode so the two runs share no noise bookkeeping.
    """
    seeds = _check_shared_latent(cfg, seeds)
    coupled = run_single_batch(world, p_plus, p_minus, schedule, cfg, seeds, deterministic=True)
    return _bias_gap(world, p_minus, schedule, coupled)


def build_report(
    world: GmmWorld,
    p_plus: Condition,
    p_minus: Condition,
    schedule: NoiseSchedule,
    cfg: GuidanceConfig,
    seeds,
    label_sets: dict,
) -> DiagnosticsReport:
    """Assemble the full diagnostic report for a shared-latent run.

    delta_norms and bias_gap are seed-averaged over one coupled batch;
    the spectral series (leading eigenpair and suppression projection)
    follow one representative seed's latent path, since eigenvectors do
    not average across seeds.
    """
    seeds = _check_shared_latent(cfg, seeds)
    coupled = run_single_batch(world, p_plus, p_minus, schedule, cfg, seeds, deterministic=True)

    leading_eigs = []
    suppression = []
    for i, t in enumerate(coupled.steps):
        lam, v = leading_eigen(epsilon_jacobian(world, p_plus, schedule, coupled.states[i, EIGEN_SEED_INDEX], t))
        leading_eigs.append((t, lam, v))
        suppression.append((t, suppression_projection(v, coupled.delta[i, EIGEN_SEED_INDEX], cfg.w)))

    return DiagnosticsReport(
        delta_norms=delta_norm_curve(coupled),
        leading_eigs=leading_eigs,
        suppression_proj=suppression,
        mode_masses=mode_mass(coupled.finals, world, label_sets),
        bias_gap=_bias_gap(world, p_minus, schedule, coupled),
    )


def report_to_json(report: DiagnosticsReport) -> dict:
    """Plain-JSON view of a report (arrays become lists)."""
    return {
        "delta_norms": [[t, val] for t, val in report.delta_norms],
        "leading_eigs": [[t, lam, list(map(float, v))] for t, lam, v in report.leading_eigs],
        "suppression_proj": [[t, val] for t, val in report.suppression_proj],
        "mode_masses": dict(report.mode_masses),
        "bias_gap": [[t, val] for t, val in report.bias_gap],
    }


def series_to_csv(path, series, value_header: str = "value") -> None:
    """Write a (t, value) series to CSV with header t,<value_header>."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", value_header])
        for t, val in series:
            writer.writerow([t, repr(float(val))])
