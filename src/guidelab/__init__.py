"""Desk-scale laboratory for diffusion guidance strategies.

Everything runs against exact conditional score oracles for Gaussian
mixture worlds, so there is no trained denoiser anywhere: every epsilon
prediction is computed in closed form. On top of that sit the guidance
combination rules (classifier-free guidance, negative prompting, and the
synchronized decoupled family), a small ancestral sampler that steps a
whole seed sweep of one or two coupled latents as one array, spectral
diagnostics for the oracle Jacobian, and a counterfactual-prompt
generation pipeline that talks to a chat-completions endpoint (or a
mock transport for offline work).
"""

from guidelab.schedule import NoiseSchedule, make_linear_schedule, forward_step, forward_marginal
from guidelab.oracle import (
    GmmWorld,
    Condition,
    NoisedMixture,
    noised_mixture,
    log_density_and_score,
    epsilon_oracle,
    epsilon_jacobian,
)
from guidelab.guidance import (
    GuidanceConfig,
    cfg_combine,
    np_combine,
    sdn_combine,
    sdg_combine,
    tdd_only_combine,
    branch_guided_eps,
)
from guidelab.sampler import (
    SamplerStepCoeffs,
    TrajectoryBatch,
    DualTrajectoryBatch,
    ancestral_coeffs,
    run_single_batch,
    run_dual_batch,
)
from guidelab.diagnostics import (
    DiagnosticsReport,
    delta_norm_curve,
    leading_eigen,
    suppression_projection,
    mode_mass,
    trajectory_bias_probe,
)
from guidelab.par import (
    CounterfactualRecord,
    LlmEndpointConfig,
    FormatViolation,
    MockTransport,
    HttpTransport,
    build_instruction,
    parse_response,
    validate_record,
    generate,
)
from guidelab.experiment import ExperimentConfig, default_config

__all__ = [
    "NoiseSchedule",
    "make_linear_schedule",
    "forward_step",
    "forward_marginal",
    "GmmWorld",
    "Condition",
    "NoisedMixture",
    "noised_mixture",
    "log_density_and_score",
    "epsilon_oracle",
    "epsilon_jacobian",
    "GuidanceConfig",
    "cfg_combine",
    "np_combine",
    "sdn_combine",
    "sdg_combine",
    "tdd_only_combine",
    "branch_guided_eps",
    "SamplerStepCoeffs",
    "TrajectoryBatch",
    "DualTrajectoryBatch",
    "ancestral_coeffs",
    "run_single_batch",
    "run_dual_batch",
    "DiagnosticsReport",
    "delta_norm_curve",
    "leading_eigen",
    "suppression_projection",
    "mode_mass",
    "trajectory_bias_probe",
    "CounterfactualRecord",
    "LlmEndpointConfig",
    "FormatViolation",
    "MockTransport",
    "HttpTransport",
    "build_instruction",
    "parse_response",
    "validate_record",
    "generate",
    "ExperimentConfig",
    "default_config",
]
