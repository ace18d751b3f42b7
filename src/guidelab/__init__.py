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

The package re-exports no names: import from the submodules, e.g.
``from guidelab.oracle import GmmWorld``. ``guidelab.<module>`` loads a
submodule on first access, so ``import guidelab`` alone costs nothing.
``guidelab.config``, ``guidelab.par`` and ``guidelab.cli`` import
without numpy; each CLI command loads the layers it runs when it runs.
"""

import importlib

__all__ = ["config", "schedule", "oracle", "guidance", "sampler", "diagnostics", "par", "experiment", "cli"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
