"""
Trace the two failure modes of negative prompting on the two-well world.

First curve: the seed-averaged norm of the discrepancy between the
positive and negative noise predictions at each step. It starts small
(both branches see nearly pure noise) and grows as the trajectory
commits to a well, which is why a fixed guidance scale acts too late.

Second curve: the gap between the coupled trajectory and a decoupled
reference that never sees the negative branch, from the same noise.
It is exactly zero at the first step and accumulates from there.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from guidelab.diagnostics import trajectory_bias_probe
from guidelab.experiment import parse_config
from guidelab.guidance import GuidanceConfig, row_norms
from guidelab.sampler import run_single_batch


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path,
                    default=Path(__file__).parent / "configs" / "two_well.json")
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args()

    with open(args.config) as fh:
        config = parse_config(json.load(fh))
    seeds = config.seeds[: args.seeds]
    guidance = GuidanceConfig("NP", w=config.guidance.w)

    batch = run_single_batch(config.world, config.positive_condition,
                             config.negative_condition, config.schedule,
                             guidance, seeds)
    delta_mean = np.array([row_norms(d).mean() for d in batch.delta])
    ts = list(batch.steps)

    gaps = trajectory_bias_probe(config.world, config.positive_condition,
                                 config.negative_condition, config.schedule,
                                 guidance, seeds)
    gap_by_t = dict(gaps)

    print(f"{'t':>4} {'mean |delta|':>14} {'mean bias gap':>14}")
    for i, t in enumerate(ts):
        print(f"{t:>4} {delta_mean[i]:>14.4f} {gap_by_t[t]:>14.4f}")

    k = max(1, config.schedule.num_steps // 10)
    print(f"\nearly/late |delta| ratio (first vs last {k} steps): "
          f"{delta_mean[:k].mean() / delta_mean[-k:].mean():.4f}")
    gap_vals = np.array([v for _, v in gaps])
    print(f"bias gap at t=T: {gap_vals[0]}")
    print(f"bias gap, first {k} after T vs final {k}: "
          f"{gap_vals[1:1 + k].mean():.4f} vs {gap_vals[-k:].mean():.4f}")


if __name__ == "__main__":
    main()
