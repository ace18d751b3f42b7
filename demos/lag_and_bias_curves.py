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
from dataclasses import replace
from pathlib import Path

from guidelab.diagnostics import build_report, lag_summary
from guidelab.experiment import load_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path,
                    default=Path(__file__).parent / "configs" / "two_well.json")
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args()

    config = load_config(args.config)
    report = build_report(config.world, config.positive_condition, config.negative_condition, config.schedule,
                          replace(config.guidance, strategy="NP"), config.seeds[: args.seeds], config.mass_labels)
    summary = lag_summary(report)

    print(f"{'t':>4} {'mean |delta|':>14} {'mean bias gap':>14}")
    for (t, delta), (_, gap) in zip(report["delta_norms"], report["bias_gap"]):
        print(f"{t:>4} {delta:>14.4f} {gap:>14.4f}")

    k, ratio = summary["window"], summary["ratio"]
    ratio = "undefined, the late mean is 0" if ratio is None else f"{ratio:.4f}"
    print(f"\nearly/late |delta| ratio (first vs last {k} steps): {ratio}")
    print(f"bias gap at t=T: {summary['bias_gap_at_T']}")
    print(f"bias gap, first {k} after T vs final {k}: "
          f"{summary['bias_gap_early_mean']:.4f} vs {summary['bias_gap_late_mean']:.4f}")


if __name__ == "__main__":
    main()
