"""
Compare guidance strategies on the two-well world.

Runs every strategy over the same seed list and prints the fraction of
samples that land in the counterfactual well. The interesting ordering
to look for: the delta-normalized strategies (SDG, SDN) keep the
counterfactual mass at or near zero, plain negative prompting lands in
between, and CFG with no negative signal leaks the most.
"""

import argparse
from pathlib import Path

from guidelab.experiment import load_config, strategy_comparison
from guidelab.guidance import STRATEGIES


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path,
                    default=Path(__file__).parent / "configs" / "two_well.json")
    args = ap.parse_args()

    config = load_config(args.config)

    print(f"world: {config.world.num_components} components, "
          f"{config.schedule.num_steps} steps, {len(config.seeds)} seeds")
    table = strategy_comparison(config)

    print(f"{'strategy':<10} {'counterfactual mass':>20} {'stderr':>10}")
    for name in STRATEGIES:
        row = table[name]
        print(f"{name:<10} {row['mass_mean']:>20.4f} {row['mass_stderr']:>10.4f}")


if __name__ == "__main__":
    main()
