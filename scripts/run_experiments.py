"""The paper's ablations at toy scale, then the steering check.

Runs each stock grid below on the blob16 fixture, writes its report to
``<out>/<name>/report.txt`` and prints its table.  The steering check then
asks, for every stock model seed, whether injection lowers the background
error.  ``--seed`` is the edit seed of every grid.
"""

import argparse
import os

from fiaedit.ablation import format_table, parse_grid, run_ablation, write_report
from fiaedit.config import parse_config
from fiaedit.steering import STEERING_SEEDS, run_steering_trial

BASE_CONFIG = """
model.seed = 11
schedule.steps = 12
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
"""
GUIDED = "guidance.mu_src = 1.5\nguidance.mu_tar = 3.0\n"
NO_NOISE = "edit.noise_mode = none\n"

# name -> (config lines added to BASE_CONFIG, grid)
GRIDS = {
    # injection on/off crossed with fusion off/add/freq; symmetric guidance
    # and all-block injection isolate the mechanisms cleanly at toy scale, as
    # in the steering check
    "component_grid": (
        "guidance.mu_src = 1.0\nguidance.mu_tar = 1.0\n" + NO_NOISE
        + "fia.fij_block_lo = 0\nfia.fij_block_hi = 5\n",
        "fij_enabled=false,true;fri_mode=off,add,freq",
    ),
    # the eight stock low-pass widths
    "sigma_sweep": (GUIDED + NO_NOISE, "filter_sigma=0.2,0.4,0.8,0.9,1.0,1.5,5.0,10.0"),
    # no stepping noise, a fresh Gaussian, or the reused draw
    "noise_modes": (GUIDED, "noise_mode=none,fresh,reused"),
    # 4 dual + 2 cross-only blocks: early run, cross-only tail, everything
    "fij_placement": (
        GUIDED + NO_NOISE + "fia.fri_enabled = false\n",
        "fij_block_range=0-3,4-5,0-5",
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for name, (lines, grid) in GRIDS.items():
        base = parse_config(BASE_CONFIG + lines + f"edit.seed = {args.seed}\n")
        report = run_ablation(base, parse_grid(grid), fixture="blob16")
        path = write_report(report, os.path.join(args.out, name))
        print(format_table(report), end="")
        print(f"report written to {path}")

    wins = 0
    print(f"{'seed':>5} {'mse (inject on)':>16} {'mse (inject off)':>17} {'better':>7}")
    for seed in STEERING_SEEDS:
        on, off = run_steering_trial(seed)
        wins += on < off
        print(f"{seed:>5} {on:16.6f} {off:17.6f} {str(on < off):>7}")
    print(f"injection improved background preservation on {wins}/{len(STEERING_SEEDS)} seeds")


if __name__ == "__main__":
    main()
