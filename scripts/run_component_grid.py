"""Component grid: injection on/off crossed with fusion off/add/freq.

Reproduces the toy-scale analogue of the main component ablation on the
shipped blob fixture and prints one metrics row per cell.
"""

import argparse

from fiaedit.ablation import parse_grid, run_ablation, write_report
from fiaedit.config import parse_config

# symmetric guidance and all-block injection isolate the mechanisms cleanly
# at toy scale; see scripts/run_steering_check.py for the per-seed version
BASE_CONFIG = """
model.channels = 12
model.seed = 11
schedule.steps = 12
guidance.mu_src = 1.0
guidance.mu_tar = 1.0
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
edit.noise_mode = none
fia.fij_block_lo = 0
fia.fij_block_hi = 5
codec.patch = 2
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/component_grid")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = parse_config(BASE_CONFIG + f"edit.seed = {args.seed}\n")
    grid = parse_grid("fij_enabled=false,true;fri_mode=off,add,freq")
    report = run_ablation(base, grid, fixture="blob16")
    path = write_report(report, args.out)

    print(f"{'fij':>6} {'fri':>5} {'mse':>12} {'psnr':>9} {'ssim':>9} {'ssd':>10}")
    for row in report.rows:
        delta = dict(row.delta)
        m = row.metrics
        print(
            f"{delta['fij_enabled']:>6} {delta['fri_mode']:>5} "
            f"{m['mse']:12.6f} {m['psnr']:9.3f} {m['ssim']:9.4f} {m['ssd']:10.6f}"
        )
    print(f"report written to {path}")


if __name__ == "__main__":
    main()
