"""Noise-stepping comparison: no noise, fresh Gaussian, or the reused draw."""

import argparse

from fiaedit.ablation import parse_grid, run_ablation, write_report
from fiaedit.config import parse_config

BASE_CONFIG = """
model.channels = 12
model.seed = 11
schedule.steps = 12
guidance.mu_src = 1.5
guidance.mu_tar = 3.0
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
codec.patch = 2
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/noise_modes")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = parse_config(BASE_CONFIG + f"edit.seed = {args.seed}\n")
    report = run_ablation(base, parse_grid("noise_mode=none,fresh,reused"), fixture="blob16")
    path = write_report(report, args.out)

    print(f"{'mode':>7} {'mse':>12} {'psnr':>9} {'ssim':>9} {'ssd':>10}")
    for row in report.rows:
        m = row.metrics
        print(
            f"{dict(row.delta)['noise_mode']:>7} {m['mse']:12.6f} "
            f"{m['psnr']:9.3f} {m['ssim']:9.4f} {m['ssd']:10.6f}"
        )
    print(f"report written to {path}")


if __name__ == "__main__":
    main()
