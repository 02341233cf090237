"""Steering check: injection should strictly lower background error per seed."""

import argparse

from fiaedit.steering import STEERING_SEEDS, run_steering_trial


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="*", default=list(STEERING_SEEDS))
    args = parser.parse_args()

    wins = 0
    print(f"{'seed':>5} {'mse (inject on)':>16} {'mse (inject off)':>17} {'better':>7}")
    for seed in args.seeds:
        on, off = run_steering_trial(seed)
        wins += on < off
        print(f"{seed:>5} {on:16.6f} {off:17.6f} {str(on < off):>7}")
    print(f"injection improved background preservation on {wins}/{len(args.seeds)} seeds")


if __name__ == "__main__":
    main()
