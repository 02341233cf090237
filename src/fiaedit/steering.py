"""The shipped steering scenario: does injection protect the background?

A blob-on-textured-background scene is edited under a prompt pair chosen so
the target prompt drifts the whole image.  Guidance is symmetric and noise
injection is off, so the two arms differ only in whether cross-attention
packet injection is active; injection spans every block here, where its
pull toward the source pass is strongest.  The measured quantity is the
background-masked MSE between the decoded edit and the source scene.  Both
arms run as one two-cell lockstep grid on the ``blob16`` fixture.
"""

from __future__ import annotations

from .ablation import parse_grid, run_ablation
from .config import parse_config
from .errors import EditRunError

STEERING_SEEDS = (0, 1, 2, 3, 4, 5, 6)
# the stock 6-block model on 12 latent channels (codec.patch = 2)
STEERING_CONFIG = """
schedule.steps = 12
guidance.mu_src = 1.0
guidance.mu_tar = 1.0
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
fia.fri_enabled = false
fia.fij_block_lo = 0
fia.fij_block_hi = 5
edit.noise_mode = none
"""


def run_steering_trial(model_seed: int) -> tuple[float, float]:
    """Background-masked MSE with injection on and off, for one model seed."""
    cfg = parse_config(STEERING_CONFIG + f"model.seed = {model_seed}\n")
    report = run_ablation(cfg, parse_grid("fij_enabled=true,false"))
    for row in report.rows:
        if row.status != "ok":
            raise EditRunError(f"steering arm {row.delta} failed: {row.error}")
    on, off = (row.metrics["mse"] for row in report.rows)
    return on, off
