"""The full edit loop: schedule, noise, constrained velocities, Euler updates.

Each step draws the step noise, renoises the source, reconstructs the target
state from the running edit latent, evaluates the constrained velocity pair,
and moves the edit latent along the velocity difference.  A trace records
what happened at every step; latent and velocity snapshots are opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EditRunError, NumericFailure
from .fia import FiaConfig, constrained_velocity_pair
from .model import GuidanceConfig, VelocityModel
from .prompts import PromptEmbedding
from .schedule import (
    NoiseMode,
    NoiseSchedule,
    draw_step_noise,
    euler_step,
    interpolate_source,
    reconstruct_target_state,
)

_FRESH_NOISE_SALT = 1


@dataclass(frozen=True)
class EditRequest:
    source_latent: np.ndarray
    p_src: PromptEmbedding
    p_tar: PromptEmbedding
    schedule: NoiseSchedule
    guidance: GuidanceConfig
    fia: FiaConfig
    seed: int = 0
    noise_mode: NoiseMode = NoiseMode.REUSED_EPSILON
    snapshot_stride: int = 0
    record_velocities: bool = False


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    sigma_t: float
    vdelta_norm: float
    fij_active: bool
    latent: np.ndarray | None = None
    v_src: np.ndarray | None = None
    v_tar: np.ndarray | None = None


@dataclass(frozen=True)
class EditTrace:
    records: tuple[StepRecord, ...]
    final_latent: np.ndarray


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericFailure(f"non-finite values in {name}")


def run_edit(
    model: VelocityModel, req: EditRequest, bypass_fia: bool = False
) -> EditTrace:
    """Run all steps of one edit and return the trace with the final latent.

    ``bypass_fia`` evaluates both velocities directly, with no capture pass
    and no constraint machinery at all; it exists as the plain-backbone
    reference that a disabled constraint must match bit for bit.
    """
    sigmas = req.schedule.sigmas
    total_steps = req.schedule.step_count
    x_src = req.source_latent
    x_fe = x_src.copy()
    records: list[StepRecord] = []

    for i in range(total_steps):
        try:
            sigma_t = sigmas[i]
            sigma_prev = sigmas[i + 1]
            draw = draw_step_noise(x_src.shape, req.seed, i)
            x_src_t = interpolate_source(x_src, sigma_t, draw)
            x_tar_t = reconstruct_target_state(x_fe, x_src_t, x_src)
            if bypass_fia:
                v_src, _ = model.velocity(x_src_t, req.p_src, sigma_t, req.guidance.mu_src)
                v_tar, _ = model.velocity(x_tar_t, req.p_tar, sigma_t, req.guidance.mu_tar)
                fij_active = False
            else:
                v_src, v_tar = constrained_velocity_pair(
                    model,
                    x_src_t,
                    x_tar_t,
                    req.p_src,
                    req.p_tar,
                    sigma_t,
                    i,
                    total_steps,
                    req.guidance,
                    req.fia,
                )
                fij_active = req.fia.fij_active(i, total_steps)
            v_delta = v_tar - v_src
            _check_finite("velocity difference", v_delta)
            fresh = (
                draw_step_noise(x_src.shape, req.seed, i, salt=_FRESH_NOISE_SALT)
                if req.noise_mode is NoiseMode.FRESH_GAUSSIAN
                else None
            )
            x_fe = euler_step(
                x_fe, v_delta, sigma_prev, sigma_t, draw, req.noise_mode, fresh=fresh
            )
            _check_finite("edit latent", x_fe)
        except Exception as exc:
            raise EditRunError(f"edit aborted at step {i}: {exc}") from exc

        snap = req.snapshot_stride > 0 and i % req.snapshot_stride == 0
        records.append(
            StepRecord(
                step_index=i,
                sigma_t=sigma_t,
                vdelta_norm=float(np.linalg.norm(v_delta)),
                fij_active=fij_active,
                latent=x_fe.copy() if snap else None,
                v_src=v_src.copy() if req.record_velocities else None,
                v_tar=v_tar.copy() if req.record_velocities else None,
            )
        )

    return EditTrace(records=tuple(records), final_latent=x_fe)
