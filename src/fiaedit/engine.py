"""The full edit loop: schedule, noise, constrained velocities, Euler updates.

Each step draws the step noise, renoises the source, reconstructs the target
state from the running edit latent, evaluates the source velocity and the
constrained target velocities, and moves the edit latent along the velocity
difference.  A trace records what happened at every step; latent
snapshots are opt-in.

One loop runs a list of requests in lockstep when they share the model,
schedule, run seed, source latent, source prompt and guidance, as the cells
of a grid do: the source passes then run once per step for all of them.
``run_edit`` is the case of one request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, EditRunError, NumericFailure
from .fia import FiaConfig, constrained_velocities, plan_capture
from .model import MAX_PEAK_BYTES, GuidanceConfig, ModelConfig, VelocityModel, peak_bytes
from .prompts import PromptEmbedding, embeddings_equal
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


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    sigma_t: float
    vdelta_norm: float
    fij_active: bool
    latent: np.ndarray | None = None


@dataclass(frozen=True)
class EditTrace:
    records: tuple[StepRecord, ...]
    final_latent: np.ndarray


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericFailure(f"non-finite values in {name}")


def check_budget(
    model_cfg: ModelConfig, grid: tuple[int, int], n_requests: int, prompt_tokens: Sequence[int]
) -> None:
    """Refuse a run of ``n_requests`` in lockstep whose peak memory is out of bounds.

    A step's widest call holds a guided source pair, and per request a
    guided probe pair and its constrained pass; ``prompt_tokens`` are the
    token counts of the run's distinct prompts.  Call it before building
    the model and embedding the prompts: the weights count, and so does a
    long prompt.
    """
    need = peak_bytes(
        model_cfg, grid, 2 + 3 * n_requests, max(prompt_tokens), len(prompt_tokens)
    )
    if need > MAX_PEAK_BYTES:
        raise ConfigError(
            f"a {model_cfg.d_model}-wide model on a {grid[0]}x{grid[1]} latent grid "
            f"with prompts of up to {max(prompt_tokens)} tokens "
            f"needs about {need / 2**30:.3g} GiB, over the {MAX_PEAK_BYTES / 2**30:.3g} GiB bound"
        )


@dataclass
class _Run:
    """One request's state while the loop runs."""

    req: EditRequest
    x_fe: np.ndarray
    records: list[StepRecord] = field(default_factory=list)
    error: EditRunError | None = None

    def abort(self, step_index: int, exc: Exception) -> None:
        self.error = EditRunError(f"edit aborted at step {step_index}: {exc}")
        self.error.__cause__ = exc


# a blow-up shows as non-finite values, which the run's finite checks turn
# into NumericFailure; a numpy warning would instead become an error, or
# noise on stderr, depending on the process's warning filter
@np.errstate(all="ignore")
def run_edits(
    model: VelocityModel, reqs: Sequence[EditRequest], bypass_fia: bool = False
) -> list[EditTrace | EditRunError]:
    """Run requests that share their source in lockstep; one result per request.

    The requests must share the schedule, run seed, source latent, source
    prompt and guidance; they may differ in target prompt, constraint
    settings, noise mode and snapshots.  Each step evaluates the source
    once for all of them.  A request that fails gets its ``EditRunError``
    (naming the step) as its result and drops out; the others carry on,
    with the same bits they would have alone.  A constraint that does not
    fit the model or schedule fails its request at step 0, before any call;
    a failed call that serves every request fails them all at that step.

    ``bypass_fia`` evaluates the velocities directly, with no capture pass
    and no constraint machinery at all; it exists as the plain-backbone
    reference that a disabled constraint must match bit for bit.
    """
    first = reqs[0]
    for req in reqs[1:]:
        if not (
            req.schedule == first.schedule
            and req.seed == first.seed
            and req.guidance == first.guidance
            and embeddings_equal(req.p_src, first.p_src)
            and np.array_equal(req.source_latent, first.source_latent)
        ):
            raise ValueError(
                "lockstep requests must share schedule, seed, guidance and source"
            )
    sigmas = first.schedule.sigmas
    total_steps = first.schedule.step_count
    guidance = first.guidance
    x_src = first.source_latent
    runs = [_Run(req, x_src.copy()) for req in reqs]
    if not bypass_fia:
        # a constraint that fits at step 0 fits at every step
        for run in runs:
            try:
                plan_capture(run.req.fia, model.cfg, 0, total_steps)
            except ValueError as exc:
                run.abort(0, exc)

    for i in range(total_steps):
        live = [run for run in runs if run.error is None]
        if not live:
            break
        try:
            sigma_t = sigmas[i]
            sigma_prev = sigmas[i + 1]
            draw = draw_step_noise(x_src.shape, first.seed, i)
            x_src_t = interpolate_source(x_src, sigma_t, draw)
            # euler_step reads it in fresh-noise mode only
            fresh = (
                draw_step_noise(x_src.shape, first.seed, i, salt=_FRESH_NOISE_SALT)
                if any(run.req.noise_mode is NoiseMode.FRESH_GAUSSIAN for run in live)
                else None
            )
            x_tar_ts = [reconstruct_target_state(run.x_fe, x_src_t, x_src) for run in live]
            if bypass_fia:
                v_src, _ = model.velocity(x_src_t, first.p_src, sigma_t, guidance.mu_src)
                v_tars = [None] * len(live)  # each evaluated on its own, below
            else:
                v_src, v_tars = constrained_velocities(
                    model,
                    x_src_t,
                    x_tar_ts,
                    first.p_src,
                    [run.req.p_tar for run in live],
                    sigma_t,
                    i,
                    total_steps,
                    guidance,
                    [run.req.fia for run in live],
                )
        except Exception as exc:
            for run in live:
                run.abort(i, exc)
            break

        for run, x_tar_t, v_tar in zip(live, x_tar_ts, v_tars):
            req = run.req
            try:
                if bypass_fia:
                    v_tar, _ = model.velocity(x_tar_t, req.p_tar, sigma_t, guidance.mu_tar)
                elif isinstance(v_tar, Exception):
                    raise v_tar
                fij_active = not bypass_fia and req.fia.fij_active(i, total_steps)
                v_delta = v_tar - v_src
                # a NaN or inf entry, or entries so large the norm overflows
                vdelta_norm = float(np.linalg.norm(v_delta))
                if not math.isfinite(vdelta_norm):
                    raise NumericFailure(
                        "velocity difference is not finite or its norm overflows"
                    )
                x_fe = euler_step(
                    run.x_fe, v_delta, sigma_prev, sigma_t, draw, req.noise_mode, fresh=fresh
                )
                _check_finite("edit latent", x_fe)
            except Exception as exc:
                run.abort(i, exc)
                continue
            run.x_fe = x_fe
            snap = req.snapshot_stride > 0 and i % req.snapshot_stride == 0
            run.records.append(
                StepRecord(
                    step_index=i,
                    sigma_t=sigma_t,
                    vdelta_norm=vdelta_norm,
                    fij_active=fij_active,
                    latent=x_fe.copy() if snap else None,
                )
            )

    return [
        run.error or EditTrace(records=tuple(run.records), final_latent=run.x_fe)
        for run in runs
    ]


def run_edit(
    model: VelocityModel, req: EditRequest, bypass_fia: bool = False
) -> EditTrace:
    """Run all steps of one edit and return the trace with the final latent.

    Raises the run's ``EditRunError``, which names the failing step.  See
    :func:`run_edits` for ``bypass_fia``.
    """
    (result,) = run_edits(model, [req], bypass_fia)
    if isinstance(result, EditRunError):
        raise result
    return result
