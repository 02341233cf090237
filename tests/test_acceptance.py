"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``); the pytest
outcome is authoritative either way.  Run with::

    pytest -s tests/test_acceptance.py
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from fiaedit.codec import decode, encode
from fiaedit.config import RunConfig
from fiaedit.engine import EditRequest, run_edit
from fiaedit.fia import FiaConfig, constrained_velocity_pair, plan_capture
from fiaedit.fixtures import gradient_image, load_fixture
from fiaedit.metrics import PSNR_INFINITE, compute_report
from fiaedit.model import (
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    VelocityModel,
)
from fiaedit.prompts import embed_prompt, embeddings_equal
from fiaedit.schedule import (
    NoiseMode,
    draw_step_noise,
    interpolate_source,
    make_linear_schedule,
    reconstruct_target_state,
)
from fiaedit.spectral import FusionWeights, decompose, fft2, fri_fuse, ifft2, make_gaussian_lowpass
from fiaedit.steering import STEERING_SEEDS, run_steering_trial
from fiaedit.cli import run_selftest

from conftest import FIA_OFF, record_velocities, report_entries, step_plan
from oracle_dft import oracle_fri_fuse


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL  {title}")
                raise
            print(f"[criterion {number:02d}] PASS  {title}")

        return wrapper

    return deco


@criterion(1, "zero-edit invariance, bit-exact and under 5 s per run")
def test_c01_zero_edit_invariance():
    model = VelocityModel(
        ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2, d_model=4,
                    n_heads=1, seed=3, channels=4)
    )
    prompt = embed_prompt("one prompt for both branches", 4, seed=0)
    source = np.random.default_rng(0).standard_normal((4, 32, 32))
    for fia in (FiaConfig(), FIA_OFF):
        req = EditRequest(
            source_latent=source, p_src=prompt, p_tar=prompt,
            schedule=make_linear_schedule(50, 0.0),
            guidance=GuidanceConfig(mu_src=1.0, mu_tar=1.0),
            fia=fia, seed=0, noise_mode=NoiseMode.NONE,
        )
        start = time.perf_counter()
        trace = run_edit(model, req)
        elapsed = time.perf_counter() - start
        assert np.array_equal(trace.final_latent, source)
        assert elapsed < 5.0, f"run took {elapsed:.2f}s"


@criterion(2, "disabled constraint is bit-identical to a bypassed build")
def test_c02_baseline_equivalence(tiny_model, prompt_pair):
    p_src, p_tar = prompt_pair
    req = EditRequest(
        source_latent=np.random.default_rng(1).standard_normal((4, 8, 8)),
        p_src=p_src, p_tar=p_tar,
        schedule=make_linear_schedule(10, 0.0),
        guidance=GuidanceConfig(mu_src=1.5, mu_tar=3.0),
        fia=FIA_OFF, seed=5,
        noise_mode=NoiseMode.REUSED_EPSILON,
    )
    via_fia, fia_steps = record_velocities(run_edit, tiny_model, req)
    bypassed, bypass_steps = record_velocities(run_edit, tiny_model, req, bypass_fia=True)
    assert len(fia_steps) == 10
    for (a_src, a_tar), (b_src, b_tar) in zip(fia_steps, bypass_steps, strict=True):
        assert np.array_equal(a_src, b_src)
        assert np.array_equal(a_tar, b_tar)
    assert np.array_equal(via_fia.final_latent, bypassed.final_latent)


@criterion(3, "frequency fusion matches the direct-DFT oracle over 100 seeds")
def test_c03_spectral_oracle_equivalence():
    rng_shapes = np.random.default_rng(999)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        c = int(rng_shapes.integers(1, 4))
        h = int(rng_shapes.integers(2, 9))
        w = int(rng_shapes.integers(2, 9))
        f_src = rng.standard_normal((c, h, w))
        f_tar = rng.standard_normal((c, h, w))
        filt = make_gaussian_lowpass(h, w, 0.9)
        got = fri_fuse(f_src, f_tar, filt, FusionWeights(0.8, 0.2))
        expected = oracle_fri_fuse(f_src, f_tar, 0.9, 0.8, 0.2)
        assert np.abs(got - expected).max() < 1e-9
        high, low = decompose(fft2(f_src), filt)
        assert np.array_equal(high.coeffs + low.coeffs, fft2(f_src).coeffs)


@criterion(4, "transform round trip, Parseval, and exact constant DC")
def test_c04_fft_correctness():
    for shape in ((1, 8, 8), (2, 5, 7), (3, 4, 6)):
        f = np.random.default_rng(7).standard_normal(shape)
        back = ifft2(fft2(f))
        assert np.abs(back - f).max() <= 1e-6 * np.abs(f).max()
        power_ratio = np.sum(np.abs(fft2(f).coeffs) ** 2) / (
            shape[1] * shape[2] * np.sum(f**2)
        )
        assert abs(power_ratio - 1.0) < 1e-6
    c = 0.3711
    spec = fft2(np.full((1, 4, 4), c)).coeffs[0]
    assert spec[2, 2] == c * 16
    spec[2, 2] = 0.0
    assert np.all(spec == 0.0)


@criterion(5, "packet injection is bit-exact per step and absent past step 27")
def test_c05_fij_exactness(tiny_model, prompt_pair):
    p_src, p_tar = prompt_pair
    total = 50
    cfg = FiaConfig(fri_enabled=False, fij_enabled=True)
    assert cfg.resolved_cutoff(total) == 27
    sched = make_linear_schedule(total, 0.0)
    rng = np.random.default_rng(2)
    x_src = rng.standard_normal((4, 8, 8))
    x_fe = x_src.copy()
    guidance = GuidanceConfig(mu_src=3.5, mu_tar=13.5)
    injected_sites = {(4, AttnKind.CROSS), (5, AttnKind.CROSS)}
    for i in range(total):
        capture = HookPlan(capture=plan_capture(cfg, tiny_model.cfg, i, total))
        sigma_t = sched.sigmas[i]
        draw = draw_step_noise(x_src.shape, 0, i)
        x_src_t = interpolate_source(x_src, sigma_t, draw)
        x_tar_t = reconstruct_target_state(x_fe, x_src_t, x_src)
        v_src, v_tar = constrained_velocity_pair(
            tiny_model, x_src_t, x_tar_t, p_src, p_tar,
            sigma_t, i, total, guidance, cfg,
        )
        _, src_by = tiny_model.velocity(x_src_t, p_src, sigma_t, guidance.mu_src, hooks=capture)
        _, tar_by = tiny_model.velocity(x_tar_t, p_tar, sigma_t, 1.0, hooks=capture)
        plan = step_plan(cfg, i, total, src_by, tar_by, x_src.shape[-2:], tiny_model.cfg)
        overrides = plan.overrides
        expected, _ = tiny_model.velocity(
            x_tar_t, p_tar, sigma_t, guidance.mu_tar, hooks=HookPlan(overrides=overrides)
        )
        assert np.array_equal(v_tar, expected)
        if i < 27:
            assert set(overrides) == injected_sites
            rerun = HookPlan(capture=capture.capture, overrides=overrides)
            _, got_by = tiny_model.velocity(x_tar_t, p_tar, sigma_t, 1.0, hooks=rerun)
            for site in injected_sites:
                assert overrides[site] is src_by[site]
                assert np.array_equal(got_by[site].q, src_by[site].q)
                assert np.array_equal(got_by[site].k, src_by[site].k)
                assert np.array_equal(got_by[site].v, src_by[site].v)
                assert embeddings_equal(
                    got_by[site].text_embedding, src_by[site].text_embedding
                )
        else:
            assert not overrides
        x_fe = x_fe + (sched.sigmas[i + 1] - sigma_t) * (v_tar - v_src)


@criterion(6, "guidance is affine in strength with exact endpoints and stock defaults")
def test_c06_cfg_contract(tiny_model, prompt_pair):
    p, other = prompt_pair
    x = np.random.default_rng(3).standard_normal((4, 6, 6))
    v0, _ = tiny_model.velocity(x, p, 0.5, 0.0)
    v1, _ = tiny_model.velocity(x, p, 0.5, 1.0)
    v2, _ = tiny_model.velocity(x, p, 0.5, 2.0)
    assert np.abs((v2 - v1) - (v1 - v0)).max() < 1e-9
    v0_other, _ = tiny_model.velocity(x, other, 0.5, 0.0)
    assert np.array_equal(v0, v0_other)  # mu=0 is exactly the unconditional pass
    v1_other, _ = tiny_model.velocity(x, other, 0.5, 1.0)
    assert not np.array_equal(v1, v1_other)  # mu=1 is exactly the conditional pass
    defaults = RunConfig().make_guidance()
    assert (defaults.mu_src, defaults.mu_tar) == (3.5, 13.5)


@criterion(7, "constant-velocity telescoping matches the closed form to 1e-12")
def test_c07_telescoping_oracle():
    from test_engine import ConstantVelocityModel

    p_src = embed_prompt("constant source field", 8, 0)
    p_tar = embed_prompt("constant target field", 8, 0)
    model = ConstantVelocityModel({p_src.text: -0.4, p_tar.text: 1.1})
    x = np.random.default_rng(4).standard_normal((4, 6, 6))
    sched = make_linear_schedule(50, 0.0)
    req = EditRequest(
        source_latent=x, p_src=p_src, p_tar=p_tar, schedule=sched,
        guidance=GuidanceConfig(mu_src=1.0, mu_tar=1.0),
        fia=FIA_OFF, seed=0, noise_mode=NoiseMode.NONE,
    )
    trace = run_edit(model, req)
    expected = x + (sched.sigmas[-1] - sched.sigmas[0]) * (1.1 - (-0.4))
    assert np.abs(trace.final_latent - expected).max() < 1e-12


@criterion(8, "noise-stepping modes are distinct, with the quiet mode exact")
def test_c08_noise_mode_structure(tiny_model, prompt_pair):
    p_src, p_tar = prompt_pair
    source = np.random.default_rng(5).standard_normal((4, 8, 8))

    def final(mode, p_target):
        req = EditRequest(
            source_latent=source, p_src=p_src, p_tar=p_target,
            schedule=make_linear_schedule(8, 0.0),
            guidance=GuidanceConfig(mu_src=1.5, mu_tar=3.0)
            if not embeddings_equal(p_src, p_target)
            else GuidanceConfig(mu_src=1.5, mu_tar=1.5),
            fia=FiaConfig(), seed=9, noise_mode=mode,
        )
        return run_edit(tiny_model, req).final_latent

    outs = {mode: final(mode, p_tar) for mode in NoiseMode}
    pairs = [(NoiseMode.NONE, NoiseMode.FRESH_GAUSSIAN),
             (NoiseMode.NONE, NoiseMode.REUSED_EPSILON),
             (NoiseMode.FRESH_GAUSSIAN, NoiseMode.REUSED_EPSILON)]
    for a, b in pairs:
        assert not np.array_equal(outs[a], outs[b])
    assert np.array_equal(final(NoiseMode.NONE, p_src), source)
    assert np.array_equal(final(NoiseMode.REUSED_EPSILON, p_tar),
                          outs[NoiseMode.REUSED_EPSILON])

    # the harness-side view of the same grid completes with one row per mode
    from fiaedit.ablation import parse_grid, run_ablation
    from fiaedit.config import parse_config

    base = parse_config(
        "model.channels = 12\nmodel.seed = 11\nschedule.steps = 4\n"
        "guidance.mu_src = 1.5\nguidance.mu_tar = 3.0\n"
        "prompts.source = a small bright blob\nprompts.target = a dark square\n"
        "codec.patch = 2\n"
    )
    report = run_ablation(base, parse_grid("noise_mode=none,fresh,reused"), "blob16")
    assert [dict(r.delta)["noise_mode"] for r in report.rows] == ["none", "fresh", "reused"]
    assert all(r.status == "ok" for r in report.rows)


@criterion(9, "packet injection strictly lowers background error on every steering seed")
def test_c09_directional_fij_trend():
    assert len(STEERING_SEEDS) >= 5
    for seed in STEERING_SEEDS:
        with_fij, without_fij = run_steering_trial(seed)
        assert with_fij < without_fij, (
            f"seed {seed}: {with_fij:.6f} !< {without_fij:.6f}"
        )


@criterion(10, "filter-width sweep completes with eight distinct masks")
def test_c10_sigma_sweep_harness(tmp_path):
    from fiaedit.cli import main

    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(
        """
model.channels = 12
model.seed = 11
schedule.steps = 4
guidance.mu_src = 1.5
guidance.mu_tar = 3.0
prompts.source = a small bright blob
prompts.target = a dark square
edit.noise_mode = none
codec.patch = 2
""",
        encoding="utf-8",
    )
    sigmas = (0.2, 0.4, 0.8, 0.9, 1.0, 1.5, 5.0, 10.0)
    out_dir = tmp_path / "sweep"
    rc = main(
        [
            "ablate",
            "--config", str(config_path),
            "--grid", "filter_sigma=" + ",".join(str(s) for s in sigmas),
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    entries = report_entries((out_dir / "report.txt").read_text(encoding="utf-8"))
    assert entries["cells"] == "8"
    assert [entries[f"cell.{i}.status"] for i in range(8)] == ["ok"] * 8
    assert [entries[f"cell.{i}.delta"] for i in range(8)] == [
        f"filter_sigma={s}" for s in sigmas
    ]
    masks = [make_gaussian_lowpass(8, 8, s).mask for s in sigmas]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert not np.array_equal(masks[i], masks[j])


@criterion(11, "self test runs the artifact suite twice with byte-identical outputs")
def test_c11_end_to_end_determinism(tmp_path):
    ok, lines = run_selftest(str(tmp_path / "selftest"))
    assert ok, "\n".join(lines)
    assert all(line.startswith("PASS") for line in lines)


@criterion(12, "metric identities and codec round trip are exact")
def test_c12_metric_sanity():
    img = gradient_image(16, 16)
    report = compute_report(img, img)
    assert report["mse"] == 0.0
    assert report["psnr"] == PSNR_INFINITE
    assert report["ssim"] == pytest.approx(1.0, abs=1e-12)
    assert report["ssd"] == 0.0
    scene, _ = load_fixture("blob16")
    assert np.array_equal(decode(encode(scene, 2), 2).pixels, scene.pixels)
