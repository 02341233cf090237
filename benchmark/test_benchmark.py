"""Self-tests of the benchmark: span arithmetic, exact counts, checks, restore.

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import pytest

import bench_tracer as bt
import bench_workloads as bw
import worker


def _tiny(name: str, extra: str = "") -> bw.Workload:
    """A 2-step edit on blob16 with the stock constraint settings."""
    return bw.Workload(
        name=name,
        kind="edit",
        fixture="blob16",
        config_text=bw.EDIT_PROMPTS + "schedule.steps = 2\n" + extra,
        n_requests=1,
    )


FULL = _tiny("tiny-full")
OFF = _tiny("tiny-off", "fia.fri_enabled = false\nfia.fij_enabled = false\n")


def _traced_run(w: bw.Workload):
    tracer = bt.Tracer()
    prep = bw.prepare(w)
    with tracer.traced_op(0):
        result = bw.run_op(w, prep)
    return tracer, prep, result


def _bindings_snapshot() -> dict:
    snap = {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fiaedit" or name.startswith("fiaedit."))
        for key, value in vars(mod).items()
    }
    snap.update({("VelocityModel", k): v for k, v in vars(bw.VelocityModel).items()})
    return snap


def _span(name, start, end, parent=None, op=0, attrs=None):
    return bt.Span(name, start, end, parent, op, attrs)


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 30, parent=0),
        _span("b", 40, 70, parent=0),
        _span("c", 50, 60, parent=2),
        _span("late", 90, 120, parent=0),  # only 90..100 lies inside the parent
    ]
    assert bt.self_times(spans) == [100 - 20 - 30 - 10, 20, 30 - 10, 10, 30]


def test_layer_metrics_from_a_synthetic_tree():
    tracer = bt.Tracer()
    tracer.spans += [
        _span("engine.run_edit", 0, 10_000_000, attrs={"steps": 4}),
        _span("model.velocity", 1_000_000, 5_000_000, parent=0),
        _span("model.velocity", 5_000_000, 7_000_000, parent=0),
        _span("config.parse_config", 0, 3_000_000, op="setup"),
    ]
    metrics = bt.layer_metrics(tracer, {0: 0.010})
    assert metrics["engine.run_edit.self_ms_per_step"] == pytest.approx(4 / 4)
    assert metrics["engine.steps_per_op"] == 4
    assert metrics["model.velocity.calls_per_step"] == 0.5
    assert metrics["model.velocity.ms_per_call"] == pytest.approx(3.0)
    assert metrics["model.velocity.share"] == pytest.approx(0.6)
    assert metrics["config.parse_config.ms"] == pytest.approx(3.0)

    tracer.missing.add("model.velocity")
    metrics = bt.layer_metrics(tracer, {0: 0.010})
    assert metrics["model.velocity.ms_per_call"] is None
    assert metrics["engine.steps_per_op"] == 4


def test_counts_with_both_constraints_on():
    tracer, prep, _ = _traced_run(FULL)
    calls = Counter(s.name for s in tracer.spans)
    steps = 2
    n_dual = prep.cfg.model_blocks_dual
    overrides = [s.attrs for s in tracer.spans if s.name == "fia.build_target_overrides"]
    skipped = sum(a["self_attempted"] - a["self_applied"] for a in overrides)
    assert calls["model.velocity"] == 3 * steps
    assert calls["spectral.fri_fuse"] == 2 * n_dual * steps - 2 * skipped
    assert calls["spectral.make_gaussian_lowpass"] == steps
    assert not tracer.missing and not tracer.observer_errors


def test_counts_with_both_constraints_off():
    tracer, _, _ = _traced_run(OFF)
    calls = Counter(s.name for s in tracer.spans)
    assert calls["model.velocity"] == 2 * 2
    assert calls["spectral.fri_fuse"] == 0
    assert calls["spectral.make_gaussian_lowpass"] == 0


def test_traced_output_is_byte_identical_and_wrappers_are_restored():
    before = _bindings_snapshot()
    prep = bw.prepare(FULL)
    plain = bw.run_op(FULL, prep)
    tracer, _, traced = _traced_run(FULL)
    assert tracer.spans
    assert bw.output_bytes(FULL, traced) == bw.output_bytes(FULL, plain)
    after = _bindings_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_are_restored_when_an_op_raises():
    before = _bindings_snapshot()
    tracer = bt.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced_op(0):
            assert bw.engine.run_edit is not before[("fiaedit.engine", "run_edit")]
            raise RuntimeError("op failed")
    after = _bindings_snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_a_missing_target_is_reported_not_raised():
    gone = ("fia.gone", "fiaedit.fia", "no_such_function", None)
    tracer = bt.Tracer(targets=bt.TARGETS + (gone,))
    prep = bw.prepare(FULL)
    with tracer.traced_op(0):
        bw.run_op(FULL, prep)
    assert tracer.missing == {"fia.gone"}


def test_perturbed_latent_fails_the_checks():
    prep = bw.prepare(FULL)
    result = bw.run_op(FULL, prep)
    pinned = bw.summarize(FULL, prep, result)

    latent = result.final_latent.copy()
    latent[0, 0, 0] *= 1.0 + 1e-6
    perturbed = dataclasses.replace(result, final_latent=latent)
    assert bw.reference_mismatch(bw.summarize(FULL, prep, perturbed), pinned) is not None

    drift = dataclasses.replace(result, final_latent=result.final_latent * (1.0 + 1e-15))
    assert bw.reference_mismatch(bw.summarize(FULL, prep, drift), pinned) is None

    run = worker.Run(bw, FULL, [prep])
    run.check(0, result)
    run.check(0, perturbed)
    assert run.failed == 1

    latent = result.final_latent.copy()
    latent[0, 0, 0] = float("nan")
    run.check(0, dataclasses.replace(result, final_latent=latent))
    assert run.failed == 2


def test_calibration_kernel_runs_no_fiaedit_code():
    # the host-speed correction assumes a change to fiaedit cannot move it
    tracer = bt.Tracer()
    with tracer.traced_op(0):
        worker.calibration_kernel()
    assert tracer.spans == [] and not tracer.missing
