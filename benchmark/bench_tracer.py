"""Outside-in tracer: spans around fiaedit's public functions, per-layer metrics.

The tracer wraps each function of ``TARGETS`` at every binding inside the
``fiaedit`` package that refers to it, because a caller looks a function up
through its own module (``fiaedit.fia`` calls ``fri_fuse`` through
``fiaedit.fia.fri_fuse``).  Methods are wrapped on their class.  Each call
records a span: name, start, end, the enclosing span and the op it belongs
to.  Spans stay in memory until the run ends.  ``uninstall`` puts every
original back, so a traced run and an untraced run execute the same code.

A target that no longer exists, or whose result can no longer be read, is
recorded in ``Tracer.missing``; every metric that needs it is then reported
as missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int | None  # index of the enclosing span in the span list
    op: object  # op id the span belongs to; None outside ops
    attrs: dict | None = None  # counts read from the call's result


def _observe_run_edit(fn):
    def observe(args, kwargs, trace):
        return {"steps": len(trace.records)}

    return observe


def _observe_overrides(fn):
    """Count applied and attempted override sites from the returned HookPlan."""
    signature = inspect.signature(fn)

    def observe(args, kwargs, plan):
        bound = signature.bind(*args, **kwargs).arguments
        cfg, topology = bound["cfg"], bound["topology"]
        kinds = Counter(site[1].value for site in plan.overrides)
        return {
            "self_applied": kinds["self"],
            "self_attempted": len(topology.self_sites()) if cfg.fri_enabled else 0,
            "cross_applied": kinds["cross"],
        }

    return observe


def _observe_ablation(fn):
    def observe(args, kwargs, report):
        return {
            "cells": len(report.rows),
            "cells_failed": sum(row.status != "ok" for row in report.rows),
        }

    return observe


# (span name, defining module, attribute or Class.method, observer factory)
TARGETS = (
    ("engine.run_edit", "fiaedit.engine", "run_edit", _observe_run_edit),
    ("schedule.draw_step_noise", "fiaedit.schedule", "draw_step_noise", None),
    ("schedule.interpolate_source", "fiaedit.schedule", "interpolate_source", None),
    ("schedule.reconstruct_target_state", "fiaedit.schedule", "reconstruct_target_state", None),
    ("schedule.euler_step", "fiaedit.schedule", "euler_step", None),
    ("model.init", "fiaedit.model", "VelocityModel.__init__", None),
    ("model.velocity", "fiaedit.model", "VelocityModel.velocity", None),
    ("fia.constrained_velocity_pair", "fiaedit.fia", "constrained_velocity_pair", None),
    ("fia.build_target_overrides", "fiaedit.fia", "build_target_overrides", _observe_overrides),
    ("spectral.fri_fuse", "fiaedit.spectral", "fri_fuse", None),
    ("spectral.make_gaussian_lowpass", "fiaedit.spectral", "make_gaussian_lowpass", None),
    ("prompts.embed_prompt", "fiaedit.prompts", "embed_prompt", None),
    ("codec.encode", "fiaedit.codec", "encode", None),
    ("codec.decode", "fiaedit.codec", "decode", None),
    ("metrics.compute_report", "fiaedit.metrics", "compute_report", None),
    ("ablation.run_ablation", "fiaedit.ablation", "run_ablation", _observe_ablation),
    ("config.parse_config", "fiaedit.config", "parse_config", None),
    ("config.with_overrides", "fiaedit.config", "with_overrides", None),
)


def _resolve(module_name: str, attr: str):
    """(owner, name, original) of a target; raises if it no longer exists."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path and name not in vars(owner):
        raise AttributeError(f"{attr} is not defined on the class itself")
    return owner, name, getattr(owner, name)


def _bindings(owner, name: str, original) -> list[tuple[object, str]]:
    """Every place a caller can look ``original`` up: class attribute or module globals."""
    if inspect.isclass(owner):
        return [(owner, name)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fiaedit" or mod_name.startswith("fiaedit.")):
            continue
        found += [(mod, key) for key, value in vars(mod).items() if value is original]
    return found


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket traced ops."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.observer_errors: list[str] = []
        self.op: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for span_name, module_name, attr, observer in self.targets:
            try:
                owner, name, original = _resolve(module_name, attr)
            except (ImportError, AttributeError):
                self.missing.add(span_name)
                continue
            observe = observer(original) if observer else None
            wrapper = self._wrap(span_name, original, observe)
            for holder, key in _bindings(owner, name, original):
                self._patched.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    @contextlib.contextmanager
    def traced_op(self, op):
        """Wrappers installed, and spans tagged with ``op``, inside the block."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.op = None

    def _wrap(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                try:
                    span.attrs = observe(args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.missing.add(name)
                    self.observer_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: Tracer, op_seconds: dict[object, float], setup_op: object = "setup"
) -> dict[str, float | None]:
    """Per-layer metrics over the traced ops named in ``op_seconds``.

    Calls, total and self times are summed over spans of those ops.  The
    set-up metrics use the median span of the ``setup_op`` spans.  A metric
    is None when a span it needs could not be installed or observed.
    """
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    counts: Counter = Counter()
    setup: dict[str, list[int]] = defaultdict(list)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.op in op_seconds:
            calls[span.name] += 1
            total_ns[span.name] += span.end - span.start
            self_ns[span.name] += own
            counts.update(span.attrs or {})
        elif span.op == setup_op:
            setup[span.name].append(span.end - span.start)

    n_ops = len(op_seconds)
    op_ns = 1e9 * sum(op_seconds.values())
    steps = counts["steps"]
    self_attempted = counts["self_attempted"]
    observed = {name for name, *_ in tracer.targets} - tracer.missing

    def setup_ms(name):
        return statistics.median(setup[name]) / 1e6 if setup[name] else 0.0

    def per_call(name, scale):
        return lambda: _div(total_ns[name], calls[name]) / scale

    def self_per_step_ms(name):
        return lambda: _div(self_ns[name], steps) / 1e6

    def share(name):
        return lambda: _div(total_ns[name], op_ns)

    def calls_per_op(name):
        return lambda: _div(calls[name], n_ops)

    edit, velocity, cvp = "engine.run_edit", "model.velocity", "fia.constrained_velocity_pair"
    overrides, noise = "fia.build_target_overrides", "schedule.draw_step_noise"
    fuse, lowpass = "spectral.fri_fuse", "spectral.make_gaussian_lowpass"
    embed, report, abl = "prompts.embed_prompt", "metrics.compute_report", "ablation.run_ablation"
    codec = ("codec.encode", "codec.decode")
    algebra = (
        "schedule.interpolate_source",
        "schedule.reconstruct_target_state",
        "schedule.euler_step",
    )
    # (metric, spans it needs, value); a self time needs every child it subtracts
    table = (
        ("engine.run_edit.self_ms_per_step", (edit, velocity, cvp, noise) + algebra,
         self_per_step_ms(edit)),
        ("engine.steps_per_op", (edit,), lambda: _div(steps, n_ops)),
        ("schedule.draw_step_noise.calls_per_step", (edit, noise),
         lambda: _div(calls[noise], steps)),
        ("schedule.draw_step_noise.us_per_call", (noise,), per_call(noise, 1e3)),
        ("schedule.algebra.us_per_step", (edit,) + algebra,
         lambda: _div(sum(total_ns[n] for n in algebra), steps) / 1e3),
        ("model.velocity.calls_per_step", (edit, velocity), lambda: _div(calls[velocity], steps)),
        ("model.velocity.calls_per_op", (velocity,), calls_per_op(velocity)),
        ("model.velocity.ms_per_call", (velocity,), per_call(velocity, 1e6)),
        ("model.velocity.share", (velocity,), share(velocity)),
        ("model.init_ms", ("model.init",), lambda: setup_ms("model.init")),
        ("fia.constrained_velocity_pair.self_ms_per_step", (edit, cvp, velocity, overrides),
         self_per_step_ms(cvp)),
        ("fia.build_target_overrides.self_ms_per_step", (edit, overrides, fuse, lowpass),
         self_per_step_ms(overrides)),
        ("fia.self_overrides.applied_per_op", (overrides,),
         lambda: _div(counts["self_applied"], n_ops)),
        ("fia.self_overrides.skipped_per_op", (overrides,),
         lambda: _div(self_attempted - counts["self_applied"], n_ops)),
        ("fia.self_overrides.applied_ratio", (overrides,),
         lambda: _div(counts["self_applied"], self_attempted)),
        ("fia.cross_overrides.applied_per_op", (overrides,),
         lambda: _div(counts["cross_applied"], n_ops)),
        ("spectral.fri_fuse.calls_per_op", (fuse,), calls_per_op(fuse)),
        ("spectral.fri_fuse.us_per_call", (fuse,), per_call(fuse, 1e3)),
        ("spectral.fri_fuse.share", (fuse,), share(fuse)),
        ("spectral.make_gaussian_lowpass.calls_per_op", (lowpass,), calls_per_op(lowpass)),
        ("spectral.make_gaussian_lowpass.us_per_call", (lowpass,), per_call(lowpass, 1e3)),
        ("prompts.embed_prompt.calls_per_op", (embed,), calls_per_op(embed)),
        ("prompts.embed_prompt.ms_per_op", (embed,), lambda: _div(total_ns[embed], n_ops) / 1e6),
        ("codec.encode_decode.ms_per_op", codec,
         lambda: _div(sum(total_ns[n] for n in codec), n_ops) / 1e6),
        ("metrics.compute_report.ms_per_call", (report,), per_call(report, 1e6)),
        ("ablation.run_ablation.self_ms_per_cell",
         (abl, "config.with_overrides", edit, embed, report, "model.init") + codec,
         lambda: _div(self_ns[abl], counts["cells"]) / 1e6),
        ("ablation.cells_failed", (abl,), lambda: float(counts["cells_failed"])),
        ("config.parse_config.ms", ("config.parse_config",),
         lambda: setup_ms("config.parse_config")),
    )
    return {
        name: (fn() if all(dep in observed for dep in deps) else None)
        for name, deps, fn in table
    }
