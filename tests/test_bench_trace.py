"""The benchmark's tracer resolves and observes every target on real runs.

``benchmark/bench_tracer.py`` reports a target it cannot wrap, or whose
result it cannot read, as missing and carries on; this test turns either
into a failure.  fiaedit is called through module attributes, the lookup
the tracer patches.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from fiaedit import ablation, codec, config, engine, fixtures, model

_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "bench_tracer.py"

CONFIG = """
model.channels = 12
schedule.steps = 2
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_tracer", module)
    spec.loader.exec_module(module)
    return module


def test_no_trace_target_is_missing_on_an_edit_and_a_grid():
    bench_tracer = _load_tracer()
    cfg = config.parse_config(CONFIG)
    image, _ = fixtures.load_fixture("blob16")
    tracer = bench_tracer.Tracer()
    with tracer.traced_op("edit"):
        vm = model.VelocityModel(cfg.make_model_config())
        request = config.build_edit_request(cfg, codec.encode(image, cfg.codec_patch))
        engine.run_edit(vm, request)
    with tracer.traced_op("grid"):
        report = ablation.run_ablation(cfg, ablation.parse_grid("fri_mode=off,freq"))
    assert [row.status for row in report.rows] == ["ok", "ok"]
    assert not tracer.missing
    assert not tracer.observer_errors
    observed = [s for s in tracer.spans if s.name == "fia.build_target_overrides"]
    assert observed and all(s.attrs for s in observed)
    assert {s.op for s in observed} == {"edit", "grid"}
