"""Command-line surface: edit, ablate, metrics, selftest.

Exit codes: 0 success, 1 configuration or usage error, 2 I/O error,
3 numeric failure (non-finite values detected mid-run).  All outputs are
byte-reproducible for a fixed seed except ``*.timings`` sidecars, which
carry wall-clock measurements and are excluded from reproducibility checks;
an ablation's sidecar (``ablation-timings/2``) holds one wall time for the
whole grid, whose cells run in lockstep.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import sys

from .ablation import parse_grid, run_ablation, write_report
from .codec import ImageBuffer, decode, read_mask, read_ppm, write_mask, write_ppm
from .config import RunConfig, build_run, load_config, parse_config, with_overrides
from .engine import EditTrace, run_edit
from .errors import ConfigError, FiaEditError, NumericFailure
from .fixtures import load_fixture
from .metrics import METRIC_COLUMNS, compute_report

TRACE_SCHEMA = "edit-trace/1"


def _format_trace(trace: EditTrace, cfg: RunConfig) -> str:
    fia = cfg.make_fia()
    cutoff = fia.resolved_cutoff(cfg.schedule_steps) if fia.fij_enabled else -1
    lines = [
        f"schema={TRACE_SCHEMA}",
        f"steps={cfg.schedule_steps}",
        f"seed={cfg.edit_seed}",
        f"noise_mode={cfg.edit_noise_mode}",
        f"fij_cutoff={cutoff}",
    ]
    for r in trace.records:
        lines.append(f"step.{r.step_index}.sigma={r.sigma_t!r}")
        lines.append(f"step.{r.step_index}.vdelta_norm={r.vdelta_norm!r}")
        lines.append(f"step.{r.step_index}.fij={int(r.fij_active)}")
        if r.latent is not None:
            norm = float((r.latent**2).sum() ** 0.5)
            lines.append(f"step.{r.step_index}.latent_norm={norm!r}")
    lines.append(f"final.norm={float((trace.final_latent ** 2).sum() ** 0.5)!r}")
    return "\n".join(lines) + "\n"


def _edit_to(cfg: RunConfig, image: ImageBuffer, out: str) -> None:
    """Edit ``image`` per ``cfg``; write the edited PPM to ``out`` and its ``.trace``."""
    model, req = build_run(cfg, image)
    trace = run_edit(model, req)
    write_ppm(decode(trace.final_latent, cfg.codec_patch), out)
    with open(out + ".trace", "w", encoding="utf-8") as fh:
        fh.write(_format_trace(trace, cfg))


def cmd_edit(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_overrides(cfg, edit_seed=args.seed)
    if args.snapshot_stride is not None:
        cfg = with_overrides(cfg, edit_snapshot_stride=args.snapshot_stride)
    _edit_to(cfg, read_ppm(args.image), args.out)
    print(f"wrote {args.out} and {args.out}.trace")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_overrides(cfg, edit_seed=args.seed)
    grid = parse_grid(args.grid)
    report = run_ablation(cfg, grid, fixture=args.fixture)
    report_path = write_report(report, args.out)
    failed = sum(1 for r in report.rows if r.status != "ok")
    print(f"wrote {report_path} ({len(report.rows)} cells, {failed} failed)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    a = read_ppm(args.image_a)
    b = read_ppm(args.image_b)
    mask = read_mask(args.mask) if args.mask else None
    report = compute_report(a, b, mask)
    for attr in METRIC_COLUMNS.values():
        print(f"{attr}={getattr(report, attr):.6g}")
    return 0


_SELFTEST_CONFIG = """
model.channels = 12
model.blocks_dual = 4
model.blocks_cross_only = 2
model.d_model = 8
model.n_heads = 2
model.seed = 11
schedule.steps = 6
guidance.mu_src = 1.5
guidance.mu_tar = 3.0
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
edit.noise_mode = reused
codec.patch = 2
"""


def _selftest_pass(root: str, seed: int) -> list[str]:
    """One pass of the artifact-producing suite; returns artifact paths."""
    os.makedirs(root, exist_ok=True)
    cfg = parse_config(_SELFTEST_CONFIG)
    cfg = with_overrides(cfg, edit_seed=seed)
    image, mask = load_fixture("blob16")
    source_path = os.path.join(root, "source.ppm")
    mask_path = os.path.join(root, "mask.ppm")
    write_ppm(image, source_path)
    write_mask(mask, mask_path)

    edited_path = os.path.join(root, "edited.ppm")
    _edit_to(cfg, image, edited_path)

    grid = parse_grid("fri_mode=off,freq;fij_enabled=true,false")
    report_path = write_report(run_ablation(cfg, grid, fixture="blob16"), root)

    metric_report = compute_report(read_ppm(edited_path), read_ppm(source_path), None)
    with open(os.path.join(root, "metrics.txt"), "w", encoding="utf-8") as fh:
        for name, value in metric_report.columns().items():
            fh.write(f"{name}={value!r}\n")

    return [
        source_path,
        mask_path,
        edited_path,
        edited_path + ".trace",
        report_path,
        os.path.join(root, "metrics.txt"),
    ]


def run_selftest(out_dir: str, seed: int = 0) -> tuple[bool, list[str]]:
    """Run the artifact suite twice and diff every artifact byte for byte.

    Timing sidecars are skipped: they are the documented non-deterministic
    output.  Returns overall success and one PASS/FAIL line per artifact.
    """
    paths_a = _selftest_pass(os.path.join(out_dir, "a"), seed)
    paths_b = _selftest_pass(os.path.join(out_dir, "b"), seed)
    lines = []
    all_ok = True
    for pa, pb in zip(paths_a, paths_b):
        same = filecmp.cmp(pa, pb, shallow=False)
        all_ok &= same
        lines.append(f"{'PASS' if same else 'FAIL'} {os.path.basename(pa)}")
    return all_ok, lines


def cmd_selftest(args: argparse.Namespace) -> int:
    ok, lines = run_selftest(args.out, seed=args.seed if args.seed is not None else 0)
    for line in lines:
        print(line)
    print(f"selftest {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiaedit",
        description="Inversion-free frequency-interactive image editing, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_edit = sub.add_parser("edit", help="edit one PPM image per the config")
    p_edit.add_argument("image", metavar="SOURCE_PPM")
    p_edit.add_argument("--config", required=True)
    p_edit.add_argument("--out", required=True)
    p_edit.add_argument("--seed", type=int, default=None)
    p_edit.add_argument("--snapshot-stride", type=int, default=None)
    p_edit.set_defaults(func=cmd_edit)

    p_abl = sub.add_parser("ablate", help="run a config grid on a pinned fixture")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--grid", required=True)
    p_abl.add_argument("--out", required=True)
    p_abl.add_argument("--fixture", default="blob16")
    p_abl.add_argument("--seed", type=int, default=None)
    p_abl.set_defaults(func=cmd_ablate)

    p_met = sub.add_parser("metrics", help="compare two PPM images")
    p_met.add_argument("image_a")
    p_met.add_argument("image_b")
    p_met.add_argument("--mask", default=None)
    p_met.set_defaults(func=cmd_metrics)

    p_self = sub.add_parser("selftest", help="run the suite twice and diff artifacts")
    p_self.add_argument("--out", required=True)
    p_self.add_argument("--seed", type=int, default=None)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return 1
    cause: BaseException | None = exc
    while cause is not None:
        if isinstance(cause, NumericFailure):
            return 3
        if isinstance(cause, OSError):
            return 2
        cause = cause.__cause__
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (FiaEditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


def entrypoint() -> None:
    raise SystemExit(main())
