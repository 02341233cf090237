"""Grid runner over the constraint and stepping knobs, with text reports.

A grid names axes and values ("filter_sigma=0.2,0.9;fij_enabled=true,false");
cells are the cartesian product in axis order.  Every cell runs the same
pinned synthetic fixture, failed cells are recorded without stopping the
sweep, and the report round-trips losslessly through its text form.  Wall
times go to a separate ``.timings`` sidecar because they are the one
non-reproducible output.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .codec import decode, encode
from .config import (
    _NOISE_MODES,
    RunConfig,
    _parse_bool,
    _parse_choice,
    _parse_float,
    _parse_int,
    with_overrides,
)
from .engine import EditRequest, run_edit
from .errors import ConfigError
from .fixtures import load_fixture
from .metrics import MetricReport, compute_report
from .model import VelocityModel
from .prompts import embed_prompt

REPORT_SCHEMA = "ablation-report/1"


def _fri_mode_fields(value: str) -> dict[str, object]:
    if value == "off":
        return {"fia_fri_enabled": False}
    if value in ("freq", "add"):
        return {"fia_fri_enabled": True, "fia_fri_mode": value}
    raise ConfigError(f"fri_mode value {value!r} not in off/add/freq")


def _block_range_fields(value: str) -> dict[str, object]:
    if value == "auto":
        return {"fia_fij_block_lo": -1, "fia_fij_block_hi": -1}
    lo, _, hi = value.partition("-")
    return {
        "fia_fij_block_lo": _parse_int(lo, "fij_block_range"),
        "fia_fij_block_hi": _parse_int(hi, "fij_block_range"),
    }


# grid axis -> the RunConfig fields one of its values sets; raises
# ConfigError for a value of the wrong form
_GRID_AXES = {
    "fri_mode": _fri_mode_fields,
    "fij_enabled": lambda v: {"fia_fij_enabled": _parse_bool(v, "fij_enabled")},
    "noise_mode": lambda v: {
        "edit_noise_mode": _parse_choice(tuple(_NOISE_MODES))(v, "noise_mode")
    },
    "filter_sigma": lambda v: {"fia_filter_sigma": _parse_float(v, "filter_sigma")},
    "fij_block_range": _block_range_fields,
}


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def cells(self) -> list[tuple[tuple[str, str], ...]]:
        names = self.axis_names
        value_lists = [values for _, values in self.axes]
        return [
            tuple(zip(names, combo)) for combo in itertools.product(*value_lists)
        ]


def parse_grid(spec: str) -> GridSpec:
    """Parse "axis=v1,v2;axis=v1" into a grid, validating axes and values.

    Every value must have its axis's form; whether a well-formed value makes
    a valid run (a positive sigma, a block range inside the model) is a
    per-cell matter, reported in the cell's row.
    """
    axes: list[tuple[str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid axis {part!r} is not 'name=v1,v2,...'")
        name, _, raw_values = part.partition("=")
        name = name.strip()
        if name not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis {name!r}; valid: {tuple(_GRID_AXES)}")
        if name in seen:
            raise ConfigError(f"duplicate grid axis {name!r}")
        seen.add(name)
        values = tuple(v.strip() for v in raw_values.split(",") if v.strip())
        if not values:
            raise ConfigError(f"grid axis {name!r} has no values")
        for value in values:
            _GRID_AXES[name](value)
        axes.append((name, values))
    if not axes:
        raise ConfigError("grid spec is empty")
    return GridSpec(axes=tuple(axes))


def apply_cell(cfg: RunConfig, delta: tuple[tuple[str, str], ...]) -> RunConfig:
    """Overlay one grid cell's settings onto a base config."""
    overrides: dict[str, object] = {}
    for axis, value in delta:
        overrides.update(_GRID_AXES[axis](value))
    return with_overrides(cfg, **overrides)


@dataclass(frozen=True)
class AblationRow:
    delta: tuple[tuple[str, str], ...]
    status: str
    metrics: dict[str, float] = field(default_factory=dict)
    error: str = ""
    wall_s: float = 0.0


@dataclass(frozen=True)
class AblationReport:
    seed: int
    fixture: str
    axes: tuple[str, ...]
    rows: tuple[AblationRow, ...]


_METRIC_GETTERS = {
    "mse": lambda r: r.mse,
    "psnr": lambda r: r.psnr,
    "ssim": lambda r: r.ssim,
    "ssd": lambda r: r.spectral_structure_distance,
}


def selected_metric_values(report: MetricReport, select: tuple[str, ...]) -> dict[str, float]:
    return {name: float(_METRIC_GETTERS[name](report)) for name in select}


def build_edit_request(cfg: RunConfig, source_latent) -> EditRequest:
    if not cfg.prompts_source or not cfg.prompts_target:
        raise ConfigError("prompts.source and prompts.target are required")
    d_model = cfg.model_d_model
    return EditRequest(
        source_latent=source_latent,
        p_src=embed_prompt(cfg.prompts_source, d_model, cfg.prompts_seed),
        p_tar=embed_prompt(cfg.prompts_target, d_model, cfg.prompts_seed),
        schedule=cfg.make_schedule(),
        guidance=cfg.make_guidance(),
        fia=cfg.make_fia(),
        seed=cfg.edit_seed,
        noise_mode=cfg.noise_mode(),
        snapshot_stride=cfg.edit_snapshot_stride,
    )


def run_ablation(
    base: RunConfig, grid: GridSpec, fixture: str = "blob16", jobs: int = 1
) -> AblationReport:
    """Run every grid cell against the fixture; never stop on a failed cell."""
    image, mask = load_fixture(fixture)
    expected_channels = 3 * base.codec_patch**2
    if base.model_channels != expected_channels:
        raise ConfigError(
            f"model.channels={base.model_channels} but codec.patch="
            f"{base.codec_patch} produces {expected_channels} latent channels"
        )
    latent = encode(image, base.codec_patch)
    model = VelocityModel(base.make_model_config())
    select = base.selected_metrics()
    cells = grid.cells()

    def run_cell(delta: tuple[tuple[str, str], ...]) -> AblationRow:
        start = time.perf_counter()
        try:
            cell_cfg = apply_cell(base, delta)
            trace = run_edit(model, build_edit_request(cell_cfg, latent))
            edited = decode(trace.final_latent, cell_cfg.codec_patch)
            report = compute_report(edited, image, mask)
            return AblationRow(
                delta=delta,
                status="ok",
                metrics=selected_metric_values(report, select),
                wall_s=time.perf_counter() - start,
            )
        except Exception as exc:
            return AblationRow(
                delta=delta,
                status="error",
                error=f"{type(exc).__name__}: {exc}".splitlines()[0],
                wall_s=time.perf_counter() - start,
            )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = tuple(pool.map(run_cell, cells))
    else:
        rows = tuple(run_cell(delta) for delta in cells)

    return AblationReport(
        seed=base.edit_seed, fixture=fixture, axes=grid.axis_names, rows=rows
    )


def format_report(report: AblationReport) -> str:
    """Deterministic text form; wall times intentionally excluded."""
    lines = [
        f"schema={REPORT_SCHEMA}",
        f"seed={report.seed}",
        f"fixture={report.fixture}",
        f"axes={','.join(report.axes)}",
        f"cells={len(report.rows)}",
    ]
    for i, row in enumerate(report.rows):
        delta = " ".join(f"{k}={v}" for k, v in row.delta)
        lines.append(f"cell.{i}.delta={delta}")
        lines.append(f"cell.{i}.status={row.status}")
        if row.status == "ok":
            for name, value in row.metrics.items():
                lines.append(f"cell.{i}.{name}={value!r}")
        else:
            lines.append(f"cell.{i}.error={row.error}")
    return "\n".join(lines) + "\n"


def format_timings(report: AblationReport) -> str:
    lines = [f"schema=ablation-timings/1", f"cells={len(report.rows)}"]
    for i, row in enumerate(report.rows):
        lines.append(f"cell.{i}.wall_s={row.wall_s:.6f}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> AblationReport:
    """Inverse of :func:`format_report` (wall times come back as zero)."""
    entries: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        entries[key] = value
    if entries.get("schema") != REPORT_SCHEMA:
        raise ConfigError(f"unsupported report schema {entries.get('schema')!r}")
    n_cells = int(entries["cells"])
    axes = tuple(a for a in entries["axes"].split(",") if a)
    rows = []
    for i in range(n_cells):
        delta = tuple(
            tuple(pair.split("=", 1))
            for pair in entries[f"cell.{i}.delta"].split()
        )
        status = entries[f"cell.{i}.status"]
        metrics = {}
        error = ""
        if status == "ok":
            for name in _METRIC_GETTERS:
                key = f"cell.{i}.{name}"
                if key in entries:
                    metrics[name] = float(entries[key])
        else:
            error = entries.get(f"cell.{i}.error", "")
        rows.append(
            AblationRow(delta=delta, status=status, metrics=metrics, error=error)
        )
    return AblationReport(
        seed=int(entries["seed"]),
        fixture=entries["fixture"],
        axes=axes,
        rows=tuple(rows),
    )
