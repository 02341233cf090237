"""Grid runner over the constraint and stepping knobs, with text reports.

A grid names axes and values ("filter_sigma=0.2,0.9;fij_enabled=true,false");
cells are the cartesian product in axis order.  Every cell runs the same
pinned synthetic fixture, and no axis touches what a source pass computes,
so the cells run in lockstep through one engine loop that evaluates the
source once per step for all of them.  A fault in what every cell shares
refuses the whole grid; a failed cell is recorded without stopping the
sweep, and the report writes its metrics with ``repr``, so each float reads
back exactly.  The grid's wall time goes to a separate ``.timings`` sidecar
because it is the one non-reproducible output.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, replace

from .codec import decode
from .config import _SCHEMA, RunConfig, _parse_int, build_run, with_overrides
from .engine import EditRequest, EditRunError, run_edits
from .errors import ConfigError
from .fixtures import load_fixture
from .metrics import METRIC_COLUMNS, compute_report

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


def _key_axis(key: str):
    """The axis setting config ``key`` alone, its value parsed as in a config."""
    attr, parse = _SCHEMA[key]
    axis = key.partition(".")[2]
    return lambda value: {attr: parse(value, axis)}


# grid axis -> the RunConfig fields one of its values sets; raises
# ConfigError for a value of the wrong form.  Every axis sets constraint or
# noise-mode fields only, which run_ablation's lockstep rests on
_GRID_AXES = {
    "fri_mode": _fri_mode_fields,
    "fij_enabled": _key_axis("fia.fij_enabled"),
    "noise_mode": _key_axis("edit.noise_mode"),
    "filter_sigma": _key_axis("fia.filter_sigma"),
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
            # a report's delta line separates its pairs with whitespace
            if value.split() != [value]:
                raise ConfigError(f"grid value {value!r} of axis {name!r} holds whitespace")
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


@dataclass(frozen=True)
class AblationReport:
    seed: int
    fixture: str
    axes: tuple[str, ...]
    rows: tuple[AblationRow, ...]
    wall_s: float = 0.0  # the whole grid's; not part of the text form


def _error_row(delta: tuple[tuple[str, str], ...], exc: Exception) -> AblationRow:
    return AblationRow(
        delta=delta, status="error", error=f"{type(exc).__name__}: {exc}".splitlines()[0]
    )


def run_ablation(
    base: RunConfig, grid: GridSpec, fixture: str = "blob16"
) -> AblationReport:
    """Run every grid cell against the fixture; a fault the cells share raises.

    A failed cell gets an error row.  The cells run in lockstep: per step, one
    model call holds the shared source pass, every live cell's target probe
    and the cells' constrained passes.
    """
    start = time.perf_counter()
    image, mask = load_fixture(fixture)
    cells = grid.cells()
    model, shared = build_run(base, image, len(cells))

    rows: dict[int, AblationRow] = {}
    reqs: dict[int, EditRequest] = {}
    for i, delta in enumerate(cells):
        try:
            cfg = apply_cell(base, delta)
        except Exception as exc:
            rows[i] = _error_row(delta, exc)
            continue
        reqs[i] = replace(shared, fia=cfg.make_fia(), noise_mode=cfg.noise_mode())

    results = run_edits(model, list(reqs.values())) if reqs else []
    for i, result in zip(reqs, results):
        if isinstance(result, EditRunError):
            rows[i] = _error_row(cells[i], result)
            continue
        # a finished run's latent is finite and has the encoded fixture's
        # shape, and every fixture's grid and mask suit every metric
        edited = decode(result.final_latent, base.codec_patch)
        report = compute_report(edited, image, mask)
        rows[i] = AblationRow(delta=cells[i], status="ok", metrics=report.columns())

    return AblationReport(
        seed=base.edit_seed,
        fixture=fixture,
        axes=grid.axis_names,
        rows=tuple(rows[i] for i in range(len(cells))),
        wall_s=time.perf_counter() - start,
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


def format_table(report: AblationReport) -> str:
    """A fixed-width table: one column per axis, then the metric columns.

    A failed cell shows its error in place of the metrics.
    """
    values = [[value for _, value in row.delta] for row in report.rows]
    widths = [max(map(len, column)) for column in zip(report.axes, *values)]
    header = [name.rjust(width) for name, width in zip(report.axes, widths)]
    lines = [" ".join(header + [f"{name:>12}" for name in METRIC_COLUMNS])]
    for row, row_values in zip(report.rows, values):
        cells = [value.rjust(width) for value, width in zip(row_values, widths)]
        if row.status == "ok":
            cells += [f"{row.metrics[m]:12.6f}" for m in METRIC_COLUMNS]
        else:
            cells.append(f"{row.status}: {row.error}")
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def format_timings(report: AblationReport) -> str:
    """The grid's one wall time: its cells run in lockstep, not one by one."""
    return (
        f"schema=ablation-timings/2\ncells={len(report.rows)}\nwall_s={report.wall_s:.6f}\n"
    )


def write_report(report: AblationReport, out_dir: str) -> str:
    """Write ``report.txt`` and its ``.timings`` sidecar; return the report path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    with open(path + ".timings", "w", encoding="utf-8") as fh:
        fh.write(format_timings(report))
    return path

