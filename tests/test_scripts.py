"""Smoke tests: every script under scripts/ runs end to end on its stock inputs."""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from conftest import report_entries

from fiaedit import steering
from fiaedit.ablation import AblationReport, AblationRow
from fiaedit.errors import EditRunError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# stock grid -> its cell count; the test ids keep the names these cases had
# when each grid was a script of its own
GRID_CELLS = {"component_grid": 6, "fij_placement": 3, "noise_modes": 3, "sigma_sweep": 8}


def run_script(path: Path, out_dir: Path) -> str:
    """Run ``path --out out_dir`` as ``__main__``; return what it printed."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(sys, "argv", [str(path), "--out", str(out_dir)])
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def check_grid(out_dir: Path, stdout: str, name: str) -> None:
    path = out_dir / name / "report.txt"
    entries = report_entries(path.read_text(encoding="utf-8"))
    cells = GRID_CELLS[name]
    assert entries["cells"] == str(cells)
    assert [entries[f"cell.{i}.status"] for i in range(cells)] == ["ok"] * cells
    assert (out_dir / name / "report.txt.timings").is_file()
    assert f"report written to {path}" in stdout


def check_experiments(out_dir: Path, stdout: str) -> None:
    for name in GRID_CELLS:
        check_grid(out_dir, stdout, name)
    assert "injection improved background preservation on 7/7 seeds" in stdout


# script -> the check of what it wrote and printed; a script with no entry fails
CHECKS = {"run_experiments.py": check_experiments}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_script_runs_end_to_end(tmp_path, path):
    assert path.name in CHECKS, f"no smoke check for scripts/{path.name}"
    CHECKS[path.name](tmp_path, run_script(path, tmp_path))


@pytest.fixture(scope="module")
def stock_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("experiments")
    return out_dir, run_script(SCRIPTS / "run_experiments.py", out_dir)


@pytest.mark.parametrize(
    "name", list(GRID_CELLS), ids=lambda name: f"run_{name}.py-{GRID_CELLS[name]}"
)
def test_sweep_script_writes_a_full_report(stock_run, name):
    check_grid(*stock_run, name)


def test_steering_script_runs_one_seed(monkeypatch, tmp_path):
    monkeypatch.setattr(steering, "STEERING_SEEDS", (0,))
    stdout = run_script(SCRIPTS / "run_experiments.py", tmp_path)
    assert stdout.rstrip().endswith("/1 seeds")


def test_a_failed_steering_arm_is_an_edit_run_error(monkeypatch):
    rows = (
        AblationRow((("fij_enabled", "true"),), "ok", {"mse": 0.1}),
        AblationRow((("fij_enabled", "false"),), "error", error="EditRunError: boom"),
    )
    report = AblationReport(seed=0, fixture="blob16", axes=("fij_enabled",), rows=rows)
    monkeypatch.setattr(steering, "run_ablation", lambda cfg, grid: report)
    with pytest.raises(
        EditRunError, match=r"steering arm \(\('fij_enabled', 'false'\),\) failed: EditRunError: boom"
    ):
        steering.run_steering_trial(0)
