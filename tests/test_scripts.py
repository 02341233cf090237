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
PACKAGE = SCRIPTS.parent / "src" / "fiaedit"
# stock grid -> its cell count; the test ids keep the names these cases had
# when each grid was a script of its own
GRID_CELLS = {"component_grid": 6, "fij_placement": 3, "noise_modes": 3, "sigma_sweep": 8}


def run_script(path: Path, *args: str) -> str:
    """Run ``path *args`` as ``__main__``; return what it printed."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(sys, "argv", [str(path), *args])
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def run_experiments(out_dir: Path) -> str:
    return run_script(SCRIPTS / "run_experiments.py", "--out", str(out_dir))


def check_grid(out_dir: Path, stdout: str, name: str) -> None:
    path = out_dir / name / "report.txt"
    entries = report_entries(path.read_text(encoding="utf-8"))
    cells = GRID_CELLS[name]
    assert entries["cells"] == str(cells)
    assert [entries[f"cell.{i}.status"] for i in range(cells)] == ["ok"] * cells
    assert (out_dir / name / "report.txt.timings").is_file()
    assert f"report written to {path}" in stdout


def check_experiments(out_dir: Path) -> None:
    stdout = run_experiments(out_dir)
    for name in GRID_CELLS:
        check_grid(out_dir, stdout, name)
    assert "injection improved background preservation on 7/7 seeds" in stdout


def check_line_counts(_: Path) -> None:
    header, *lines = run_script(SCRIPTS / "line_counts.py").splitlines()
    assert header.split() == ["path", "raw", "code", "docstring", "comment", "blank"]
    rows = {name: [int(n) for n in counts] for name, *counts in map(str.split, lines)}
    modules = {f"src/fiaedit/{path.name}": path for path in sorted(PACKAGE.glob("*.py"))}
    assert list(rows) == [*modules, "src/", "tests/", "scripts/"]
    for name, (raw, *parts) in rows.items():
        assert sum(parts) == raw, name
    for name, path in modules.items():
        assert rows[name][0] == path.read_bytes().count(b"\n")
    # the package is all of src/
    assert [sum(column) for column in zip(*(rows[name] for name in modules))] == rows["src/"]


# script -> the check that runs it and reads what it wrote and printed; a
# script with no entry fails
CHECKS = {"run_experiments.py": check_experiments, "line_counts.py": check_line_counts}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_script_runs_end_to_end(tmp_path, path):
    assert path.name in CHECKS, f"no smoke check for scripts/{path.name}"
    CHECKS[path.name](tmp_path)


def test_line_counts_split_a_module_by_kind():
    count_lines = runpy.run_path(str(SCRIPTS / "line_counts.py"))["count_lines"]
    text = (
        '"""Doc.\n\nMore."""\n'  # a module docstring with a blank line
        "\n"
        "import os  # a comment after code\n"
        "# a comment\n"
        "\n"
        "def f():\n"
        '    """One."""\n'
        '    return """not a\n'  # a string that is no docstring
        'docstring"""\n'
    )
    assert count_lines(text) == {"raw": 11, "code": 4, "docstring": 4, "comment": 1, "blank": 2}


@pytest.fixture(scope="module")
def stock_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("experiments")
    return out_dir, run_experiments(out_dir)


@pytest.mark.parametrize(
    "name", list(GRID_CELLS), ids=lambda name: f"run_{name}.py-{GRID_CELLS[name]}"
)
def test_sweep_script_writes_a_full_report(stock_run, name):
    check_grid(*stock_run, name)


def test_steering_script_runs_one_seed(monkeypatch, tmp_path):
    monkeypatch.setattr(steering, "STEERING_SEEDS", (0,))
    stdout = run_experiments(tmp_path)
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
