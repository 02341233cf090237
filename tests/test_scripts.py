"""Smoke tests: every experiment script runs end to end on its stock grid."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from fiaedit.ablation import parse_report

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name: str, *args: str) -> None:
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")


@pytest.mark.parametrize(
    "name, cells",
    [
        ("run_component_grid.py", 6),
        ("run_fij_placement.py", 3),
        ("run_noise_modes.py", 3),
        ("run_sigma_sweep.py", 8),
    ],
)
def test_sweep_script_writes_a_full_report(monkeypatch, tmp_path, capsys, name, cells):
    run_script(monkeypatch, name, "--out", str(tmp_path))
    report = parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    assert len(report.rows) == cells
    assert all(row.status == "ok" for row in report.rows)
    assert (tmp_path / "report.txt.timings").is_file()
    assert f"report written to {tmp_path / 'report.txt'}" in capsys.readouterr().out


def test_steering_script_runs_one_seed(monkeypatch, capsys):
    run_script(monkeypatch, "run_steering_check.py", "--seeds", "0")
    assert "/1 seeds" in capsys.readouterr().out
