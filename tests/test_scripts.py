"""Smoke tests: each experiment script runs against the package and writes its outputs."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from wsapprox.instances import SCHEMA_VERSION

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
    )


def test_reproduce_constructions(tmp_path):
    result = run_script("reproduce_constructions.py", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for name in (
        "tightness.json",
        "max_counterexample.json",
        "tightness_grid_report.json",
        "points.csv",
        "cells.csv",
    ):
        assert (tmp_path / name).is_file(), name
    u = json.loads((tmp_path / "tightness_grid_report.json").read_text())["u"]
    printed = re.search(r"cells\.csv \((\d+) cells\)", result.stdout)
    assert printed and int(printed.group(1)) == math.prod(u_j + 1 for u_j in u)


def test_run_guarantee_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    result = run_script("run_guarantee_sweep.py", "--runs", "3", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["schema_version"] == SCHEMA_VERSION


def test_compare_outputs_finds_no_difference_against_its_own_tree():
    result = run_script(
        "compare_outputs.py", "--parent-src", str(ROOT / "src"), "--size", "tiny", "--seeds", "5"
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines == [
        f"{name} seed 5: 0 differences"
        for name in ("grid-p3", "oracle-p3", "p2-report", "graph-p2")
    ] + ["hand-written: 0 differences"]
