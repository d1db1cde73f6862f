"""Self-tests of the benchmark on its tiny workload sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_metric_prints_with_its_unit(name, trace):
    result, iterations = run.run(name, seed=1, seconds=0, trace=bool(trace), size="tiny")
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0, [it.errors for it in iterations]
    assert result["attempted"] >= len(iterations) * 2
    assert {m: e["unit"] for m, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_last_stdout_line_is_the_result():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "graph-p2",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric, entry in result["metrics"].items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {entry['unit']}")
                   for line in lines[:-1])


def test_removed_output_solution_is_caught(tmp_path):
    mods = run.import_package()
    inst, report = str(tmp_path / "inst.json"), str(tmp_path / "report.json")
    assert run.call_cli(mods, workloads._explicit(inst, 3, 20, "1", "10", 5)) == 0
    argv = ("approximate", "--algorithm", "grid", "--instance", inst,
            "--epsilon", "1", "--out", report)
    assert run.call_cli(mods, argv) == 0
    data = checks.read_json(report)
    assert checks.check_grid(data, checks.read_instance(inst)) == []
    assert len(data["solutions"]) > 1
    del data["solutions"][0]
    assert checks.check_grid(data, checks.read_instance(inst)) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-p3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_changed_graph_answers_are_caught(tmp_path):
    workload = workloads.build("graph-p2", 1, "tiny", str(tmp_path))
    _, mods, failed = run.setup(workload)
    assert failed == 0
    digests = run.load_digests()
    it = run.run_sequence(mods, workload, run.Checker(1, "tiny", digests))
    assert it.failed == 0 and it.digests
    wrong = {"tiny:1": {name: "0" * 16 for name in it.digests}}
    it = run.run_sequence(mods, workload, run.Checker(1, "tiny", wrong))
    assert it.failed == len(it.digests)
