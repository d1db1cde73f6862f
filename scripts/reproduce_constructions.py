#!/usr/bin/env python3
"""Reproduce the hand constructions and the worked three-point run.

Builds the tightness instance (supported solutions miss the p - eps bound),
the maximization counterexample, and the three-point worked instance; runs
the grid and bisection algorithms on them; verifies every guarantee in both
directions; and writes instance/report JSON plus biobjective plot CSVs.

Usage: python scripts/reproduce_constructions.py [--out-dir OUT]
"""

import argparse
import csv
import os
import sys
from fractions import Fraction

from wsapprox import (
    Direction,
    ExplicitInstance,
    GuaranteeFamily,
    ObjectiveVector,
    Solution,
    approximate_biobjective,
    approximate_grid,
    compute_bounds,
    exact_solver,
    gen_max_counterexample,
    gen_tightness_min,
    pareto_front,
    support_certificates,
    verify_approximation,
    verify_max_impossibility,
)
from wsapprox.cli import main as cli_main

F = Fraction


def worked_instance() -> ExplicitInstance:
    return ExplicitInstance(
        Direction.MIN,
        2,
        (
            Solution("a", ObjectiveVector.of(1, 8)),
            Solution("b", ObjectiveVector.of(2, 2)),
            Solution("c", ObjectiveVector.of(8, 1)),
        ),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/constructions")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    print("== worked three-point instance ==")
    inst = worked_instance()
    bounds = compute_bounds(inst)
    grid_run = approximate_grid(exact_solver(inst), bounds, 2)
    bisect_run = approximate_biobjective(exact_solver(inst), bounds, 2)
    print(f"grid:   P = {sorted(grid_run.result_ids())}, ws_calls = {grid_run.ws_calls}")
    print(f"bisect: P = {sorted(bisect_run.result_ids())}, ws_calls = {bisect_run.ws_calls}")
    assert grid_run.ws_calls == 7 and bisect_run.ws_calls == 3

    print("\n== tightness construction (p = 2, M = 4, eps = 1/2) ==")
    tight = gen_tightness_min(2, 4)
    code = cli_main(
        ["generate", "tightness-min", "--p", "2", "--M", "4",
         "--out", os.path.join(args.out_dir, "tightness.json")]
    )
    supported = support_certificates(tight)
    print(f"pareto front: {sorted(pareto_front(tight))}")
    print(f"supported:    {sorted(supported)}")
    deficit = GuaranteeFamily.multi_factor_raw(1, F(3, 2), 2)
    report = verify_approximation(supported, tight, deficit)
    print(f"supported vs sum bound 3/2: ok = {report.ok} "
          f"(violated at {[v.target_id for v in report.violations]})")
    run = approximate_grid(exact_solver(tight), compute_bounds(tight), F(1, 2))
    passing = GuaranteeFamily.multi_factor(1, F(1, 2), 2)
    print(f"grid output vs sum bound 5/2: ok = "
          f"{verify_approximation(run.result_ids(), tight, passing).ok}")

    print("\n== maximization counterexample (p = 2, M = 100) ==")
    max_inst = gen_max_counterexample(2, 100)
    code |= cli_main(
        ["generate", "max-counterexample", "--p", "2", "--M", "100",
         "--out", os.path.join(args.out_dir, "max_counterexample.json")]
    )
    print(f"supported: {sorted(support_certificates(max_inst))}")
    print(f"unsupported center defeats factor M-1 everywhere off-peak: "
          f"{verify_max_impossibility(max_inst)}")

    print("\n== plot export for the tightness grid run ==")
    report_path = os.path.join(args.out_dir, "tightness_grid_report.json")
    code |= cli_main(
        [
            "approximate",
            "--algorithm",
            "grid",
            "--instance",
            os.path.join(args.out_dir, "tightness.json"),
            "--epsilon",
            "1/2",
            "--cells",
            "--out",
            report_path,
        ]
    )
    code |= cli_main(
        ["export-plot", "--from-report", report_path, "--out-dir", args.out_dir]
    )
    cells_csv = os.path.join(args.out_dir, "cells.csv")
    with open(cells_csv, "r", encoding="utf-8", newline="") as handle:
        cells = sum(1 for _ in csv.reader(handle)) - 1  # data rows, after the header
    print(f"wrote points.csv and cells.csv ({cells} cells) under {args.out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
