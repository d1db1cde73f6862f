#!/usr/bin/env python3
"""Randomized guarantee sweep with a JSON summary report.

Runs the grid algorithm against the adversarial sigma-solver and the
biobjective bisection against the exact solver on seeded random instances,
verifies every output set with the brute-force oracle, and records call
counts (including how much the bisection saves over the full ladder).

Usage: python scripts/run_guarantee_sweep.py [--runs N] [--seed S] [--out FILE]
"""

import argparse
import random
import sys
from fractions import Fraction

from wsapprox import (
    GuaranteeFamily,
    adversarial_solver,
    approximate_biobjective,
    approximate_grid,
    compute_bounds,
    exact_solver,
    gen_random_explicit,
    verify_approximation,
)
from wsapprox.instances import SCHEMA_VERSION, canonical_dumps

F = Fraction

GRID_EPSILONS = [F(1, 4), F(1), F(2)]
GRID_SIGMAS = [F(1), F(3, 2), F(2)]


def run_grid_sweep(runs: int, seed: int) -> dict:
    stats = {"runs": 0, "verified": 0, "ws_calls": 0, "max_calls": 0}
    for index in range(runs):
        rng = random.Random(seed + index)
        p = rng.choice([2, 2, 3])
        epsilon = rng.choice(GRID_EPSILONS)
        sigma = rng.choice(GRID_SIGMAS)
        budget = 24 if p == 2 else 9
        eps_prime = epsilon / (sigma * p)
        high = min(F(10), (1 + eps_prime) ** budget)
        inst = gen_random_explicit(p, rng.randint(2, 18), 1, high, seed=seed + index)
        run = approximate_grid(adversarial_solver(inst, sigma), compute_bounds(inst), epsilon)
        family = GuaranteeFamily.multi_factor(sigma, epsilon, p)
        ok = verify_approximation(run.result_ids(), inst, family).ok
        stats["runs"] += 1
        stats["verified"] += int(ok)
        stats["ws_calls"] += run.ws_calls
        stats["max_calls"] = max(stats["max_calls"], run.ws_calls)
        if not ok:
            print(f"grid run {index}: GUARANTEE VIOLATED (p={p} eps={epsilon} sigma={sigma})")
    return stats


def run_bisect_sweep(runs: int, seed: int) -> dict:
    stats = {"runs": 0, "verified": 0, "ws_calls": 0, "ladder_size": 0}
    for index in range(runs):
        rng = random.Random(seed + index)
        epsilon = rng.choice(GRID_EPSILONS)
        inst = gen_random_explicit(
            2, rng.randint(1, 25), 1, rng.choice([F(5), F(20), F(50)]), seed=seed + index
        )
        run = approximate_biobjective(exact_solver(inst), compute_bounds(inst), epsilon)
        family = GuaranteeFamily.multi_factor(1, epsilon, 2)
        ok = verify_approximation(run.result_ids(), inst, family).ok
        stats["runs"] += 1
        stats["verified"] += int(ok)
        stats["ws_calls"] += run.ws_calls
        stats["ladder_size"] += run.gamma_count
        if not ok:
            print(f"bisect run {index}: GUARANTEE VIOLATED (eps={epsilon})")
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=150, help="runs per sweep")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args()

    grid = run_grid_sweep(args.runs, args.seed)
    bisect = run_bisect_sweep(args.runs, args.seed + 10_000)

    print(f"grid:   {grid['verified']}/{grid['runs']} verified, "
          f"{grid['ws_calls']} total solver calls (max {grid['max_calls']})")
    saved = bisect["ladder_size"] - bisect["ws_calls"]
    print(f"bisect: {bisect['verified']}/{bisect['runs']} verified, "
          f"{bisect['ws_calls']} calls vs {bisect['ladder_size']} ladder weights "
          f"({saved} saved)")

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "guarantee-sweep",
        "seed": args.seed,
        "grid": grid,
        "bisect": bisect,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(canonical_dumps(report))
        print(f"report written to {args.out}")
    failed = grid["verified"] != grid["runs"] or bisect["verified"] != bisect["runs"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
