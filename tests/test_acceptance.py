"""Acceptance suite: every promised guarantee, checked with exact arithmetic.

One test per criterion; each prints a single PASS line with its coverage
counts (run with ``pytest tests/test_acceptance.py -v -s``).  All checks are
zero-tolerance rational comparisons; random inputs are fully seeded, so the
suite is deterministic.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from wsapprox import (
    GuaranteeFamily,
    WeightVector,
    adversarial_solver,
    approximate_biobjective,
    approximate_grid,
    approximate_with_ptas,
    compute_bounds,
    exact_solver,
    enumerate_graph_solutions,
    factor_vector,
    gen_max_counterexample,
    gen_random_explicit,
    gen_random_graph,
    gen_tightness_min,
    pareto_front,
    support_certificates,
    verify_approximation,
)
from wsapprox.algorithms import expected_grid_calls, exponent_cap
from wsapprox.cli import main as cli_main
from wsapprox.instances import GraphKind, canonical_dumps, instance_text

from reference import image_of, ptas_family, reference_solver, solve_explicit_exact

F = Fraction

EPSILONS = [F(1, 4), F(1), F(2)]
SIGMAS = [F(1), F(3, 2), F(2)]
REPS = {2: 14, 3: 7, 4: 3}
U_BUDGET = {2: 40, 3: 10, 4: 6}
N_MAX = {2: 25, 3: 18, 4: 12}


def _value_high(eps_prime: Fraction, budget: int) -> Fraction:
    cap = (1 + eps_prime) ** budget
    return min(F(10), cap)


def _build_grid_sweep():
    runs = []
    seed = 1000
    for p in (2, 3, 4):
        for epsilon in EPSILONS:
            for sigma in SIGMAS:
                eps_prime = epsilon / (sigma * p)
                high = _value_high(eps_prime, U_BUDGET[p])
                for _ in range(REPS[p]):
                    seed += 1
                    rng = random.Random(seed)
                    n = rng.randint(3, N_MAX[p])
                    inst = gen_random_explicit(p, n, 1, high, seed=seed)
                    solver = adversarial_solver(inst, sigma)
                    run = approximate_grid(solver, compute_bounds(inst), epsilon)
                    runs.append((p, epsilon, sigma, inst, run))
    return runs


@pytest.fixture(scope="module")
def grid_sweep():
    return _build_grid_sweep()


def test_criterion_1_multifactor_guarantee(grid_sweep):
    """Adversarial grid runs are multi-factor covered for every feasible point."""
    assert len(grid_sweep) >= 200
    for p, epsilon, sigma, inst, run in grid_sweep:
        family = GuaranteeFamily.multi_factor(sigma, epsilon, p)
        report = verify_approximation(run.result_ids(), inst, family)
        assert report.ok, (p, epsilon, sigma, report.violations[:1])
    print(
        f"\ncriterion 1 PASS: {len(grid_sweep)} adversarial grid runs "
        "multi-factor covered (p in 2..4, eps in {1/4,1,2}, sigma in {1,3/2,2})"
    )


def test_criterion_2_uniform_guarantee(grid_sweep):
    """The same runs satisfy the single-vector bound sigma*p + eps everywhere."""
    for p, epsilon, sigma, inst, run in grid_sweep:
        family = GuaranteeFamily.uniform(sigma, epsilon, p)
        assert verify_approximation(run.result_ids(), inst, family).ok
    print(f"\ncriterion 2 PASS: {len(grid_sweep)} runs re-verified under the uniform bound")


def test_criterion_3_exact_call_count(grid_sweep):
    """ws_calls equals the grid-size formula exactly (ladder length for p=2)."""
    for p, epsilon, sigma, inst, run in grid_sweep:
        assert run.ws_calls == expected_grid_calls(run.plan.u)
        assert run.plan.eps_prime == epsilon / (sigma * p)
        if p == 2:
            assert run.ws_calls == run.plan.u[0] + run.plan.u[1] + 1
    print(f"\ncriterion 3 PASS: call counts match the formula on {len(grid_sweep)} runs")


def test_criterion_4_sigma_efficiency(grid_sweep):
    """Every answer sigma-approximates every feasible solution in some objective."""
    checked = 0
    for p, epsilon, sigma, inst, run in grid_sweep:
        answers = {a.solution_id: a.image for a in run.answers}
        for image in answers.values():
            for s in inst.solutions:
                assert any(image[i] <= sigma * s.image[i] for i in range(p))
            checked += 1
    print(f"\ncriterion 4 PASS: sigma-efficiency of {checked} distinct answers, zero violations")


def _bisection_sweep():
    for index in range(200):
        rng = random.Random(5000 + index)
        n = rng.randint(1, 30)
        high = rng.choice([F(4), F(10), F(30)])
        yield EPSILONS[index % 3], gen_random_explicit(2, n, 1, high, seed=5000 + index)


def test_criterion_5_biobjective_bisection():
    """Bisection output is a {(1,2+eps),(2+eps,1)}-approximation, never uses
    more calls than the ladder, and respects the tree-size bound."""
    total = 0
    for epsilon, inst in _bisection_sweep():
        total += 1
        run = approximate_biobjective(exact_solver(inst), compute_bounds(inst), epsilon)
        family = GuaranteeFamily.multi_factor(1, epsilon, 2)
        assert verify_approximation(run.result_ids(), inst, family).ok
        assert run.ws_calls <= run.gamma_count == run.u1 + run.u2 + 1
        k, h = run.two_child_nodes, run.tree_height
        assert run.tree_nodes <= 2 * k + 1 + 2 * (k + 1) * h
    from wsapprox import ExplicitInstance, Direction, Solution, ObjectiveVector

    worked = ExplicitInstance(
        Direction.MIN,
        2,
        (
            Solution("a", ObjectiveVector.of(1, 8)),
            Solution("b", ObjectiveVector.of(2, 2)),
            Solution("c", ObjectiveVector.of(8, 1)),
        ),
    )
    run = approximate_biobjective(exact_solver(worked), compute_bounds(worked), 2)
    assert {s.image.values for s in run.result} == {(F(1), F(8)), (F(8), F(1))}
    assert run.ws_calls == 3
    print(f"\ncriterion 5 PASS: {total} bisection runs verified; worked instance uses 3 calls")


def test_criterion_6_tightness(tmp_path):
    """Supported solutions miss the deficit bound p - eps; the grid with the
    same eps passes the multi-factor bound p + eps."""
    cases = 0
    for p in (2, 3):
        for epsilon in (F(1, 2), F(1)):
            big_m = math.ceil(p / epsilon)
            inst = gen_tightness_min(p, big_m)
            supported = support_certificates(inst)
            deficit = GuaranteeFamily.multi_factor_raw(1, p - epsilon, p)
            assert not verify_approximation(supported, inst, deficit).ok
            uniform_deficit = GuaranteeFamily.uniform_raw(p - epsilon, p)
            assert not verify_approximation(supported, inst, uniform_deficit).ok
            run = approximate_grid(exact_solver(inst), compute_bounds(inst), epsilon)
            passing = GuaranteeFamily.multi_factor(1, epsilon, p)
            assert verify_approximation(run.result_ids(), inst, passing).ok
            cases += 1
    # The same failure is observable through the CLI as exit code 1.
    inst_file = tmp_path / "tight.json"
    inst_file.write_text(canonical_dumps(instance_text(gen_tightness_min(2, 4), 0)))
    ids_file = tmp_path / "ids.json"
    ids_file.write_text(json.dumps(sorted(support_certificates(gen_tightness_min(2, 4)))))
    code = cli_main(
        [
            "verify",
            "--instance",
            str(inst_file),
            "--solutions",
            str(ids_file),
            "--family",
            "multifactor",
            "--sum-bound",
            "3/2",
            "--out",
            str(tmp_path / "v.json"),
        ]
    )
    assert code == 1
    print(f"\ncriterion 6 PASS: {cases} tightness cases fail p-eps and pass p+eps")


def test_criterion_7_maximization_impossibility(tmp_path):
    """The maximization construction defeats every supported point, and the
    CLI refuses maximization instances with exit code 4.

    Both halves of the claim are decided by the general oracles: the axis
    points are exactly the supported set, and that set reaches the uniform
    bound M but nothing below it, because each axis point misses the center
    by a factor of M in every objective but its own peak."""
    checked = 0
    for p in (2, 3, 4):
        for big_m in (2, 100, 10**6):
            inst = gen_max_counterexample(p, big_m)
            axis = {f"x{k}" for k in range(1, p + 1)}
            supported = support_certificates(inst)
            assert supported.keys() == axis
            assert verify_approximation(supported, inst, GuaranteeFamily.uniform_raw(big_m, p)).ok
            below = GuaranteeFamily.uniform_raw(big_m - F(1, 10**9), p)
            report = verify_approximation(supported, inst, below)
            assert not report.ok
            assert [v.target_id for v in report.violations] == ["xtilde"]
            factors = sorted([F(1)] + [F(big_m)] * (p - 1))
            assert sorted(report.violations[0].best_beta.values) == factors
            center = image_of(inst, "xtilde")
            for sid in axis:
                beta = factor_vector(image_of(inst, sid), center, inst.direction)
                assert sorted(beta.values) == factors
            checked += 1
    inst_file = tmp_path / "max.json"
    inst_file.write_text(canonical_dumps(instance_text(gen_max_counterexample(2, 100), 0)))
    for algorithm in ("grid", "bisect", "ptas"):
        code = cli_main(
            [
                "approximate",
                "--algorithm",
                algorithm,
                "--instance",
                str(inst_file),
                "--epsilon",
                "1",
            ]
        )
        assert code == 4
    print(f"\ncriterion 7 PASS: {checked} constructions defeat the supported set; "
          "CLI exits 4 on maximization")


def test_criterion_8_weight_shift_equivalence():
    """Scalarized optimizer sets are invariant under min-exponent shifts."""
    total = 100
    for index in range(total):
        rng = random.Random(8000 + index)
        p = rng.choice([2, 3])
        inst = gen_random_explicit(p, rng.randint(2, 20), 1, 9, seed=8000 + index)
        bounds = compute_bounds(inst)
        eps_prime = F(rng.randint(1, 12), 12)
        step = 1 + eps_prime
        u = [exponent_cap(bounds.lower[j], bounds.upper[j], step) for j in range(p)]
        exponents = [rng.randint(0, u[j] + 2) for j in range(p)]
        shift = min(exponents)

        def weight(exps):
            return WeightVector(
                tuple(1 / (bounds.lower[j] * step ** exps[j]) for j in range(p))
            )

        def argmin_set(wv):
            values = {s.id: wv.scalarize(s.image) for s in inst.solutions}
            best = min(values.values())
            return {sid for sid, v in values.items() if v == best}, best

        ids, best = argmin_set(weight(exponents))
        ids_shifted, best_shifted = argmin_set(weight([e - shift for e in exponents]))
        assert ids == ids_shifted
        assert best_shifted == best * step**shift
    print(f"\ncriterion 8 PASS: optimizer sets equal under min-shift on {total} draws")


def test_criterion_9_oracle_cross_checks():
    """Supported solutions are nondominated, and every support certificate's
    weight reproduces the certified optimum through the exact solver."""
    instances = []
    for p in (2, 3):
        for epsilon in (F(1, 2), F(1)):
            instances.append(gen_tightness_min(p, math.ceil(p / epsilon)))
    for p in (2, 3, 4):
        for big_m in (2, 100, 10**6):
            instances.append(gen_max_counterexample(p, big_m))
    from wsapprox import Direction

    for seed in range(20):
        direction = Direction.MAX if seed % 4 == 0 else Direction.MIN
        instances.append(
            gen_random_explicit(2, 3 + seed % 12, 1, 8, seed=9000 + seed, direction=direction)
        )
    for seed in range(6):
        instances.append(gen_random_explicit(3, 4 + seed, 1, 6, seed=9100 + seed))
    for seed in range(2):
        graph = gen_random_graph(5, 8, 2, 1, 4, seed=9200 + seed, kind=GraphKind.SHORTEST_PATH)
        instances.append(enumerate_graph_solutions(graph))

    certified = 0
    for inst in instances:
        certs = support_certificates(inst)
        assert frozenset(certs) <= pareto_front(inst)
        for sid, cert in certs.items():
            answer = solve_explicit_exact(inst, cert.weight)
            assert answer.scalar == cert.weight.scalarize(image_of(inst, sid))
            certified += 1
    print(
        f"\ncriterion 9 PASS: supported within pareto on {len(instances)} instances, "
        f"{certified} certificates re-solved"
    )


def test_criterion_10_ptas_wrapper():
    """The PTAS wrapper meets excess sum p + eps with escape bound 1 + tau."""
    total = 0
    for epsilon, tau in ((F(1), F(1, 4)), (F(2), F(1, 2))):
        family = ptas_family(2, epsilon, tau)
        assert family.bound == 2 + epsilon
        assert family.sigma == 1 + tau
        for seed in range(15):
            inst = gen_random_explicit(2, 4 + seed, 1, 10, seed=10_000 + seed)
            bounds = compute_bounds(inst)
            run = approximate_with_ptas(adversarial_solver(inst, 1 + tau), bounds, epsilon)
            assert verify_approximation(run.result_ids(), inst, family).ok
            total += 1
    print(f"\ncriterion 10 PASS: {total} adversarial PTAS runs covered at sum bound p+eps")


def test_integer_kernel_matches_fraction_reference(grid_sweep):
    """The grid and bisection sweeps issue the same calls and get the same
    answers when every solve goes to the Fraction reference backend."""
    for p, epsilon, sigma, inst, run in grid_sweep:
        ref = approximate_grid(reference_solver(inst, sigma), compute_bounds(inst), epsilon)
        assert ref.answers == run.answers
        assert ref.ws_calls == run.ws_calls
    bisections = 0
    for epsilon, inst in _bisection_sweep():
        bounds = compute_bounds(inst)
        run = approximate_biobjective(exact_solver(inst), bounds, epsilon)
        ref = approximate_biobjective(reference_solver(inst), bounds, epsilon)
        assert ref.probes == run.probes
        assert ref.ws_calls == run.ws_calls
        bisections += 1
    print(
        f"\nkernel PASS: {len(grid_sweep)} grid and {bisections} bisection runs give "
        "the Fraction reference's answers and call counts"
    )
