import itertools
import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from wsapprox import (
    Bounds,
    ContractViolation,
    Direction,
    ExplicitInstance,
    GuaranteeFamily,
    MaximizationUnsupported,
    ObjectiveVector,
    Solution,
    SolverHandle,
    WeightVector,
    adversarial_solver,
    approximate_biobjective,
    approximate_grid,
    approximate_with_ptas,
    compute_bounds,
    exact_solver,
    gen_random_explicit,
    gen_tightness_min,
    pareto_front,
    support_certificates,
    verify_approximation,
)
from wsapprox import algorithms, solvers
from wsapprox.algorithms import exponent_cap, expected_grid_calls, plan_grid

from conftest import any_instances, explicit_instances, with_front_midpoint
from reference import (
    cell_map_by_products,
    covers_disjunctive,
    exponent_cap_by_walk,
    grid_base,
    ptas_family,
    solve_explicit_exact,
    verify_by_fractions,
)

MIN, MAX = Direction.MIN, Direction.MAX
ov = ObjectiveVector.of
F = Fraction


def explicit(direction, *pairs):
    p = len(pairs[0][1])
    return ExplicitInstance(
        direction, p, tuple(Solution(sid, ObjectiveVector(tuple(img))) for sid, img in pairs)
    )


@pytest.fixture
def three_points():
    return explicit(MIN, ("a", (1, 8)), ("b", (2, 2)), ("c", (8, 1)))


def counted(inst, sigma=F(1)):
    """A handle on the package's own kernel for ``inst`` at ``sigma``, and
    the list of weights that kernel received, counted apart from any run."""
    kernel = solvers._kernel(inst, sigma)
    received = []

    def counting(weights):
        received.append(weights)
        return kernel(weights)

    return SolverHandle(inst, sigma, counting), received


class TestExponentCap:
    def test_exact_powers(self):
        assert exponent_cap(F(1), F(8), F(2)) == 3
        assert exponent_cap(F(1), F(7), F(2)) == 2
        assert exponent_cap(F(3), F(3), F(2)) == 0

    @given(st.integers(1, 50), st.integers(1, 400), st.integers(1, 10))
    def test_largest_valid_exponent(self, lo, hi_bump, step_num):
        low = F(lo, 7)
        high = low + F(hi_bump, 11)
        step = 1 + F(step_num, 13)
        u = exponent_cap(low, high, step)
        assert low * step**u <= high
        assert low * step ** (u + 1) > high

    @given(
        st.integers(1, 50),
        st.integers(1, 60),
        st.integers(1, 40),
        st.integers(0, 150),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=300)
    def test_matches_the_linear_walk(self, lo, step_num, step_den, k, nudge):
        # high lies on a power of the step or a hair to either side of it,
        # where a float estimate of u is most likely to be off by one.
        low = F(lo, 7)
        step = 1 + F(step_num, step_den)
        high = low * step**k + F(nudge, 10**9)
        assume(high >= low)
        assert exponent_cap(low, high, step) == exponent_cap_by_walk(low, high, step)

    @pytest.mark.parametrize("den", [3000, 6000])
    def test_long_ladder_settles_exactly(self, den):
        # u = 20726 and 41449: the walk takes seconds here, the estimate two powers.
        step = 1 + F(1, den)
        u = exponent_cap(F(1), F(1000), step)
        assert step**u <= 1000 < step ** (u + 1)


class TestGridWeights:
    def test_worked_example_bases_and_order(self, three_points):
        bounds = compute_bounds(three_points)
        weights = [entry.weight for entry in plan_grid(bounds, 2, 1).entries]
        bases = [tuple(1 / w for w in wv) for wv in weights]
        assert bases == [
            (F(1), F(1)),
            (F(1), F(2)),
            (F(1), F(4)),
            (F(1), F(8)),
            (F(2), F(1)),
            (F(4), F(1)),
            (F(8), F(1)),
        ]

    def test_degenerate_bounds_single_weight(self):
        bounds = Bounds((2, 3), (2, 3))
        weights = [entry.weight for entry in plan_grid(bounds, 1, 1).entries]
        assert len(weights) == 1
        assert weights[0].values == (F(1, 2), F(1, 3))

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([F(1, 4), F(1), F(2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_p2_count_is_ladder_length(self, span1, span2, epsilon):
        bounds = Bounds((1, 1), (1 + F(span1, 5), 1 + F(span2, 5)))
        plan = plan_grid(bounds, epsilon, 1)
        assert len(plan.entries) == plan.u[0] + plan.u[1] + 1

    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=3),
        st.sampled_from([F(1, 4), F(1), F(2)]),
        st.sampled_from([F(1), F(3, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_invert_their_corners(self, spans, epsilon, sigma):
        bounds = Bounds([F(1, 3)] * len(spans), [F(1, 3) + F(s, 7) for s in spans])
        plan = plan_grid(bounds, epsilon, sigma)
        for entry in plan.entries:
            assert entry.weight.values == tuple(
                1 / plan.corners[j][k_j] for j, k_j in enumerate(entry.exponents)
            )

    def test_every_entry_has_a_zero_exponent(self, three_points):
        plan = plan_grid(compute_bounds(three_points), F(1, 2), F(3, 2))
        assert all(min(e.exponents) == 0 for e in plan.entries)
        assert len(plan.entries) == expected_grid_calls(plan.u)

    def test_parameter_validation(self):
        bounds = Bounds((1, 1), (2, 2))
        with pytest.raises(ContractViolation):
            plan_grid(bounds, 0, 1)
        with pytest.raises(ContractViolation):
            plan_grid(bounds, 1, F(1, 2))
        three_objectives = exact_solver(gen_random_explicit(3, 4, 1, 4, seed=0))
        with pytest.raises(ContractViolation, match="bounds dimension differs from p"):
            approximate_grid(three_objectives, bounds, 1)

    def test_oversized_grid_refused(self):
        # p = 4 on [1, 1000] at eps = 1/3: u_j = 86, about 2.6e6 weights.
        bounds = Bounds((1, 1, 1, 1), (1000, 1000, 1000, 1000))
        with pytest.raises(ContractViolation, match="exceeds the limit"):
            plan_grid(bounds, F(1, 3), 1)

    def test_digit_blow_up_refused_before_any_power(self, three_points, monkeypatch):
        # On [1, 1000] at eps = 1/300, u = 4148 and step**u has 11,527 digits.
        def no_cap(*args):
            raise AssertionError("exponent_cap reached")

        monkeypatch.setattr(algorithms, "exponent_cap", no_cap)
        bounds = Bounds((1, 1), (1000, 1000))
        with pytest.raises(ContractViolation, match="digits"):
            plan_grid(bounds, F(1, 300), 1)
        with pytest.raises(ContractViolation, match="digits"):
            approximate_biobjective(exact_solver(three_points), bounds, F(1, 300))
        # A limit of 0 means none: nothing is refused.
        monkeypatch.setattr(algorithms.sys, "get_int_max_str_digits", lambda: 0)
        with pytest.raises(AssertionError, match="exponent_cap reached"):
            plan_grid(bounds, F(1, 300), 1)

    def test_grid_limit_is_inclusive(self, three_points, monkeypatch):
        bounds = compute_bounds(three_points)  # the worked example: 7 weights
        monkeypatch.setattr(algorithms, "MAX_GRID_CALLS", 7)
        assert len(plan_grid(bounds, 2, 1).entries) == 7
        monkeypatch.setattr(algorithms, "MAX_GRID_CALLS", 6)
        with pytest.raises(ContractViolation):
            plan_grid(bounds, 2, 1)

    def test_bisection_ladder_meets_the_exact_limit(self, three_points, monkeypatch):
        # Step 3/2 on [1, (3/2)^5]: the float cap estimates read 4.999..., so
        # the estimate admits the ladder, but the exact caps are (5, 5), whose
        # u1 + u2 + 1 = 11 rungs are the p = 2 grid's 11 weights.
        monkeypatch.setattr(algorithms, "MAX_GRID_CALLS", 10)
        bounds = Bounds((1, 1), (F(3, 2) ** 5, F(3, 2) ** 5))
        solver, received = counted(three_points)
        with pytest.raises(ContractViolation, match="grid of 11 weights exceeds the limit of 10"):
            approximate_biobjective(solver, bounds, 1)
        assert received == []
        monkeypatch.setattr(algorithms, "MAX_GRID_CALLS", 11)
        run = approximate_biobjective(solver, bounds, 1)
        assert run.gamma_count == 11
        assert len(received) == run.ws_calls

class TestApproximateGrid:
    def test_worked_example(self, three_points):
        run = approximate_grid(exact_solver(three_points), compute_bounds(three_points), 2)
        assert run.result_ids() == {"a", "b", "c"}
        assert run.ws_calls == 7
        assert run.plan.eps_prime == 1
        assert run.plan.u == (3, 3)

    def test_tightness_coverage(self):
        inst = gen_tightness_min(2, 4)
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), F(1, 2))
        family = GuaranteeFamily.multi_factor(1, F(1, 2), 2)
        assert verify_approximation(run.result_ids(), inst, family).ok

    def test_singleton_instance(self):
        inst = explicit(MIN, ("only", (2, 3)))
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), 1)
        assert run.result_ids() == {"only"}
        assert run.ws_calls == 1

    def test_max_direction_rejected(self, three_points):
        flipped = ExplicitInstance(MAX, 2, three_points.solutions)
        with pytest.raises(MaximizationUnsupported):
            approximate_grid(exact_solver(flipped), compute_bounds(flipped), 1)

    @pytest.mark.parametrize("p,sigma", [(2, F(1)), (2, F(2)), (3, F(3, 2))])
    def test_call_count_formula(self, p, sigma):
        inst = gen_random_explicit(p, 12, 1, 6, seed=17 * p)
        solver, received = counted(inst, sigma)
        run = approximate_grid(solver, compute_bounds(inst), F(3, 4))
        assert run.ws_calls == expected_grid_calls(run.plan.u)
        assert run.ws_calls == len(run.plan.entries) == len(received)

    def test_result_sorted_by_id(self):
        inst = gen_random_explicit(2, 9, 1, 9, seed=3)
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), 1)
        ids = [s.id for s in run.result]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_biobjective_grid_is_also_disjunctive(self, seed):
        # With an exact solver and p=2, the multi-factor guarantee collapses
        # to the two-vector disjunctive family {(1, 2+eps), (2+eps, 1)}.
        epsilon = [F(1, 2), F(1), F(2)][seed % 3]
        inst = gen_random_explicit(2, 12, 1, 15, seed=500 + seed)
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), epsilon)
        exact_family = GuaranteeFamily.multi_factor(1, epsilon, 2)
        for family in (exact_family, GuaranteeFamily.uniform(1, epsilon, 2)):
            assert verify_approximation(run.result_ids(), inst, family).ok
        pair = verify_by_fractions(run.result_ids(), inst, exact_family, covers_disjunctive)
        assert pair.ok

    def test_weights_issued_match_grid_weights(self, three_points):
        bounds = compute_bounds(three_points)
        received = []

        def recording_kernel(w):
            received.append(w)
            return solve_explicit_exact(three_points, w)

        run = approximate_grid(SolverHandle(three_points, F(1), recording_kernel), bounds, 2)
        planned = [entry.weight for entry in plan_grid(bounds, 2, 1).entries]
        assert received == planned
        assert [entry.weight for entry in run.plan.entries] == planned


class TestWeightShiftEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_min_shifted_weights_keep_optimizer_set(self, seed):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        inst = gen_random_explicit(p, rng.randint(2, 15), 1, 8, seed=100 + seed)
        bounds = compute_bounds(inst)
        eps_prime = F(rng.randint(1, 8), 8)
        step = 1 + eps_prime
        u = [exponent_cap(bounds.lower[j], bounds.upper[j], step) for j in range(p)]
        exponents = [rng.randint(0, u[j] + 1) for j in range(p)]
        shift = min(exponents)

        def weight(exps):
            return WeightVector(
                tuple(1 / (bounds.lower[j] * step ** exps[j]) for j in range(p))
            )

        w = weight(exponents)
        w_shifted = weight([e - shift for e in exponents])

        def argmin_set(wv):
            values = {s.id: wv.scalarize(s.image) for s in inst.solutions}
            best = min(values.values())
            return {sid for sid, v in values.items() if v == best}, best

        ids, best = argmin_set(w)
        ids_shifted, best_shifted = argmin_set(w_shifted)
        assert ids == ids_shifted
        assert best_shifted == best * step**shift


class TestPointwiseGuarantee:
    @pytest.mark.parametrize("sigma", [F(1), F(3, 2)])
    def test_every_cell_satisfies_the_factor_sum_bound(self, sigma):
        # For each lattice base b and any feasible image inside [b, (1+e')b],
        # the answer for w = 1/b has factor ratios summing to (1+e')*sigma*p.
        inst = gen_random_explicit(2, 6, 1, 4, seed=11)
        bounds = compute_bounds(inst)
        epsilon = F(1)
        eps_prime = epsilon / (sigma * 2)
        step = 1 + eps_prime
        u = [exponent_cap(bounds.lower[j], bounds.upper[j], step) for j in range(2)]
        solver = exact_solver(inst) if sigma == 1 else adversarial_solver(inst, sigma)
        for exps in itertools.product(range(u[0] + 1), range(u[1] + 1)):
            base = [bounds.lower[j] * step ** exps[j] for j in range(2)]
            weight = WeightVector(tuple(1 / b for b in base))
            answer = solver.solve(weight)
            for s in inst.solutions:
                if all(base[j] <= s.image[j] <= step * base[j] for j in range(2)):
                    ratio_sum = sum(
                        answer.image[j] / s.image[j] for j in range(2)
                    )
                    assert ratio_sum <= step * sigma * 2

    @given(
        st.sampled_from([2, 3]).flatmap(lambda p: explicit_instances(p=p, max_n=6, high=4)),
        st.sampled_from([F(1, 2), F(1), F(3)]),
        st.sampled_from([F(1), F(3, 2), F(2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_corner_table_matches_products(self, inst, epsilon, sigma):
        bounds = compute_bounds(inst)
        run = approximate_grid(adversarial_solver(inst, sigma), bounds, epsilon)
        step = 1 + run.plan.eps_prime
        assert run.plan.corners == tuple(
            tuple(low * step**k for k in range(u + 2)) for low, u in zip(bounds.lower, run.plan.u)
        )
        for entry in run.plan.entries:
            base = grid_base(bounds, step, entry.exponents)
            assert entry.weight == WeightVector(tuple(1 / b for b in base))
        assert run.cell_map() == cell_map_by_products(run, bounds)

    def test_cell_map_representatives_cover_their_cells(self, three_points):
        run = approximate_grid(exact_solver(three_points), compute_bounds(three_points), 2)
        cells = run.cell_map()
        assert cells, "expected a nonempty subdivision"
        reps = {s.id: s.image for s in run.result}
        for cell in cells:
            rep_image = reps[cell.solution_id]
            for s in three_points.solutions:
                inside = all(
                    cell.lower[j] <= s.image[j] <= cell.upper[j] for j in range(2)
                )
                if inside:
                    ratio_sum = sum(rep_image[j] / s.image[j] for j in range(2))
                    assert ratio_sum <= 2 * F(2)  # (1+eps')*sigma*p with eps'=1


class TestBiobjectiveBisection:
    def test_worked_example_trace(self, three_points):
        solver = exact_solver(three_points)
        run = approximate_biobjective(solver, compute_bounds(three_points), 2)
        assert {s.image.values for s in run.result} == {
            (F(1), F(8)),
            (F(8), F(1)),
        }
        assert run.ws_calls == 3
        assert run.gamma_count == 7
        assert [probe.index for probe in run.probes] == [1, 7, 4]
        assert run.probes[0].gamma == 8
        assert run.probes[2].gamma == 1
        assert run.tree_nodes == 1 and run.two_child_nodes == 0 and run.tree_height == 1

    def test_short_circuit_when_extremes_agree(self):
        inst = explicit(MIN, ("a", (1, 1)), ("b", (1, 2)))
        run = approximate_biobjective(exact_solver(inst), compute_bounds(inst), 2)
        assert run.result_ids() == {"a"}
        assert run.ws_calls == 2
        assert run.tree_nodes == 0 and run.tree_height == 0

    def test_both_extremes_retained_when_distinct(self):
        # One extreme (1,2+eps)-approximating the other must not evict it:
        # the evictee can be the only cover for points in its own cells.
        inst = gen_random_explicit(2, 13, 1, 10, seed=5013)
        run = approximate_biobjective(exact_solver(inst), compute_bounds(inst), 1)
        assert run.tree_nodes == 0  # extremes bracket the ladder, no exploration
        assert len(run.result) == 2
        family = GuaranteeFamily.multi_factor(1, 1, 2)
        assert verify_approximation(run.result_ids(), inst, family).ok

    def test_output_is_disjunctive_approximation(self):
        inst = gen_random_explicit(2, 20, 1, 30, seed=5)
        epsilon = F(1, 2)
        run = approximate_biobjective(exact_solver(inst), compute_bounds(inst), epsilon)
        family = GuaranteeFamily.multi_factor(1, epsilon, 2)
        assert verify_approximation(run.result_ids(), inst, family).ok

    def test_rejects_inexact_solver_and_wrong_dimension(self, three_points):
        bounds = compute_bounds(three_points)
        with pytest.raises(ContractViolation):
            approximate_biobjective(adversarial_solver(three_points, 2), bounds, 1)
        inst3 = gen_random_explicit(3, 4, 1, 4, seed=0)
        with pytest.raises(ContractViolation):
            approximate_biobjective(exact_solver(inst3), compute_bounds(inst3), 1)
        flipped = ExplicitInstance(MAX, 2, three_points.solutions)
        with pytest.raises(MaximizationUnsupported):
            approximate_biobjective(exact_solver(flipped), bounds, 1)

    @pytest.mark.parametrize("seed", range(15))
    def test_never_more_calls_than_the_grid(self, seed):
        # (epsilon, value_high): long ladders on [1, 25], shorter ones at
        # epsilon 3 and 10, down to one to three rungs on [1, 2], [1, 4], [1, 8].
        cases = [
            ([F(1, 4), F(1), F(2)][seed % 3], 25),
            (F(3), 2), (F(3), 4), (F(3), 25), (F(10), 8), (F(10), 25),
        ]
        for epsilon, high in cases:
            inst = gen_random_explicit(2, 12, 1, high, seed=300 + seed)
            solver, received = counted(inst)
            run = approximate_biobjective(solver, compute_bounds(inst), epsilon)
            assert received == [WeightVector.of(probe.gamma, 1) for probe in run.probes]
            indices = [probe.index for probe in run.probes]
            assert len(set(indices)) == len(indices) == run.ws_calls  # no rung solved twice
            assert run.ws_calls <= run.gamma_count
            assert run.ws_calls == (1 if run.gamma_count == 1 else 2 + run.tree_nodes)
            bound = 2 * run.two_child_nodes + 1 + 2 * (run.two_child_nodes + 1) * run.tree_height
            assert run.tree_nodes <= bound


class TestPtasWrapper:
    def test_family_arithmetic(self):
        fam = ptas_family(2, 1, F(1, 4))
        assert fam.bound == 3  # sigma*p + inner epsilon collapses to p + epsilon
        assert fam.sigma == F(5, 4)

    def test_inner_run_parameters(self):
        inst = gen_random_explicit(2, 8, 1, 6, seed=21)
        bounds = compute_bounds(inst)
        solver, received = counted(inst, 1 + F(1, 4))
        run = approximate_with_ptas(solver, bounds, 1)
        assert run.ws_calls == len(run.plan.entries) == len(received)
        assert run.plan.sigma == F(5, 4)
        assert run.plan.epsilon == F(1, 2)
        assert run.plan.eps_prime == F(1, 2) / (F(5, 4) * 2)

    def test_boundary_tau_rejected(self):
        inst = gen_random_explicit(2, 5, 1, 4, seed=2)
        bounds = compute_bounds(inst)
        for tau in (F(1, 2), F(0), F(2, 3)):
            with pytest.raises(ContractViolation):
                approximate_with_ptas(adversarial_solver(inst, 1 + tau), bounds, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_adversarial_runs_stay_covered(self, seed):
        inst = gen_random_explicit(2, 10, 1, 8, seed=400 + seed)
        bounds = compute_bounds(inst)
        run = approximate_with_ptas(adversarial_solver(inst, 1 + F(1, 4)), bounds, 1)
        assert verify_approximation(
            run.result_ids(), inst, ptas_family(2, 1, F(1, 4))
        ).ok


def scale_objectives(inst, scales):
    return ExplicitInstance(
        inst.direction,
        inst.p,
        tuple(
            Solution(s.id, ObjectiveVector(tuple(v * c for v, c in zip(s.image.values, scales))))
            for s in inst.solutions
        ),
    )


class TestObjectiveScaling:
    """Scaling objective j by c_j > 0 scales its bounds, and with them the
    grid's cell bases, by c_j, so every weighted sum is scaled by one
    positive constant and no algorithm can tell the instances apart."""

    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda p: st.tuples(
                explicit_instances(p=p, max_n=8, high=6),
                st.lists(
                    st.fractions(F(1, 9), 9, max_denominator=9),
                    min_size=p,
                    max_size=p,
                ),
            )
        ),
        st.sampled_from([F(1, 2), F(1), F(2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaled_instance_gets_the_same_answers(self, inst_and_scales, epsilon):
        inst, scales = inst_and_scales
        scaled = scale_objectives(inst, scales)
        for solver in (exact_solver, lambda i: adversarial_solver(i, F(3, 2))):
            original = approximate_grid(solver(inst), compute_bounds(inst), epsilon)
            rescaled = approximate_grid(solver(scaled), compute_bounds(scaled), epsilon)
            assert [a.solution_id for a in rescaled.answers] == [
                a.solution_id for a in original.answers
            ]
            assert rescaled.ws_calls == original.ws_calls
        if inst.p == 2:
            original = approximate_biobjective(exact_solver(inst), compute_bounds(inst), epsilon)
            rescaled = approximate_biobjective(
                exact_solver(scaled), compute_bounds(scaled), epsilon
            )
            assert [(pr.index, pr.answer.solution_id) for pr in rescaled.probes] == [
                (pr.index, pr.answer.solution_id) for pr in original.probes
            ]
            assert rescaled.result_ids() == original.result_ids()
            assert rescaled.ws_calls == original.ws_calls
            assert (rescaled.tree_nodes, rescaled.two_child_nodes, rescaled.tree_height) == (
                original.tree_nodes,
                original.two_child_nodes,
                original.tree_height,
            )


def permute_objectives(inst, order):
    return ExplicitInstance(
        inst.direction,
        inst.p,
        tuple(
            Solution(s.id, ObjectiveVector(tuple(s.image.values[j] for j in order)))
            for s in inst.solutions
        ),
    )


class TestObjectivePermutation:
    """Permuting the objectives permutes the bounds, the caps u_j and every
    grid exponent vector.  The plan's exponent set (some exponent is 0) is
    closed under permutation, so the grid issues the same weighted sums in
    another order; dominance and supportedness ignore the order of the
    objectives altogether."""

    @given(
        with_front_midpoint(any_instances).flatmap(
            lambda inst: st.tuples(st.just(inst), st.permutations(range(inst.p)))
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_oracles_ignore_the_order(self, inst_and_order):
        inst, order = inst_and_order
        permuted = permute_objectives(inst, order)
        assert pareto_front(permuted) == pareto_front(inst)
        certs, permuted_certs = support_certificates(inst), support_certificates(permuted)
        if "mid" in certs:  # ties with both ends under any weight it is optimal for
            assert certs["mid"].weak
        assert set(permuted_certs) == set(certs)
        assert {i for i, c in permuted_certs.items() if c.weak} == {
            i for i, c in certs.items() if c.weak
        }

    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda p: st.tuples(
                explicit_instances(p=p, max_n=6, high=6), st.permutations(range(p))
            )
        ),
        st.sampled_from([F(1, 2), F(1), F(2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_answer_set_ignores_the_order(self, inst_and_order, epsilon):
        inst, order = inst_and_order
        bounds = compute_bounds(inst)
        for entry in plan_grid(bounds, epsilon, 1).entries:
            best = solve_explicit_exact(inst, entry.weight).scalar
            assume(sum(entry.weight.scalarize(s.image) == best for s in inst.solutions) == 1)
        permuted = permute_objectives(inst, order)
        original = approximate_grid(exact_solver(inst), bounds, epsilon)
        reordered = approximate_grid(exact_solver(permuted), compute_bounds(permuted), epsilon)
        assert reordered.result_ids() == original.result_ids()
        assert reordered.ws_calls == original.ws_calls


# Validation refusals: input, exception type, message fragment.
REFUSALS = [
    pytest.param(
        lambda: exponent_cap(F(2), F(1), F(2)),
        ContractViolation,
        "need 0 < low <= high and step > 1",
        id="cap-low-above-high",
    ),
    pytest.param(
        lambda: exponent_cap(F(1), F(2), F(1)),
        ContractViolation,
        "need 0 < low <= high and step > 1",
        id="cap-step-one",
    ),
]


@pytest.mark.parametrize("build,error,fragment", REFUSALS)
def test_refuses_invalid_input(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
