import math
import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from wsapprox import (
    ContractViolation,
    Direction,
    EnumerationLimit,
    ExplicitInstance,
    GraphKind,
    GuaranteeFamily,
    ObjectiveVector,
    Solution,
    approximate_grid,
    compute_bounds,
    enumerate_graph_solutions,
    exact_solver,
    factor_vector,
    gen_max_counterexample,
    gen_random_explicit,
    gen_tightness_min,
    pareto_front,
    support_certificates,
    verify_approximation,
)
from wsapprox import oracles
from wsapprox.oracles import _simplex_max, _support_certificate_lp

from conftest import (
    any_instances,
    biobjective_instances,
    enumerable_graphs,
    explicit_instances,
    rationals,
    time_limit,
    with_front_midpoint,
)
from reference import (
    front_certificates_by_fractions,
    image_of,
    on_front,
    pairwise_front,
    simplex_max_by_fractions,
    simplex_max_full_tableau,
    solve_explicit_exact,
    support_certificate_biobjective,
    unpruned_certificates,
    verify_by_fractions,
)

MIN, MAX = Direction.MIN, Direction.MAX
ov = ObjectiveVector.of
F = Fraction

SIGMAS = st.sampled_from([F(1), F(3, 2)])
EPSILONS = st.sampled_from([F(1, 10), F(1), F(4)])


def families(p):
    """Every family kind at sigma 1 and 3/2, with passing bounds sigma*p + eps
    and raw deficit bounds that leave targets uncovered."""
    deficits = st.sampled_from([F(1), F(3, 2), p - F(1, 2), F(p)])
    kinds = [
        st.builds(GuaranteeFamily.multi_factor, SIGMAS, EPSILONS, st.just(p)),
        st.builds(GuaranteeFamily.multi_factor_raw, SIGMAS, deficits, st.just(p)),
        st.builds(GuaranteeFamily.uniform, SIGMAS, EPSILONS, st.just(p)),
        st.builds(GuaranteeFamily.uniform_raw, deficits, st.just(p)),
    ]
    if p == 2:  # the exact biobjective guarantee {(1, 2+eps), (2+eps, 1)}
        kinds.append(st.builds(GuaranteeFamily.multi_factor, st.just(F(1)), EPSILONS, st.just(2)))
    return st.sampled_from(kinds).flatmap(lambda kind: kind)


@st.composite
def with_repeated_images(draw, instances):
    """Instances from ``instances`` plus one to three copies of their images
    under new ids "d1", "d2", ..., all in a drawn order, so that front
    images repeat away from each other."""
    inst = draw(instances)
    copies = draw(st.lists(st.sampled_from(inst.solutions), min_size=1, max_size=3))
    extra = tuple(Solution(f"d{i + 1}", s.image) for i, s in enumerate(copies))
    solutions = draw(st.permutations(inst.solutions + extra))
    return ExplicitInstance(inst.direction, inst.p, tuple(solutions))


@st.composite
def verification_cases(draw, min_ids=1, instances=with_front_midpoint(any_instances)):
    """(instance, solution ids, family) with at least ``min_ids`` ids."""
    inst = draw(instances)
    ids = draw(st.lists(st.sampled_from(inst.ids()), min_size=min_ids, unique=True))
    return inst, ids, draw(families(inst.p))


def explicit(direction, *pairs):
    p = len(pairs[0][1])
    return ExplicitInstance(
        direction, p, tuple(Solution(sid, ObjectiveVector(tuple(img))) for sid, img in pairs)
    )


@pytest.fixture
def three_points():
    return explicit(MIN, ("a", (1, 8)), ("b", (2, 2)), ("c", (8, 1)))


def cleared_rows(A, b):
    """Each row of A x <= b times the lcm of its denominators, in ints."""
    rows = []
    for row, rhs in zip(A, b):
        scale = math.lcm(*(v.denominator for v in row + [rhs]))
        rows.append([int(v * scale) for v in row + [rhs]])
    return [r[:-1] for r in rows], [r[-1] for r in rows]


def lp_outcome(simplex, A, b, c):
    """``simplex(A, b, c)``, or the text of the ContractViolation it raises."""
    try:
        return simplex(A, b, c)
    except ContractViolation as exc:
        return str(exc)


def simplex_in_fractions(A, b, c):
    """``_simplex_max``'s (X, d) as (x, c*x) in Fractions, x_j = X_j / d."""
    X, d = _simplex_max(A, b, c)
    x = [F(v, d) for v in X]
    return x, sum((cj * xj for cj, xj in zip(c, x)), F(0))


def cleared_lp(image, competitors, direction):
    """``_support_certificate_lp`` on images cleared by their common lcm,
    negated for MAX."""
    scale = math.lcm(*(v.denominator for o in competitors + [image] for v in o))
    sign = -1 if direction is MAX else 1

    def clear(o):
        return tuple(sign * int(v * scale) for v in o)

    return _support_certificate_lp(clear(image), [clear(o) for o in competitors], scale)


SMALL_RATIONALS = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
RIGHT_HAND_SIDES = st.one_of(st.just(F(0)), SMALL_RATIONALS.map(abs))  # half of them 0


@st.composite
def rational_lps(draw):
    """(A, b, c) with b >= 0: many zero right-hand sides (degenerate vertices),
    negative entries, and columns that nothing bounds (unbounded programs)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    A = [draw(st.lists(SMALL_RATIONALS, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(RIGHT_HAND_SIDES, min_size=m, max_size=m))
    c = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return A, b, c


# A degenerate LP whose third pivot ties: x4 enters, and rows 3 (slack basic)
# and 4 (x1 basic) both allow x4 = 0.  Bland's rule lets x1, the smaller
# basis index, leave, although its row comes later, and reaches
# x = (0, 0, 1/2, 1).  Breaking the tie by row order, or by the larger basis
# index, reaches the other optimal vertex (0, 0, 0, 1).
TIED_A = [[-1, 1, 2, -1], [-1, -2, 0, 2], [-2, 0, -1, 0], [1, 1, 0, 0]]
TIED_B = [0, 2, 0, 0]
TIED_C = [0, 1, 0, 1]


class TestSimplex:
    def test_simple_maximum(self):
        # max x1 + x2 s.t. x1 <= 3, x2 <= 2
        x, value = simplex_in_fractions([[1, 0], [0, 1]], [3, 2], [1, 1])
        assert value == 5 and x == [F(3), F(2)]

    def test_scaled_rows_keep_the_vertex(self):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6, then each row times 6
        x, value = simplex_in_fractions([[1, 2], [3, 1]], [4, 6], [1, 1])
        assert simplex_in_fractions([[6, 12], [18, 6]], [24, 36], [1, 1]) == (x, value)
        assert x == [F(8, 5), F(6, 5)] and value == F(14, 5)

    def test_negative_rhs_rejected(self):
        # -x1 <= -2 leaves the origin infeasible: there is no phase 1 to repair it
        with pytest.raises(ContractViolation):
            _simplex_max([[-1], [1]], [-2, 5], [1])

    def test_unbounded_detected(self):
        with pytest.raises(ContractViolation):
            _simplex_max([[-1]], [0], [1])

    def test_ratio_tie_goes_to_the_smaller_basis_index(self):
        x, value = simplex_in_fractions(TIED_A, TIED_B, TIED_C)
        fractions = [[F(v) for v in row] for row in TIED_A]
        reference = simplex_max_by_fractions(fractions, [F(v) for v in TIED_B], TIED_C)
        assert (x, value) == reference
        assert x == [F(0), F(0), F(1, 2), F(1)] and value == 1

    @given(rational_lps())
    @settings(max_examples=300, deadline=None)
    @example(([[F(-1), F(1)], [F(1), F(-1)]], [F(0), F(0)], [1, 1]))  # degenerate, unbounded
    def test_integer_pivots_match_fraction_pivots(self, lp):
        A, b, c = lp
        int_A, int_b = cleared_rows(A, b)
        assert lp_outcome(simplex_in_fractions, int_A, int_b, c) == lp_outcome(
            simplex_max_by_fractions, A, b, c
        )

    @given(rational_lps())
    @settings(max_examples=300, deadline=None)
    @example(([[F(-1), F(1)], [F(1), F(-1)]], [F(0), F(0)], [1, 1]))  # degenerate, unbounded
    @example(([[F(v) for v in row] for row in TIED_A], [F(v) for v in TIED_B], TIED_C))
    def test_compact_dictionary_matches_full_tableau(self, lp):
        # The same pivots leave the same ints at every nonbasic position, so
        # X and the final pivot d agree exactly, not only X / d.
        A, b, c = lp
        int_A, int_b = cleared_rows(A, b)
        # a wrong sign in the replaced column makes the pivots cycle forever
        with time_limit(5.0, AssertionError("no result within 5 s")):
            compact = lp_outcome(_simplex_max, int_A, int_b, c)
        assert compact == lp_outcome(simplex_max_full_tableau, int_A, int_b, c)


class TestParetoFront:
    def test_three_incomparable_points(self, three_points):
        assert pareto_front(three_points) == {"a", "b", "c"}

    def test_dominated_point_dropped(self):
        inst = explicit(MIN, ("a", (1, 1)), ("b", (2, 2)))
        assert pareto_front(inst) == {"a"}

    def test_tightness_center_is_nondominated(self):
        assert pareto_front(gen_tightness_min(2, 4)) == {"y1", "y2", "ytilde"}

    def test_duplicate_images_all_kept(self):
        inst = explicit(MIN, ("a", (1, 2)), ("b", (1, 2)), ("c", (3, 3)))
        assert pareto_front(inst) == {"a", "b"}

    def test_max_direction(self):
        inst = explicit(MAX, ("a", (1, 1)), ("b", (2, 2)))
        assert pareto_front(inst) == {"b"}

    @given(any_instances)
    @settings(max_examples=150, deadline=None)
    def test_sort_scan_matches_pairwise_scan(self, inst):
        assert pareto_front(inst) == pairwise_front(inst)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_max_front_on_wide_reciprocals(self, seed):
        # Values k/1000 clear, from their reciprocals, to ints of hundreds
        # of digits per objective.
        inst = gen_random_explicit(3, 150, 1, 1000, seed, direction=MAX)
        assert pareto_front(inst) == pairwise_front(inst)


class TestSupportedSet:
    def test_three_points_all_supported(self, three_points):
        assert set(support_certificates(three_points)) == {"a", "b", "c"}

    def test_tightness_center_unsupported(self):
        assert set(support_certificates(gen_tightness_min(2, 4))) == {"y1", "y2"}
        assert set(support_certificates(gen_tightness_min(3, 6))) == {"y1", "y2", "y3"}

    def test_max_counterexample_axis_points_supported(self):
        for m in (2, 100):
            assert set(support_certificates(gen_max_counterexample(2, m))) == {"x1", "x2"}
        assert set(support_certificates(gen_max_counterexample(3, 9))) == {"x1", "x2", "x3"}

    def test_weakly_supported_midpoint_flagged(self):
        inst = explicit(MIN, ("a", (1, 3)), ("b", (2, 2)), ("c", (3, 1)))
        certs = support_certificates(inst)
        assert set(certs) == {"a", "b", "c"}
        assert certs["b"].weak and not certs["a"].weak and not certs["c"].weak

    def test_weak_midpoint_p3(self):
        inst = explicit(
            MIN,
            ("a", (1, 1, 4)),
            ("b", (1, 4, 1)),
            ("c", (4, 1, 1)),
            ("center", (2, 2, 2)),
        )
        certs = support_certificates(inst)
        assert set(certs) == {"a", "b", "c", "center"}
        assert certs["center"].weak
        assert not certs["a"].weak

    def test_duplicate_images_share_support(self):
        inst = explicit(MIN, ("a", (1, 2)), ("b", (1, 2)), ("c", (4, 4)))
        assert set(support_certificates(inst)) == {"a", "b"}

    def test_witness_weights_at_least_one(self):
        for cert in support_certificates(gen_tightness_min(3, 6)).values():
            assert all(w >= 1 for w in cert.weight)

    @staticmethod
    def _assert_lp_matches_slope_intervals(inst):
        for s in inst.solutions:
            competitors = [o.image for o in inst.solutions if o.image.values != s.image.values]
            analytic = support_certificate_biobjective(s.image, competitors, inst.direction)
            lp = cleared_lp(s.image, competitors, inst.direction)
            assert (analytic is None) == (lp is None)
            if analytic is not None:
                assert analytic.weak == lp.weak

    @given(with_front_midpoint(explicit_instances(p=2, max_n=7, low=1, high=5)))
    @settings(max_examples=60, deadline=None)
    def test_biobjective_interval_agrees_with_lp(self, inst):
        self._assert_lp_matches_slope_intervals(inst)

    @given(with_front_midpoint(explicit_instances(p=2, max_n=7, direction=MAX, low=1, high=5)))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_maximization(self, inst):
        self._assert_lp_matches_slope_intervals(inst)

    @given(biobjective_instances, rationals(), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(explicit(MIN, ("a", (1, 3)), ("b", (3, 1))), F(1), True)
    @example(explicit(MAX, ("a", (1, 3)), ("b", (3, 1))), F(1), True)
    def test_lp_on_lifted_instance_matches_slope_intervals(self, inst, constant, midpoint):
        # A constant third objective adds the same amount to every weighted
        # sum, so the LP on the lifted p = 3 instance must reach the p = 2
        # slope-interval verdicts.
        if midpoint:
            # The midpoint of two distinct lexicographic extremes is never
            # strictly supported and often weakly: weak certificates get common.
            best = min if inst.direction is MIN else max
            first = best(s.image.values for s in inst.solutions)
            second = best(s.image.values[::-1] for s in inst.solutions)[::-1]
            mid = ObjectiveVector(tuple((a + b) / 2 for a, b in zip(first, second)))
            inst = ExplicitInstance(inst.direction, 2, inst.solutions + (Solution("mid", mid),))
        lifted = ExplicitInstance(
            inst.direction,
            3,
            tuple(
                Solution(s.id, ObjectiveVector(s.image.values + (constant,)))
                for s in inst.solutions
            ),
        )
        certs = unpruned_certificates(inst, support_certificate_biobjective)
        lifted_certs = support_certificates(lifted)
        assert set(lifted_certs) == set(certs)
        assert {i for i, c in lifted_certs.items() if c.weak} == {
            i for i, c in certs.items() if c.weak
        }

    @given(explicit_instances(p=2, max_n=8), st.sampled_from([MIN, MAX]))
    @settings(max_examples=60, deadline=None)
    def test_supported_subset_of_pareto(self, inst, direction):
        inst = ExplicitInstance(direction, inst.p, inst.solutions)
        assert set(support_certificates(inst)) <= pareto_front(inst)

    @given(with_front_midpoint(any_instances))
    @settings(max_examples=150, deadline=None)
    def test_pruned_certificates_match_unpruned_reference(self, inst):
        certs = support_certificates(inst)
        if "mid" in certs:  # ties with both ends under any weight it is optimal for
            assert certs["mid"].weak
        reference = unpruned_certificates(inst)
        assert set(certs) == set(reference)
        assert {i for i, c in certs.items() if c.weak} == {
            i for i, c in reference.items() if c.weak
        }

    @given(with_front_midpoint(any_instances))
    @settings(max_examples=150, deadline=None)
    # equal images under different ids share one int key and one certificate
    @example(explicit(MIN, ("a", (1, 3)), ("b", (3, 1)), ("a2", (1, 3)), ("c", (3, 3))))
    @example(explicit(MAX, ("a", (1, 3)), ("b", (3, 1)), ("a2", (1, 3)), ("c", (1, 1))))
    # a weak midpoint: the LP's optimum is exactly 1, S + T == d
    @example(explicit(MIN, ("a", (1, 3)), ("b", (2, 2)), ("c", (3, 1))))
    @example(explicit(MAX, ("a", (1, 3)), ("b", (2, 2)), ("c", (3, 1))))
    # halves in one objective and thirds in the other: rows cleared objective
    # by objective, as the keys are, would move the witnesses
    @example(explicit(MIN, ("a", (F(1, 2), F(2, 3))), ("b", (F(3, 2), F(1, 3))),
                      ("c", (F(5, 2), F(1, 3))), ("d", (F(5, 2), F(8, 3)))))
    @example(explicit(MAX, ("a", (F(5, 2), F(7, 3))), ("b", (F(7, 2), 2)),
                      ("c", (F(7, 2), F(4, 3))), ("d", (3, F(1, 3)))))
    # first appearance differs from sorted order, and the competitors' order
    # breaks a ratio tie: sorted competitors would move a witness
    @example(explicit(MIN, ("a", (2, 1, 2)), ("b", (1, 3, 2)), ("c", (4, 2, 1))))
    @example(explicit(MAX, ("a", (1, 4, 3)), ("b", (1, 1, 4)), ("c", (3, 2, 3)), ("d", (4, 2, 3))))
    def test_witnesses_match_the_fraction_lp(self, inst):
        # Ids and weak flags alone would miss a row scaled in all but one
        # entry: it keeps every verdict and moves the witness weights.
        assert support_certificates(inst) == front_certificates_by_fractions(inst)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_tightness_min(3, 6),
            lambda: gen_tightness_min(2, 64),
            lambda: gen_max_counterexample(3, 9),
            lambda: gen_random_explicit(3, 12, 1, 10, 7000),
            lambda: gen_random_explicit(3, 40, 1, 1000, 1),
            lambda: gen_random_explicit(4, 20, 1, 100, 2),
            lambda: gen_random_explicit(3, 30, 1, 1000, 3, direction=MAX),
        ],
        ids=["tight-p3", "tight-p2", "max-p3", "p3-n12", "p3-n40", "p4-n20", "max-p3-n30"],
    )
    def test_witnesses_match_the_fraction_lp_on_generated_instances(self, make):
        inst = make()
        assert support_certificates(inst) == front_certificates_by_fractions(inst)

    @given(any_instances)
    @settings(max_examples=100, deadline=None)
    def test_only_front_images_are_solved_against_front_images(self, inst):
        calls = []

        sign = -1 if inst.direction is MAX else 1

        def record(image, competitors, scale):
            def restore(cleared):
                return tuple(F(sign * v, scale) for v in cleared)

            calls.append((restore(image), [restore(c) for c in competitors]))
            return None

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "_support_certificate_lp", record)
            support_certificates(inst)
        front = {image_of(inst, i).values for i in pairwise_front(inst)}
        assert sorted(image for image, _ in calls) == sorted(front)
        for image, competitors in calls:
            assert sorted(competitors) == sorted(front - {image})

    @given(any_instances)
    @settings(max_examples=150, deadline=None)
    def test_witness_weight_reproduces_optimum(self, inst):
        for sid, cert in support_certificates(inst).items():
            image = image_of(inst, sid)
            value = cert.weight.scalarize(image)
            assert all(w >= 1 for w in cert.weight)
            assert solve_explicit_exact(inst, cert.weight).scalar == value
            if not cert.weak:
                for s in inst.solutions:
                    if s.image.values != image.values:
                        other = cert.weight.scalarize(s.image)
                        assert value < other if inst.direction is MIN else value > other

    def test_strict_witness_is_unique_optimum(self):
        inst = gen_tightness_min(2, 4)
        certs = support_certificates(inst)
        for sid, cert in certs.items():
            if cert.weak:
                continue
            value = cert.weight.scalarize(image_of(inst, sid))
            others = [
                cert.weight.scalarize(s.image)
                for s in inst.solutions
                if s.image.values != image_of(inst, sid).values
            ]
            assert all(value < o for o in others)


class TestVerifyApproximation:
    def test_supported_set_fails_deficit_bound(self):
        inst = gen_tightness_min(2, 4)
        family = GuaranteeFamily.multi_factor_raw(1, F(3, 2), 2)
        report = verify_approximation(support_certificates(inst), inst, family)
        assert not report.ok
        assert [v.target_id for v in report.violations] == ["ytilde"]
        violation = report.violations[0]
        assert violation.best_beta.excess_sum() == F(8, 5)

    def test_grid_output_passes(self):
        inst = gen_tightness_min(2, 4)
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), F(1, 2))
        family = GuaranteeFamily.multi_factor(1, F(1, 2), 2)
        report = verify_approximation(run.result_ids(), inst, family)
        assert report.ok
        assert {w.target_id for w in report.witnesses} == set(inst.ids())

    def test_whole_feasible_set_always_passes(self, three_points):
        family = GuaranteeFamily.multi_factor(1, F(1, 10), 2)
        report = verify_approximation({"a", "b", "c"}, three_points, family)
        assert report.ok
        for witness in report.witnesses:
            assert witness.beta.values == (F(1), F(1))

    def test_empty_solution_set_violates_everything(self, three_points):
        report = verify_approximation(
            [], three_points, GuaranteeFamily.uniform(1, 1, 2)
        )
        assert not report.ok
        assert len(report.violations) == 3
        assert all(v.best_candidate is None for v in report.violations)

    def test_unknown_ids_rejected(self, three_points):
        with pytest.raises(ContractViolation):
            verify_approximation({"ghost"}, three_points, GuaranteeFamily.uniform(1, 1, 2))

    @given(explicit_instances(p=2, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_multifactor_ok_implies_uniform_ok(self, inst):
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), 1)
        multi = verify_approximation(
            run.result_ids(), inst, GuaranteeFamily.multi_factor(1, 1, 2)
        )
        uniform = verify_approximation(
            run.result_ids(), inst, GuaranteeFamily.uniform(1, 1, 2)
        )
        if multi.ok:
            assert uniform.ok

    @given(verification_cases())
    @settings(max_examples=300, deadline=None)
    @example(  # duplicate MAX images: the smaller id reports them
        (
            explicit(MAX, ("a", (F(1, 3), 7)), ("b", (F(1, 3), 7)), ("c", (5, F(2, 5)))),
            ["b", "a", "c"],
            GuaranteeFamily.multi_factor_raw(F(3, 2), F(3, 2), 2),
        )
    )
    @example(  # excess sum 4 within the bound 6, but no factor <= sigma
        (
            explicit(MIN, ("a", (2, 2)), ("b", (1, 1))),
            ["a"],
            GuaranteeFamily.multi_factor(1, 4, 2),
        )
    )
    def test_integer_ranking_matches_fraction_reference(self, case):
        inst, ids, family = case
        expected = on_front(verify_by_fractions(ids, inst, family), inst)
        assert verify_approximation(ids, inst, family) == expected

    @given(verification_cases(min_ids=0, instances=with_repeated_images(any_instances)))
    @settings(max_examples=300, deadline=None)
    def test_targets_are_the_front(self, case):
        # The front decides the verdict of every target, and exactly the
        # front targets are reported, each once, as the all-target
        # reference reports them.
        inst, ids, family = case
        report = verify_approximation(ids, inst, family)
        assert report == on_front(verify_by_fractions(ids, inst, family), inst)
        reported = [e.target_id for e in report.witnesses + report.violations]
        assert sorted(reported) == sorted(pairwise_front(inst))

    @given(verification_cases(min_ids=0))
    @settings(max_examples=60, deadline=None)
    def test_one_factor_vector_per_target_with_a_candidate(self, case):
        inst, ids, family = case
        targets = []
        real = oracles.factor_vector

        def record(candidate, target, direction):
            targets.append(target)
            return real(candidate, target, direction)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "factor_vector", record)
            verify_approximation(ids, inst, family)
        front = pairwise_front(inst)
        expected = [s.image for s in inst.solutions if s.id in front]
        assert targets == (expected if ids else [])

    @pytest.mark.parametrize("p,eps", [(2, F(1, 2)), (2, F(1)), (3, F(1, 2)), (3, F(1))])
    def test_uniform_deficit_fails_for_large_m(self, p, eps):
        m = F(p, 1) / eps  # m > p/eps - 1
        inst = gen_tightness_min(p, m)
        report = verify_approximation(
            support_certificates(inst), inst, GuaranteeFamily.uniform_raw(p - eps, p)
        )
        assert not report.ok


class TestRestrictedEnumeration:
    """Graph enumeration given named ids, which ``verify`` and ``oracle``
    use, against the full enumeration, which ``export-plot`` uses."""

    @pytest.mark.parametrize("kind", list(GraphKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_keeps_the_front_and_the_named_ids_in_order(self, kind, data):
        inst = data.draw(enumerable_graphs(kind))
        full = enumerate_graph_solutions(inst)
        named = data.draw(st.lists(st.sampled_from(full.ids() + ("nope",)), max_size=4))
        kept = pairwise_front(full) | set(named)
        restricted = enumerate_graph_solutions(inst, named=named)
        assert restricted.solutions == tuple(s for s in full.solutions if s.id in kept)

    @pytest.mark.parametrize("kind", list(GraphKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_oracles_give_the_full_enumerations_results(self, kind, data):
        inst = data.draw(enumerable_graphs(kind))
        full = enumerate_graph_solutions(inst)
        named = data.draw(st.lists(st.sampled_from(full.ids()), min_size=1, max_size=4))
        family = data.draw(families(inst.p))
        restricted = enumerate_graph_solutions(inst, named=named)
        front_only = enumerate_graph_solutions(inst, named=[])
        expected = verify_approximation(named, full, family)
        assert verify_approximation(named, restricted, family) == expected
        assert pareto_front(restricted) == pareto_front(front_only) == pareto_front(full)
        assert support_certificates(front_only) == support_certificates(full)

    @pytest.mark.parametrize("kind", list(GraphKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_guards_refuse_the_same_inputs(self, kind, data):
        inst = data.draw(enumerable_graphs(kind))
        limits = {
            "limit": data.draw(st.integers(0, 12)),
            "work_limit": data.draw(st.integers(0, 60)),
        }
        outcomes = []
        for named in (None, [], ["nope"]):
            try:
                enumerate_graph_solutions(inst, named=named, **limits)
            except EnumerationLimit as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestMaxConstruction:
    """The general oracles on the maximization construction and on its
    relabelled or extended copies."""

    @staticmethod
    def _below(big_m, p):
        return GuaranteeFamily.uniform_raw(big_m - F(1, 10**9), p)

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 100, 10**6])
    def test_each_axis_point_has_a_strict_witness(self, p, m):
        inst = gen_max_counterexample(p, m)
        certs = support_certificates(inst)
        assert certs.keys() == {f"x{k}" for k in range(1, p + 1)}
        for sid, cert in certs.items():
            assert not cert.weak
            score = {s.id: sum(w * v for w, v in zip(cert.weight, s.image)) for s in inst.solutions}
            assert all(score[sid] > score[other] for other in score if other != sid)

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 100, 10**6])
    def test_pareto_front_keeps_the_center_and_covers_exactly(self, p, m):
        inst = gen_max_counterexample(p, m)
        front = pareto_front(inst)
        assert front == {s.id for s in inst.solutions}
        assert verify_approximation(front, inst, GuaranteeFamily.uniform_raw(1, p)).ok
        assert not verify_approximation(front - {"xtilde"}, inst, self._below(m, p)).ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_ids_and_order_are_free(self, p):
        built = gen_max_counterexample(p, 5)
        shuffled = list(built.solutions)
        random.Random(p).shuffle(shuffled)
        names = {s.id: f"z{k}" for k, s in enumerate(shuffled)}
        inst = ExplicitInstance(MAX, p, tuple(Solution(names[s.id], s.image) for s in shuffled))
        supported = support_certificates(inst)
        assert supported.keys() == {names[f"x{k}"] for k in range(1, p + 1)}
        assert verify_approximation(supported, inst, GuaranteeFamily.uniform_raw(5, p)).ok
        report = verify_approximation(supported, inst, self._below(5, p))
        assert [v.target_id for v in report.violations] == [names["xtilde"]]
        assert sorted(report.violations[0].best_beta.values) == [F(1)] + [F(5)] * (p - 1)

    @pytest.mark.parametrize(
        "extra,supported",
        [((1, 1), {"x1", "x2"}), ((5, F(1, 2)), {"x1", "x2", "extra"})],
        ids=["dominated", "copy-of-x1"],
    )
    def test_one_more_unhelpful_point_keeps_the_bound(self, extra, supported):
        built = gen_max_counterexample(2, 5)
        inst = ExplicitInstance(MAX, 2, built.solutions + (Solution("extra", ov(*extra)),))
        certs = support_certificates(inst)
        assert certs.keys() == supported
        assert verify_approximation(certs, inst, GuaranteeFamily.uniform_raw(5, 2)).ok
        report = verify_approximation(certs, inst, self._below(5, 2))
        assert [v.target_id for v in report.violations] == ["xtilde"]

    def test_a_supported_point_above_the_center_closes_the_gap(self):
        built = gen_max_counterexample(2, 5)
        inst = ExplicitInstance(MAX, 2, built.solutions + (Solution("extra", ov(3, 3)),))
        certs = support_certificates(inst)
        assert certs.keys() == {"x1", "x2", "extra"}
        assert verify_approximation(certs, inst, GuaranteeFamily.uniform_raw(1, 2)).ok


def test_axis_factor_contains_exactly_m():
    inst = gen_max_counterexample(3, 100)
    beta = factor_vector(image_of(inst, "x1"), image_of(inst, "xtilde"), MAX)
    assert sorted(beta.values) == [F(1), F(100), F(100)]


# Validation refusals: input, exception type, message fragment.
REFUSALS = [
    pytest.param(
        lambda: verify_approximation(
            {"y1"}, gen_tightness_min(2, 4), GuaranteeFamily.multi_factor(1, 1, 3)
        ),
        ContractViolation,
        "family dimension differs from instance",
        id="verify-family-dims",
    ),
]


@pytest.mark.parametrize("build,error,fragment", REFUSALS)
def test_refuses_invalid_input(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
