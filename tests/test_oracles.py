from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from wsapprox import (
    ContractViolation,
    Direction,
    ExplicitInstance,
    GuaranteeFamily,
    ObjectiveVector,
    Solution,
    approximate_grid,
    compute_bounds,
    dominates,
    exact_solver,
    gen_max_counterexample,
    gen_random_explicit,
    gen_tightness_min,
    pareto_front,
    solve_explicit_exact,
    support_certificates,
    supported_set,
    verify_approximation,
    verify_max_impossibility,
)
from wsapprox import oracles
from wsapprox.oracles import (
    _simplex_max,
    _support_certificate_biobjective,
    _support_certificate_lp,
)

from conftest import any_instances, clustered_instances, explicit_instances, rationals

MIN, MAX = Direction.MIN, Direction.MAX
ov = ObjectiveVector.of
F = Fraction

# p = 2, both directions; half the instances are clustered.
biobjective_instances = st.sampled_from([MIN, MAX]).flatmap(
    lambda d: st.one_of(
        explicit_instances(p=2, max_n=8, direction=d),
        clustered_instances(p=2, direction=d),
    )
)


def explicit(direction, *pairs):
    p = len(pairs[0][1])
    return ExplicitInstance(
        direction, p, tuple(Solution(sid, ObjectiveVector(tuple(img))) for sid, img in pairs)
    )


def pairwise_front(inst):
    """Reference Pareto front: every solution against every other one."""
    return frozenset(
        s.id
        for s in inst.solutions
        if not any(dominates(o.image, s.image, inst.direction) for o in inst.solutions)
    )


def unpruned_certificates(inst):
    """Reference certificates: every distinct image, dominated ones included,
    certified against every other image."""
    certify = _support_certificate_biobjective if inst.p == 2 else _support_certificate_lp
    by_image = {}
    for s in inst.solutions:
        if s.image.values not in by_image:
            competitors = [o.image for o in inst.solutions if o.image.values != s.image.values]
            by_image[s.image.values] = certify(s.image, competitors, inst.direction)
    return {
        s.id: by_image[s.image.values]
        for s in inst.solutions
        if by_image[s.image.values] is not None
    }


@pytest.fixture
def three_points():
    return explicit(MIN, ("a", (1, 8)), ("b", (2, 2)), ("c", (8, 1)))


class TestSimplex:
    def test_simple_maximum(self):
        # max x1 + x2 s.t. x1 <= 3, x2 <= 2
        x, value = _simplex_max([[F(1), F(0)], [F(0), F(1)]], [F(3), F(2)], [F(1), F(1)])
        assert value == 5 and x == [F(3), F(2)]

    def test_negative_rhs_rejected(self):
        # -x1 <= -2 leaves the origin infeasible: there is no phase 1 to repair it
        with pytest.raises(ContractViolation):
            _simplex_max([[F(-1)], [F(1)]], [F(-2), F(5)], [F(1)])

    def test_unbounded_detected(self):
        with pytest.raises(ContractViolation):
            _simplex_max([[F(-1)]], [F(0)], [F(1)])


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


class TestSupportedSet:
    def test_three_points_all_supported(self, three_points):
        assert supported_set(three_points) == {"a", "b", "c"}

    def test_tightness_center_unsupported(self):
        assert supported_set(gen_tightness_min(2, 4)) == {"y1", "y2"}
        assert supported_set(gen_tightness_min(3, 6)) == {"y1", "y2", "y3"}

    def test_max_counterexample_axis_points_supported(self):
        for m in (2, 100):
            assert supported_set(gen_max_counterexample(2, m)) == {"x1", "x2"}
        assert supported_set(gen_max_counterexample(3, 9)) == {"x1", "x2", "x3"}

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
        assert supported_set(inst) == {"a", "b"}

    def test_witness_weights_at_least_one(self):
        for cert in support_certificates(gen_tightness_min(3, 6)).values():
            assert all(w >= 1 for w in cert.weight)

    @given(explicit_instances(p=2, max_n=7, low=1, high=5))
    @settings(max_examples=60, deadline=None)
    def test_biobjective_interval_agrees_with_lp(self, inst):
        for s in inst.solutions:
            competitors = [o.image for o in inst.solutions if o.image.values != s.image.values]
            analytic = _support_certificate_biobjective(s.image, competitors, MIN)
            lp = _support_certificate_lp(s.image, competitors, MIN)
            assert (analytic is None) == (lp is None)
            if analytic is not None:
                assert analytic.weak == lp.weak

    @given(explicit_instances(p=2, max_n=7, direction=MAX, low=1, high=5))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_maximization(self, inst):
        for s in inst.solutions:
            competitors = [o.image for o in inst.solutions if o.image.values != s.image.values]
            analytic = _support_certificate_biobjective(s.image, competitors, MAX)
            lp = _support_certificate_lp(s.image, competitors, MAX)
            assert (analytic is None) == (lp is None)

    @given(biobjective_instances, rationals(), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(explicit(MIN, ("a", (1, 3)), ("b", (3, 1))), F(1), True)
    @example(explicit(MAX, ("a", (1, 3)), ("b", (3, 1))), F(1), True)
    def test_lp_on_lifted_instance_matches_slope_intervals(self, inst, constant, midpoint):
        # A constant third objective adds the same amount to every weighted
        # sum, so the p = 3 LP must reach the p = 2 slope-interval verdicts.
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
        certs = support_certificates(inst)
        lifted_certs = support_certificates(lifted)
        assert set(lifted_certs) == set(certs)
        assert {i for i, c in lifted_certs.items() if c.weak} == {
            i for i, c in certs.items() if c.weak
        }

    @given(explicit_instances(p=2, max_n=8), st.sampled_from([MIN, MAX]))
    @settings(max_examples=60, deadline=None)
    def test_supported_subset_of_pareto(self, inst, direction):
        inst = ExplicitInstance(direction, inst.p, inst.solutions)
        assert supported_set(inst) <= pareto_front(inst)

    @given(any_instances)
    @settings(max_examples=150, deadline=None)
    def test_pruned_certificates_match_unpruned_reference(self, inst):
        certs = support_certificates(inst)
        reference = unpruned_certificates(inst)
        assert set(certs) == set(reference)
        assert {i for i, c in certs.items() if c.weak} == {
            i for i, c in reference.items() if c.weak
        }
        if inst.p == 2:
            # The slope interval is the same set of weights either way.
            assert certs == reference

    @given(any_instances)
    @settings(max_examples=100, deadline=None)
    def test_only_front_images_are_solved_against_front_images(self, inst):
        calls = []

        def record(image, competitors, direction):
            calls.append((image.values, [c.values for c in competitors]))
            return None

        name = "_support_certificate_biobjective" if inst.p == 2 else "_support_certificate_lp"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, name, record)
            support_certificates(inst)
        front = {inst.image_of(i).values for i in pairwise_front(inst)}
        assert sorted(image for image, _ in calls) == sorted(front)
        for image, competitors in calls:
            assert sorted(competitors) == sorted(front - {image})

    @given(any_instances)
    @settings(max_examples=150, deadline=None)
    def test_witness_weight_reproduces_optimum(self, inst):
        for sid, cert in support_certificates(inst).items():
            image = inst.image_of(sid)
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
            value = cert.weight.scalarize(inst.image_of(sid))
            others = [
                cert.weight.scalarize(s.image)
                for s in inst.solutions
                if s.image.values != inst.image_of(sid).values
            ]
            assert all(value < o for o in others)


class TestVerifyApproximation:
    def test_supported_set_fails_deficit_bound(self):
        inst = gen_tightness_min(2, 4)
        family = GuaranteeFamily.multi_factor_raw(1, F(3, 2), 2)
        report = verify_approximation(supported_set(inst), inst, family)
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
            assert witness.beta.factors == (F(1), F(1))

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

    @pytest.mark.parametrize("p,eps", [(2, F(1, 2)), (2, F(1)), (3, F(1, 2)), (3, F(1))])
    def test_uniform_deficit_fails_for_large_m(self, p, eps):
        m = F(p, 1) / eps  # m > p/eps - 1
        inst = gen_tightness_min(p, m)
        report = verify_approximation(
            supported_set(inst), inst, GuaranteeFamily.uniform_raw(p - eps, p)
        )
        assert not report.ok


class TestMaxImpossibility:
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 100, 10**6])
    def test_construction_defeats_every_supported_point(self, p, m):
        assert verify_max_impossibility(gen_max_counterexample(p, m)) is True

    def test_axis_factor_contains_exactly_m(self):
        from wsapprox import factor_vector

        inst = gen_max_counterexample(2, 100)
        beta = factor_vector(inst.image_of("x1"), inst.image_of("xtilde"), MAX)
        assert F(100) in beta.factors

    def test_malformed_instances_rejected(self, three_points):
        with pytest.raises(ContractViolation):
            verify_max_impossibility(three_points)  # not a max instance
        inst = explicit(MAX, ("a", (2, 1)), ("b", (1, 2)), ("c", (3, 3)), ("d", (1, 1)))
        with pytest.raises(ContractViolation):
            verify_max_impossibility(inst)
