import inspect
import operator
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from wsapprox import (
    Arc,
    ContractViolation,
    Direction,
    DisconnectedGraph,
    EnumerationLimit,
    ExplicitInstance,
    GraphInstance,
    GraphKind,
    MaximizationUnsupported,
    ObjectiveVector,
    Solution,
    SolverHandle,
    UnreachableTarget,
    WeightVector,
    adversarial_solver,
    approximate_grid,
    compute_bounds,
    enumerate_graph_solutions,
    exact_solver,
    gen_random_explicit,
    gen_random_graph,
)
from wsapprox import solvers

from conftest import enumerable_graphs, explicit_instances, rationals, weight_vectors
from reference import (
    _UnionFind,
    bounds_contain,
    dominates,
    enumerate_graph_solutions_by_combinations,
    never_chosen_by_union_find,
    reference_solver,
    solve_explicit_adversarial,
    solve_explicit_exact,
    solve_shortest_path,
    solve_spanning_tree,
)

MIN, MAX = Direction.MIN, Direction.MAX
ov = ObjectiveVector.of
wv = WeightVector.of


def explicit(direction, *pairs):
    p = len(pairs[0][1])
    return ExplicitInstance(
        direction, p, tuple(Solution(sid, ObjectiveVector(tuple(img))) for sid, img in pairs)
    )


@pytest.fixture
def three_points():
    return explicit(MIN, ("a", (1, 8)), ("b", (2, 2)), ("c", (8, 1)))


@pytest.fixture
def diamond_graph():
    return GraphInstance(
        MIN,
        2,
        3,
        (
            Arc(0, 2, ov(1, 8)),
            Arc(0, 2, ov(8, 1)),
            Arc(0, 1, ov(1, 1)),
            Arc(1, 2, ov(1, 1)),
        ),
        GraphKind.SHORTEST_PATH,
        source=0,
        target=2,
    )


class TestExplicitExact:
    def test_unit_weights(self, three_points):
        answer = exact_solver(three_points).solve(wv(1, 1))
        assert answer.solution_id == "b"
        assert answer.scalar == 4

    def test_skewed_weights(self, three_points):
        answer = exact_solver(three_points).solve(wv(1, "1/8"))
        assert answer.solution_id == "a"
        assert answer.scalar == 2

    def test_singleton(self):
        inst = explicit(MIN, ("only", (3, 4)))
        assert exact_solver(inst).solve(wv(5, 7)).solution_id == "only"

    def test_max_direction(self, three_points):
        flipped = ExplicitInstance(MAX, 2, three_points.solutions)
        with pytest.raises(MaximizationUnsupported):
            exact_solver(flipped)
        # The reference still solves it: criterion 9 re-solves MAX certificates.
        # Values 9, 4, 9: tie broken by lexicographically smallest image.
        assert solve_explicit_exact(flipped, wv(1, 1)).solution_id == "a"

    def test_tie_break_by_id(self):
        inst = explicit(MIN, ("z", (1, 1)), ("a", (1, 1)))
        assert exact_solver(inst).solve(wv(1, 1)).solution_id == "a"

    def test_dimension_mismatch(self, three_points):
        with pytest.raises(ContractViolation):
            exact_solver(three_points).solve(wv(1, 1, 1))


class TestExplicitAdversarial:
    def test_sigma_one_reduces_to_exact(self, three_points):
        assert adversarial_solver(three_points, 1).solve(wv(1, 1)).solution_id == "b"

    def test_worst_admissible_with_tie(self, three_points):
        answer = adversarial_solver(three_points, "9/4").solve(wv(1, 1))
        assert answer.solution_id == "a"
        assert answer.scalar == 9

    def test_tight_sigma_keeps_optimum(self, three_points):
        assert adversarial_solver(three_points, 2).solve(wv(1, 1)).solution_id == "b"

    def test_rejects_max_and_small_sigma(self, three_points):
        with pytest.raises(ContractViolation):
            adversarial_solver(ExplicitInstance(MAX, 2, three_points.solutions), 2).solve(
                wv(1, 1)
            )
        with pytest.raises(ContractViolation):
            adversarial_solver(three_points, "1/2").solve(wv(1, 1))

    @given(explicit_instances(p=2, max_n=8), weight_vectors(), rationals(1, 3))
    @settings(max_examples=150)
    def test_sigma_contract_by_enumeration(self, inst, weights, sigma):
        answer = adversarial_solver(inst, sigma).solve(weights)
        opt = min(weights.scalarize(s.image) for s in inst.solutions)
        assert answer.scalar <= sigma * opt

    @given(explicit_instances(p=3, max_n=8), weight_vectors(p=3), rationals(1, 3))
    @settings(max_examples=100)
    def test_sigma_efficiency_by_enumeration(self, inst, weights, sigma):
        # The answer sigma-approximates every solution in some objective.
        answer = adversarial_solver(inst, sigma).solve(weights)
        for s in inst.solutions:
            assert any(answer.image[i] <= sigma * s.image[i] for i in range(3))

    @given(explicit_instances(p=2, max_n=8), weight_vectors())
    @settings(max_examples=150)
    def test_exact_answers_are_nondominated(self, inst, weights):
        answer = exact_solver(inst).solve(weights)
        assert not any(
            dominates(s.image, answer.image, MIN) for s in inst.solutions
        )


class TestShortestPath:
    def test_balanced_weights_take_detour(self, diamond_graph):
        answer = exact_solver(diamond_graph).solve(wv(1, 1))
        assert answer.arcs == (2, 3)
        assert answer.image.values == (Fraction(2), Fraction(2))
        assert answer.scalar == 4

    def test_skewed_weights_take_direct_arc(self, diamond_graph):
        answer = exact_solver(diamond_graph).solve(wv(1, "1/8"))
        assert answer.arcs == (0,)
        assert answer.scalar == 2

    def test_single_arc(self):
        inst = GraphInstance(
            MIN, 2, 2, (Arc(0, 1, ov(3, 4)),), GraphKind.SHORTEST_PATH, 0, 1
        )
        assert exact_solver(inst).solve(wv(1, 1)).arcs == (0,)

    def test_unreachable_rejected_at_construction(self):
        with pytest.raises(UnreachableTarget):
            GraphInstance(
                MIN, 2, 3, (Arc(0, 1, ov(1, 1)),), GraphKind.SHORTEST_PATH, 0, 2
            )

    def test_source_equals_target_rejected(self):
        with pytest.raises(ContractViolation):
            GraphInstance(
                MIN, 2, 2, (Arc(0, 1, ov(1, 1)),), GraphKind.SHORTEST_PATH, 0, 0
            )


class TestSpanningTree:
    def test_tie_break_keeps_input_order(self):
        inst = GraphInstance(
            MIN,
            2,
            3,
            (Arc(0, 1, ov(1, 3)), Arc(1, 2, ov(3, 1)), Arc(0, 2, ov(2, 2))),
            GraphKind.SPANNING_TREE,
        )
        answer = exact_solver(inst).solve(wv(1, 1))
        assert answer.arcs == (0, 1)
        assert answer.image.values == (Fraction(4), Fraction(4))

    def test_path_graph_takes_all_edges(self):
        inst = GraphInstance(
            MIN,
            2,
            4,
            (Arc(0, 1, ov(1, 2)), Arc(1, 2, ov(2, 1)), Arc(2, 3, ov(1, 1))),
            GraphKind.SPANNING_TREE,
        )
        assert exact_solver(inst).solve(wv(3, 5)).arcs == (0, 1, 2)

    def test_forced_cheap_edge(self):
        inst = GraphInstance(
            MIN,
            2,
            3,
            (Arc(0, 1, ov(1, 1)), Arc(1, 2, ov(5, 5)), Arc(0, 2, ov(5, 5))),
            GraphKind.SPANNING_TREE,
        )
        answer = exact_solver(inst).solve(wv(1, 2))
        assert 0 in answer.arcs and len(answer.arcs) == 2

    def test_parallel_ties_and_self_loop_match_reference(self):
        # Arcs 0 and 2 join the same two nodes and tie under (1, 1); arc 1 is
        # a self-loop, the cheapest arc under every weight, and never taken.
        inst = GraphInstance(
            MIN,
            2,
            3,
            (Arc(0, 1, ov(1, 3)), Arc(1, 1, ov(1, 1)), Arc(0, 1, ov(3, 1)), Arc(1, 2, ov(2, 2))),
            GraphKind.SPANNING_TREE,
        )
        handle = exact_solver(inst)
        for weights, arcs in ((wv(1, 1), (0, 3)), (wv(2, 1), (0, 3)), (wv(1, 2), (2, 3))):
            answer = handle.solve(weights)
            assert answer == solve_spanning_tree(inst, weights)
            assert answer.arcs == arcs

    def test_disconnected_rejected_at_construction(self):
        with pytest.raises(DisconnectedGraph):
            GraphInstance(
                MIN, 2, 4, (Arc(0, 1, ov(1, 1)), Arc(2, 3, ov(1, 1)), Arc(3, 2, ov(1, 1))),
                GraphKind.SPANNING_TREE,
            )

    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), min_size=1)
            )
        )
    )
    def test_connectivity_verdict_matches_union_find(self, graph):
        nodes, pairs = graph
        uf = _UnionFind(nodes)
        for tail, head in pairs:
            uf.union(tail, head)
        arcs = tuple(Arc(tail, head, ov(1, 1)) for tail, head in pairs)
        if len({uf.find(v) for v in range(nodes)}) == 1:
            GraphInstance(MIN, 2, nodes, arcs, GraphKind.SPANNING_TREE)
        else:
            with pytest.raises(DisconnectedGraph):
                GraphInstance(MIN, 2, nodes, arcs, GraphKind.SPANNING_TREE)


@st.composite
def repeated_mixed_instances(draw):
    """Explicit instances, p in 2..4, whose images are drawn from a small
    pool of mixed-denominator vectors, so that equal images under different
    ids are common; ids are out of input order and compare as strings."""
    p = draw(st.integers(2, 4))
    pool = draw(st.lists(st.tuples(*[st.one_of(TIE_PRONE, MIXED)] * p), min_size=1, max_size=6))
    images = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    keys = draw(st.permutations(range(len(images))))
    direction = draw(st.sampled_from([MIN, MAX]))
    solutions = tuple(Solution(f"s{k}", ObjectiveVector(img)) for k, img in zip(keys, images))
    return ExplicitInstance(direction, p, solutions)


class TestComputeBounds:
    def test_explicit(self, three_points):
        bounds = compute_bounds(three_points)
        assert bounds.lower == (Fraction(1), Fraction(1))
        assert bounds.upper == (Fraction(8), Fraction(8))

    def test_graph_arc_sums(self, diamond_graph):
        bounds = compute_bounds(diamond_graph)
        assert bounds.lower == (Fraction(1), Fraction(1))
        assert bounds.upper == (Fraction(11), Fraction(11))

    def test_singleton(self):
        inst = explicit(MIN, ("only", ("5/2", 7)))
        bounds = compute_bounds(inst)
        assert bounds.lower == bounds.upper == (Fraction(5, 2), Fraction(7))

    @given(data=st.data())
    @settings(max_examples=100)
    def test_graph_bounds_equal_the_fraction_sums(self, data):
        p = data.draw(st.integers(2, 4))
        costs = data.draw(
            st.lists(st.tuples(*[st.one_of(TIE_PRONE, MIXED)] * p), min_size=1, max_size=30)
        )
        arcs = tuple(Arc(0, 1, ObjectiveVector(cost)) for cost in costs)
        bounds = compute_bounds(GraphInstance(MIN, p, 2, arcs, GraphKind.SHORTEST_PATH, 0, 1))
        assert bounds.lower == tuple(min(cost[j] for cost in costs) for j in range(p))
        assert bounds.upper == tuple(sum((cost[j] for cost in costs), Fraction(0)) for j in range(p))

    @given(repeated_mixed_instances())
    @settings(max_examples=100)
    def test_explicit_bounds_equal_the_fraction_min_and_max(self, inst):
        columns = list(zip(*(s.image.values for s in inst.solutions)))
        bounds = compute_bounds(inst)
        assert bounds.lower == tuple(map(min, columns))
        assert bounds.upper == tuple(map(max, columns))

    @given(explicit_instances(p=3, max_n=10))
    def test_sandwiches_every_image(self, inst):
        bounds = compute_bounds(inst)
        for s in inst.solutions:
            assert bounds_contain(bounds, s.image)


class TestSortedForm:
    @given(repeated_mixed_instances())
    @settings(max_examples=100)
    def test_order_and_form_equal_the_fraction_sort(self, inst):
        # The kernel sorts the cleared ints; the order must be the Fraction
        # order by (image, id), and the form that of the sorted images.
        order, form = solvers._sorted_form(inst)
        assert order == tuple(sorted(inst.solutions, key=lambda s: (s.image.values, s.id)))
        direct = solvers._IntegerForm(inst.p, [s.image for s in order])
        assert (form.scales, form.columns) == (direct.scales, direct.columns)

    @given(repeated_mixed_instances(), st.data())
    @settings(max_examples=100)
    def test_permuted_form_equals_the_form_of_the_permuted_images(self, inst, data):
        # Each L_j is the lcm of one set of denominators, whatever its order.
        order = data.draw(st.permutations(range(len(inst.solutions))))
        images = [s.image for s in inst.solutions]
        permuted = solvers._IntegerForm(inst.p, images).permuted(order)
        direct = solvers._IntegerForm(inst.p, [images[i] for i in order])
        assert (permuted.scales, permuted.columns) == (direct.scales, direct.columns)


def random_graph_cases():
    cases = []
    for seed in range(6):
        cases.append(gen_random_graph(5, 8, 2, 1, 5, seed, GraphKind.SHORTEST_PATH))
        cases.append(gen_random_graph(5, 7, 2, 1, 5, seed, GraphKind.SPANNING_TREE))
    return cases


class TestGraphAgainstEnumeration:
    @pytest.mark.parametrize("inst", random_graph_cases())
    def test_solver_matches_enumerated_optimum(self, inst):
        explicit_form = enumerate_graph_solutions(inst)
        solver = exact_solver(inst)
        for weights in (wv(1, 1), wv(1, 5), wv("1/3", 2)):
            answer = solver.solve(weights)
            best = min(weights.scalarize(s.image) for s in explicit_form.solutions)
            assert answer.scalar == best
            # bounds sandwich every enumerated image
            bounds = compute_bounds(inst)
            for s in explicit_form.solutions:
                assert bounds_contain(bounds, s.image)

    @pytest.mark.parametrize("inst", random_graph_cases())
    def test_exact_graph_answers_are_nondominated(self, inst):
        from wsapprox import pareto_front

        explicit_form = enumerate_graph_solutions(inst)
        front = pareto_front(explicit_form)
        solver = exact_solver(inst)
        for weights in (wv(1, 1), wv(4, 1), wv(1, "7/2")):
            answer = solver.solve(weights)
            assert answer.solution_id in front

    def test_enumeration_limit(self, diamond_graph):
        with pytest.raises(EnumerationLimit):
            enumerate_graph_solutions(diamond_graph, limit=1)


class TestSolverHandle:
    def test_adversarial_requires_explicit(self, diamond_graph):
        with pytest.raises(ContractViolation):
            adversarial_solver(diamond_graph, 2)

    @pytest.fixture
    def no_kernels(self, monkeypatch):
        """Every kernel builder raises, so a refusal must come before any build."""

        def no_kernel(*args):
            raise AssertionError("a kernel was built")

        for builder in ("_explicit_kernel", "_shortest_path_kernel", "_spanning_tree_kernel"):
            monkeypatch.setattr(solvers, builder, no_kernel)

    def test_minimization_only_backends_refuse_max_when_built(
        self, three_points, diamond_graph, no_kernels
    ):
        with pytest.raises(AssertionError, match="a kernel was built"):
            exact_solver(three_points)
        flipped = ExplicitInstance(MAX, 2, three_points.solutions)
        graphs = [GraphInstance(MAX, 2, 3, diamond_graph.arcs, kind, 0, 2) for kind in GraphKind]
        builds = [
            lambda: exact_solver(flipped),
            lambda: adversarial_solver(flipped, 2),
            lambda: adversarial_solver(flipped, "1/2"),
            lambda: SolverHandle(flipped, Fraction(1), lambda w: None),
        ] + [lambda graph=graph: exact_solver(graph) for graph in graphs]
        for build in builds:
            with pytest.raises(MaximizationUnsupported, match="maximization instance rejected"):
                build()

    def test_sigma_below_one_refused_before_any_kernel_is_built(
        self, three_points, diamond_graph, no_kernels
    ):
        with pytest.raises(ContractViolation, match="sigma must be >= 1"):
            adversarial_solver(three_points, "1/2")
        for inst in (three_points, diamond_graph):
            for sigma, message in (
                (Fraction(1, 2), "sigma must be >= 1"),
                ("1/2", "sigma must be >= 1"),
                (1.5, "exact rational required"),
                (True, "exact rational required"),
                ("1.5", "not a rational literal"),
                (None, "cannot interpret"),
            ):
                with pytest.raises(ContractViolation, match=message):
                    SolverHandle(inst, sigma)
            # A rational string is read exactly; the kernel is given, so none is built.
            handle = SolverHandle(inst, "3/2", lambda w: None)
            assert type(handle.sigma) is Fraction and handle.sigma == Fraction(3, 2)

    def test_a_rational_string_sigma_builds_the_kernel_at_that_fraction(
        self, three_points, monkeypatch
    ):
        built, kernel = [], solvers._kernel
        monkeypatch.setattr(
            solvers, "_kernel", lambda inst, sigma: built.append(sigma) or kernel(inst, sigma)
        )
        handle = adversarial_solver(three_points, "3/2")
        assert built == [Fraction(3, 2)] and type(built[0]) is Fraction
        for weights in (wv(1, 1), wv(1, 2), wv(3, 1), wv(7, 1)):
            expected = solve_explicit_adversarial(three_points, weights, Fraction(3, 2))
            assert handle.solve(weights) == expected

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractViolation):
            explicit(MIN, ("a", (1, 2)), ("a", (2, 1)))

    def test_empty_instance_rejected(self):
        with pytest.raises(ContractViolation):
            ExplicitInstance(MIN, 2, ())


# Values either from {1, 2, 3}, so that images repeat and weighted sums tie,
# or with unrelated denominators, so that clearing them takes a real LCM.
TIE_PRONE = st.integers(1, 3).map(Fraction)
MIXED = st.builds(
    lambda den, k: 1 + Fraction(k % (7 * den + 1), den), st.integers(1, 30), st.integers(0, 10**4)
)


@st.composite
def tie_prone_instances(draw, p, direction, max_n=10):
    values = draw(st.sampled_from([TIE_PRONE, MIXED]))
    images = draw(st.lists(st.tuples(*[values] * p), min_size=1, max_size=max_n))
    # Ids out of input order, so that the id tie-break is exercised.
    keys = draw(st.permutations(range(len(images))))
    return ExplicitInstance(
        direction,
        p,
        tuple(Solution(f"s{k}", ObjectiveVector(img)) for k, img in zip(keys, images)),
    )


def mixed_weights(p):
    return st.lists(st.one_of(TIE_PRONE, MIXED), min_size=p, max_size=p).map(
        lambda ws: WeightVector(tuple(ws))
    )


SIGMAS = st.one_of(st.just(Fraction(1)), rationals(1, 3))


class TestHandlesMatchFractionReference:
    """Every handle solves on a cleared-denominator integer form; its answers
    must equal the Fraction reference backends' field for field."""

    @pytest.mark.parametrize("direction", [MIN])  # a MAX handle is refused when built
    @pytest.mark.parametrize("p", [2, 3])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_explicit_exact(self, direction, p, data):
        inst = data.draw(tie_prone_instances(p, direction))
        handle = exact_solver(inst)
        for weights in data.draw(st.lists(mixed_weights(p), min_size=1, max_size=4)):
            assert handle.solve(weights) == solve_explicit_exact(inst, weights)

    @pytest.mark.parametrize("p", [2, 3])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_explicit_adversarial(self, p, data):
        inst = data.draw(tie_prone_instances(p, MIN))
        sigma = data.draw(SIGMAS)
        handle = adversarial_solver(inst, sigma)
        for weights in data.draw(st.lists(mixed_weights(p), min_size=1, max_size=4)):
            assert handle.solve(weights) == solve_explicit_adversarial(inst, weights, sigma)

    @pytest.mark.parametrize("kind", [GraphKind.SHORTEST_PATH, GraphKind.SPANNING_TREE])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_graphs(self, kind, data):
        nodes = data.draw(st.integers(2, 8))
        arcs = data.draw(st.integers(nodes - 1, 3 * nodes))
        p = data.draw(st.integers(2, 3))
        inst = gen_random_graph(
            nodes,
            arcs,
            p,
            1,
            data.draw(st.sampled_from([1, 3, 10])),
            data.draw(st.integers(0, 10**6)),
            kind,
            denominator=data.draw(st.sampled_from([1, 6, 1000])),
        )
        handle = exact_solver(inst)
        reference = solve_shortest_path if kind is GraphKind.SHORTEST_PATH else solve_spanning_tree
        for weights in data.draw(st.lists(mixed_weights(p), min_size=1, max_size=4)):
            assert handle.solve(weights) == reference(inst, weights)

    def test_max_and_dimension_rejected_like_reference(self, three_points, diamond_graph):
        flipped = ExplicitInstance(MAX, 2, three_points.solutions)
        with pytest.raises(ContractViolation):
            adversarial_solver(flipped, 2).solve(wv(1, 1))
        for handle in (exact_solver(three_points), exact_solver(diamond_graph)):
            with pytest.raises(ContractViolation):
                handle.solve(wv(1, 1, 1))


def scan_list(handle):
    """The solutions the explicit kernel of ``handle`` may still return."""
    state = inspect.getclosurevars(handle.kernel).nonlocals
    return [state["order"][i] for i in state["kept"]]


def ruled_out(y, x, sigma):
    """y >= sigma * x componentwise and y != sigma * x: the forgetting rule,
    in Fractions."""
    scaled = [sigma * v for v in x.values]
    return all(map(operator.ge, y.values, scaled)) and list(y.values) != scaled


@st.composite
def weight_sequences(draw, p):
    """10 to 60 weights drawn from a pool of at most 12, so that repeats and
    returns to an earlier weight are common, in drawn order."""
    pool = draw(st.lists(mixed_weights(p), min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), min_size=10, max_size=60))


class TestForgettingKernel:
    """The explicit kernel drops, for each new optimum x, every y with
    y >= sigma * x componentwise and y != sigma * x.  Its answers must stay
    those of the stateless Fraction reference at every later weight."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_answer_matches_the_reference(self, data):
        p = data.draw(st.sampled_from([2, 3, 4]))
        inst = data.draw(tie_prone_instances(p, MIN, max_n=60))
        sigma = data.draw(SIGMAS)
        handle = exact_solver(inst) if sigma == 1 else adversarial_solver(inst, sigma)
        for weights in data.draw(weight_sequences(p)):
            if sigma == 1:
                assert handle.solve(weights) == solve_explicit_exact(inst, weights)
            else:
                assert handle.solve(weights) == solve_explicit_adversarial(inst, weights, sigma)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_drops_exactly_what_each_optimum_rules_out(self, data):
        p = data.draw(st.sampled_from([2, 3, 4]))
        inst = data.draw(tie_prone_instances(p, MIN, max_n=60))
        sigma = data.draw(SIGMAS)
        handle = adversarial_solver(inst, sigma)
        optima = []
        for weights in data.draw(weight_sequences(p)):
            handle.solve(weights)
            optima.append(solve_explicit_exact(inst, weights).image)
            kept = scan_list(handle)
            # nothing that an optimum found so far rules out is still scanned
            assert not any(ruled_out(y.image, x, sigma) for y in kept for x in optima)
        kept_ids = {s.id for s in kept}
        dropped = [s for s in inst.solutions if s.id not in kept_ids]
        assert all(any(ruled_out(s.image, x, sigma) for x in optima) for s in dropped)
        # each dropped solution is inadmissible at fresh weights too
        for weights in data.draw(st.lists(mixed_weights(p), min_size=1, max_size=5)):
            opt = min(weights.scalarize(s.image) for s in inst.solutions)
            assert all(weights.scalarize(s.image) > sigma * opt for s in dropped)

    @pytest.mark.parametrize("sigma", [Fraction(1), Fraction(3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_matches_the_reference_on_p3(self, sigma, seed):
        inst = gen_random_explicit(3, 40, 1, 10, seed=501 + seed)
        bounds = compute_bounds(inst)
        run = approximate_grid(adversarial_solver(inst, sigma), bounds, Fraction(1))
        ref = approximate_grid(reference_solver(inst, sigma), bounds, Fraction(1))
        assert run.answers == ref.answers
        assert run.result == ref.result
        assert len(run.result) > 1


@st.composite
def tie_prone_graphs(draw, kind, p):
    """Random graphs whose costs lie in [1, high] with high in {1, 2, 3, 10},
    so that equal costs and parallel edges are common; spanning-tree graphs
    may gain a self-loop."""
    nodes = draw(st.integers(2, 9))
    inst = gen_random_graph(
        nodes,
        draw(st.integers(nodes - 1, 4 * nodes)),
        p,
        1,
        draw(st.sampled_from([1, 2, 3, 10])),
        draw(st.integers(0, 10**6)),
        kind,
        denominator=draw(st.sampled_from([1, 6, 1000])),
    )
    if kind is GraphKind.SPANNING_TREE and draw(st.booleans()):
        node = draw(st.integers(0, nodes - 1))
        loop = Arc(node, node, draw(st.sampled_from(inst.arcs)).cost)
        inst = GraphInstance(
            inst.direction, inst.p, inst.node_count, (*inst.arcs, loop), inst.kind,
            inst.source, inst.target,
        )
    return inst


def kept_edges(handle):
    """The edges the Kruskal kernel of ``handle`` sorts."""
    return inspect.getclosurevars(handle.kernel).nonlocals["kept"]


class TestForgettingTreeKernel:
    """The Kruskal kernel drops, once per instance, every edge whose ends are
    joined by edges that precede it at every weight.  Its answers must stay
    those of the Fraction reference, and each graph kernel builds each
    distinct answer once."""

    @pytest.mark.parametrize("p", [2, 3])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_drops_what_the_definition_drops(self, p, data):
        inst = data.draw(tie_prone_graphs(GraphKind.SPANNING_TREE, p))
        kept = kept_edges(exact_solver(inst))
        dropped = frozenset(range(len(inst.arcs))) - frozenset(kept)
        reference = never_chosen_by_union_find(inst)
        if p == 2:
            assert dropped == reference
        else:
            assert dropped <= reference
        assert kept == sorted(kept)

    @pytest.mark.parametrize("p", [2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_tree_matches_the_reference(self, p, data):
        inst = data.draw(tie_prone_graphs(GraphKind.SPANNING_TREE, p))
        handle = exact_solver(inst)
        dropped = frozenset(range(len(inst.arcs))) - frozenset(kept_edges(handle))
        for weights in data.draw(weight_sequences(p)):
            answer = handle.solve(weights)
            assert answer == solve_spanning_tree(inst, weights)
            assert dropped.isdisjoint(answer.arcs)

    @pytest.mark.parametrize("p", [2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_path_matches_the_reference(self, p, data):
        inst = data.draw(tie_prone_graphs(GraphKind.SHORTEST_PATH, p))
        handle = exact_solver(inst)
        for weights in data.draw(weight_sequences(p)):
            assert handle.solve(weights) == solve_shortest_path(inst, weights)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_paths_among_far_more_declared_nodes(self, data):
        # The arcs name at most 9 of 10^4 declared nodes, under scattered labels.
        inst = data.draw(tie_prone_graphs(GraphKind.SHORTEST_PATH, 2))
        labels = data.draw(
            st.lists(
                st.integers(0, 10**4 - 1),
                min_size=inst.node_count,
                max_size=inst.node_count,
                unique=True,
            )
        )
        relabeled = GraphInstance(
            MIN,
            2,
            10**4,
            tuple(Arc(labels[a.tail], labels[a.head], a.cost) for a in inst.arcs),
            GraphKind.SHORTEST_PATH,
            source=labels[inst.source],
            target=labels[inst.target],
        )
        handle = exact_solver(relabeled)
        for weights in data.draw(weight_sequences(2)):
            answer = handle.solve(weights)
            assert answer == solve_shortest_path(relabeled, weights)
            assert answer.arcs == solve_shortest_path(inst, weights).arcs

    @pytest.mark.parametrize("kind", [GraphKind.SHORTEST_PATH, GraphKind.SPANNING_TREE])
    def test_each_distinct_answer_is_built_once(self, kind):
        inst = gen_random_graph(9, 20, 2, 1, 3, 11, kind, denominator=1)
        handle = exact_solver(inst)
        weights = [wv(1, k) for k in (1, 2, 3)] * 3
        answers = [handle.solve(w) for w in weights]
        for repeat, first in zip(answers[3:], answers):
            assert repeat.solution_id is first.solution_id
            assert repeat.image is first.image


def recursive_path_ids(inst):
    """Simple s-t paths in depth-first order, by plain recursion."""
    ids = []

    def walk(node, on_path, taken):
        if node == inst.target:
            ids.append("path:" + ",".join(map(str, taken)))
            return
        for idx, arc in enumerate(inst.arcs):
            if arc.tail == node and arc.head not in on_path:
                walk(arc.head, on_path | {arc.head}, taken + [idx])

    walk(inst.source, {inst.source}, [])
    return ids


class TestPathEnumeration:
    @given(st.integers(2, 7), st.integers(0, 10**6), st.data())
    @settings(max_examples=100)
    def test_order_matches_recursive_depth_first_search(self, nodes, seed, data):
        arcs = data.draw(st.integers(nodes - 1, 3 * nodes))
        inst = gen_random_graph(nodes, arcs, 2, 1, 3, seed, GraphKind.SHORTEST_PATH)
        assert list(enumerate_graph_solutions(inst).ids()) == recursive_path_ids(inst)

    def test_long_chain_is_not_bounded_by_recursion(self):
        n = 1500
        chain = GraphInstance(
            MIN,
            2,
            n,
            tuple(Arc(i, i + 1, ov(1, 2)) for i in range(n - 1)),
            GraphKind.SHORTEST_PATH,
            source=0,
            target=n - 1,
        )
        (only,) = enumerate_graph_solutions(chain).solutions
        assert only.id == "path:" + ",".join(str(i) for i in range(n - 1))
        assert only.image.values == (Fraction(n - 1), Fraction(2 * (n - 1)))

    def test_work_limit(self, diamond_graph):
        # Visits: source, target via arc 0, target via arc 1, node 1, target.
        assert len(enumerate_graph_solutions(diamond_graph, work_limit=5).solutions) == 3
        with pytest.raises(EnumerationLimit):
            enumerate_graph_solutions(diamond_graph, work_limit=4)


class TestTreeEnumeration:
    def test_long_chain_is_not_bounded_by_recursion(self):
        n = 1500
        arcs = tuple(Arc(i, i + 1, ov(1, 2)) for i in range(n - 1))
        chain = GraphInstance(MIN, 2, n, arcs, GraphKind.SPANNING_TREE)
        (only,) = enumerate_graph_solutions(chain).solutions
        assert only.id == "tree:" + ",".join(str(i) for i in range(n - 1))
        assert only.image.values == (Fraction(n - 1), Fraction(2 * (n - 1)))

    def test_work_guard_admits_one_more_subset_than_the_limit(self):
        # The triangle's 3 two-arc subsets pass at work_limit=2 (REFUSALS
        # refuses them at work_limit=1); K_12 is refused under `verify` in
        # tests/test_cli.py.
        assert len(enumerate_graph_solutions(TRIANGLE, work_limit=2).solutions) == 3


PARALLEL_AND_LOOP = (
    Arc(0, 1, ov(1, 2)),
    Arc(1, 1, ov(1, 1)),
    Arc(0, 1, ov(2, 1)),
    Arc(1, 2, ov("1/2", 3)),
    Arc(2, 0, ov(3, "3/4")),
)


class TestEnumerationMatchesCombinations:
    """The pruned tree search and the int image totals against the reference
    that walks every arc subset and sums images in Fractions."""

    @pytest.mark.parametrize("kind", list(GraphKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_solutions_in_the_same_order(self, kind, data):
        inst = data.draw(enumerable_graphs(kind))
        ours = enumerate_graph_solutions(inst)
        ref = enumerate_graph_solutions_by_combinations(inst)
        assert ours.ids() == ref.ids()
        assert ours == ref

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
        for enumerate_ in (enumerate_graph_solutions, enumerate_graph_solutions_by_combinations):
            try:
                outcomes.append(enumerate_(inst, **limits))
            except EnumerationLimit:
                outcomes.append(EnumerationLimit)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "kind,ids",
        [
            (
                GraphKind.SPANNING_TREE,
                ("tree:0,3", "tree:0,4", "tree:2,3", "tree:2,4", "tree:3,4"),
            ),
            (GraphKind.SHORTEST_PATH, ("path:0,3", "path:2,3")),
        ],
    )
    def test_parallel_arcs_and_a_self_loop(self, kind, ids):
        inst = GraphInstance(MIN, 2, 3, PARALLEL_AND_LOOP, kind, source=0, target=2)
        ours = enumerate_graph_solutions(inst)
        assert ours.ids() == ids
        assert ours == enumerate_graph_solutions_by_combinations(inst)


UNIT = ov(1, 1)
TRIANGLE = GraphInstance(
    MIN, 2, 3, (Arc(0, 1, UNIT), Arc(1, 2, UNIT), Arc(0, 2, UNIT)), GraphKind.SPANNING_TREE
)


def path_graph(node_count=3, arcs=(Arc(0, 1, UNIT), Arc(1, 2, UNIT)), source=0, target=2):
    return GraphInstance(MIN, 2, node_count, arcs, GraphKind.SHORTEST_PATH, source, target)


# Validation refusals: input, exception type, message fragment.
REFUSALS = [
    pytest.param(
        lambda: ExplicitInstance(MIN, 3, (Solution("a", UNIT),)),
        ContractViolation,
        "image dimension differs",
        id="explicit-image-dims",
    ),
    pytest.param(
        lambda: path_graph(node_count=1, source=0, target=0),
        ContractViolation,
        "at least two nodes",
        id="graph-one-node",
    ),
    pytest.param(lambda: path_graph(arcs=()), ContractViolation, "at least one arc", id="no-arcs"),
    pytest.param(
        lambda: path_graph(arcs=(Arc(0, 2, ov(1, 1, 1)),)),
        ContractViolation,
        "arc cost dimension",
        id="arc-cost-dims",
    ),
    pytest.param(
        lambda: path_graph(arcs=(Arc(0, 3, UNIT),)),
        ContractViolation,
        "arc endpoint out of range",
        id="arc-endpoint",
    ),
    pytest.param(
        lambda: path_graph(target=3), ContractViolation, "source/target out of range", id="target"
    ),
    pytest.param(
        lambda: enumerate_graph_solutions(TRIANGLE, work_limit=1),
        EnumerationLimit,
        "tree enumeration work limit",
        id="tree-work-limit",
    ),
    pytest.param(
        lambda: enumerate_graph_solutions(TRIANGLE, limit=2),
        EnumerationLimit,
        "more trees than the enumeration limit",
        id="tree-count-limit",
    ),
]


@pytest.mark.parametrize("build,error,fragment", REFUSALS)
def test_refuses_invalid_input(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
