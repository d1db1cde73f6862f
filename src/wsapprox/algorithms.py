"""Approximation algorithms driven by weighted-sum solves.

Two algorithms are provided for minimization instances.  The general one
walks a geometric grid of weight vectors: with the refined step
eps' = eps/(sigma*p) and per-objective exponent caps u_j, it issues one
sigma-approximate weighted-sum call for every exponent tuple that has at
least one zero component (tuples with a common positive shift scalarize to
an equivalent problem and are skipped).  The output set then multi-factor
approximates every feasible solution: some coordinate factor stays <= sigma
and the factors above 1 sum to at most sigma*p + eps.

The biobjective variant assumes an exact solver and scales weights to
(gamma, 1).  Instead of probing all u1+u2+1 grid weights it binary-searches
the gamma ladder, whose step is the grid's at sigma = 1 and p = 2, pruning
subranges whose endpoints already (1, 2+eps)- or (2+eps, 1)-approximate the
midpoint.  Its output carries the grid's guarantee at sigma = 1 and p = 2,
the pair {(1, 2+eps), (2+eps, 1)}, which is ``multi_factor(1, eps, 2)``.
The search tree is instrumented (node count, nodes with two children,
height) so the tree-size bound can be asserted empirically.

Every algorithm takes a ``SolverHandle``, and a handle cannot be built on a
maximization instance: supported solutions cannot guarantee any bounded
factor in more than one objective at once, so a set with no guarantee is
never produced.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import deque
from fractions import Fraction

from .core import (
    Bounds,
    ContractViolation,
    Direction,
    FactorVector,
    RationalLike,
    Record,
    WeightVector,
    approximates,
    as_rational,
)
from .solvers import SolveAnswer, Solution, SolverHandle

# Largest grid, or bisection ladder, in weights that _grid_step admits.
MAX_GRID_CALLS = 10**6


def _log(x: Fraction) -> float:
    """Natural logarithm of a rational x >= 1, from its exact ints."""
    if x < 2:  # near 1, log(num) - log(den) would cancel its leading digits
        return math.log1p(float(x - 1))
    return math.log(x.numerator) - math.log(x.denominator)


def _cap_estimate(ratio: Fraction, step: Fraction) -> float:
    """log(ratio) / log(step), the float estimate of an exponent cap; inf
    when ratio > 1 but step - 1 is below float range."""
    if ratio == 1:
        return 0.0
    log_step = _log(step)
    return _log(ratio) / log_step if log_step else math.inf


def exponent_cap(low: Fraction, high: Fraction, step: Fraction) -> int:
    """Largest integer u >= 0 with low * step**u <= high.

    u is estimated from logarithms and then settled by exact comparisons of
    step**u with high/low, so it takes O(log u) products, not u of them.
    """
    if not 0 < low <= high or step <= 1:
        raise ContractViolation("need 0 < low <= high and step > 1")
    ratio = high / low
    estimate = _cap_estimate(ratio, step)
    u = int(estimate) if estimate < math.inf else 0
    while u > 0 and step**u > ratio:
        u -= 1
    while step ** (u + 1) <= ratio:
        u += 1
    return u


def _check_report_digits(bounds: Bounds, step: Fraction, u: float) -> None:
    """Refuse a run whose report would print an int of more digits than
    ``sys.get_int_max_str_digits()`` allows (0 means no limit); ``u`` is the
    largest cap estimate.

    Decided from logarithms alone, before any power of the step is built.
    The longest printed rationals are the weights, the cell corners of the
    plan's table and the bisection gammas, l * step**k with k <= u + 1, and
    the answer values, which add such terms over the instance's values; so
    their ints have about (u + 1) * log10(step) digits plus those of the bounds.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    digits = (u + 1) * math.log10(step.numerator) + sum(
        math.log10(v.numerator) + math.log10(v.denominator)
        for v in bounds.lower + bounds.upper
    )
    if digits > limit:
        raise ContractViolation(
            f"report values would have about {digits:.0f} digits, over the limit of "
            f"{limit} digits for integer string conversion; use a larger epsilon"
        )


class GridWeight(Record):
    """One issued weight: exponent tuple k and w_j = 1/(l_j * step**k_j)."""

    __slots__ = ("exponents", "weight")

    def __init__(self, exponents: tuple[int, ...], weight: WeightVector) -> None:
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "weight", weight)


class GridPlan(Record):
    """Weights and cells read l_j * step**k from ``corners[j][k]``, k <= u_j + 1."""

    __slots__ = ("epsilon", "sigma", "eps_prime", "u", "corners", "entries")

    def __init__(
        self,
        epsilon: Fraction,
        sigma: Fraction,
        eps_prime: Fraction,
        u: tuple[int, ...],
        corners: tuple[tuple[Fraction, ...], ...],
        entries: tuple[GridWeight, ...],
    ) -> None:
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "eps_prime", eps_prime)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "corners", corners)
        object.__setattr__(self, "entries", entries)


def expected_grid_calls(u: tuple[int, ...]) -> int:
    """Grid size: exponent tuples in prod [0, u_j] with at least one zero."""
    return math.prod(ul + 1 for ul in u) - math.prod(u)


def _grid_step(
    bounds: Bounds, epsilon: RationalLike, sigma: RationalLike
) -> tuple[Fraction, Fraction, Fraction, tuple[int, ...]]:
    """Checked (epsilon, sigma, step, u) of a grid, step = 1 + epsilon/(sigma*p)
    with p = bounds.p and u its exponent caps.  From float estimates of the
    caps, before any power of the step is built, it refuses a report past the
    interpreter's digit limit and then a grid that is sure to exceed
    MAX_GRID_CALLS weights; it then settles u exactly and refuses a grid of
    more than MAX_GRID_CALLS weights.

    The grid calls it at its solver's sigma; the bisection walks the same
    ladder at sigma = 1 and p = 2, step 1 + epsilon/2, whose u1 + u2 + 1
    rungs are the p = 2 grid's weights."""
    epsilon = as_rational(epsilon)
    sigma = as_rational(sigma)
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    if sigma < 1:
        raise ContractViolation("sigma must be >= 1")
    step = 1 + epsilon / (sigma * bounds.p)
    caps = [_cap_estimate(hi / lo, step) for lo, hi in zip(bounds.lower, bounds.upper)]
    _check_report_digits(bounds, step, max(caps))
    # floor(estimate) - 1 never exceeds the exact cap, so this refuses no grid
    # that the exact check below admits.  Without a digit limit it is what
    # keeps exponent_cap from building step**u at an astronomic u, or counting
    # u up one at a time at an infinite estimate.
    if math.inf in caps:
        estimate = math.inf
    else:
        estimate = expected_grid_calls(tuple(max(0, math.floor(c) - 1) for c in caps))
    if estimate > MAX_GRID_CALLS:
        raise ContractViolation(
            f"grid of about 10^{math.log10(estimate):.3g} weights exceeds the limit of "
            f"{MAX_GRID_CALLS}"
        )
    u = tuple(exponent_cap(lo, hi, step) for lo, hi in zip(bounds.lower, bounds.upper))
    calls = expected_grid_calls(u)
    if calls > MAX_GRID_CALLS:
        raise ContractViolation(
            f"grid of {calls} weights exceeds the limit of {MAX_GRID_CALLS}"
        )
    return epsilon, sigma, step, u


def plan_grid(bounds: Bounds, epsilon: RationalLike, sigma: RationalLike) -> GridPlan:
    """Enumerate the weight grid of the p = bounds.p objectives; deterministic
    order (k ascending, then mixed-radix over the remaining exponents).  A
    grid that ``_grid_step`` refuses raises ContractViolation before any
    weight is built."""
    epsilon, sigma, step, u = _grid_step(bounds, epsilon, sigma)
    p = bounds.p
    corners = tuple(
        tuple(itertools.accumulate(itertools.repeat(step, cap + 1), operator.mul, initial=low))
        for low, cap in zip(bounds.lower, u)
    )
    # w_j = 1/corners[j][k_j], k_j <= u_j: one division per distinct weight component
    inverses = tuple(tuple(1 / c for c in column[:-1]) for column in corners)
    entries: list[GridWeight] = []
    for k in range(p):
        ranges = [
            range(1, u[l] + 1) if l < k else range(0, 1) if l == k else range(0, u[l] + 1)
            for l in range(p)
        ]
        for combo in itertools.product(*ranges):
            weight = WeightVector(tuple(column[k_j] for column, k_j in zip(inverses, combo)))
            entries.append(GridWeight(tuple(combo), weight))
    return GridPlan(epsilon, sigma, step - 1, u, corners, tuple(entries))


class CellAssignment(Record):
    """Hyperrectangle of the objective-space subdivision and its covering id."""

    __slots__ = ("weight_index", "solution_id", "level", "lower", "upper")

    def __init__(
        self,
        weight_index: int,
        solution_id: str,
        level: int,
        lower: tuple[Fraction, ...],
        upper: tuple[Fraction, ...],
    ) -> None:
        object.__setattr__(self, "weight_index", weight_index)
        object.__setattr__(self, "solution_id", solution_id)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


class GridRun(Record):
    __slots__ = ("plan", "answers", "result", "ws_calls")

    def __init__(
        self,
        plan: GridPlan,
        answers: tuple[SolveAnswer, ...],
        result: tuple[Solution, ...],
        ws_calls: int,
    ) -> None:
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "answers", answers)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "ws_calls", ws_calls)

    def result_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.result)

    def cell_map(self) -> tuple[CellAssignment, ...]:
        """The cells of the grid with their Fraction corners, weight by weight.

        Weight i with exponents k owns levels 0 .. min_j (u_j - k_j), and its
        cell at a level spans ``corners[j][k_j + level]`` to
        ``corners[j][k_j + level + 1]``.  Every point of prod [0, u_j] lies on
        exactly one weight's diagonal, so the map has prod (u_j + 1) cells.
        Any feasible image inside a cell is approximated by that weight's
        solution, because the weight shifted to the cell's lower corner is
        equivalent to the issued one.

        The CLI builds no cell map: a report's ``cells`` block holds the
        formatted corner table, sum (u_j + 2) strings, and ``export-plot``
        writes the same cells from it in the same order.
        """
        corners = self.plan.corners
        cells: list[CellAssignment] = []
        for idx, (entry, answer) in enumerate(zip(self.plan.entries, self.answers)):
            k = entry.exponents
            for level in range(min(u_j - k_j for u_j, k_j in zip(self.plan.u, k)) + 1):
                lower = tuple(column[k_j + level] for column, k_j in zip(corners, k))
                upper = tuple(column[k_j + level + 1] for column, k_j in zip(corners, k))
                cells.append(CellAssignment(idx, answer.solution_id, level, lower, upper))
        return tuple(cells)


def _output_set(picked: dict[str, SolveAnswer]) -> tuple[Solution, ...]:
    """P: one solution per answer id, sorted by id (an id fixes its image)."""
    return tuple(Solution(sid, picked[sid].image) for sid in sorted(picked))


def approximate_grid(
    solver: SolverHandle,
    bounds: Bounds,
    epsilon: RationalLike,
) -> GridRun:
    """Run the weight grid through the solver; P is deduplicated by id.

    The solver is called once per plan entry, one call after another in
    plan order; ``answers[i]`` is the answer to ``plan.entries[i]`` and the
    result set is sorted by id.
    """
    if bounds.p != solver.p:
        raise ContractViolation("bounds dimension differs from p")
    plan = plan_grid(bounds, epsilon, solver.sigma)
    before = solver.calls
    answers = [solver.solve(entry.weight) for entry in plan.entries]
    ws_calls = solver.calls - before
    result = _output_set({a.solution_id: a for a in answers})
    return GridRun(plan, tuple(answers), result, ws_calls)


class BisectProbe(Record):
    """One fresh weighted-sum solve of the bisection: ladder index and gamma."""

    __slots__ = ("index", "gamma", "answer")

    def __init__(self, index: int, gamma: Fraction, answer: SolveAnswer) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "answer", answer)


class BiobjectiveRun(Record):
    __slots__ = (
        "epsilon", "eps_prime", "u1", "u2", "gamma_count", "probes", "result",
        "ws_calls", "tree_nodes", "two_child_nodes", "tree_height",
    )

    def __init__(
        self,
        epsilon: Fraction,
        eps_prime: Fraction,
        u1: int,
        u2: int,
        gamma_count: int,
        probes: tuple[BisectProbe, ...],
        result: tuple[Solution, ...],
        ws_calls: int,
        tree_nodes: int,
        two_child_nodes: int,
        tree_height: int,
    ) -> None:
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "eps_prime", eps_prime)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "gamma_count", gamma_count)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "ws_calls", ws_calls)
        object.__setattr__(self, "tree_nodes", tree_nodes)
        object.__setattr__(self, "two_child_nodes", two_child_nodes)
        object.__setattr__(self, "tree_height", tree_height)

    def result_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.result)


def approximate_biobjective(
    solver: SolverHandle,
    bounds: Bounds,
    epsilon: RationalLike,
) -> BiobjectiveRun:
    """Binary search over the gamma ladder (exact solver, p = 2 only).

    The pending ranges form a tree rooted at the initialization (which
    solves the two extreme gammas); every processed range solves its
    midpoint index.  A range is queued only with a rung strictly inside
    it, and the interiors of queued ranges are disjoint, so no index is
    solved twice: ws_calls is 2 + tree_nodes (1 on a one-rung ladder),
    never above u1 + u2 + 1.  ``_grid_step`` refuses a ladder of more than
    MAX_GRID_CALLS rungs, as it does a grid, before any solve.

    The two extreme solutions are always part of the output (deduplicated
    by id); exploration of the interior stops early when one extreme
    already approximates the other.  On a two-rung ladder it always does:
    one objective spans less than the step 1 + eps/2 < 2 + eps, and the
    extreme whose weight favours the other objective is no worse there,
    so it approximates its partner.
    """
    if solver.sigma != 1:
        raise ContractViolation("the bisection requires an exact (sigma = 1) solver")
    if solver.p != 2 or bounds.p != 2:
        raise ContractViolation("the bisection is biobjective only")
    epsilon, _, step, (u1, u2) = _grid_step(bounds, epsilon, 1)
    count = u1 + u2 + 1
    ratio = bounds.lower[1] / bounds.lower[0]
    factor_right = FactorVector.of(1, 2 + epsilon)
    factor_left = FactorVector.of(2 + epsilon, 1)

    before = solver.calls
    probes: list[BisectProbe] = []

    def solve_index(t: int) -> SolveAnswer:
        gamma = ratio * step ** (u2 - t + 1)
        answer = solver.solve(WeightVector.of(gamma, 1))
        probes.append(BisectProbe(t, gamma, answer))
        return answer

    def approx(a: SolveAnswer, b: SolveAnswer, alpha: FactorVector) -> bool:
        return approximates(a.image, b.image, alpha, Direction.MIN)

    first = solve_index(1)
    last = solve_index(count) if count > 1 else first
    # Both extremes always stay in the output: a feasible point whose grid
    # cell belongs to one extreme's weight may be covered by no other solve,
    # so dropping that extreme (even when the other approximates it) voids
    # the guarantee, multi_factor(1, epsilon, 2).  The approximation tests
    # only decide whether the interior of the ladder needs exploring.
    picked = {first.solution_id: first, last.solution_id: last}
    # A queued range (left, x_left, right, x_right, depth) carries its endpoints' answers.
    queue: deque[tuple[int, SolveAnswer, int, SolveAnswer, int]] = deque()
    if count > 2 and not (approx(first, last, factor_right) or approx(last, first, factor_left)):
        queue.append((1, first, count, last, 1))

    tree_nodes = two_child_nodes = tree_height = 0
    while queue:
        left, x_left, right, x_right, depth = queue.popleft()
        tree_nodes += 1
        tree_height = depth  # breadth first, so depths never decrease
        t = (left + right) // 2
        probe = solve_index(t)
        left_covers = approx(x_left, probe, factor_right)
        right_covers = approx(x_right, probe, factor_left)
        if left_covers and right_covers:
            continue
        picked[probe.solution_id] = probe
        go_left = t >= left + 2 and not left_covers and not approx(probe, x_left, factor_left)
        go_right = t <= right - 2 and not approx(probe, x_right, factor_right) and not right_covers
        if go_left:
            queue.append((left, x_left, t, probe, depth + 1))
        if go_right:
            queue.append((t, probe, right, x_right, depth + 1))
        two_child_nodes += go_left and go_right

    return BiobjectiveRun(
        epsilon,
        step - 1,
        u1,
        u2,
        count,
        tuple(probes),
        _output_set(picked),
        solver.calls - before,
        tree_nodes,
        two_child_nodes,
        tree_height,
    )


def approximate_with_ptas(
    solver: SolverHandle, bounds: Bounds, epsilon: RationalLike
) -> GridRun:
    """Drive the grid with the solver, whose sigma is 1 + tau, at eps - tau*p.

    The inner run's multi-factor family then has excess-sum bound
    (1 + tau)*p + (eps - tau*p) = p + eps, with some coordinate <= 1 + tau.
    """
    epsilon = as_rational(epsilon)
    tau = solver.sigma - 1
    p = bounds.p
    if not 0 < tau < epsilon / p:
        raise ContractViolation("tau must satisfy 0 < tau < epsilon / p")
    return approximate_grid(solver, bounds, epsilon - tau * p)
