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
the gamma ladder, pruning subranges whose endpoints already (1, 2+eps)- or
(2+eps, 1)-approximate the midpoint.  The search tree is instrumented (node
count, nodes with two children, height) so the tree-size bound can be
asserted empirically.

Maximization instances are rejected outright: supported solutions cannot
guarantee any bounded factor in more than one objective at once, so running
the grid on a maximization problem would produce a set with no guarantee.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    Bounds,
    ContractViolation,
    Direction,
    FactorVector,
    GuaranteeFamily,
    MaximizationUnsupported,
    RationalLike,
    WeightVector,
    approximates,
    as_rational,
)
from .solvers import SolveAnswer, Solution, SolverHandle

MAXIMIZATION_REJECTION = (
    "maximization instance rejected: supported solutions admit no bounded "
    "weighted-sum approximation guarantee in more than one objective"
)

# Largest grid plan_grid builds; a larger one is refused before any entry is.
MAX_GRID_CALLS = 10**6


def exponent_cap(low: Fraction, high: Fraction, step: Fraction) -> int:
    """Largest integer u >= 0 with low * step**u <= high, by exact products."""
    if not 0 < low <= high or step <= 1:
        raise ContractViolation("need 0 < low <= high and step > 1")
    u = 0
    value = low
    while value * step <= high:
        value *= step
        u += 1
    return u


@dataclass(frozen=True)
class GridWeight:
    """One issued weight: exponent tuple, cell base b, and w = 1/b."""

    exponents: tuple[int, ...]
    base: tuple[Fraction, ...]
    weight: WeightVector


@dataclass(frozen=True)
class GridPlan:
    epsilon: Fraction
    sigma: Fraction
    p: int
    eps_prime: Fraction
    u: tuple[int, ...]
    powers: tuple[Fraction, ...]
    bounds: Bounds
    entries: tuple[GridWeight, ...]


def expected_grid_calls(u: tuple[int, ...]) -> int:
    """Grid size: exponent tuples in prod [0, u_j] with at least one zero."""
    return math.prod(ul + 1 for ul in u) - math.prod(u)


def plan_grid(
    bounds: Bounds, epsilon: RationalLike, sigma: RationalLike, p: int
) -> GridPlan:
    """Enumerate the weight grid; deterministic order (k ascending, then
    mixed-radix over the remaining exponents).  A grid of more than
    MAX_GRID_CALLS weights raises ContractViolation before any is built."""
    epsilon = as_rational(epsilon)
    sigma = as_rational(sigma)
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    if sigma < 1:
        raise ContractViolation("sigma must be >= 1")
    if bounds.p != p:
        raise ContractViolation("bounds dimension differs from p")
    eps_prime = epsilon / (sigma * p)
    step = 1 + eps_prime
    u = tuple(exponent_cap(bounds.lower[j], bounds.upper[j], step) for j in range(p))
    calls = expected_grid_calls(u)
    if calls > MAX_GRID_CALLS:
        raise ContractViolation(
            f"grid of {calls} weights exceeds the limit of {MAX_GRID_CALLS}"
        )
    powers = [Fraction(1)]
    for _ in range(max(u) + 1):
        powers.append(powers[-1] * step)
    entries: list[GridWeight] = []
    for k in range(p):
        ranges = [
            range(1, u[l] + 1) if l < k else range(0, 1) if l == k else range(0, u[l] + 1)
            for l in range(p)
        ]
        for combo in itertools.product(*ranges):
            base = tuple(bounds.lower[j] * powers[combo[j]] for j in range(p))
            weight = WeightVector(tuple(1 / b for b in base))
            entries.append(GridWeight(tuple(combo), base, weight))
    assert len(entries) == calls
    return GridPlan(epsilon, sigma, p, eps_prime, u, tuple(powers), bounds, tuple(entries))


@dataclass(frozen=True)
class CellAssignment:
    """Hyperrectangle of the objective-space subdivision and its covering id."""

    weight_index: int
    solution_id: str
    level: int
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]


@dataclass(frozen=True)
class GridRun:
    plan: GridPlan
    answers: tuple[SolveAnswer, ...]
    result: tuple[Solution, ...]
    ws_calls: int

    @property
    def epsilon(self) -> Fraction:
        return self.plan.epsilon

    @property
    def sigma(self) -> Fraction:
        return self.plan.sigma

    @property
    def eps_prime(self) -> Fraction:
        return self.plan.eps_prime

    @property
    def u(self) -> tuple[int, ...]:
        return self.plan.u

    def result_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.result)

    def cell_map(self) -> tuple[CellAssignment, ...]:
        """Diagonal of cells per weight: level l spans base*step^l upward.

        Any feasible image inside a cell is approximated by that weight's
        solution, because the weight shifted to the cell base is equivalent
        to the issued one.
        """
        cells: list[CellAssignment] = []
        u = self.plan.u
        powers = self.plan.powers
        for idx, (entry, answer) in enumerate(zip(self.plan.entries, self.answers)):
            max_level = min(u[j] - entry.exponents[j] for j in range(self.plan.p))
            for level in range(max_level + 1):
                lower = tuple(b * powers[level] for b in entry.base)
                upper = tuple(b * powers[level + 1] for b in entry.base)
                cells.append(CellAssignment(idx, answer.solution_id, level, lower, upper))
        return tuple(cells)


def _reject_max(solver: SolverHandle) -> None:
    if solver.direction is not Direction.MIN:
        raise MaximizationUnsupported(MAXIMIZATION_REJECTION)


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
    _reject_max(solver)
    plan = plan_grid(bounds, epsilon, solver.sigma, solver.p)
    before = solver.calls
    answers = [solver.solve(entry.weight) for entry in plan.entries]
    ws_calls = solver.calls - before
    picked: dict[str, SolveAnswer] = {}
    for answer in answers:
        picked.setdefault(answer.solution_id, answer)
    result = tuple(
        Solution(sid, picked[sid].image) for sid in sorted(picked)
    )
    return GridRun(plan, tuple(answers), result, ws_calls)


@dataclass(frozen=True)
class BisectProbe:
    """One fresh weighted-sum solve of the bisection: ladder index and gamma."""

    index: int
    gamma: Fraction
    answer: SolveAnswer


@dataclass(frozen=True)
class BiobjectiveRun:
    epsilon: Fraction
    eps_prime: Fraction
    u1: int
    u2: int
    gamma_count: int
    probes: tuple[BisectProbe, ...]
    result: tuple[Solution, ...]
    ws_calls: int
    tree_nodes: int
    two_child_nodes: int
    tree_height: int

    def result_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.result)


def approximate_biobjective(
    solver: SolverHandle,
    bounds: Bounds,
    epsilon: RationalLike,
) -> BiobjectiveRun:
    """Binary search over the gamma ladder (exact solver, p = 2 only).

    The pending ranges form a tree rooted at the initialization (which
    solves the two extreme gammas); every processed range solves the
    midpoint index once.  Indices are memoized, so a range that bisects to
    an already-solved index costs no extra call; this keeps ws_calls at the
    number of distinct ladder indices probed, never above u1 + u2 + 1.

    The two extreme solutions are always part of the output (deduplicated
    by id); exploration of the interior stops early when one extreme
    already approximates the other.
    """
    _reject_max(solver)
    epsilon = as_rational(epsilon)
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    if solver.sigma != 1:
        raise ContractViolation("the bisection requires an exact (sigma = 1) solver")
    if solver.p != 2 or bounds.p != 2:
        raise ContractViolation("the bisection is biobjective only")
    eps_prime = epsilon / 2
    step = 1 + eps_prime
    u1 = exponent_cap(bounds.lower[0], bounds.upper[0], step)
    u2 = exponent_cap(bounds.lower[1], bounds.upper[1], step)
    count = u1 + u2 + 1
    ratio = bounds.lower[1] / bounds.lower[0]
    factor_right = FactorVector.of(1, 2 + epsilon)
    factor_left = FactorVector.of(2 + epsilon, 1)

    before = solver.calls
    solved: dict[int, SolveAnswer] = {}
    probes: list[BisectProbe] = []

    def solve_index(t: int) -> SolveAnswer:
        if t not in solved:
            gamma = ratio * step ** (u2 - t + 1)
            answer = solver.solve(WeightVector.of(gamma, 1))
            solved[t] = answer
            probes.append(BisectProbe(t, gamma, answer))
        return solved[t]

    def approx(a: SolveAnswer, b: SolveAnswer, alpha: FactorVector) -> bool:
        return approximates(a.image, b.image, alpha, Direction.MIN)

    first = solve_index(1)
    last = solve_index(count)
    picked: dict[str, SolveAnswer] = {}
    # Both extremes always stay in the output: a feasible point whose grid
    # cell belongs to one extreme's weight may be covered by no other solve,
    # so dropping that extreme (even when the other approximates it) voids
    # the disjunctive guarantee.  The approximation tests only decide
    # whether the interior of the ladder needs exploring.
    picked[first.solution_id] = first
    picked.setdefault(last.solution_id, last)
    queue: deque[tuple[int, int, int]] = deque()
    if not approx(first, last, factor_right) and not approx(last, first, factor_left):
        queue.append((1, count, 1))

    tree_nodes = 0
    two_child_nodes = 0
    tree_height = 0
    while queue:
        left, right, depth = queue.popleft()
        tree_nodes += 1
        tree_height = max(tree_height, depth)
        t = (left + right) // 2
        probe = solve_index(t)
        x_left, x_right = solved[left], solved[right]
        left_covers = approx(x_left, probe, factor_right)
        right_covers = approx(x_right, probe, factor_left)
        if not left_covers or not right_covers:
            picked.setdefault(probe.solution_id, probe)
            children = 0
            if t >= left + 2 and not left_covers and not approx(probe, x_left, factor_left):
                queue.append((left, t, depth + 1))
                children += 1
            if (
                t <= right - 2
                and not approx(probe, x_right, factor_right)
                and not right_covers
            ):
                queue.append((t, right, depth + 1))
                children += 1
            if children == 2:
                two_child_nodes += 1

    ws_calls = solver.calls - before
    result = tuple(Solution(sid, picked[sid].image) for sid in sorted(picked))
    return BiobjectiveRun(
        epsilon,
        eps_prime,
        u1,
        u2,
        count,
        tuple(probes),
        result,
        ws_calls,
        tree_nodes,
        two_child_nodes,
        tree_height,
    )


def ptas_family(p: int, epsilon: RationalLike, tau: RationalLike) -> GuaranteeFamily:
    """Guarantee family of the PTAS wrapper: excess sum p + eps, escape 1 + tau."""
    epsilon = as_rational(epsilon)
    tau = as_rational(tau)
    return GuaranteeFamily.multi_factor_raw(1 + tau, p + epsilon, p)


def approximate_with_ptas(
    solver_family: Callable[[Fraction], SolverHandle],
    bounds: Bounds,
    epsilon: RationalLike,
    tau: RationalLike,
) -> GridRun:
    """Drive the grid with a (1 + tau)-approximate solver and eps - tau*p.

    The inner run's multi-factor family then has excess-sum bound
    (1 + tau)*p + (eps - tau*p) = p + eps, with some coordinate <= 1 + tau.
    """
    epsilon = as_rational(epsilon)
    tau = as_rational(tau)
    p = bounds.p
    if not 0 < tau < epsilon / p:
        raise ContractViolation("tau must satisfy 0 < tau < epsilon / p")
    solver = solver_family(tau)
    if solver.sigma != 1 + tau:
        raise ContractViolation("solver family must return a (1 + tau)-approximate solver")
    return approximate_grid(solver, bounds, epsilon - tau * p)
