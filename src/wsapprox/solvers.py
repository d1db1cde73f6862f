"""Weighted-sum solver backends and the call-counting solver handle.

Three kernels realize the sigma-approximate weighted-sum contract: one over
an explicit list of solutions, which returns the worst solution still
admissible under sigma (the optimum at sigma = 1, so exactness is not a
second path), Dijkstra over the scalarized arc costs of a digraph, and
Kruskal over the scalarized edge costs of an undirected graph.  The
adversarial choice at sigma > 1 makes guarantee tests maximally stressing.

Tie-breaking is deterministic everywhere: the explicit kernel prefers the
lexicographically smallest objective vector and then the smallest id, graph
kernels follow input arc order.  Runs are therefore reproducible and the
exact handles always return solutions with nondominated images.

Each kernel exists once, on integers, and a ``SolverHandle`` builds it
from its instance and sigma.  When the kernel is built, each objective
column is multiplied by the LCM of its denominators, and each call
multiplies the weights by the LCM of the denominators left after dividing
out those column scales.  The column scales cancel against the weights, and
the weight scale multiplies every weighted sum by one positive constant.
So every comparison of the resulting Python ints, including each tie and
the adversarial bound, has the same outcome as the comparison of the
``Fraction`` sums.  Only the reported scalar is turned back into a
``Fraction``, once per answer.  The test suite keeps direct ``Fraction``
versions of the exact and adversarial explicit solves and of both graph
kernels, and checks every handle against them.

Every kernel minimizes: a ``SolverHandle`` refuses a maximization instance
with ``MaximizationUnsupported`` before it builds its kernel, since weighted
sums carry no guarantee there.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .core import (
    MAXIMIZATION_REJECTION,
    Bounds,
    ContractViolation,
    Direction,
    MaximizationUnsupported,
    ObjectiveVector,
    RationalLike,
    WeightVector,
    as_rational,
)


class UnreachableTarget(ContractViolation):
    """Shortest-path instance whose target cannot be reached from the source."""


class DisconnectedGraph(ContractViolation):
    """Spanning-tree instance whose underlying graph is not connected."""


class EnumerationLimit(RuntimeError):
    """Exhaustive enumeration of a graph instance exceeded the guard."""


@dataclass(frozen=True)
class Solution:
    id: str
    image: ObjectiveVector


@dataclass(frozen=True)
class ExplicitInstance:
    """Feasible set given by an explicit list of (id, image) pairs."""

    direction: Direction
    p: int
    solutions: tuple[Solution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "solutions", tuple(self.solutions))
        if not self.solutions:
            raise ContractViolation("explicit instances must be nonempty")
        if any(len(s.image) != self.p for s in self.solutions):
            raise ContractViolation("solution image dimension differs from p")
        ids = [s.id for s in self.solutions]
        if len(set(ids)) != len(ids):
            raise ContractViolation("solution ids must be unique")

    def image_of(self, solution_id: str) -> ObjectiveVector:
        for s in self.solutions:
            if s.id == solution_id:
                return s.image
        raise ContractViolation(f"unknown solution id {solution_id!r}")

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.solutions)


class GraphKind(Enum):
    SHORTEST_PATH = "shortest-path"
    SPANNING_TREE = "spanning-tree"


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    cost: ObjectiveVector


@dataclass(frozen=True)
class GraphInstance:
    """Digraph (shortest path) or undirected graph (spanning tree) instance.

    For SPANNING_TREE the arcs are read as undirected edges and source and
    target are ignored.
    """

    direction: Direction
    p: int
    node_count: int
    arcs: tuple[Arc, ...]
    kind: GraphKind
    source: int = 0
    target: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if self.node_count < 2:
            raise ContractViolation("graph instances need at least two nodes")
        if not self.arcs:
            raise ContractViolation("graph instances need at least one arc")
        for arc in self.arcs:
            if len(arc.cost) != self.p:
                raise ContractViolation("arc cost dimension differs from p")
            if not (0 <= arc.tail < self.node_count and 0 <= arc.head < self.node_count):
                raise ContractViolation("arc endpoint out of range")
        if self.kind is GraphKind.SHORTEST_PATH:
            if not 0 <= self.source < self.node_count or not 0 <= self.target < self.node_count:
                raise ContractViolation("source/target out of range")
            if self.source == self.target:
                raise ContractViolation("source and target must differ")
            if not self._target_reachable():
                raise UnreachableTarget("target not reachable from source")
        else:
            if not self._connected():
                raise DisconnectedGraph("spanning-tree instance is not connected")

    def _target_reachable(self) -> bool:
        successors: list[list[int]] = [[] for _ in range(self.node_count)]
        for arc in self.arcs:
            successors[arc.tail].append(arc.head)
        seen = {self.source}
        frontier = [self.source]
        while frontier:
            for head in successors[frontier.pop()]:
                if head not in seen:
                    seen.add(head)
                    frontier.append(head)
        return self.target in seen

    def _connected(self) -> bool:
        uf = _UnionFind(self.node_count)
        for arc in self.arcs:
            uf.union(arc.tail, arc.head)
        root = uf.find(0)
        return all(uf.find(v) == root for v in range(self.node_count))


Instance = Union[ExplicitInstance, GraphInstance]


@dataclass(frozen=True)
class SolveAnswer:
    """One weighted-sum answer: canonical id, image, exact scalar value."""

    solution_id: str
    image: ObjectiveVector
    scalar: Fraction
    arcs: Optional[tuple[int, ...]] = None


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _vector_sum(p: int, vectors: list[ObjectiveVector]) -> ObjectiveVector:
    total = [Fraction(0)] * p
    for vec in vectors:
        for j, v in enumerate(vec):
            total[j] += v
    return ObjectiveVector(tuple(total))


def path_id(arc_indices: tuple[int, ...]) -> str:
    return "path:" + ",".join(str(i) for i in arc_indices)


def tree_id(arc_indices: tuple[int, ...]) -> str:
    return "tree:" + ",".join(str(i) for i in sorted(arc_indices))


def compute_bounds(inst: Instance) -> Bounds:
    """Strictly positive bounds sandwiching every feasible image.

    Explicit instances get the exact componentwise min and max.  Graph
    instances use the cheapest arc as the lower bound and the sum of all
    arcs as the upper bound; looser bounds only enlarge the weight grid.
    """
    if isinstance(inst, ExplicitInstance):
        lower = tuple(
            min(s.image[j] for s in inst.solutions) for j in range(inst.p)
        )
        upper = tuple(
            max(s.image[j] for s in inst.solutions) for j in range(inst.p)
        )
        return Bounds(lower, upper)
    lower = tuple(min(a.cost[j] for a in inst.arcs) for j in range(inst.p))
    upper = tuple(
        sum((a.cost[j] for a in inst.arcs), Fraction(0)) for j in range(inst.p)
    )
    return Bounds(lower, upper)


def enumerate_graph_solutions(
    inst: GraphInstance, limit: int = 10000, work_limit: int = 2_000_000
) -> ExplicitInstance:
    """Materialize all simple paths or spanning trees as an explicit instance.

    Guarded: raises EnumerationLimit once more than ``limit`` solutions are
    found or the combinational work exceeds ``work_limit``.  Intended only
    for desk-scale oracle verification.
    """
    solutions: list[Solution] = []
    if inst.kind is GraphKind.SHORTEST_PATH:
        out: list[list[tuple[int, Arc]]] = [[] for _ in range(inst.node_count)]
        for idx, arc in enumerate(inst.arcs):
            out[arc.tail].append((idx, arc))

        # Depth-first search with an explicit stack of arc iterators, one per
        # non-target node of the current path, so that path length is not
        # bounded by the interpreter's recursion limit.
        steps = 0
        on_path = {inst.source}
        taken: list[int] = []
        frames: list[Iterator[tuple[int, Arc]]] = []

        def enter(node: int) -> bool:
            """Visit ``node``: record the path if it is the target, else
            open its frame.  True iff a frame was opened."""
            nonlocal steps
            steps += 1
            if steps > work_limit:
                raise EnumerationLimit("path enumeration work limit exceeded")
            if node == inst.target:
                arc_tuple = tuple(taken)
                image = _vector_sum(inst.p, [inst.arcs[i].cost for i in arc_tuple])
                solutions.append(Solution(path_id(arc_tuple), image))
                if len(solutions) > limit:
                    raise EnumerationLimit("more paths than the enumeration limit")
                return False
            frames.append(iter(out[node]))
            return True

        enter(inst.source)
        while frames:
            for idx, arc in frames[-1]:
                if arc.head in on_path:
                    continue
                taken.append(idx)
                if enter(arc.head):
                    on_path.add(arc.head)
                    break
                taken.pop()
            else:
                frames.pop()
                if taken:
                    on_path.remove(inst.arcs[taken.pop()].head)
    else:
        m = inst.node_count - 1
        combos = itertools.combinations(range(len(inst.arcs)), m)
        for steps, combo in enumerate(combos):
            if steps > work_limit:
                raise EnumerationLimit("tree enumeration work limit exceeded")
            uf = _UnionFind(inst.node_count)
            if all(uf.union(inst.arcs[i].tail, inst.arcs[i].head) for i in combo):
                image = _vector_sum(inst.p, [inst.arcs[i].cost for i in combo])
                solutions.append(Solution(tree_id(tuple(combo)), image))
                if len(solutions) > limit:
                    raise EnumerationLimit("more trees than the enumeration limit")
    return ExplicitInstance(inst.direction, inst.p, tuple(solutions))


class _IntegerForm:
    """Vectors with the denominators of each objective cleared once.

    Column j holds the ints F_ij = f_ij * L_j, where L_j is the LCM of the
    denominators of objective j.  For weights w, let D be the LCM of the
    denominators of w_j / L_j and W_j = (w_j / L_j) * D.  Then the int
    V_i = sum_j W_j * F_ij equals D * (w . f_i) exactly, and D > 0 is
    shared by every i, so comparing the V_i compares the weighted sums.
    The form is never mutated after construction.
    """

    def __init__(self, p: int, vectors: Sequence[ObjectiveVector]) -> None:
        self.scales = tuple(
            math.lcm(*(v[j].denominator for v in vectors)) for j in range(p)
        )
        self.columns = tuple(
            tuple(v[j].numerator * (scale // v[j].denominator) for v in vectors)
            for j, scale in enumerate(self.scales)
        )

    def values(self, weights: WeightVector) -> tuple[list[int], int]:
        """The ints D * (w . f_i) in input order, and the denominator D."""
        scaled = [w / scale for w, scale in zip(weights, self.scales)]
        denom = math.lcm(*(s.denominator for s in scaled))
        values = [0] * len(self.columns[0])
        for s, column in zip(scaled, self.columns):
            factor = s.numerator * (denom // s.denominator)
            values = list(map(operator.add, values, map(factor.__mul__, column)))
        return values, denom

    def image(self, indices: tuple[int, ...]) -> ObjectiveVector:
        """Exact sum of the vectors at ``indices``."""
        return ObjectiveVector(
            tuple(
                Fraction(sum(column[i] for i in indices), scale)
                for column, scale in zip(self.columns, self.scales)
            )
        )


Kernel = Callable[[WeightVector], SolveAnswer]


def _sorted_form(inst: ExplicitInstance) -> tuple[tuple[Solution, ...], _IntegerForm]:
    """Solutions ordered by (image, id), so that the first index holding the
    chosen value is the tie-break winner, with their integer form."""
    order = tuple(sorted(inst.solutions, key=lambda s: (s.image.values, s.id)))
    return order, _IntegerForm(inst.p, [s.image for s in order])


def _explicit_kernel(inst: ExplicitInstance, sigma: Fraction) -> Kernel:
    """Worst solution whose weighted value still satisfies the sigma
    contract, which at sigma = 1 is the optimum.

    Among all x with value <= sigma * opt the one with the largest value is
    returned, so a downstream guarantee that survives this kernel survives
    any admissible sigma-approximation.  Ties go to the lexicographically
    smallest objective vector, then the smallest id.
    """
    order, form = _sorted_form(inst)

    def solve(weights: WeightVector) -> SolveAnswer:
        values, denom = form.values(weights)
        # With sigma = a/b, v is admissible iff b*v <= a*opt; as v is an int,
        # that is v <= floor(a*opt / b).  An exact solve has cap == opt and
        # needs no second scan.
        opt = min(values)
        cap = sigma.numerator * opt // sigma.denominator
        value = opt if cap == opt else max(v for v in values if v <= cap)
        chosen = order[values.index(value)]
        return SolveAnswer(chosen.id, chosen.image, Fraction(value, denom))

    return solve


def _shortest_path_kernel(inst: GraphInstance) -> Kernel:
    """Dijkstra on the scalarized arc costs (all strictly positive).

    Predecessors are updated only on strictly smaller scalar values, with
    arcs relaxed in input order, so the returned path is deterministic.
    """
    form = _IntegerForm(inst.p, [arc.cost for arc in inst.arcs])
    out: list[list[tuple[int, int]]] = [[] for _ in range(inst.node_count)]
    for idx, arc in enumerate(inst.arcs):
        out[arc.tail].append((idx, arc.head))

    def solve(weights: WeightVector) -> SolveAnswer:
        costs, denom = form.values(weights)
        dist: dict[int, int] = {inst.source: 0}
        pred: dict[int, int] = {}
        done: set[int] = set()
        counter = itertools.count()
        heap: list[tuple[int, int, int]] = [(0, next(counter), inst.source)]
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node == inst.target:
                break
            for idx, head in out[node]:
                nd = d + costs[idx]
                if head not in dist or nd < dist[head]:
                    dist[head] = nd
                    pred[head] = idx
                    heapq.heappush(heap, (nd, next(counter), head))
        indices: list[int] = []
        node = inst.target
        while node != inst.source:
            idx = pred[node]
            indices.append(idx)
            node = inst.arcs[idx].tail
        indices.reverse()
        arc_tuple = tuple(indices)
        scalar = Fraction(dist[inst.target], denom)
        return SolveAnswer(path_id(arc_tuple), form.image(arc_tuple), scalar, arc_tuple)

    return solve


def _spanning_tree_kernel(inst: GraphInstance) -> Kernel:
    """Kruskal on the scalarized edge costs; ties keep input edge order."""
    form = _IntegerForm(inst.p, [arc.cost for arc in inst.arcs])

    def solve(weights: WeightVector) -> SolveAnswer:
        costs, denom = form.values(weights)
        uf = _UnionFind(inst.node_count)
        chosen: list[int] = []
        for idx in sorted(range(len(costs)), key=costs.__getitem__):
            arc = inst.arcs[idx]
            if uf.union(arc.tail, arc.head):
                chosen.append(idx)
                if len(chosen) == inst.node_count - 1:
                    break
        arc_tuple = tuple(sorted(chosen))
        scalar = Fraction(sum(costs[i] for i in arc_tuple), denom)
        return SolveAnswer(tree_id(arc_tuple), form.image(arc_tuple), scalar, arc_tuple)

    return solve


def _kernel(inst: Instance, sigma: Fraction) -> Kernel:
    """The explicit kernel at ``sigma``, Dijkstra or Kruskal, per instance."""
    if isinstance(inst, ExplicitInstance):
        return _explicit_kernel(inst, sigma)
    if inst.kind is GraphKind.SHORTEST_PATH:
        return _shortest_path_kernel(inst)
    return _spanning_tree_kernel(inst)


@dataclass
class SolverHandle:
    """One weighted-sum backend bound to an instance, with a call counter.

    ``sigma`` is the contract bound the backend promises, not a measured
    quality.  ``kernel`` answers one weighted-sum problem and shares no
    mutable state between calls; left out, it is built from the instance
    and sigma.  The handle refuses a maximization instance
    (``MaximizationUnsupported``), then a sigma below 1, before any kernel
    is built, so every kernel and every algorithm downstream minimizes.
    Every ``solve`` increments the counter by exactly one, then checks the
    weight dimension for every kernel, so a kernel only ever sees p
    weights.  A handle is used by one thread at a time: the algorithms make
    their calls one after another, and the counter is not locked.
    """

    instance: Instance
    sigma: Fraction
    kernel: Optional[Kernel] = field(default=None, repr=False)
    _calls: int = 0

    def __post_init__(self) -> None:
        if self.instance.direction is not Direction.MIN:
            raise MaximizationUnsupported(MAXIMIZATION_REJECTION)
        if self.sigma < 1:
            raise ContractViolation("sigma must be >= 1")
        if self.kernel is None:
            self.kernel = _kernel(self.instance, self.sigma)

    @property
    def calls(self) -> int:
        return self._calls

    @property
    def p(self) -> int:
        return self.instance.p

    def solve(self, weights: WeightVector) -> SolveAnswer:
        self._calls += 1
        if len(weights) != self.instance.p:
            raise ContractViolation("weight vector dimension differs from p")
        return self.kernel(weights)


def exact_solver(inst: Instance) -> SolverHandle:
    """Exact (sigma = 1) solver handle with the kernel picked per instance:
    the explicit kernel at sigma = 1, Dijkstra or Kruskal."""
    return SolverHandle(inst, Fraction(1))


def adversarial_solver(inst: ExplicitInstance, sigma: RationalLike) -> SolverHandle:
    """The explicit kernel at ``sigma`` (explicit instances): each call
    returns the worst solution within sigma of the optimum."""
    if not isinstance(inst, ExplicitInstance):
        raise ContractViolation("adversarial backend requires an explicit instance")
    return SolverHandle(inst, as_rational(sigma))
