"""Weighted-sum solver backends and the call-counting solver handle.

Three kernels realize the sigma-approximate weighted-sum contract: one over
an explicit list of solutions, which returns the worst solution still
admissible under sigma (the optimum at sigma = 1, so exactness is not a
second path), Dijkstra over the scalarized arc costs of a digraph, and
Kruskal over the scalarized edge costs of an undirected graph.  The
adversarial choice at sigma > 1 makes guarantee tests maximally stressing.

The explicit kernel keeps a private scan list of the solutions it may
still return, in (image, id) order.  With sigma = a/b and F the cleared
int images (below), each optimum x that a call finds for the first time
drops every y with b*F_y >= a*F_x componentwise and b*F_y != a*F_x.  Under
strictly positive weights such a y has b*V_y > a*V_x >= a*opt at every
weight, so it is never the optimum and never admissible again; the answer,
its tie-break and its scalar do not change.  At sigma = 1 this drops what
an optimum strictly dominates.

The Kruskal kernel forgets, when it is built, the edges it never chooses.
Edge f precedes e at every strictly positive weight when F_f <= F_e
componentwise and (F_f != F_e or f < e).  When such edges join e's ends,
Kruskal has joined them before it reaches e (the cycle property), so
dropping e changes no chosen edge, component or early stop.  Both graph
kernels build each distinct answer's id and image once, and Dijkstra
numbers the nodes its arcs name once; a call computes only the search.

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
versions of the explicit solves and both graph kernels, and checks the
package against them.

Every kernel minimizes: a ``SolverHandle`` refuses a maximization instance
with ``MaximizationUnsupported`` before it builds its kernel, since weighted
sums carry no guarantee there.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .core import (
    MAXIMIZATION_REJECTION,
    Bounds,
    ContractViolation,
    Direction,
    MaximizationUnsupported,
    ObjectiveVector,
    RationalLike,
    Record,
    WeightVector,
    as_rational,
)


class UnreachableTarget(ContractViolation):
    """Shortest-path instance whose target cannot be reached from the source."""


class DisconnectedGraph(ContractViolation):
    """Spanning-tree instance whose underlying graph is not connected."""


class Solution(Record):
    __slots__ = ("id", "image")

    def __init__(self, id: str, image: ObjectiveVector) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "image", image)


class ExplicitInstance(Record):
    """Feasible set given by an explicit list of (id, image) pairs."""

    __slots__ = ("direction", "p", "solutions")

    def __init__(self, direction: Direction, p: int, solutions: Sequence[Solution]) -> None:
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "solutions", tuple(solutions))
        if not self.solutions:
            raise ContractViolation("explicit instances must be nonempty")
        if any(len(s.image) != self.p for s in self.solutions):
            raise ContractViolation("solution image dimension differs from p")
        ids = [s.id for s in self.solutions]
        if len(set(ids)) != len(ids):
            raise ContractViolation("solution ids must be unique")

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.solutions)


class GraphKind(Enum):
    SHORTEST_PATH = "shortest-path"
    SPANNING_TREE = "spanning-tree"


class Arc(Record):
    __slots__ = ("tail", "head", "cost")

    def __init__(self, tail: int, head: int, cost: ObjectiveVector) -> None:
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "cost", cost)


class GraphInstance(Record):
    """Digraph (shortest path) or undirected graph (spanning tree) instance.

    For SPANNING_TREE the arcs are read as undirected edges and source and
    target are ignored.
    """

    __slots__ = ("direction", "p", "node_count", "arcs", "kind", "source", "target")

    def __init__(
        self,
        direction: Direction,
        p: int,
        node_count: int,
        arcs: Sequence[Arc],
        kind: GraphKind,
        source: int = 0,
        target: int = 0,
    ) -> None:
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "arcs", tuple(arcs))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
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
            if self.target not in self._reached(self.source, undirected=False):
                raise UnreachableTarget("target not reachable from source")
        elif len(self.arcs) < self.node_count - 1:
            # refused before _reached builds a list for every declared node
            raise DisconnectedGraph(
                f"spanning-tree instance has {len(self.arcs)} arcs, fewer than "
                f"nodes - 1 = {self.node_count - 1}, so it is not connected"
            )
        elif len(self._reached(0, undirected=True)) < self.node_count:
            raise DisconnectedGraph("spanning-tree instance is not connected")

    def _reached(self, start: int, undirected: bool) -> set[int]:
        """Nodes reachable from ``start`` along the arcs, or along the edges
        they form if ``undirected``.  Keyed by the nodes the arcs name, so
        the work is bounded by the arcs, not by ``node_count``."""
        successors: dict[int, list[int]] = {}
        for arc in self.arcs:
            successors.setdefault(arc.tail, []).append(arc.head)
            if undirected:
                successors.setdefault(arc.head, []).append(arc.tail)
        seen = {start}
        frontier = [start]
        while frontier:
            for head in successors.get(frontier.pop(), ()):
                if head not in seen:
                    seen.add(head)
                    frontier.append(head)
        return seen


Instance = Union[ExplicitInstance, GraphInstance]


class SolveAnswer(Record):
    """One weighted-sum answer: canonical id, image, exact scalar value."""

    __slots__ = ("solution_id", "image", "scalar", "arcs")

    def __init__(
        self,
        solution_id: str,
        image: ObjectiveVector,
        scalar: Fraction,
        arcs: Optional[tuple[int, ...]] = None,
    ) -> None:
        object.__setattr__(self, "solution_id", solution_id)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "arcs", arcs)


def path_id(arc_indices: tuple[int, ...]) -> str:
    return "path:" + ",".join(map(str, arc_indices))


def tree_id(arc_indices: tuple[int, ...]) -> str:
    return "tree:" + ",".join(map(str, sorted(arc_indices)))


def compute_bounds(inst: Instance) -> Bounds:
    """Strictly positive bounds sandwiching every feasible image.

    Explicit instances get the exact componentwise min and max.  Graph
    instances use the cheapest arc as the lower bound and the sum of all
    arcs as the upper bound; looser bounds only enlarge the weight grid.
    Both come from the int columns of the ``_IntegerForm``.
    """
    if isinstance(inst, ExplicitInstance):
        form = _IntegerForm(inst.p, [s.image for s in inst.solutions])
        upper = form.vector([max(column) for column in form.columns])
    else:
        form = _IntegerForm(inst.p, [arc.cost for arc in inst.arcs])
        upper = form.image(range(len(inst.arcs)))
    lower = form.vector([min(column) for column in form.columns])
    return Bounds(lower.values, upper.values)


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
        rows = [v.values for v in vectors]
        self.scales = tuple(math.lcm(*[row[j].denominator for row in rows]) for j in range(p))
        self.columns = tuple(
            tuple([row[j].numerator * (scale // row[j].denominator) for row in rows])
            for j, scale in enumerate(self.scales)
        )

    def factors(self, weights: WeightVector) -> tuple[list[int], int]:
        """The int weights W_j and the denominator D."""
        scaled = []
        for w, scale in zip(weights.values, self.scales):
            # w_j / L_j in lowest terms: w_j is, so only gcd(numerator, L_j) cancels
            g = math.gcd(w.numerator, scale)
            scaled.append((w.numerator // g, w.denominator * (scale // g)))
        denom = math.lcm(*(d for _, d in scaled))
        return [n * (denom // d) for n, d in scaled], denom

    def values(self, weights: WeightVector) -> tuple[list[int], int]:
        """The ints D * (w . f_i) in input order, and the denominator D."""
        factors, denom = self.factors(weights)
        return _dot(factors, self.columns), denom

    def vector(self, totals: Sequence[int]) -> ObjectiveVector:
        """The vector whose column-j int is ``totals[j]``."""
        return ObjectiveVector(tuple(map(Fraction, totals, self.scales)))

    def image(self, indices: Sequence[int]) -> ObjectiveVector:
        """Exact sum of the vectors at ``indices``."""
        return self.vector([sum(column[i] for i in indices) for column in self.columns])


def _dot(factors: Sequence[int], columns: Sequence[Sequence[int]]) -> list[int]:
    """The ints sum_j factors[j] * columns[j][i], one pass per column."""
    (first, column), *rest = zip(factors, columns)
    values = [first * x for x in column]
    for factor, column in rest:
        values = [v + factor * x for v, x in zip(values, column)]
    return values


Kernel = Callable[[WeightVector], SolveAnswer]


def _sorted_form(inst: ExplicitInstance) -> tuple[tuple[Solution, ...], _IntegerForm]:
    """Solutions ordered by (image, id), so that the first index holding the
    chosen value is the tie-break winner, with the integer form of their
    images in that order.  Column j is objective j times L_j > 0, so the
    form's int rows sort like images."""
    solutions = inst.solutions
    rows = list(zip(*_IntegerForm(inst.p, [s.image for s in solutions]).columns))
    order = sorted(range(len(solutions)), key=lambda i: (rows[i], solutions[i].id))
    ordered = tuple(solutions[i] for i in order)
    return ordered, _IntegerForm(inst.p, [s.image for s in ordered])


def _explicit_kernel(inst: ExplicitInstance, sigma: Fraction) -> Kernel:
    """Worst solution whose weighted value still satisfies the sigma
    contract, which at sigma = 1 is the optimum.

    Among all x with value <= sigma * opt the one with the largest value is
    returned, so a downstream guarantee that survives this kernel survives
    any admissible sigma-approximation.  Ties go to the lexicographically
    smallest objective vector, then the smallest id.

    The scan list shrinks by the forgetting rule of the module docstring.
    A dropped solution is never admissible, so the first index of a value
    in the kept order is still its tie-break winner.
    """
    order, form = _sorted_form(inst)
    a, b = sigma.numerator, sigma.denominator
    # kept[t] is the order index of scan position t; columns[j][t] is its F_j.
    kept = list(range(len(order)))
    columns = [list(column) for column in form.columns]
    pruned_by: set[int] = set()

    def forget(position: int) -> None:
        """Drop every y that the optimum x at scan ``position`` rules out:
        b * F_y >= a * F_x componentwise, that is F_y >= ceil(a * F_x / b),
        and b * F_y != a * F_x."""
        nonlocal kept, columns
        x = [column[position] for column in columns]
        least = [-(-a * f // b) for f in x]
        above = [True] * len(kept)
        for column, bound in zip(columns, least):
            above = [up and f >= bound for up, f in zip(above, column)]
        # b * F_y == a * F_x only if a * F_x / b is an int vector, equal to least
        exact = all(b * bound == a * f for bound, f in zip(least, x))
        survivors = [
            t
            for t, up in enumerate(above)
            if not up or exact and [column[t] for column in columns] == least
        ]
        if len(survivors) < len(kept):
            kept = [kept[t] for t in survivors]
            columns = [[column[t] for t in survivors] for column in columns]

    def solve(weights: WeightVector) -> SolveAnswer:
        factors, denom = form.factors(weights)
        values = _dot(factors, columns)
        # With sigma = a/b, v is admissible iff b*v <= a*opt; as v is an int,
        # that is v <= floor(a*opt / b).  An exact solve has cap == opt and
        # needs no second scan.
        opt = min(values)
        cap = a * opt // b
        best = values.index(opt)
        value = opt if cap == opt else max([v for v in values if v <= cap])
        chosen = order[kept[best if value == opt else values.index(value)]]
        if kept[best] not in pruned_by:
            pruned_by.add(kept[best])
            forget(best)
        return SolveAnswer(chosen.id, chosen.image, Fraction(value, denom))

    return solve


def _shortest_path_kernel(inst: GraphInstance) -> Kernel:
    """Dijkstra on the scalarized arc costs (all strictly positive).

    Predecessors are updated only on strictly smaller scalar values, with
    arcs relaxed in input order, so the returned path is deterministic.
    The nodes are numbered once, in order of first mention by an arc with
    the source first, so the search runs on lists as long as the nodes the
    arcs name, never as long as the declared ``node_count``; each distinct
    path's id and image are built once.
    """
    form = _IntegerForm(inst.p, [arc.cost for arc in inst.arcs])
    number = {inst.source: 0}
    for arc in inst.arcs:
        number.setdefault(arc.tail, len(number))
        number.setdefault(arc.head, len(number))
    out: list[list[tuple[int, int]]] = [[] for _ in number]
    for idx, arc in enumerate(inst.arcs):
        out[number[arc.tail]].append((idx, number[arc.head]))
    tails = [number[arc.tail] for arc in inst.arcs]
    target = number[inst.target]
    answers: dict[tuple[int, ...], tuple[str, ObjectiveVector]] = {}

    def solve(weights: WeightVector) -> SolveAnswer:
        costs, denom = form.values(weights)
        dist: list[float] = [math.inf] * len(out)
        dist[0] = 0
        pred = [0] * len(out)
        counter = itertools.count()
        heap: list[tuple[int, int, int]] = [(0, next(counter), 0)]
        while heap:
            d, _, node = heapq.heappop(heap)
            # Costs are positive, so a node is pushed again only at a strictly
            # smaller distance: the one entry at dist[node] settles it.
            if d > dist[node]:
                continue
            if node == target:
                break
            for idx, head in out[node]:
                nd = d + costs[idx]
                if dist[head] > nd:
                    dist[head] = nd
                    pred[head] = idx
                    heapq.heappush(heap, (nd, next(counter), head))
        indices: list[int] = []
        node = target
        while node:
            idx = pred[node]
            indices.append(idx)
            node = tails[idx]
        indices.reverse()
        arc_tuple = tuple(indices)
        if arc_tuple not in answers:
            answers[arc_tuple] = (path_id(arc_tuple), form.image(arc_tuple))
        solution_id, image = answers[arc_tuple]
        return SolveAnswer(solution_id, image, Fraction(dist[target], denom), arc_tuple)

    return solve


def _never_chosen(inst: GraphInstance, rows: Sequence[tuple[int, ...]]) -> set[int]:
    """The edges the module docstring's cycle rule drops.

    The sweep takes the edges in (F, index) order, so each edge comes after
    every edge that precedes it, and keeps a minimum spanning forest of the
    edges kept so far under the key (F_2..F_p, F_1, index), as parent
    pointers.  Edge e is dropped when every edge on the forest path between
    its ends is <= F_e componentwise: each was swept before e, so each
    precedes e.  A kept e links two trees, the one holding its tail
    everted, or replaces the largest key on that path if its own is
    smaller.  At p = 2 the forest path has the least largest F_2 of any
    path between its ends (the bottleneck property), so the sweep drops
    exactly the edges the rule names; at p > 2 it may keep some of them.
    """
    keys = [(*row[1:], row[0], idx) for idx, row in enumerate(rows)]
    parent = [-1] * inst.node_count
    up = [-1] * inst.node_count  # the edge from a node to its parent

    def path(tail: int, head: int) -> Optional[list[int]]:
        """The nodes whose edge to their parent lies on the forest path
        between ``tail`` and ``head``; None if no path joins them."""
        above = []
        node = tail
        while node != -1:
            above.append(node)
            node = parent[node]
        steps = {node: k for k, node in enumerate(above)}
        below = []
        node = head
        while node not in steps:
            if node == -1:
                return None
            below.append(node)
            node = parent[node]
        return above[: steps[node]] + below

    def link(tail: int, head: int, edge: int) -> None:
        """Evert the tree holding ``tail``, then hang it from ``head``."""
        node, prev, prev_edge = tail, head, edge
        while node != -1:
            above, above_edge = parent[node], up[node]
            parent[node], up[node] = prev, prev_edge
            node, prev, prev_edge = above, node, above_edge

    dropped = set()
    for edge in sorted(range(len(rows)), key=rows.__getitem__):
        tail, head = inst.arcs[edge].tail, inst.arcs[edge].head
        nodes = path(tail, head)
        if nodes is None:
            link(tail, head, edge)
        elif all(all(map(operator.le, rows[up[v]], rows[edge])) for v in nodes):
            dropped.add(edge)
        else:
            top = max(nodes, key=lambda v: keys[up[v]])
            if keys[up[top]] > keys[edge]:
                parent[top] = up[top] = -1
                link(tail, head, edge)
    return dropped


def _spanning_tree_kernel(inst: GraphInstance) -> Kernel:
    """Kruskal on the scalarized edge costs; ties keep input edge order.

    Only the edges ``_never_chosen`` keeps are sorted, in input order, so
    every chosen edge and tie is that of Kruskal on all of them; each
    distinct tree's id and image are built once.
    """
    form = _IntegerForm(inst.p, [arc.cost for arc in inst.arcs])
    dropped = _never_chosen(inst, list(zip(*form.columns)))
    kept = [idx for idx in range(len(inst.arcs)) if idx not in dropped]
    kept_form = _IntegerForm(inst.p, [inst.arcs[idx].cost for idx in kept])
    ends = [(inst.arcs[idx].tail, inst.arcs[idx].head) for idx in kept]
    answers: dict[tuple[int, ...], tuple[str, ObjectiveVector]] = {}

    def solve(weights: WeightVector) -> SolveAnswer:
        costs, denom = kept_form.values(weights)
        parent = list(range(inst.node_count))
        chosen: list[int] = []
        for position in sorted(range(len(costs)), key=costs.__getitem__):
            tail, head = ends[position]
            # Find both roots, pointing each node walked at its grandparent.
            while parent[tail] != tail:
                parent[tail] = tail = parent[parent[tail]]
            while parent[head] != head:
                parent[head] = head = parent[parent[head]]
            if tail != head:
                parent[head] = tail
                chosen.append(position)
                if len(chosen) == inst.node_count - 1:
                    break
        chosen.sort()
        arc_tuple = tuple([kept[position] for position in chosen])
        if arc_tuple not in answers:
            answers[arc_tuple] = (tree_id(arc_tuple), form.image(arc_tuple))
        solution_id, image = answers[arc_tuple]
        scalar = Fraction(sum([costs[position] for position in chosen]), denom)
        return SolveAnswer(solution_id, image, scalar, arc_tuple)

    return solve


def _kernel(inst: Instance, sigma: Fraction) -> Kernel:
    """The explicit kernel at ``sigma``, Dijkstra or Kruskal, per instance."""
    if isinstance(inst, ExplicitInstance):
        return _explicit_kernel(inst, sigma)
    if inst.kind is GraphKind.SHORTEST_PATH:
        return _shortest_path_kernel(inst)
    return _spanning_tree_kernel(inst)


class SolverHandle(Record):
    """One weighted-sum backend bound to an instance, with a call counter.

    ``sigma`` is the contract bound the backend promises, not a measured
    quality.  ``kernel`` answers one weighted-sum problem; it may keep
    private state between calls (the explicit kernel forgets what its
    optima rule out, the graph kernels keep each distinct answer), but each
    answer depends on the weight alone.  Left
    out, it is built from the instance and sigma.  The handle refuses a
    maximization instance (``MaximizationUnsupported``), then a sigma below
    1, before any kernel is built, so every kernel and every algorithm
    downstream minimizes.
    Every ``solve`` increments the counter by exactly one, then checks the
    weight dimension for every kernel, so a kernel only ever sees p
    weights.  A handle is used by one thread at a time: the algorithms make
    their calls one after another, and the counter is not locked.  Unlike
    the other records, a handle is mutable, so it is not hashable, and its
    repr leaves out the kernel.
    """

    __slots__ = ("instance", "sigma", "kernel", "_calls")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        instance: Instance,
        sigma: Fraction,
        kernel: Optional[Kernel] = None,
        _calls: int = 0,
    ) -> None:
        self.instance = instance
        self.sigma = sigma
        self.kernel = kernel
        self._calls = _calls
        if instance.direction is not Direction.MIN:
            raise MaximizationUnsupported(MAXIMIZATION_REJECTION)
        if sigma < 1:
            raise ContractViolation("sigma must be >= 1")
        if kernel is None:
            self.kernel = _kernel(instance, sigma)

    def __repr__(self) -> str:
        return (
            f"SolverHandle(instance={self.instance!r}, sigma={self.sigma!r}, "
            f"_calls={self._calls!r})"
        )

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
