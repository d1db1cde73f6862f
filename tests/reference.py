"""Slow, direct reference implementations that the tests compare against.

Nothing in the package calls these.  Each one does its job the obvious way,
in ``Fraction`` and without the package's shortcuts:

- ``parse_rational_by_fraction`` reads a checked literal with
  ``Fraction(text)``, which matches it a second time, where the package
  reads its digit runs with ``int``;
- ``instance_from_json_by_literals`` reads an instance entry by entry,
  checking and parsing each rational literal on its own, where the package
  checks every entry's structure in one loop and then reads all of a
  file's literals with one match;
- the solvers scalarize every image instead of comparing
  cleared-denominator ints, and Kruskal joins components through a
  ``_UnionFind`` object;
- ``never_chosen_by_union_find`` finds the edges Kruskal never chooses
  from their definition, one union-find over every edge's predecessors,
  where the package sweeps once with a minimum spanning forest;
- ``enumerate_graph_solutions_by_combinations`` walks every (n - 1)-arc
  subset for spanning trees, testing each with a fresh ``_UnionFind``, and
  sums every path and tree image in ``Fraction`` with ``_vector_sum``;
- ``image_of`` finds a solution's image by a linear scan, where the
  verifier looks images up by dict;
- ``dominates`` decides dominance over ``Fraction`` images, where the
  package compares cleared-denominator ints in ``oracles._front``;
- the front and certificate references compare every solution with every
  other one;
- ``exponent_cap_by_walk`` multiplies by the step one power at a time;
- ``cell_map_by_products`` builds every cell corner as a product of a
  weight's base and a power of the step instead of reading the plan's
  corner table;
- ``cells_csv_by_products`` writes ``export-plot``'s ``cells.csv`` from
  those cells, formatting every corner once for every cell that prints it,
  instead of once for each distinct corner of a report's corner table;
- ``canonical_dumps_by_json`` writes canonical JSON with ``json.dumps``'s
  indented encoder, where the package's writer walks the payload by itself
  and copies pre-rendered text in;
- ``instance_to_json`` builds an instance's document as a dict, which
  ``canonical_dumps_by_json`` writes, where ``instances.instance_text``
  writes its text in one pass;
- ``grid_weights_by_dicts`` and ``bisect_probes_by_dicts`` build a report's
  ``weights[]`` and ``probes[]`` as one dict per entry, formatting every
  weight and answer wherever it appears, where the CLI writes their text
  formatting each distinct weight component and answer once;
- ``csv_text_by_writerows`` writes CSV rows with ``csv.writer.writerows``,
  which escapes a field wherever it appears, where the CLI escapes each
  distinct field once;
- ``cell_rows_by_diagonal`` builds one row per cell of a report's corner
  table by walking each weight's diagonal level by level, where
  ``export-plot`` writes each diagonal from corner pairs joined once;
- ``support_certificate_biobjective`` decides p = 2 supportedness by slope
  intervals instead of the package's LP;
- ``support_certificate_by_fractions`` builds that LP on the Fraction
  images, not on images cleared by a common lcm, and solves it with
  ``simplex_max_by_fractions``, which pivots a tableau of Fractions where
  the package pivots fraction-free in ints;
- ``simplex_max_full_tableau`` makes the package's fraction-free pivots on
  the full int tableau, slack columns included, where the package keeps
  only the nonbasic columns of the dictionary;
- ``verify_by_fractions`` scores every solution as a target, not only the
  Pareto-optimal ones, and builds a Fraction factor vector for every
  target-candidate pair instead of ranking cleared-denominator ints, and
  decides each with ``covers`` on that vector; ``on_front`` keeps its
  entries for front targets, which the package's verifier reports;
- ``covers_disjunctive`` spells out the pair {(1, b), (b, 1)} that the
  package decides as ``multi_factor(1, epsilon, 2)``.

The references skip argument checks; the package's entry points make those.
"""

import csv
import heapq
import io
import itertools
import json
import operator
from fractions import Fraction
from typing import Iterator, Optional

from wsapprox import (
    Bounds,
    ContractViolation,
    Direction,
    ExplicitInstance,
    FactorVector,
    FamilyKind,
    GraphInstance,
    GuaranteeFamily,
    ObjectiveVector,
    SolveAnswer,
    SolverHandle,
    SupportCertificate,
    VerificationReport,
    WeightVector,
    as_rational,
    factor_vector,
)
from wsapprox.algorithms import BiobjectiveRun, CellAssignment, GridRun
from wsapprox.core import check_rational_literal, format_rational, format_rationals
from wsapprox.instances import (
    SCHEMA_VERSION,
    Arc,
    DisconnectedGraph,
    GraphKind,
    InstanceFormatError,
    Solution,
    UnreachableTarget,
    _parse_index,
    _parse_positive_vector,
    _require_keys,
    is_utf8_text,
    path_id,
    tree_id,
)
from wsapprox.oracles import EnumerationLimit, Violation, Witness

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_rational_by_fraction(text) -> Fraction:
    """The rational of a literal that ``check_rational_literal`` accepts,
    read by ``Fraction``."""
    return Fraction(check_rational_literal(text))


def instance_from_json_by_literals(data):
    """The instance of ``data``, each solution or arc checked and read in
    file order, its literals one ``parse_rational`` at a time."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance JSON must be an object")
    kind = data.get("kind")
    if kind == "explicit":
        _require_keys(
            data, {"kind", "direction", "p", "solutions"}, {"schema_version"}, "explicit instance"
        )
    elif kind in (GraphKind.SHORTEST_PATH.value, GraphKind.SPANNING_TREE.value):
        required = {"kind", "direction", "p", "nodes", "arcs"}
        optional = {"schema_version", "source", "target"}
        if kind == GraphKind.SHORTEST_PATH.value:
            required |= {"source", "target"}
            optional -= {"source", "target"}
        _require_keys(data, required, optional, f"{kind} instance")
    else:
        raise InstanceFormatError(f"unknown instance kind {kind!r}")
    if data.get("direction") not in ("min", "max"):
        raise InstanceFormatError("direction must be 'min' or 'max'")
    direction = Direction(data["direction"])
    p = data.get("p")
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise InstanceFormatError("p must be an integer >= 2")
    try:
        if kind == "explicit":
            raw = data["solutions"]
            if not isinstance(raw, list) or not raw:
                raise InstanceFormatError("solutions must be a nonempty list")
            solutions = []
            for entry in raw:
                if not isinstance(entry, dict):
                    raise InstanceFormatError("each solution must be an object")
                _require_keys(entry, {"id", "f"}, set(), "solution")
                sid = entry["id"]
                if not (isinstance(sid, str) and sid and is_utf8_text(sid)):
                    raise InstanceFormatError("solution id must be a nonempty string in UTF-8")
                solutions.append(
                    Solution(sid, _parse_positive_vector(entry["f"], p, "solution image"))
                )
            return ExplicitInstance(direction, p, tuple(solutions))
        nodes = data["nodes"]
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 2:
            raise InstanceFormatError("nodes must be an integer >= 2")
        raw = data["arcs"]
        if not isinstance(raw, list) or not raw:
            raise InstanceFormatError("arcs must be a nonempty list")
        arcs = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise InstanceFormatError("each arc must be an object")
            _require_keys(entry, {"from", "to", "cost"}, set(), "arc")
            arcs.append(
                Arc(
                    _parse_index(entry["from"], nodes, "arc tail"),
                    _parse_index(entry["to"], nodes, "arc head"),
                    _parse_positive_vector(entry["cost"], p, "arc cost"),
                )
            )
        graph_kind = GraphKind(kind)
        source = target = 0
        if graph_kind is GraphKind.SHORTEST_PATH:
            source = _parse_index(data["source"], nodes, "source")
            target = _parse_index(data["target"], nodes, "target")
        return GraphInstance(direction, p, nodes, tuple(arcs), graph_kind, source, target)
    except ContractViolation as exc:
        raise InstanceFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Weighted-sum solvers and graph enumeration
# ---------------------------------------------------------------------------


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


def solve_explicit_exact(inst: ExplicitInstance, weights: WeightVector) -> SolveAnswer:
    """Optimal weighted-sum solution; ties go to the lexicographically
    smallest objective vector, then the smallest id."""
    sign = 1 if inst.direction is Direction.MIN else -1

    def key(s):
        return (sign * weights.scalarize(s.image), s.image.values, s.id)

    best = min(inst.solutions, key=key)
    return SolveAnswer(best.id, best.image, weights.scalarize(best.image), None)


def solve_explicit_adversarial(
    inst: ExplicitInstance, weights: WeightVector, sigma
) -> SolveAnswer:
    """Worst solution whose weighted value is still <= sigma * opt (MIN);
    ties as in ``solve_explicit_exact``."""
    sigma = as_rational(sigma)
    values = [(weights.scalarize(s.image), s) for s in inst.solutions]
    opt = min(v for v, _ in values)
    admissible = [(v, s) for v, s in values if v <= sigma * opt]
    worst, best_sol = min(admissible, key=lambda vs: (-vs[0], vs[1].image.values, vs[1].id))
    return SolveAnswer(best_sol.id, best_sol.image, worst, None)


def solve_shortest_path(inst: GraphInstance, weights: WeightVector) -> SolveAnswer:
    """Dijkstra on the scalarized arc costs (MIN).

    Predecessors are updated only on strictly smaller scalar values, with
    arcs relaxed in input order, so the returned path is deterministic.
    """
    out = [[] for _ in range(inst.node_count)]
    for idx, arc in enumerate(inst.arcs):
        out[arc.tail].append((idx, arc))

    dist = {inst.source: Fraction(0)}
    pred = {}
    done = set()
    counter = itertools.count()
    heap = [(Fraction(0), next(counter), inst.source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == inst.target:
            break
        for idx, arc in out[node]:
            nd = d + weights.scalarize(arc.cost)
            if arc.head not in dist or nd < dist[arc.head]:
                dist[arc.head] = nd
                pred[arc.head] = idx
                heapq.heappush(heap, (nd, next(counter), arc.head))
    if inst.target not in done:
        raise UnreachableTarget("target not reachable from source")
    indices = []
    node = inst.target
    while node != inst.source:
        idx = pred[node]
        indices.append(idx)
        node = inst.arcs[idx].tail
    indices.reverse()
    arc_tuple = tuple(indices)
    image = _vector_sum(inst.p, [inst.arcs[i].cost for i in arc_tuple])
    return SolveAnswer(path_id(arc_tuple), image, dist[inst.target], arc_tuple)


def solve_spanning_tree(inst: GraphInstance, weights: WeightVector) -> SolveAnswer:
    """Kruskal on the scalarized edge costs (MIN); ties keep input edge order."""
    order = sorted(range(len(inst.arcs)), key=lambda i: weights.scalarize(inst.arcs[i].cost))
    uf = _UnionFind(inst.node_count)
    chosen = []
    for idx in order:
        arc = inst.arcs[idx]
        if uf.union(arc.tail, arc.head):
            chosen.append(idx)
            if len(chosen) == inst.node_count - 1:
                break
    if len(chosen) != inst.node_count - 1:
        raise DisconnectedGraph("spanning-tree instance is not connected")
    arc_tuple = tuple(sorted(chosen))
    image = _vector_sum(inst.p, [inst.arcs[i].cost for i in arc_tuple])
    return SolveAnswer(tree_id(arc_tuple), image, weights.scalarize(image), arc_tuple)


def never_chosen_by_union_find(inst: GraphInstance) -> frozenset:
    """Edges whose ends are joined by edges that precede them at every
    strictly positive weight: f precedes e when cost_f <= cost_e
    componentwise and (cost_f != cost_e or f < e).  One fresh union-find
    over all m edges per edge."""
    dropped = set()
    for e, arc in enumerate(inst.arcs):
        uf = _UnionFind(inst.node_count)
        for f, other in enumerate(inst.arcs):
            if all(map(operator.le, other.cost, arc.cost)) and (other.cost != arc.cost or f < e):
                uf.union(other.tail, other.head)
        if uf.find(arc.tail) == uf.find(arc.head):
            dropped.add(e)
    return frozenset(dropped)


def enumerate_graph_solutions_by_combinations(
    inst: GraphInstance, limit: int = 10000, work_limit: int = 2_000_000
) -> ExplicitInstance:
    """Materialize all simple paths or spanning trees as an explicit instance,
    walking every (n - 1)-arc subset for trees and summing images in
    ``Fraction``.

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


def reference_solver(inst: ExplicitInstance, sigma=None) -> SolverHandle:
    """Handle whose solves go to the Fraction reference backend: exact when
    ``sigma`` is None, otherwise adversarial at ``sigma``."""
    if sigma is None:
        return SolverHandle(inst, Fraction(1), lambda w: solve_explicit_exact(inst, w))
    return SolverHandle(inst, sigma, lambda w: solve_explicit_adversarial(inst, w, sigma))


# ---------------------------------------------------------------------------
# Factor algebra
# ---------------------------------------------------------------------------


def bounds_contain(bounds: Bounds, image) -> bool:
    """lower <= image <= upper componentwise."""
    return all(lo <= v <= hi for lo, v, hi in zip(bounds.lower, image, bounds.upper))


def factor_le(a: FactorVector, b: FactorVector) -> bool:
    """a <= b componentwise."""
    return all(x <= y for x, y in zip(a.values, b.values))


def covers(beta: FactorVector, family: GuaranteeFamily) -> bool:
    """Decide whether some alpha in the family dominates ``beta`` componentwise.

    Closed forms, each equivalent to the existence of a witness alpha in the
    family with beta <= alpha (the tests construct one for every covered
    beta):

    * MULTI_FACTOR: some beta_i <= sigma and excess sum <= bound.
    * UNIFORM: every component <= bound.

    The one exception is a MULTI_FACTOR bound <= 1: its set is empty, since
    a counted component of a member exceeds 1 on its own, yet the closed
    form still accepts beta = (1, ..., 1).  That is the useful reading for
    deficit-bound tightness checks.
    """
    if len(beta) != family.p:
        raise ContractViolation("dimension mismatch")
    if family.kind is FamilyKind.MULTI_FACTOR:
        return any(b <= family.sigma for b in beta) and beta.excess_sum() <= family.bound
    return all(b <= family.bound for b in beta)


def covers_disjunctive(beta: FactorVector, family: GuaranteeFamily) -> bool:
    """The biobjective closed form: some alpha in {(1, b), (b, 1)}, with b
    the family's bound, dominates ``beta``; one component equals 1 and the
    other is <= b.

    This is the family of ``multi_factor(1, epsilon, 2)`` written out, and
    the reference its verdict is compared against.
    """
    b1, b2 = beta
    return (b1 == 1 and b2 <= family.bound) or (b2 == 1 and b1 <= family.bound)


def family_contains(family: GuaranteeFamily, alpha: FactorVector) -> bool:
    """Exact membership of a factor vector in the family's set."""
    if family.kind is FamilyKind.MULTI_FACTOR:
        return any(a <= family.sigma for a in alpha) and alpha.excess_sum() == family.bound
    return all(a == family.bound for a in alpha)


def multi_factor_witness(beta: FactorVector, family: GuaranteeFamily):
    """Exhibit alpha in the family with beta <= alpha, or None if impossible.

    For MULTI_FACTOR the closed form in ``covers`` is justified by this
    construction: inflate a single coordinate that already exceeds 1 (or
    raise a fresh one) until the excess sum meets the bound exactly, chosen
    so that a coordinate <= sigma survives untouched.  The one regime with
    no witness is an excess-sum bound <= 1, where the family's set is empty
    because any counted component of a member exceeds 1 on its own; the
    closed form still accepts exact matches (all factors equal to 1) there,
    which is the useful reading for deficit-bound tightness checks.
    """
    if not covers(beta, family):
        return None
    if family.kind is FamilyKind.UNIFORM:
        return FactorVector(tuple(family.bound for _ in range(family.p)))
    factors = list(beta.values)
    deficit = family.bound - beta.excess_sum()
    big = [j for j, f in enumerate(factors) if f > 1]
    escapes = [j for j, f in enumerate(factors) if f <= family.sigma]
    if big and deficit == 0:
        return FactorVector(tuple(factors))
    if big:
        # Inflating j keeps the family's escape clause as long as some
        # coordinate <= sigma other than j remains; such a j always exists
        # because coordinates equal to 1 are escapes themselves.
        j = next(j for j in big if any(e != j for e in escapes))
        factors[j] += deficit
    else:
        if family.bound <= 1:
            return None
        factors[0] = family.bound
    witness = FactorVector(tuple(factors))
    if not (factor_le(beta, witness) and family_contains(family, witness)):
        raise AssertionError("witness construction failed")
    return witness


def ptas_family(p: int, epsilon, tau) -> GuaranteeFamily:
    """Guarantee family of the PTAS wrapper: excess sum p + eps, escape 1 + tau."""
    epsilon = as_rational(epsilon)
    tau = as_rational(tau)
    return GuaranteeFamily.multi_factor_raw(1 + tau, p + epsilon, p)


# ---------------------------------------------------------------------------
# Grid planning
# ---------------------------------------------------------------------------


def exponent_cap_by_walk(low: Fraction, high: Fraction, step: Fraction) -> int:
    """Largest integer u >= 0 with low * step**u <= high, one product per step."""
    u = 0
    value = low
    while value * step <= high:
        value *= step
        u += 1
    return u


def grid_base(bounds: Bounds, step: Fraction, exponents) -> tuple:
    """The cell base b_j = l_j * step**k_j of a grid weight, whose weight is
    w_j = 1/b_j."""
    return tuple(low * step**k for low, k in zip(bounds.lower, exponents))


def cell_map_by_products(run: GridRun, bounds: Bounds) -> tuple:
    """The grid's cell map with every corner built by arithmetic: the powers
    of the step, each weight's base, and each corner b_j * step**level."""
    step = 1 + run.plan.eps_prime
    powers = [Fraction(1)]
    for _ in range(max(run.plan.u) + 1):
        powers.append(powers[-1] * step)
    cells = []
    for idx, (entry, answer) in enumerate(zip(run.plan.entries, run.answers)):
        base = grid_base(bounds, step, entry.exponents)
        max_level = min(u - k for u, k in zip(run.plan.u, entry.exponents))
        for level in range(max_level + 1):
            lower = tuple(b * powers[level] for b in base)
            upper = tuple(b * powers[level + 1] for b in base)
            cells.append(CellAssignment(idx, answer.solution_id, level, lower, upper))
    return tuple(cells)


def cells_csv_by_products(run: GridRun, bounds: Bounds) -> str:
    """The ``cells.csv`` that ``export-plot`` writes for a p = 2 grid run:
    the cells of ``cell_map_by_products``, each corner formatted from its
    cell, written by ``csv_text_by_writerows``."""
    header = ["weight_index", "level", "solution_id", "f1_lo", "f1_hi", "f2_lo", "f2_hi"]
    rows = [
        [cell.weight_index, cell.level, cell.solution_id]
        + [format_rational(v) for pair in zip(cell.lower, cell.upper) for v in pair]
        for cell in cell_map_by_products(run, bounds)
    ]
    return csv_text_by_writerows([header] + rows)


def cell_rows_by_diagonal(report) -> list:
    """The rows of ``cells.csv`` below its header for a report with a valid
    corner table: [weight index, level, id, f1_lo, f1_hi, f2_lo, f2_hi] for
    every cell, with the corners as the report holds them.  Weight i with
    exponents k owns levels 0 .. min_j (u_j - k_j), in weight order."""
    u1, u2 = report["u"]
    f1, f2 = report["cells"]["corners"]
    rows = []
    for idx, weight in enumerate(report["weights"]):
        k1, k2 = weight["exponents"]
        for level in range(min(u1 - k1, u2 - k2) + 1):
            rows.append(
                [idx, level, weight["answer"]["id"], f1[k1 + level],
                 f1[k1 + level + 1], f2[k2 + level], f2[k2 + level + 1]]
            )
    return rows


def canonical_dumps_by_json(payload) -> str:
    """Canonical JSON text as ``json.dumps`` writes it: sorted keys,
    two-space indent, no ASCII escaping, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def instance_to_json(inst) -> dict:
    """The document of ``inst`` as a dict, each value formatted by
    ``format_rationals``; its canonical text is what the package writes."""
    explicit = isinstance(inst, ExplicitInstance)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "explicit" if explicit else inst.kind.value,
        "direction": inst.direction.value,
        "p": inst.p,
    }
    if explicit:
        payload["solutions"] = [
            {"id": s.id, "f": format_rationals(s.image)} for s in inst.solutions
        ]
        return payload
    payload["nodes"] = inst.node_count
    payload["arcs"] = [
        {"from": a.tail, "to": a.head, "cost": format_rationals(a.cost)} for a in inst.arcs
    ]
    if inst.kind is GraphKind.SHORTEST_PATH:
        payload["source"] = inst.source
        payload["target"] = inst.target
    return payload


def _answer_json(answer: SolveAnswer) -> dict:
    data = {
        "id": answer.solution_id,
        "f": format_rationals(answer.image),
        "value": format_rational(answer.scalar),
    }
    if answer.arcs is not None:
        data["arcs"] = list(answer.arcs)
    return data


def grid_weights_by_dicts(run: GridRun) -> list:
    """A grid or ptas report's ``weights[]``, one dict per weight."""
    return [
        {
            "weight": format_rationals(entry.weight),
            "exponents": list(entry.exponents),
            "answer": _answer_json(answer),
        }
        for entry, answer in zip(run.plan.entries, run.answers)
    ]


def bisect_probes_by_dicts(run: BiobjectiveRun) -> list:
    """A bisect report's ``probes[]``, one dict per probe."""
    return [
        {
            "t": probe.index,
            "gamma": format_rational(probe.gamma),
            "answer": _answer_json(probe.answer),
        }
        for probe in run.probes
    ]


def csv_text_by_writerows(rows) -> str:
    """The text that ``csv.writer(...).writerows(rows)`` writes."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def image_of(inst: ExplicitInstance, solution_id: str) -> ObjectiveVector:
    """The image of the solution ``solution_id`` of ``inst``."""
    for s in inst.solutions:
        if s.id == solution_id:
            return s.image
    raise ContractViolation(f"unknown solution id {solution_id!r}")


def dominates(a: ObjectiveVector, b: ObjectiveVector, direction: Direction) -> bool:
    """True iff ``a`` dominates ``b``: distinct and at least as good everywhere."""
    if len(a) != len(b):
        raise ContractViolation("dimension mismatch")
    if a.values == b.values:
        return False
    if direction is Direction.MIN:
        return all(x <= y for x, y in zip(a, b))
    return all(x >= y for x, y in zip(a, b))


def pairwise_front(inst: ExplicitInstance) -> frozenset:
    """Reference Pareto front: every solution against every other one."""
    return frozenset(
        s.id
        for s in inst.solutions
        if not any(dominates(o.image, s.image, inst.direction) for o in inst.solutions)
    )


def support_certificate_biobjective(image, competitors, direction):
    """Slope-interval intersection for p = 2.

    Competitors must be distinct from ``image``.  Weights scale to
    (gamma, 1); each competitor contributes a lower or an upper bound on
    gamma (or an unconditional verdict when the first objectives tie).  The
    image is supported iff the closed interval meets gamma > 0, and strictly
    supported iff the open interval does, in which case an interior gamma
    makes it the unique optimum among distinct images.
    """
    lower = None
    upper = None
    for other in competitors:
        if direction is Direction.MIN:
            d1, d2 = image[0] - other[0], image[1] - other[1]
        else:
            d1, d2 = other[0] - image[0], other[1] - image[1]
        if d1 == 0:
            # Distinct images tie in the first objective: the second decides
            # for every gamma at once.
            if d2 > 0:
                return None
            continue
        bound = -d2 / d1
        if d1 > 0:
            upper = bound if upper is None else min(upper, bound)
        else:
            lower = bound if lower is None else max(lower, bound)
    floor = lower if lower is not None and lower > 0 else Fraction(0)
    if upper is None:
        gamma = floor + 1
        weak = False
    elif upper <= 0 or (lower is not None and lower > upper):
        return None
    elif floor < upper:
        gamma = (floor + upper) / 2  # interior point: unique optimum
        weak = False
    else:
        gamma = upper  # single feasible gamma, optimal only with a tie
        weak = True
    if gamma >= 1:
        weight = WeightVector.of(gamma, 1)
    else:
        weight = WeightVector.of(1, 1 / gamma)
    return SupportCertificate(weight, weak=weak)


def simplex_max_by_fractions(
    A: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[list[Fraction], Fraction]:
    """Maximize c*x subject to A x <= b, x >= 0, exactly, for b >= 0.

    With b >= 0 the origin is a vertex, so the slack basis starts a single
    phase: dense tableau, Bland's rule (termination guaranteed under
    degeneracy), and each pivot updates only the nonzero entries of the
    pivot row.  Returns (x, value); a negative b or an objective unbounded
    on the feasible region raises ContractViolation.
    """
    if any(v < 0 for v in b):
        raise ContractViolation("simplex needs b >= 0 (a feasible origin)")
    m, n = len(A), len(c)
    cols = n + m
    zero, one = Fraction(0), Fraction(1)
    rows = [list(A[i]) + [one if k == i else zero for k in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, cols))
    zrow = list(c) + [zero] * (m + 1)  # reduced costs; the slack basis has c_B = 0
    while True:
        enter = next((j for j in range(cols) if zrow[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if rows[i][enter] <= 0:
                continue
            ratio = rows[i][cols] / rows[i][enter]
            if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                best = ratio
                leave = i
        if leave < 0:
            raise ContractViolation("unbounded linear program")
        piv = rows[leave][enter]
        nonzero = [(j, v / piv) for j, v in enumerate(rows[leave]) if v]
        for j, v in nonzero:
            rows[leave][j] = v
        for row in rows + [zrow]:
            f = row[enter]
            if f and row is not rows[leave]:
                for j, v in nonzero:
                    row[j] -= f * v
        basis[leave] = enter
    x = [zero] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rows[i][cols]
    return x, sum((c[j] * x[j] for j in range(n)), zero)


def simplex_max_full_tableau(
    A: list[list[int]], b: list[int], c: list[int]
) -> tuple[list[int], int]:
    """``oracles._simplex_max`` on the full int tableau: the same Bland
    pivots and fraction-free updates, but every slack column is stored and
    updated too, although a basic column is only d*e_i.  Returns (X, d)
    with x_j = X_j / d; a negative b or an objective unbounded on the
    feasible region raises ContractViolation.
    """
    if any(v < 0 for v in b):
        raise ContractViolation("simplex needs b >= 0 (a feasible origin)")
    m, n = len(A), len(c)
    cols = n + m
    rows = [list(A[i]) + [1 if k == i else 0 for k in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, cols))
    zrow = list(c) + [0] * (m + 1)  # reduced costs; the slack basis has c_B = 0
    d = 1
    while True:
        enter = next((j for j in range(cols) if zrow[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        best_rhs = best_entry = 0
        for i in range(m):
            entry = rows[i][enter]
            if entry <= 0:
                continue
            rhs = rows[i][cols]
            if leave < 0 or rhs * best_entry < best_rhs * entry or (
                rhs * best_entry == best_rhs * entry and basis[i] < basis[leave]
            ):
                leave, best_rhs, best_entry = i, rhs, entry
        if leave < 0:
            raise ContractViolation("unbounded linear program")
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        for row in rows + [zrow]:
            if row is not pivot_row:
                f = row[enter]
                row[:] = [(v * piv - f * w) // d for v, w in zip(row, pivot_row)]
        d = piv
        basis[leave] = enter
    X = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            X[j] = rows[i][cols]
    return X, d


def support_certificate_by_fractions(image, competitors, direction):
    """The supportedness LP of ``oracles._support_certificate_lp`` on
    Fraction images, every competitor row unscaled (t coefficient 1), solved
    by ``simplex_max_by_fractions``; competitors must be distinct from
    ``image``.  The optimum is 0 (unsupported), 1 (weak) or above 1, and the
    witness is 1 + x/s."""
    p = len(image)
    zero, one = Fraction(0), Fraction(1)
    A: list[list[Fraction]] = []
    for other in competitors:
        if direction is Direction.MIN:
            d = [image[j] - other[j] for j in range(p)]
        else:
            d = [other[j] - image[j] for j in range(p)]
        A.append(d + [sum(d, zero), one])
    A.append([zero] * p + [one, zero])
    A.append([zero] * p + [-one, one])
    b = [zero] * len(competitors) + [one, zero]
    x, value = simplex_max_by_fractions(A, b, [zero] * p + [one, one])
    if value == 0:
        return None
    s = x[p]
    weight = WeightVector(tuple(1 + x[j] / s for j in range(p)))
    return SupportCertificate(weight, weak=value == 1)


def front_certificates_by_fractions(inst: ExplicitInstance) -> dict:
    """Reference for ``support_certificates``: the same LP per distinct front
    image, against the other distinct front images in order of first
    appearance, so the witnesses must match too, but on Fraction images and
    the Fraction simplex."""
    front = pairwise_front(inst)
    images = list(dict.fromkeys(s.image.values for s in inst.solutions if s.id in front))
    by_image = {
        key: support_certificate_by_fractions(
            key, [k for k in images if k != key], inst.direction
        )
        for key in images
    }
    return {
        s.id: by_image[s.image.values]
        for s in inst.solutions
        if by_image.get(s.image.values) is not None
    }


def unpruned_certificates(
    inst: ExplicitInstance, certify=support_certificate_by_fractions
) -> dict:
    """Reference certificates: every distinct image, dominated ones included,
    certified by ``certify`` against every other image."""
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


def _beta_rank(beta: FactorVector, candidate_id: str):
    return (beta.excess_sum(), beta.values, candidate_id)


def verify_by_fractions(
    solution_ids, inst: ExplicitInstance, family: GuaranteeFamily, decide=covers
):
    """Check that the given solutions cover every feasible point of ``inst``.

    Per target, candidates are ranked by (excess factor sum, lexicographic
    factor vector, id); the witness is the best-ranked covering candidate,
    and violations report the best-ranked factor vector overall so failures
    stay diagnosable.  ``decide(beta, family)`` is the coverage verdict.
    """
    ids = sorted(set(solution_ids))
    known = set(inst.ids())
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ContractViolation(f"solution ids not in instance: {unknown}")
    if family.p != inst.p:
        raise ContractViolation("family dimension differs from instance")
    candidates = [(i, image_of(inst, i)) for i in ids]
    witnesses: list[Witness] = []
    violations: list[Violation] = []
    for target in inst.solutions:
        best_cover = None
        best_any = None
        for cid, cimage in candidates:
            beta = factor_vector(cimage, target.image, inst.direction)
            rank = _beta_rank(beta, cid)
            if best_any is None or rank < best_any[0]:
                best_any = (rank, cid, beta)
            if decide(beta, family) and (best_cover is None or rank < best_cover[0]):
                best_cover = (rank, cid, beta)
        if best_cover is not None:
            witnesses.append(Witness(target.id, best_cover[1], best_cover[2]))
        elif best_any is not None:
            violations.append(Violation(target.id, best_any[1], best_any[2]))
        else:
            violations.append(Violation(target.id, None, None))
    return VerificationReport(
        family, ok=not violations, witnesses=tuple(witnesses), violations=tuple(violations)
    )


def on_front(report: VerificationReport, inst: ExplicitInstance) -> VerificationReport:
    """``report`` with only the witnesses and violations whose target is in
    ``pairwise_front(inst)``, in order; ``ok`` stays that of all targets."""
    front = pairwise_front(inst)
    return VerificationReport(
        report.family,
        report.ok,
        tuple(w for w in report.witnesses if w.target_id in front),
        tuple(v for v in report.violations if v.target_id in front),
    )
