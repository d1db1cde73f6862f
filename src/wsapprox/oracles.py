"""Ground-truth machinery: Pareto front, supported solutions, verifiers.

Everything here is brute force on purpose.  A graph becomes an explicit
instance by enumerating its simple paths or spanning trees in ints, and
``verify`` and ``oracle`` build Fraction images only for the front and the
ids they name; the tests check it against an enumeration in Fractions.
Every image is cleared of denominators into Python ints in which smaller is
better.  The Pareto front is a sort-filter scan of those ints: sorted
ascending, every dominator of an image comes before it, so each image is
compared only with the front found so far.  Supportedness is decided
exactly, for every p, by a small origin-feasible LP solved by a one-phase
simplex, and only where it can matter: a strictly dominated image is never
optimal for a weight w > 0, and a dominated competitor's constraint follows
from the constraint of the front point that dominates it, so only distinct
front images are certified, each against the other distinct front images;
more than ``MAX_SUPPORT_ROWS`` LP rows in all are refused before any LP.
There every image is cleared once, by the lcm of all the instance's
denominators and negated for MAX, so every LP row is a rational row times
one positive constant, and the simplex pivots fraction-free in Python ints
on lrs's compact dictionary.  A positive row scaling changes no sign and no
ratio, so Bland's rule makes the same pivots as on the rational tableau and
reaches the same vertex, read as ints, and witness weight.  Approximation
guarantees are checked target by target against the Pareto front, which
decides the whole feasible set because every family is down-closed; ranking
and coverage are exact int comparisons on images cleared objective by
objective (a MAX instance from its reciprocal images, whose MIN factors are
the MAX factors), and one Fraction factor vector is built per target, for
the candidate that the report names; more than ``MAX_VERIFY_PAIRS`` distinct
target-candidate pairs are refused before any is scored.  These oracles are
the independent side of every guarantee test, so none of them share code
with the approximation algorithms: they take the instance model from
``instances`` and import neither ``solvers`` nor ``algorithms``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    ContractViolation,
    Direction,
    FamilyKind,
    GuaranteeFamily,
    ObjectiveVector,
    Record,
    WeightVector,
    factor_vector,
)
from .instances import (
    PATH_ID_PREFIX,
    TREE_ID_PREFIX,
    ExplicitInstance,
    GraphInstance,
    GraphKind,
    Solution,
)

# Most LP rows, F * (F - 1) for F distinct front images, that
# support_certificates admits.  At the ceiling (F = 141) the LPs took 2.2 s
# at p = 2, 3.2 s at p = 3 and 5.3 s at p = 4 on 2 vCPUs; the work grows
# about as F**3.
MAX_SUPPORT_ROWS = 20_000

# Most pairs of a distinct front image and a distinct candidate image that
# verify_approximation admits.  At the ceiling the CLI's verify took
# 2.7-3.4 s at p = 2 and 3.8-4.4 s at p = 4 on 2 vCPUs; the work grows as
# the pairs.
MAX_VERIFY_PAIRS = 2_000_000


def _cleared_columns(rows: list[list[tuple[int, int]]], p: int) -> tuple[list[int], list]:
    """Each column's lcm of the denominators of (numerator, denominator)
    rows, and the rows as the ints numerator * (lcm // denominator)."""
    scale = [math.lcm(*(row[j][1] for row in rows)) for j in range(p)]
    return scale, [tuple(n * (scale[j] // d) for j, (n, d) in enumerate(row)) for row in rows]


def _cleared_images(inst: ExplicitInstance) -> dict[str, tuple[int, ...]]:
    """Int image per id in which a candidate C approximates a target T with
    factor max(1, C_j / T_j) in objective j, in either direction.

    A MIN image is multiplied, objective by objective, by the lcm of that
    objective's denominators.  A MAX factor T_j / C_j is the MIN factor of
    the reciprocals 1/C_j over 1/T_j, so a MAX image is cleared the same way
    from its reciprocals, numerators and denominators swapped.
    """
    maximize = inst.direction is Direction.MAX
    rows = [[(v.denominator, v.numerator) if maximize else (v.numerator, v.denominator)
             for v in s.image] for s in inst.solutions]
    return dict(zip(inst.ids(), _cleared_columns(rows, inst.p)[1]))


def _front(images: dict[str, tuple[int, ...]]) -> frozenset[str]:
    """Ids whose int image no other image dominates, where smaller is better
    in every objective, for MIN and MAX alike (``_cleared_images``, or
    ``support_certificates``' keys); ids sharing a front image are all kept.

    A dominator is lexicographically smaller: it sorts first, and every
    image meets its dominators, or theirs, among the distinct front images
    found so far.
    """
    front_images: list[tuple[int, ...]] = []
    front: list[str] = []
    for sid in sorted(images, key=images.__getitem__):
        image = images[sid]
        if front_images and front_images[-1] == image:
            front.append(sid)
        elif not any(all(map(operator.le, f, image)) for f in front_images):
            front_images.append(image)
            front.append(sid)
    return frozenset(front)


def pareto_front(inst: ExplicitInstance) -> frozenset[str]:
    """Ids of all solutions with nondominated images (duplicates retained)."""
    return _front(_cleared_images(inst))


# Most solutions a graph enumeration lists unless ``--limit`` says otherwise.
ENUMERATION_LIMIT = 10_000


class EnumerationLimit(RuntimeError):
    """Exhaustive enumeration of a graph instance exceeded the guard."""


def enumerate_graph_solutions(
    inst: GraphInstance, limit: int = ENUMERATION_LIMIT, work_limit: int = 2_000_000,
    named: Optional[Iterable[str]] = None,
) -> ExplicitInstance:
    """All simple paths or spanning trees as an explicit instance; given
    ``named``, only the Pareto-optimal ones and the ids it names.

    Paths come in depth-first order, trees in lexicographic order of their
    arc indices, each search on an explicit stack.  Arc costs are cleared
    as in ``_cleared_images``, negated for MAX; a search level holds its
    int totals and its id prefix, grown from the model's ``PATH_ID_PREFIX``
    or ``TREE_ID_PREFIX`` arc by arc, the front is ``_front`` of the
    totals, and only kept solutions get Fraction images.  Raises
    EnumerationLimit once more than ``limit`` solutions are found, once the
    path search visits more than ``work_limit`` nodes, or, before the tree
    search, if over ``work_limit + 1`` sets of n - 1 arcs exist.
    """
    sign = -1 if inst.direction is Direction.MAX else 1
    pairs = [[(sign * v.numerator, v.denominator) for v in arc.cost] for arc in inst.arcs]
    scale, rows = _cleared_columns(pairs, inst.p)
    found: list[tuple[str, tuple[int, ...]]] = []

    def emit(solution_id: str, totals: tuple[int, ...], noun: str) -> None:
        found.append((solution_id, totals))
        if len(found) > limit:
            raise EnumerationLimit(f"more {noun} than the enumeration limit")

    if inst.kind is GraphKind.SHORTEST_PATH:
        out: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for idx, arc in enumerate(inst.arcs):
            out.setdefault(arc.tail, []).append((idx, arc.head, rows[idx]))
        # A frame per non-target node of the path: the node, an iterator over
        # its out-arcs, and the path's totals and id prefix up to the node.
        steps = 1  # the source is the first visit, each arc to a node off the path one more
        on_path = {inst.source}
        frames = [(inst.source, iter(out.get(inst.source, ())), (0,) * inst.p, PATH_ID_PREFIX)]
        while frames:
            node, arcs_out, total, prefix = frames[-1]
            for idx, head, row in arcs_out:
                if head in on_path:
                    continue
                steps += 1
                if steps > work_limit:
                    raise EnumerationLimit("path enumeration work limit exceeded")
                sums = tuple(map(operator.add, total, row))
                if head == inst.target:
                    emit(f"{prefix}{idx}", sums, "paths")
                    continue
                on_path.add(head)
                frames.append((head, iter(out.get(head, ())), sums, f"{prefix}{idx},"))
                break
            else:
                frames.pop()
                on_path.remove(node)
    else:
        need, m = inst.node_count - 1, len(inst.arcs)
        if math.comb(m, need) > work_limit + 1:
            raise EnumerationLimit("tree enumeration work limit exceeded")
        arcs = [(idx, arc.tail, arc.head, rows[idx]) for idx, arc in enumerate(inst.arcs)]
        # Arcs are taken in index order.  A level holds its arc count, id
        # prefix, node labels (components) and totals, and an iterator over
        # the arcs that leave enough to finish the tree.
        first = iter(arcs[: m - need + 1])
        stack = [(1, TREE_ID_PREFIX, list(range(need + 1)), (0,) * inst.p, first)]
        while stack:
            depth, prefix, label, total, candidates = stack[-1]
            for idx, tail, head, row in candidates:
                keep, drop = label[tail], label[head]
                if keep == drop:
                    continue
                sums = tuple(map(operator.add, total, row))
                if depth == need:
                    emit(f"{prefix}{idx}", sums, "trees")
                    continue
                rest = iter(arcs[idx + 1 : m - need + depth + 1])
                relabeled = [keep if v == drop else v for v in label]
                stack.append((depth + 1, f"{prefix}{idx},", relabeled, sums, rest))
                break
            else:
                stack.pop()
    kept = None if named is None else _front(dict(found)) | set(named)
    scale = [sign * s for s in scale]  # so that Fraction(t, s) undoes the negation
    solutions = [
        Solution(sid, ObjectiveVector(tuple(map(Fraction, totals, scale))))
        for sid, totals in found
        if kept is None or sid in kept
    ]
    return ExplicitInstance(inst.direction, inst.p, tuple(solutions))


# ---------------------------------------------------------------------------
# Exact linear feasibility for supportedness
# ---------------------------------------------------------------------------


def _simplex_max(A: list[list[int]], b: list[int], c: list[int]) -> tuple[list[int], int]:
    """Maximize c*x subject to A x <= b, x >= 0, exactly, for int data with b >= 0.

    With b >= 0 the origin is a vertex, so the slack basis starts a single
    phase with Bland's rule (Bland 1977), which terminates under degeneracy.
    Pivots are fraction-free (Edmonds 1967, Bareiss 1968) on the compact
    dictionary of Avis's lrs (2000): in the full tableau times d, the last
    pivot, each basic column is d*e_i, so only the nonbasic columns are kept,
    each with its variable's label (originals 0..n-1, slacks n..n+m-1), and
    the right-hand side last.  The column with a positive reduced cost and
    the smallest label enters; the ratio test cross-multiplies, ties going
    to the smaller basis label.  Every row v but the pivot row w, the cost
    row included, becomes (v*piv - f*w) / d, f its entering entry, exactly;
    the entering column then becomes the leaving variable's: old d in the
    pivot row, -f elsewhere.  These are the full tableau's ints, so the
    pivots and vertex are the same.  Returns (X, d) with x_j = X_j / d; a
    negative b or an unbounded objective raises ContractViolation.
    """
    if any(v < 0 for v in b):
        raise ContractViolation("simplex needs b >= 0 (a feasible origin)")
    m, n = len(A), len(c)
    rows = [list(A[i]) + [b[i]] for i in range(m)]
    zrow = list(c) + [0]  # reduced costs; the slack basis has c_B = 0
    labels, basis = list(range(n)), list(range(n, n + m))  # nonbasic and basic variables
    d = 1
    while True:
        entering = [(labels[k], k) for k in range(n) if zrow[k] > 0]
        if not entering:
            break
        enter = min(entering)[1]
        leave = -1
        best_rhs = best_entry = 0
        for i in range(m):
            entry = rows[i][enter]
            if entry <= 0:
                continue
            rhs = rows[i][n]
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
                row[enter] = -f
        pivot_row[enter] = d
        labels[enter], basis[leave] = basis[leave], labels[enter]
        d = piv
    basic = {j: row[n] for j, row in zip(basis, rows)}
    return [basic.get(j, 0) for j in range(n)], d


class SupportCertificate(Record):
    """Witness weight (components >= 1) plus the weak-support flag.

    ``weak`` marks solutions that are weighted-sum optimal only with ties:
    no strictly positive weight makes them the unique optimum among distinct
    images.  The supported/unsupported verdict treats weak and strict alike;
    the flag is reported rather than silently merged.
    """

    __slots__ = ("weight", "weak")


def _support_certificate_lp(
    image: tuple[int, ...], competitors: list[tuple[int, ...]], scale: int
) -> Optional[SupportCertificate]:
    """One origin-feasible LP on cleared images, in which smaller is better;
    competitors must be distinct from ``image``.

    Every weight w > 0 is s*1 + x with s = min_j w_j > 0 and x >= 0, and
    t >= 0 is the margin by which ``image`` beats each competitor o:

        maximize s + t  subject to
        d_o.x + (sum_j d_o,j) s + t <= 0   for each competitor o,
        s <= 1,  t - s <= 0,  x, s, t >= 0,

    with d_o = image - o.  Every right-hand side is >= 0, so the origin is
    feasible.  The competitor rows and t <= s are a cone, so the optimum is
    0 when no w > 0 works (unsupported), exactly 1 when s reaches 1 only
    with t = 0 (optimal only with ties: weak), and above 1 otherwise
    (strictly supported).  The witness w/s = 1 + x/s has every component
    >= 1.

    The images come multiplied by one common ``scale`` > 0 that makes them
    ints, and negated for MAX, so each competitor row is its rational row
    (with o - image for MAX) times ``scale``: the t coefficient is
    ``scale``, not 1.  Scaling a whole row by a positive constant leaves the
    feasible set, and so every pivot and the vertex reached, unchanged,
    while scaling objectives (columns) separately would move the witness.
    With x = X / d and S, T the numerators of s and t, the verdict is S + T
    against 0 and d, and the witness w_j = (S + X_j) / S.
    """
    p = len(image)
    diffs = [[a - o for a, o in zip(image, other)] for other in competitors]
    A = [d + [sum(d), scale] for d in diffs] + [[0] * p + [1, 0], [0] * p + [-1, 1]]
    b = [0] * len(competitors) + [1, 0]
    X, d = _simplex_max(A, b, [0] * p + [1, 1])
    S, T = X[p], X[p + 1]
    if S + T == 0:
        return None
    weight = WeightVector(tuple(Fraction(S + X[j], S) for j in range(p)))
    return SupportCertificate(weight, S + T == d)


def support_certificates(inst: ExplicitInstance) -> dict[str, SupportCertificate]:
    """Certificate per supported solution id; unsupported ids are absent.

    Dominated ids get no certificate without any solve.  Each distinct
    front image is certified once, against the other distinct front images
    only, and its certificate is shared by every id with that image.  A
    witness weight therefore comes from the LP against front images; it
    still makes its id weighted-sum optimal over the whole instance, and a
    strict witness still makes the image the unique optimum among distinct
    images, because every dominated image scores worse than its dominator
    under any weight w > 0.  Every image is cleared once, by the lcm of all
    the instance's denominators and negated for MAX, so that smaller is
    better; those ints key ``_front`` and fill the LP rows, each a rational
    row times that one positive lcm, which moves no witness.  The distinct
    front images meet each other in order of first appearance, which breaks
    Bland's ties.

    Refuses (ContractViolation) more than MAX_SUPPORT_ROWS rows in all,
    before any LP is solved.
    """
    scale = math.lcm(*(v.denominator for s in inst.solutions for v in s.image.values))
    sign = -1 if inst.direction is Direction.MAX else 1
    keys = {
        s.id: tuple([sign * v.numerator * (scale // v.denominator) for v in s.image.values])
        for s in inst.solutions
    }
    front = _front(keys)
    # equal images share a key, and a key keeps its first place
    cleared = list(dict.fromkeys(keys[s.id] for s in inst.solutions if s.id in front))
    rows = len(cleared) * (len(cleared) - 1)
    if rows > MAX_SUPPORT_ROWS:
        raise ContractViolation(
            f"supportedness needs {rows} LP rows for {len(cleared)} distinct front images, "
            f"over the limit of {MAX_SUPPORT_ROWS}"
        )
    by_key = {
        key: _support_certificate_lp(key, [o for o in cleared if o != key], scale)
        for key in cleared
    }
    return {s.id: cert for s in inst.solutions if (cert := by_key.get(keys[s.id])) is not None}


# ---------------------------------------------------------------------------
# Approximation verification
# ---------------------------------------------------------------------------


class Witness(Record):
    __slots__ = ("target_id", "covered_by", "beta")


class Violation(Record):
    __slots__ = ("target_id", "best_candidate", "best_beta")


class VerificationReport(Record):
    __slots__ = ("family", "ok", "witnesses", "violations")


def _covers_cleared(
    clipped: tuple[int, ...],
    target: tuple[int, ...],
    excess: int,
    product: int,
    family: GuaranteeFamily,
) -> bool:
    """Whether some alpha in the family dominates beta_j = clipped_j /
    target_j, whose excess sum is excess / product, decided by
    cross-multiplying ints with sigma and the bound.

    The closed forms: MULTI_FACTOR, some beta_i <= sigma and excess sum <=
    bound; UNIFORM, every component <= bound.  The one exception is a
    MULTI_FACTOR bound <= 1: its set is empty, since a counted component of
    a member exceeds 1 on its own, yet the closed form still accepts
    beta = (1, ..., 1).  That is the useful reading for deficit-bound
    tightness checks.
    """
    n, d = family.bound.numerator, family.bound.denominator
    if family.kind is FamilyKind.MULTI_FACTOR:
        a, b = family.sigma.numerator, family.sigma.denominator
        return d * excess <= n * product and any(
            b * c <= a * t for c, t in zip(clipped, target)
        )
    return all(d * c <= n * t for c, t in zip(clipped, target))


def _best_candidate(
    target: tuple[int, ...], candidates: dict[tuple[int, ...], str], family: GuaranteeFamily
) -> tuple[Optional[str], bool]:
    """Best-ranked covering candidate id, else best-ranked id, and whether it
    covers; (None, False) without candidates.

    With P the product of the target's components, beta_j = max(C_j, T_j) / T_j
    has the excess sum E / P, E = sum of C_j * (P / T_j) over C_j > T_j, so
    the rank (excess sum, beta, id) orders as the int triple
    (E, max(C, T), id).
    """
    product = math.prod(target)
    shares = [product // t for t in target]
    best: Optional[tuple] = None
    best_cover: Optional[tuple] = None
    for image, cid in candidates.items():
        clipped = tuple(map(max, image, target))
        excess = 0
        for c, t, q in zip(image, target, shares):
            if c > t:
                excess += c * q
        rank = (excess, clipped, cid)
        if best is None or rank < best:
            best = rank
        if (best_cover is None or rank < best_cover) and _covers_cleared(
            clipped, target, excess, product, family
        ):
            best_cover = rank
    if best_cover is not None:
        return best_cover[2], True
    return (best[2] if best is not None else None), False


def verify_approximation(
    solution_ids: Iterable[str], inst: ExplicitInstance, family: GuaranteeFamily
) -> VerificationReport:
    """Check that the given solutions cover every feasible point of ``inst``.

    The targets are the Pareto-optimal solutions, in instance order.  That
    decides every target: each family is down-closed, and each factor
    beta_j = max(1, C_j / T_j) can only grow when the target T is replaced
    by a target that dominates it, so a candidate that covers a front
    target covers every target that the front target dominates.

    Per target, candidates are ranked by (excess factor sum, lexicographic
    factor vector, id); the witness is the best-ranked covering candidate,
    and violations report the best-ranked factor vector overall so failures
    stay diagnosable.

    Ranking, coverage and the front run on int images (``_cleared_images``):
    each objective is cleared of denominators once per call, and a MAX
    instance is cleared from its reciprocal images, so both directions share
    this one path.  Only the smallest id of each distinct candidate image is
    scored, since it wins every tie with the others, and each distinct
    target image is scored once.  The one Fraction ``factor_vector`` per
    target is built for the reported candidate alone.  More than
    MAX_VERIFY_PAIRS distinct target-candidate image pairs are refused
    (ContractViolation) before any is scored.
    """
    ids = sorted(set(solution_ids))
    originals = {s.id: s.image for s in inst.solutions}
    unknown = [i for i in ids if i not in originals]
    if unknown:
        raise ContractViolation(f"solution ids not in instance: {unknown}")
    if family.p != inst.p:
        raise ContractViolation("family dimension differs from instance")
    images = _cleared_images(inst)
    front = _front(images)
    candidates: dict[tuple[int, ...], str] = {}
    for cid in ids:
        candidates.setdefault(images[cid], cid)
    targets = len({images[sid] for sid in front})
    pairs = targets * len(candidates)
    if pairs > MAX_VERIFY_PAIRS:
        raise ContractViolation(
            f"verification needs {pairs} pairs for {targets} distinct front images and "
            f"{len(candidates)} distinct candidates, over the limit of {MAX_VERIFY_PAIRS}"
        )
    verdicts: dict[tuple[int, ...], tuple[Optional[str], bool]] = {}
    witnesses: list[Witness] = []
    violations: list[Violation] = []
    for target in inst.solutions:
        if target.id not in front:
            continue
        image = images[target.id]
        if image not in verdicts:
            verdicts[image] = _best_candidate(image, candidates, family)
        cid, covered = verdicts[image]
        if cid is None:
            violations.append(Violation(target.id, None, None))
            continue
        beta = factor_vector(originals[cid], target.image, inst.direction)
        if covered:
            witnesses.append(Witness(target.id, cid, beta))
        else:
            violations.append(Violation(target.id, cid, beta))
    return VerificationReport(family, not violations, tuple(witnesses), tuple(violations))
