"""Ground-truth machinery: Pareto front, supported solutions, verifiers.

Everything here is brute force on purpose.  The Pareto front is a
sort-filter scan: solutions sorted by image (ascending for minimization,
descending for maximization) put every dominator of an image before it, so
each image is compared only with the front found so far.  Supportedness is
decided exactly over rationals (slope-interval intersection for p = 2, a
small origin-feasible LP solved by a one-phase simplex otherwise), and
only where it can matter: a strictly dominated image is never optimal for
a weight w > 0, and a dominated competitor's constraint follows from the
constraint of the front point that dominates it, so only distinct front
images are certified, each against the other distinct front images.
Approximation guarantees are checked target by target against the full
feasible set.  These oracles are the independent side of every guarantee
test, so none of them share code with the approximation algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    ContractViolation,
    Direction,
    FactorVector,
    GuaranteeFamily,
    ObjectiveVector,
    WeightVector,
    covers,
    dominates,
    factor_vector,
)
from .solvers import ExplicitInstance


def pareto_front(inst: ExplicitInstance) -> frozenset[str]:
    """Ids of all solutions with nondominated images (duplicates retained).

    A dominator is lexicographically better, so it sorts first and every
    image meets its dominators, or theirs, among the front found so far.
    """
    ordered = sorted(
        inst.solutions,
        key=lambda s: s.image.values,
        reverse=inst.direction is Direction.MAX,
    )
    front_images: list[ObjectiveVector] = []
    front: list[str] = []
    for s in ordered:
        if not any(dominates(f, s.image, inst.direction) for f in front_images):
            if not front_images or front_images[-1].values != s.image.values:
                front_images.append(s.image)
            front.append(s.id)
    return frozenset(front)


# ---------------------------------------------------------------------------
# Exact linear feasibility for supportedness
# ---------------------------------------------------------------------------


def _simplex_max(
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


@dataclass(frozen=True)
class SupportCertificate:
    """Witness weight (components >= 1) plus the weak-support flag.

    ``weak`` marks solutions that are weighted-sum optimal only with ties:
    no strictly positive weight makes them the unique optimum among distinct
    images.  The supported/unsupported verdict treats weak and strict alike;
    the flag is reported rather than silently merged.
    """

    weight: WeightVector
    weak: bool


def _support_certificate_lp(
    image: ObjectiveVector, competitors: list[ObjectiveVector], direction: Direction
) -> Optional[SupportCertificate]:
    """One origin-feasible LP; competitors must be distinct from ``image``.

    Every weight w > 0 is s*1 + x with s = min_j w_j > 0 and x >= 0, and
    t >= 0 is the margin by which ``image`` beats each competitor o:

        maximize s + t  subject to
        d_o.x + (sum_j d_o,j) s + t <= 0   for each competitor o,
        s <= 1,  t - s <= 0,  x, s, t >= 0,

    with d_o = image - o (MIN) or o - image (MAX).  Every right-hand side
    is >= 0, so the origin is feasible.  The competitor rows and t <= s are
    a cone, so the optimum is 0 when no w > 0 works (unsupported), exactly
    1 when s reaches 1 only with t = 0 (optimal only with ties: weak), and
    above 1 otherwise (strictly supported).  The witness w/s = 1 + x/s has
    every component >= 1.
    """
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
    x, value = _simplex_max(A, b, [zero] * p + [one, one])
    if value == 0:
        return None
    s = x[p]
    weight = WeightVector(tuple(1 + x[j] / s for j in range(p)))
    return SupportCertificate(weight, weak=value == 1)


def _support_certificate_biobjective(
    image: ObjectiveVector, competitors: list[ObjectiveVector], direction: Direction
) -> Optional[SupportCertificate]:
    """Slope-interval intersection for p = 2.

    Competitors must be distinct from ``image``.  Weights scale to
    (gamma, 1); each competitor contributes a lower or an upper bound on
    gamma (or an unconditional verdict when the first objectives tie).  The
    image is supported iff the closed interval meets gamma > 0, and strictly
    supported iff the open interval does, in which case an interior gamma
    makes it the unique optimum among distinct images.
    """
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
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


def support_certificates(inst: ExplicitInstance) -> dict[str, SupportCertificate]:
    """Certificate per supported solution id; unsupported ids are absent.

    Dominated ids get no certificate without any solve.  Each distinct
    front image is certified once, against the other distinct front images
    only, and its certificate is shared by every id with that image.  A
    witness weight therefore comes from the LP (or, for p = 2, the slope
    intervals) against front images; it still makes its id weighted-sum
    optimal over the whole instance, and a strict witness still makes the
    image the unique optimum among distinct images, because every dominated
    image scores worse than its dominator under any weight w > 0.
    """
    front = pareto_front(inst)
    images: dict[tuple, ObjectiveVector] = {}
    for s in inst.solutions:
        if s.id in front:
            images.setdefault(s.image.values, s.image)
    certify = _support_certificate_biobjective if inst.p == 2 else _support_certificate_lp
    by_image = {
        key: certify(image, [o for k, o in images.items() if k != key], inst.direction)
        for key, image in images.items()
    }
    result: dict[str, SupportCertificate] = {}
    for s in inst.solutions:
        cert = by_image.get(s.image.values)
        if cert is not None:
            result[s.id] = cert
    return result


def supported_set(inst: ExplicitInstance) -> frozenset[str]:
    """Ids of all solutions optimal for some strictly positive weight vector."""
    return frozenset(support_certificates(inst))


# ---------------------------------------------------------------------------
# Approximation verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    target_id: str
    covered_by: str
    beta: FactorVector


@dataclass(frozen=True)
class Violation:
    target_id: str
    best_candidate: Optional[str]
    best_beta: Optional[FactorVector]


@dataclass(frozen=True)
class VerificationReport:
    family: GuaranteeFamily
    ok: bool
    witnesses: tuple[Witness, ...]
    violations: tuple[Violation, ...]


def _beta_rank(beta: FactorVector, candidate_id: str):
    return (beta.excess_sum(), beta.factors, candidate_id)


def verify_approximation(
    solution_ids: Iterable[str], inst: ExplicitInstance, family: GuaranteeFamily
) -> VerificationReport:
    """Check that the given solutions cover every feasible point of ``inst``.

    Per target, candidates are ranked by (excess factor sum, lexicographic
    factor vector, id); the witness is the best-ranked covering candidate,
    and violations report the best-ranked factor vector overall so failures
    stay diagnosable.
    """
    ids = sorted(set(solution_ids))
    known = set(inst.ids())
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ContractViolation(f"solution ids not in instance: {unknown}")
    if family.p != inst.p:
        raise ContractViolation("family dimension differs from instance")
    candidates = [(i, inst.image_of(i)) for i in ids]
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
            if covers(beta, family) and (best_cover is None or rank < best_cover[0]):
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


def verify_max_impossibility(inst: ExplicitInstance) -> bool:
    """Check the maximization counterexample property on a generated instance.

    The instance must consist of p axis points (peak M, off-value 1/p) and
    one constant center point at M/p.  Returns True iff every axis point
    misses the center by more than factor M-1 in all coordinates other than
    its own peak, i.e. no supported solution achieves a factor below M in
    p-1 of the objectives simultaneously.
    """
    if inst.direction is not Direction.MAX:
        raise ContractViolation("expected a maximization instance")
    p = inst.p
    if len(inst.solutions) != p + 1:
        raise ContractViolation("expected p axis points plus one center point")
    centers = [s for s in inst.solutions if len(set(s.image.values)) == 1]
    if len(centers) != 1:
        raise ContractViolation("expected exactly one constant-image solution")
    center = centers[0]
    axis = [s for s in inst.solutions if s.id != center.id]
    off = Fraction(1, p)
    big_m = p * center.image[0]
    peaks = set()
    for s in axis:
        peak_coords = [j for j in range(p) if s.image[j] == big_m]
        if len(peak_coords) != 1 or any(
            s.image[j] != off for j in range(p) if j != peak_coords[0]
        ):
            raise ContractViolation("axis point does not match the construction")
        peaks.add(peak_coords[0])
    if peaks != set(range(p)) or big_m <= 1:
        raise ContractViolation("axis peaks do not cover all coordinates")
    threshold = big_m - 1
    for s in axis:
        peak = next(j for j in range(p) if s.image[j] == big_m)
        for j in range(p):
            if j == peak:
                continue
            if threshold * s.image[j] >= center.image[j]:
                return False
    return True
