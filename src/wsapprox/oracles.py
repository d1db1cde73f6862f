"""Ground-truth machinery: Pareto front, supported solutions, verifiers.

Everything here is brute force on purpose.  The Pareto front is a
sort-filter scan: solutions sorted by image (ascending for minimization,
descending for maximization) put every dominator of an image before it, so
each image is compared only with the front found so far.  Supportedness is
decided by exact rational linear feasibility over the normalized weight
region w_j >= 1 (slope-interval intersection for p = 2, a small two-phase
simplex otherwise), run only where it can matter: a strictly dominated
image is never optimal for a weight w > 0, and a dominated competitor's
constraint follows from the constraint of the front point that dominates
it, so only distinct front images are certified, each against the other
distinct front images.  Approximation guarantees are checked target by
target against the full feasible set.  These oracles are the independent
side of every guarantee test, so none of them share code with the
approximation algorithms.
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
) -> tuple[bool, Optional[list[Fraction]], Optional[Fraction]]:
    """Maximize c*x subject to A x <= b, x >= 0, exactly.

    Two-phase dense tableau with Bland's rule (termination guaranteed).
    Returns (feasible, x, value); the objective must be bounded on the
    feasible region, otherwise a ContractViolation is raised.
    """
    m, n = len(A), len(c)
    art_rows = [i for i in range(m) if b[i] < 0]
    cols = n + m + len(art_rows)
    art_of_row = {i: n + m + pos for pos, i in enumerate(art_rows)}
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        sign = Fraction(-1) if b[i] < 0 else Fraction(1)
        row = [Fraction(0)] * (cols + 1)
        for j in range(n):
            row[j] = sign * A[i][j]
        row[n + i] = sign
        row[cols] = sign * b[i]
        if i in art_of_row:
            row[art_of_row[i]] = Fraction(1)
            basis.append(art_of_row[i])
        else:
            basis.append(n + i)
        rows.append(row)
    dropped: set[int] = set()
    allowed = set(range(n + m))  # artificials may leave but never re-enter

    def pivot(r: int, col: int, zrow: list[Fraction]) -> None:
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and i not in dropped and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[r])]
        if zrow[col] != 0:
            f = zrow[col]
            for j in range(cols + 1):
                zrow[j] -= f * rows[r][j]
        basis[r] = col

    def optimize(zrow: list[Fraction]) -> None:
        while True:
            enter = -1
            for j in sorted(allowed):
                if zrow[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best: Optional[Fraction] = None
            for i in range(m):
                if i in dropped or rows[i][enter] <= 0:
                    continue
                ratio = rows[i][cols] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
            if leave < 0:
                raise ContractViolation("unbounded linear program")
            pivot(leave, enter, zrow)

    if art_rows:
        # Phase 1: maximize minus the artificial sum; the reduced-cost row
        # starts as the sum of the artificial rows.
        zrow = [Fraction(0)] * (cols + 1)
        for i in art_rows:
            for j in range(cols + 1):
                zrow[j] += rows[i][j]
        optimize(zrow)
        if zrow[cols] != 0:
            return False, None, None
        for r in range(m):
            if r in dropped or basis[r] < n + m:
                continue
            col = next((j for j in sorted(allowed) if rows[r][j] != 0), None)
            if col is None:
                dropped.add(r)
            else:
                pivot(r, col, zrow)

    # Phase 2: reduced costs of the real objective under the current basis.
    zrow = [Fraction(0)] * (cols + 1)
    for j in range(n):
        zrow[j] = c[j]
    for i in range(m):
        if i in dropped:
            continue
        cb = c[basis[i]] if basis[i] < n else Fraction(0)
        if cb != 0:
            for j in range(cols + 1):
                zrow[j] -= cb * rows[i][j]
    optimize(zrow)
    x = [Fraction(0)] * n
    for i in range(m):
        if i not in dropped and basis[i] < n:
            x[basis[i]] = rows[i][cols]
    value = sum((c[j] * x[j] for j in range(n)), Fraction(0))
    return True, x, value


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
    p = len(image)
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for other in competitors:
        if direction is Direction.MIN:
            d = [image[j] - other[j] for j in range(p)]
        else:
            d = [other[j] - image[j] for j in range(p)]
        strict = other.values != image.values
        A.append(d + [Fraction(1 if strict else 0)])
        b.append(-sum(d, Fraction(0)))
    A.append([Fraction(0)] * p + [Fraction(1)])
    b.append(Fraction(1))
    c = [Fraction(0)] * p + [Fraction(1)]
    feasible, x, value = _simplex_max(A, b, c)
    if not feasible:
        return None
    assert x is not None and value is not None
    weight = WeightVector(tuple(1 + x[j] for j in range(p)))
    return SupportCertificate(weight, weak=value == 0)


def _support_certificate_biobjective(
    image: ObjectiveVector, competitors: list[ObjectiveVector], direction: Direction
) -> Optional[SupportCertificate]:
    """Slope-interval intersection for p = 2.

    Weights scale to (gamma, 1); each distinct-image competitor contributes
    a lower or an upper bound on gamma (or an unconditional verdict when the
    first objectives tie).  The image is supported iff the closed interval
    meets gamma > 0, and strictly supported iff the open interval does, in
    which case an interior gamma makes it the unique optimum among distinct
    images.
    """
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    for other in competitors:
        if other.values == image.values:
            continue
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
