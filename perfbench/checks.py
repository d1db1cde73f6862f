"""Independent correctness checks of the wsapprox CLI's outputs.

Nothing here imports wsapprox.  Instances and outputs are read as JSON or
CSV and every verdict is recomputed in ``Fraction`` arithmetic, so a defect
in the package cannot vouch for itself.  Reports are read through the
fields ``ids``, ``solutions``, ``ws_calls``, ``u``, ``tree`` and
``weights[]`` only, and unknown fields are ignored, so a report that gains
fields under a newer ``schema_version`` still checks.

Every check returns a list of error strings; an empty list means correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def vector(values: list[str]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Instance:
    """An instance file as the checks see it: explicit points or a graph."""

    kind: str
    p: int
    points: dict[str, tuple[Fraction, ...]]
    nodes: int = 0
    arcs: tuple[tuple[int, int, tuple[Fraction, ...]], ...] = ()
    source: int = 0
    target: int = 0


def read_instance(path: str) -> Instance:
    data = read_json(path)
    if data["kind"] == "explicit":
        points = {s["id"]: vector(s["f"]) for s in data["solutions"]}
        return Instance("explicit", data["p"], points)
    arcs = tuple((a["from"], a["to"], vector(a["cost"])) for a in data["arcs"])
    return Instance(
        data["kind"],
        data["p"],
        {},
        data["nodes"],
        arcs,
        data.get("source", 0),
        data.get("target", 0),
    )


def scalarize(weight: tuple[Fraction, ...], image: tuple[Fraction, ...]) -> Fraction:
    return sum((w * f for w, f in zip(weight, image)), Fraction(0))


def dominates(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    return a != b and all(x <= y for x, y in zip(a, b))


def pareto_ids(points: dict[str, tuple[Fraction, ...]]) -> set[str]:
    """Pairwise scan; equal images do not dominate each other."""
    images = list(points.items())
    return {
        sid
        for sid, image in images
        if not any(dominates(other, image) for _, other in images)
    }


def grid_calls(u: list[int]) -> int:
    """Exponent tuples in [0, u_j]^p with at least one zero component."""
    return math.prod(x + 1 for x in u) - math.prod(u)


def answer_digest(ids: list[str]) -> str:
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()[:16]


def _graph_answer_errors(
    inst: Instance, sid: str, arcs: list[int], image: tuple[Fraction, ...]
) -> list[str]:
    """Do the arcs form an s-t path (spanning tree) whose cost sum is the image?"""
    if any(not 0 <= i < len(inst.arcs) for i in arcs) or len(set(arcs)) != len(arcs):
        return [f"{sid}: arc indices out of range or repeated"]
    if inst.kind == "shortest-path":
        node, seen = inst.source, {inst.source}
        for i in arcs:
            tail, head, _ = inst.arcs[i]
            if tail != node or head in seen:
                return [f"{sid}: arcs do not form a simple path"]
            node = head
            seen.add(head)
        if node != inst.target:
            return [f"{sid}: path does not end at the target"]
    else:
        parent = list(range(inst.nodes))

        def find(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        for i in arcs:
            a, b = find(inst.arcs[i][0]), find(inst.arcs[i][1])
            if a == b:
                return [f"{sid}: arcs contain a cycle"]
            parent[a] = b
        if len(arcs) != inst.nodes - 1:
            return [f"{sid}: arcs do not span the graph"]
    total = tuple(
        sum((inst.arcs[i][2][j] for i in arcs), Fraction(0)) for j in range(inst.p)
    )
    if total != image:
        return [f"{sid}: arc costs sum to {total}, report says {image}"]
    return []


def _solution_errors(inst: Instance, sid: str, image: tuple[Fraction, ...]) -> list[str]:
    """Is the reported (id, image) a feasible solution of the instance?"""
    if inst.kind == "explicit":
        if inst.points.get(sid) != image:
            return [f"{sid}: not in the instance with image {image}"]
        return []
    prefix = "path:" if inst.kind == "shortest-path" else "tree:"
    if not sid.startswith(prefix):
        return [f"{sid}: not a {inst.kind} solution id"]
    arcs = [int(i) for i in sid[len(prefix):].split(",")]
    return _graph_answer_errors(inst, sid, arcs, image)


def check_grid(report: dict, inst: Instance) -> list[str]:
    """Call count formula, P equals the distinct answers, and every answer
    is a feasible solution whose value is the weight scalarized over f."""
    errors: list[str] = []
    expected = grid_calls(report["u"])
    if report["ws_calls"] != expected:
        errors.append(f"ws_calls {report['ws_calls']} != grid size {expected}")
    if len(report["weights"]) != report["ws_calls"]:
        errors.append("one weight entry per call expected")
    answer_ids = set()
    for entry in report["weights"]:
        answer = entry["answer"]
        sid, image = answer["id"], vector(answer["f"])
        answer_ids.add(sid)
        if inst.kind == "explicit":
            errors += _solution_errors(inst, sid, image)
        else:
            errors += _graph_answer_errors(inst, sid, answer["arcs"], image)
        if Fraction(answer["value"]) != scalarize(vector(entry["weight"]), image):
            errors.append(f"{sid}: value is not the weighted sum of f")
    output = [s["id"] for s in report["solutions"]]
    if len(set(output)) != len(output) or set(output) != answer_ids:
        errors.append("output set differs from the distinct answers")
    return errors


def check_bisect(report: dict, inst: Instance) -> list[str]:
    u1, u2 = report["u"]
    errors: list[str] = []
    if not 2 <= report["ws_calls"] <= u1 + u2 + 1:
        errors.append(f"ws_calls {report['ws_calls']} outside [2, u1 + u2 + 1]")
    if report["ws_calls"] > report["tree"]["nodes"] + 2:
        errors.append("more calls than tree nodes plus the two extremes")
    if not report["solutions"]:
        errors.append("empty output set")
    for s in report["solutions"]:
        errors += _solution_errors(inst, s["id"], vector(s["f"]))
    return errors


def check_verify(out: dict) -> list[str]:
    if out.get("ok") is not True or out.get("violations"):
        return ["verify reports a violated guarantee"]
    if not out.get("witnesses"):
        return ["verify checked no target"]
    return []


def check_pareto(out: dict, inst: Instance) -> list[str]:
    if set(out["ids"]) != pareto_ids(inst.points):
        return ["Pareto ids differ from the pairwise scan"]
    return []


def check_supported(out: dict, inst: Instance) -> list[str]:
    """Each supported id is optimal for its witness weight (all weights
    >= 1) and lies on the Pareto front."""
    errors: list[str] = []
    front = pareto_ids(inst.points)
    for sid in out["ids"]:
        weight = vector(out["witnesses"][sid])
        if min(weight) < 1:
            errors.append(f"{sid}: witness weight below 1")
        best = min(scalarize(weight, image) for image in inst.points.values())
        if scalarize(weight, inst.points[sid]) != best:
            errors.append(f"{sid}: not optimal for its witness weight")
        if sid not in front:
            errors.append(f"{sid}: supported but dominated")
    if not set(out["weak"]) <= set(out["ids"]):
        errors.append("weakly supported ids outside the supported set")
    return errors


def check_plot(out_dir: str, report: dict, inst: Instance) -> list[str]:
    """points.csv lists every point with its Pareto and output flags;
    cells.csv names only answers of the report's weights."""
    errors: list[str] = []
    with open(os.path.join(out_dir, "points.csv"), newline="", encoding="utf-8") as h:
        rows = list(csv.DictReader(h))
    if len(rows) != len(inst.points):
        errors.append("points.csv does not list every point")
    front = pareto_ids(inst.points)
    output = {s["id"] for s in report["solutions"]}
    for row in rows:
        sid = row["id"]
        if inst.points.get(sid) != (Fraction(row["f1"]), Fraction(row["f2"])):
            errors.append(f"points.csv: {sid} has a wrong image")
        if row["pareto"] != str(int(sid in front)) or row["output"] != str(int(sid in output)):
            errors.append(f"points.csv: {sid} has wrong flags")
    answers = {entry["answer"]["id"] for entry in report["weights"]}
    with open(os.path.join(out_dir, "cells.csv"), newline="", encoding="utf-8") as h:
        cells = list(csv.DictReader(h))
    if not cells or any(c["solution_id"] not in answers for c in cells):
        errors.append("cells.csv names no cell or a solution that answers no weight")
    return errors
