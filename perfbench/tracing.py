"""Spans and counters recorded from outside wsapprox, around its public functions.

``Tracer.install`` replaces each traced function by a wrapper at the place
where the caller looks it up: the ``cli`` module's imported names, the
module global ``algorithms.plan_grid``, and class attributes for methods.
Names imported by value into another module (``factor_vector`` in
``oracles``, ``approximates`` in ``algorithms``) are wrapped at that use
site.  ``uninstall`` restores every original.

A span is (id, command, name, parent, start, end); every span of one CLI
command shares the command id.  Spans stay in memory until ``write``.
Layer metrics are derived from the spans and from notes: references to
arguments or results kept by a wrapper and inspected only after the
command, so that the inspection is not inside any span.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional

import checks


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass(frozen=True)
class Span:
    id: int
    command: int
    name: str
    parent: Optional[int]
    start: float
    end: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.finished: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.notes: defaultdict[str, list[Any]] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0
        self._command = -1
        self._originals: list[tuple[Any, str, Any]] = []

    def _spanned(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                self._command += 1
            span_id, slot = self._next_id, len(self.spans)
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[slot] = Span(span_id, self._command, name, parent, start, end)
            if note is not None:
                self.notes[name].append(note(args, result))
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str, note: Optional[Callable] = None) -> None:
        self._replace(owner, attr, self._spanned(name, getattr(owner, attr), note))

    def count(self, owner: Any, attr: str, name: str) -> None:
        self._replace(owner, attr, self._counted(name, getattr(owner, attr)))

    def install(self, mods: dict[str, Any]) -> None:
        cli, algorithms, oracles = mods["cli"], mods["algorithms"], mods["oracles"]
        solvers, core = mods["solvers"], mods["core"]
        self.span(cli, "main", "cli.main")
        for attr in ("load_instance", "instance_from_json", "canonical_dumps",
                     "gen_random_explicit", "gen_random_graph"):
            self.span(cli, attr, f"instances.{attr}")
        self.span(solvers.SolverHandle, "solve", "solvers.solve",
                  note=lambda args, answer: (self._command, answer.solution_id))
        self.span(cli, "compute_bounds", "solvers.compute_bounds")
        self.span(cli, "enumerate_graph_solutions", "solvers.enumerate_graph_solutions",
                  note=lambda args, inst: len(inst.solutions))
        self.span(cli, "approximate_grid", "algorithms.approximate_grid")
        self.span(cli, "approximate_biobjective", "algorithms.approximate_biobjective")
        self.span(algorithms, "plan_grid", "algorithms.plan_grid",
                  note=lambda args, plan: len(plan.entries))
        self.span(algorithms.GridRun, "cell_map", "algorithms.cell_map")
        self.span(cli, "pareto_front", "oracles.pareto_front")
        self.span(cli, "support_certificates", "oracles.support_certificates",
                  note=lambda args, certs: args[0])
        self.span(cli, "verify_approximation", "oracles.verify_approximation",
                  note=lambda args, report: (len(args[1].solutions), len(set(args[0])), report))
        self.count(core.WeightVector, "scalarize", "core.scalarize")
        self.count(oracles, "factor_vector", "core.factor_vector")
        self.count(algorithms, "approximates", "core.approximates")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Start a new command sequence; its spans join ``finished``."""
        self.finished.extend(self.spans)
        self.spans.clear()
        self.counts.clear()
        self.notes.clear()

    def write(self, path: str) -> None:
        """Write every span recorded so far, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished + self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span duration minus the durations of its direct children."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans, counts and notes recorded since
        the last ``reset`` (one command sequence)."""
        total: defaultdict[str, float] = defaultdict(float)
        layer_self: defaultdict[str, float] = defaultdict(float)
        own = self.self_times()
        solve_us = []
        for s in self.spans:
            total[s.name] += s.end - s.start
            layer_self[s.name.split(".")[0]] += own[s.id]
            if s.name == "solvers.solve":
                solve_us.append((s.end - s.start) * 1e6)
        answers = self.notes["solvers.solve"]
        distinct = len(set(answers))
        images = front = 0
        for inst in self.notes["oracles.support_certificates"]:
            points = {s.id: s.image.values for s in inst.solutions}
            images += len(set(points.values()))
            front += len({points[i] for i in checks.pareto_ids(points)})
        pairs = 0
        margin = Fraction(0)
        for targets, candidates, report in self.notes["oracles.verify_approximation"]:
            pairs += targets * candidates
            for w in report.witnesses:
                margin = max(margin, w.beta.excess_sum() / report.family.bound)
        return {
            "solvers.solve_calls": len(solve_us),
            "solvers.solve_s": total["solvers.solve"],
            "solvers.solve_us_p50": percentile(solve_us, 0.50),
            "solvers.solve_us_p99": percentile(solve_us, 0.99),
            "solvers.distinct_ratio": distinct / len(answers) if answers else 0.0,
            "solvers.bounds_s": total["solvers.compute_bounds"],
            "solvers.enumerate_s": total["solvers.enumerate_graph_solutions"],
            "solvers.enumerated": sum(self.notes["solvers.enumerate_graph_solutions"]),
            "core.scalarize_calls": self.counts["core.scalarize"],
            "core.factor_vector_calls": self.counts["core.factor_vector"],
            "core.approximates_calls": self.counts["core.approximates"],
            "algorithms.plan_s": total["algorithms.plan_grid"],
            "algorithms.plan_entries": sum(self.notes["algorithms.plan_grid"]),
            "algorithms.cell_map_s": total["algorithms.cell_map"],
            "algorithms.self_s": layer_self["algorithms"],
            "instances.generate_s": total["instances.gen_random_explicit"]
            + total["instances.gen_random_graph"],
            "instances.load_s": total["instances.load_instance"]
            + total["instances.instance_from_json"],
            "instances.dumps_s": total["instances.canonical_dumps"],
            "cli.commands": sum(1 for s in self.spans if s.name == "cli.main"),
            "cli.self_s": layer_self["cli"],
            "oracles.pareto_s": total["oracles.pareto_front"],
            "oracles.supported_s": total["oracles.support_certificates"],
            "oracles.support_checks": images,
            "oracles.front_ratio": front / images if images else 0.0,
            "oracles.verify_s": total["oracles.verify_approximation"],
            "oracles.verify_pairs": pairs,
            "oracles.margin_max": float(margin),
        }
