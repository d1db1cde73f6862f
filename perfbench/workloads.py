"""The benchmark's workloads: seeded instance files and CLI command sequences.

Each workload exists to load one set of layers and to bypass another, so a
change to one layer shows on one workload and reads flat on another:

* ``grid-p3``: the grid algorithm on p=3 explicit instances, with the exact
  and the adversarial solver.  Fraction scalarization inside ``solvers``
  is nearly all of the time; ``oracles`` is only the verifier.
* ``oracle-p3``: ``oracle --what supported`` and ``--what pareto`` on p=3
  explicit instances.  The dense Fraction simplex dominates and no
  weighted-sum call is made.
* ``p2-report``: a p=2 grid with the cell map, the bisection, both
  verifiers and the plot export.  The load is report building, JSON,
  bisection control and the p=2 slope-interval oracle; few solver calls.
  Values lie in [100, 1000] so that the bounds, hence the grid, are nearly
  the same for every seed.
* ``graph-p2``: the Kruskal and Dijkstra backends with loose graph bounds,
  the bisection on a graph, and verification by exhaustive enumeration of
  small graphs.

The work one random instance causes varies several-fold between seeds
(simplex pivots, output-set sizes, Dijkstra's early exit, tree counts), so
every workload runs several instances per sequence.  The seed reaches the
program only through the generated instance files.  The ``tiny`` size runs
the same sequences on small inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check that its output gets.

    ``phase`` is ``approximate`` or ``verify`` (the ground-truth commands
    ``verify``, ``oracle`` and ``export-plot``).  ``check`` names the check
    in ``checks``; ``report`` is the approximate report a verify or plot
    command reads; ``digest`` is the key of a recorded answer-id digest.
    """

    phase: str
    check: str
    argv: tuple[str, ...]
    instance: str
    out: str
    report: Optional[str] = None
    digest: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    generate: tuple[tuple[str, ...], ...]
    commands: tuple[Command, ...]


SIZES = ("full", "tiny")


def _explicit(path: str, p: int, n: int, low: str, high: str, seed: int) -> tuple[str, ...]:
    return (
        "generate", "random-explicit", "--p", str(p), "--n", str(n),
        "--low", low, "--high", high, "--seed", str(seed), "--out", path,
    )


def _graph(path: str, kind: str, nodes: int, arcs: int, seed: int) -> tuple[str, ...]:
    return (
        "generate", "random-graph", "--nodes", str(nodes), "--arcs", str(arcs),
        "--p", "2", "--low", "1", "--high", "10", "--seed", str(seed),
        "--kind", kind, "--out", path,
    )


def _approximate(
    inst: str, out: str, algorithm: str, eps: str, *extra: str, digest: Optional[str] = None
) -> Command:
    argv = ("approximate", "--algorithm", algorithm, "--instance", inst,
            "--epsilon", eps, *extra, "--out", out)
    check = "grid" if algorithm == "grid" else "bisect"
    return Command("approximate", check, argv, inst, out, digest=digest)


def _verify(inst: str, report: str, out: str, family: str, eps: str, sigma: str = "1") -> Command:
    argv = ("verify", "--instance", inst, "--from-report", report, "--family", family,
            "--epsilon", eps, "--sigma", sigma, "--out", out)
    return Command("verify", "verify", argv, inst, out, report=report)


def _oracle(inst: str, out: str, what: str) -> Command:
    argv = ("oracle", "--instance", inst, "--what", what, "--out", out)
    return Command("verify", what, argv, inst, out)


def grid_p3(path, seed: int, size: str) -> Workload:
    count, n, eps = (2, 150, "1") if size == "full" else (1, 20, "2")
    generate, commands = [], []
    for k in range(count):
        inst, exact, adv = path(f"grid-{k}.json"), path(f"exact-{k}.json"), path(f"adv-{k}.json")
        generate.append(_explicit(inst, 3, n, "1", "10", seed * 1000 + k))
        commands += [
            _approximate(inst, exact, "grid", eps),
            _approximate(inst, adv, "grid", eps, "--sigma", "3/2", "--solver", "adversarial"),
            _verify(inst, exact, path(f"verify-exact-{k}.json"), "multifactor", eps),
            _verify(inst, adv, path(f"verify-adv-{k}.json"), "multifactor", eps, "3/2"),
        ]
    return Workload(tuple(generate), tuple(commands))


def oracle_p3(path, seed: int, size: str) -> Workload:
    count, n = (64, 12) if size == "full" else (2, 6)
    generate, commands = [], []
    for k in range(count):
        inst = path(f"oracle-{k}.json")
        generate.append(_explicit(inst, 3, n, "1", "10", seed * 1000 + k))
        commands.append(_oracle(inst, path(f"supported-{k}.json"), "supported"))
        commands.append(_oracle(inst, path(f"pareto-{k}.json"), "pareto"))
    return Workload(tuple(generate), tuple(commands))


def p2_report(path, seed: int, size: str) -> Workload:
    count, n, eps = (2, 200, "1/16") if size == "full" else (1, 20, "1/2")
    generate, commands = [], []
    for k in range(count):
        inst, grid, plot = path(f"p2-{k}.json"), path(f"grid-{k}.json"), path(f"plot-{k}")
        # The bisection gets values from [1, 1000]: on [100, 1000] its two
        # extreme solutions usually approximate each other and it stops at once.
        wide, bisect = path(f"p2-wide-{k}.json"), path(f"bisect-{k}.json")
        generate.append(_explicit(inst, 2, n, "100", "1000", seed * 1000 + 2 * k))
        generate.append(_explicit(wide, 2, n, "1", "1000", seed * 1000 + 2 * k + 1))
        commands += [
            _approximate(inst, grid, "grid", eps, "--cells"),
            _approximate(wide, bisect, "bisect", eps),
            _verify(inst, grid, path(f"verify-grid-{k}.json"), "multifactor", eps),
            _verify(wide, bisect, path(f"verify-bisect-{k}.json"), "disjunctive", eps),
            Command("verify", "plot", ("export-plot", "--from-report", grid, "--out-dir", plot),
                    inst, plot, report=grid),
        ]
    return Workload(tuple(generate), tuple(commands))


def graph_p2(path, seed: int, size: str) -> Workload:
    if size == "full":
        counts, sp, st, small_sp, small_st = (4, 3, 6), (25, 100), (60, 350), (9, 20), (7, 14)
    else:
        counts, sp, st, small_sp, small_st = (1, 1, 1), (12, 30), (8, 16), (5, 8), (5, 7)
    eps = "1/4"
    generate, commands = [], []

    def graph(name: str, kind: str, shape: tuple[int, int]) -> str:
        inst = path(f"{name}.json")
        generate.append(_graph(inst, kind, *shape, seed * 1000 + len(generate)))
        return inst

    # Dijkstra stops at the target, so its cost on one graph varies
    # several-fold between seeds, and so do the path and tree counts of
    # the small graphs: several graphs of each are run to average that out.
    for k in range(counts[0]):
        inst = graph(f"sp-{k}", "shortest-path", sp)
        commands.append(_approximate(inst, path(f"sp-grid-{k}.json"), "grid", eps,
                                     digest=f"sp-grid-{k}"))
    commands.append(_approximate(path("sp-0.json"), path("sp-bisect.json"), "bisect", eps,
                                 digest="sp-bisect"))
    for k in range(counts[1]):
        inst = graph(f"st-{k}", "spanning-tree", st)
        commands.append(_approximate(inst, path(f"st-grid-{k}.json"), "grid", eps,
                                     digest=f"st-grid-{k}"))
    for k in range(counts[2]):
        for kind, shape in (("shortest-path", small_sp), ("spanning-tree", small_st)):
            name = f"small-{kind}-{k}"
            inst, report = graph(name, kind, shape), path(f"{name}-grid.json")
            commands.append(_approximate(inst, report, "grid", eps))
            commands.append(
                _verify(inst, report, path(f"{name}-verify.json"), "multifactor", eps)
            )
    return Workload(tuple(generate), tuple(commands))


BUILDERS = {"grid-p3": grid_p3, "oracle-p3": oracle_p3, "p2-report": p2_report, "graph-p2": graph_p2}


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    """The workload's instance-generation and command argv lists, with
    every file placed in ``workdir``."""
    return BUILDERS[name](lambda f: os.path.join(workdir, f), seed, size)
