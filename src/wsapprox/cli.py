"""Command-line front end.

Subcommands: ``approximate`` runs an algorithm and writes a JSON report,
``verify`` checks a solution set against a guarantee family, ``oracle``
computes ground-truth sets, ``generate`` writes instance files, and
``export-plot`` turns a report into CSV plot data (biobjective only).

Exit codes are a stable contract: 0 success (and "verified"), 1 guarantee
violated, 2 invalid flags or preconditions (an ``--out`` in a missing
directory, or naming a directory, is refused before any work; a grid of
more than ``algorithms.MAX_GRID_CALLS`` weights before any weight is
built), 3 unreadable or malformed input files (instances, solution lists
and reports), 4 maximization instance passed to an algorithm, 5 graph
enumeration guard exceeded, 6 internal error (any other exception; one
``error:`` line, no traceback).
All rationals cross this boundary as strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Optional

from .algorithms import (
    MAXIMIZATION_REJECTION,
    BiobjectiveRun,
    GridRun,
    approximate_biobjective,
    approximate_grid,
    approximate_with_ptas,
)
from .core import (
    ContractViolation,
    Direction,
    GuaranteeFamily,
    MaximizationUnsupported,
    format_rational,
    parse_rational,
)
from .instances import (
    SCHEMA_VERSION,
    InstanceFormatError,
    canonical_dumps,
    gen_max_counterexample,
    gen_random_explicit,
    gen_random_graph,
    gen_tightness_min,
    instance_from_json,
    instance_to_json,
    load_instance,
)
from .oracles import (
    VerificationReport,
    pareto_front,
    support_certificates,
    verify_approximation,
    verify_max_impossibility,
)
from .solvers import (
    EnumerationLimit,
    ExplicitInstance,
    GraphKind,
    SolveAnswer,
    adversarial_solver,
    compute_bounds,
    enumerate_graph_solutions,
    exact_solver,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_MAXIMIZATION = 4
EXIT_ENUMERATION = 5
EXIT_INTERNAL = 6


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ContractViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rationals(values) -> list[str]:
    return [format_rational(v) for v in values]


def _check_out(out: Optional[str]) -> None:
    """Refuse, before any work, an ``--out`` that names a directory or lies
    in a missing one."""
    if not out:
        return
    if os.path.isdir(out):
        raise ContractViolation(f"--out {out} is a directory")
    directory = os.path.dirname(out)
    if directory and not os.path.isdir(directory):
        raise ContractViolation(f"--out directory does not exist: {directory}")


def _write_output(payload: Any, out: Optional[str]) -> None:
    text = canonical_dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _answer_json(answer: SolveAnswer) -> dict[str, Any]:
    data: dict[str, Any] = {
        "id": answer.solution_id,
        "f": _rationals(answer.image),
        "value": format_rational(answer.scalar),
    }
    if answer.arcs is not None:
        data["arcs"] = list(answer.arcs)
    return data


def family_to_json(family: GuaranteeFamily) -> dict[str, Any]:
    return {
        "variant": family.kind.value,
        "p": family.p,
        "sigma": format_rational(family.sigma),
        "bound": format_rational(family.bound),
    }


def report_to_json(report: VerificationReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "family": family_to_json(report.family),
        "ok": report.ok,
        "witnesses": [
            {"target": w.target_id, "by": w.covered_by, "beta": _rationals(w.beta)}
            for w in report.witnesses
        ],
        "violations": [
            {
                "target": v.target_id,
                "best_by": v.best_candidate,
                "best_beta": _rationals(v.best_beta) if v.best_beta is not None else None,
            }
            for v in report.violations
        ],
    }


def _grid_report(run: GridRun, include_cells: bool) -> dict[str, Any]:
    data: dict[str, Any] = {
        "eps_prime": format_rational(run.eps_prime),
        "u": list(run.u),
        "ws_calls": run.ws_calls,
        "solutions": [{"id": s.id, "f": _rationals(s.image)} for s in run.result],
        "weights": [
            {
                "weight": _rationals(entry.weight),
                "exponents": list(entry.exponents),
                "base": _rationals(entry.base),
                "answer": _answer_json(answer),
            }
            for entry, answer in zip(run.plan.entries, run.answers)
        ],
    }
    if include_cells:
        data["cells"] = [
            {
                "weight_index": cell.weight_index,
                "level": cell.level,
                "id": cell.solution_id,
                "lower": _rationals(cell.lower),
                "upper": _rationals(cell.upper),
            }
            for cell in run.cell_map()
        ]
    return data


def _bisect_report(run: BiobjectiveRun) -> dict[str, Any]:
    return {
        "eps_prime": format_rational(run.eps_prime),
        "u": [run.u1, run.u2],
        "gamma_count": run.gamma_count,
        "ws_calls": run.ws_calls,
        "solutions": [{"id": s.id, "f": _rationals(s.image)} for s in run.result],
        "probes": [
            {
                "t": probe.index,
                "gamma": format_rational(probe.gamma),
                "answer": _answer_json(probe.answer),
            }
            for probe in run.probes
        ],
        "tree": {
            "nodes": run.tree_nodes,
            "two_child_nodes": run.two_child_nodes,
            "height": run.tree_height,
        },
    }


def cmd_approximate(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if inst.direction is Direction.MAX:
        raise MaximizationUnsupported(MAXIMIZATION_REJECTION)
    if args.solver == "adversarial" and not isinstance(inst, ExplicitInstance):
        raise ContractViolation("the adversarial solver needs an explicit instance")
    bounds = compute_bounds(inst)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "approximate",
        "algorithm": args.algorithm,
        "direction": inst.direction.value,
        "p": inst.p,
        "epsilon": format_rational(args.epsilon),
        "solver": args.solver,
        "instance": instance_to_json(inst),
        "bounds": {"lower": _rationals(bounds.lower), "upper": _rationals(bounds.upper)},
    }
    if args.algorithm == "grid":
        if args.solver == "adversarial":
            solver = adversarial_solver(inst, args.sigma)
        else:
            if args.sigma != 1:
                raise ContractViolation("--sigma above 1 needs --solver adversarial")
            solver = exact_solver(inst)
        run = approximate_grid(solver, bounds, args.epsilon)
        report["sigma"] = format_rational(solver.sigma)
        report.update(_grid_report(run, args.cells))
    elif args.algorithm == "bisect":
        if args.solver != "exact" or args.sigma != 1:
            raise ContractViolation("bisect requires --solver exact and sigma 1")
        if args.cells:
            raise ContractViolation("--cells is a grid report feature")
        run_b = approximate_biobjective(exact_solver(inst), bounds, args.epsilon)
        report["sigma"] = "1"
        report.update(_bisect_report(run_b))
    else:  # ptas
        if args.tau is None:
            raise ContractViolation("--tau is required for the ptas algorithm")
        if args.solver != "adversarial":
            raise ContractViolation("ptas runs against the adversarial solver")
        if args.cells:
            raise ContractViolation("--cells is a grid report feature")
        run = approximate_with_ptas(
            lambda tau: adversarial_solver(inst, 1 + tau),
            bounds,
            args.epsilon,
            args.tau,
        )
        report["sigma"] = format_rational(run.sigma)
        report["tau"] = format_rational(args.tau)
        report["inner_epsilon"] = format_rational(run.epsilon)
        report.update(_grid_report(run, include_cells=False))
    _write_output(report, args.out)
    return EXIT_OK


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or digit count
        raise InstanceFormatError(f"cannot read {what} {path}: {exc}") from exc


def _report_solution_ids(solutions: Any) -> list[str]:
    """Ids of a report's ``solutions``: a list of objects with string ids."""
    if not isinstance(solutions, list) or not all(
        isinstance(entry, dict) and isinstance(entry.get("id"), str) for entry in solutions
    ):
        raise InstanceFormatError("report 'solutions' must be a list of objects with string ids")
    return [entry["id"] for entry in solutions]


def _solution_ids(args: argparse.Namespace) -> list[str]:
    if args.solutions:
        data = _load_json(args.solutions, "solutions file")
        if isinstance(data, dict) and isinstance(data.get("ids"), list):
            ids = data["ids"]
        elif isinstance(data, list):
            ids = data
        else:
            raise InstanceFormatError("solutions file must be a list of ids or {'ids': [...]}")
    else:
        data = _load_json(args.from_report, "report file")
        ids = _report_solution_ids(data.get("solutions") if isinstance(data, dict) else None)
    if not all(isinstance(i, str) for i in ids):
        raise InstanceFormatError("solution ids must be strings")
    return ids


def _as_explicit(inst, limit: int) -> ExplicitInstance:
    if isinstance(inst, ExplicitInstance):
        return inst
    return enumerate_graph_solutions(inst, limit=limit)


def _family_from_args(args: argparse.Namespace, p: int) -> GuaranteeFamily:
    if args.family == "disjunctive":
        if args.epsilon is None:
            raise ContractViolation("disjunctive verification needs --epsilon")
        return GuaranteeFamily.disjunctive_biobjective(args.epsilon)
    if (args.epsilon is None) == (args.sum_bound is None):
        raise ContractViolation("give exactly one of --epsilon and --sum-bound")
    if args.family == "multifactor":
        if args.epsilon is not None:
            return GuaranteeFamily.multi_factor(args.sigma, args.epsilon, p)
        return GuaranteeFamily.multi_factor_raw(args.sigma, args.sum_bound, p)
    if args.epsilon is not None:
        return GuaranteeFamily.uniform(args.sigma, args.epsilon, p)
    return GuaranteeFamily.uniform_raw(args.sum_bound, p)


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _as_explicit(load_instance(args.instance), args.limit)
    ids = _solution_ids(args)
    family = _family_from_args(args, inst.p)
    report = verify_approximation(ids, inst, family)
    _write_output(report_to_json(report), args.out)
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "what": args.what,
    }
    if args.what == "max-impossibility":
        if not isinstance(inst, ExplicitInstance):
            raise ContractViolation("max-impossibility expects an explicit instance")
        payload["ok"] = verify_max_impossibility(inst)
    else:
        explicit = _as_explicit(inst, args.limit)
        if args.what == "pareto":
            payload["ids"] = sorted(pareto_front(explicit))
        else:
            certs = support_certificates(explicit)
            payload["ids"] = sorted(certs)
            payload["weak"] = sorted(i for i, c in certs.items() if c.weak)
            payload["witnesses"] = {
                i: _rationals(c.weight) for i, c in sorted(certs.items())
            }
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.generator == "tightness-min":
        inst = gen_tightness_min(args.p, args.M)
    elif args.generator == "max-counterexample":
        inst = gen_max_counterexample(args.p, args.M)
    elif args.generator == "random-explicit":
        inst = gen_random_explicit(
            args.p,
            args.n,
            args.low,
            args.high,
            args.seed,
            direction=Direction(args.direction),
        )
    else:
        inst = gen_random_graph(
            args.nodes,
            args.arcs,
            args.p,
            args.low,
            args.high,
            args.seed,
            GraphKind(args.kind),
        )
    _write_output(instance_to_json(inst), args.out)
    return EXIT_OK


def _is_rational_text(value: Any) -> bool:
    try:
        parse_rational(value)
    except ContractViolation:
        return False
    return True


def _cell_rows(cells: Any) -> list[list[Any]]:
    """CSV rows of a report's ``cells``, all checked before any is written."""
    if not isinstance(cells, list) or not all(
        isinstance(c, dict)
        and all(type(c.get(k)) is int for k in ("weight_index", "level"))  # bool excluded
        and isinstance(c.get("id"), str)
        and all(
            isinstance(c.get(k), list)
            and len(c[k]) == 2
            and all(_is_rational_text(v) for v in c[k])
            for k in ("lower", "upper")
        )
        for c in cells
    ):
        raise InstanceFormatError(
            "report 'cells' must hold integer weight_index and level, a string id "
            "and two rational strings each in lower and upper"
        )
    return [
        [c["weight_index"], c["level"], c["id"]]
        + [c["lower"][0], c["upper"][0], c["lower"][1], c["upper"][1]]
        for c in cells
    ]


def cmd_export_plot(args: argparse.Namespace) -> int:
    data = _load_json(args.from_report, "report file")
    if not isinstance(data, dict) or "instance" not in data:
        raise InstanceFormatError("report file lacks an embedded instance")
    if data.get("p") != 2:
        raise ContractViolation("plot export is biobjective only")
    output_ids = set(_report_solution_ids(data.get("solutions", [])))
    cell_rows = _cell_rows(data.get("cells", []))
    inst = _as_explicit(instance_from_json(data["instance"]), args.limit)
    pareto = pareto_front(inst)
    supported_ids = frozenset(support_certificates(inst))
    os.makedirs(args.out_dir, exist_ok=True)
    points_path = os.path.join(args.out_dir, "points.csv")
    with open(points_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "f1", "f2", "pareto", "supported", "output"])
        for s in inst.solutions:
            writer.writerow(
                [
                    s.id,
                    format_rational(s.image[0]),
                    format_rational(s.image[1]),
                    int(s.id in pareto),
                    int(s.id in supported_ids),
                    int(s.id in output_ids),
                ]
            )
    cells_path = os.path.join(args.out_dir, "cells.csv")
    with open(cells_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["weight_index", "level", "solution_id", "f1_lo", "f1_hi", "f2_lo", "f2_hi"]
        )
        writer.writerows(cell_rows)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="wsapprox",
        description="Approximate multiobjective minimization problems via weighted sums "
        "and verify the guarantees exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    approx = sub.add_parser("approximate", help="run an approximation algorithm")
    approx.add_argument("--algorithm", choices=["grid", "bisect", "ptas"], required=True)
    approx.add_argument("--instance", required=True)
    approx.add_argument("--epsilon", type=_rational_flag, required=True)
    approx.add_argument("--sigma", type=_rational_flag, default=Fraction(1))
    approx.add_argument("--tau", type=_rational_flag, default=None)
    approx.add_argument("--solver", choices=["exact", "adversarial"], default="exact")
    approx.add_argument("--cells", action="store_true", help="emit the grid-cell map")
    approx.add_argument("--out", default=None)
    approx.set_defaults(func=cmd_approximate)

    verify = sub.add_parser("verify", help="verify a solution set against a family")
    verify.add_argument("--instance", required=True)
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--solutions", default=None)
    group.add_argument("--from-report", dest="from_report", default=None)
    verify.add_argument(
        "--family", choices=["multifactor", "uniform", "disjunctive"], required=True
    )
    verify.add_argument("--epsilon", type=_rational_flag, default=None)
    verify.add_argument("--sigma", type=_rational_flag, default=Fraction(1))
    verify.add_argument("--sum-bound", dest="sum_bound", type=_rational_flag, default=None)
    verify.add_argument("--limit", type=int, default=10000)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="compute ground-truth sets")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument(
        "--what", choices=["pareto", "supported", "max-impossibility"], required=True
    )
    oracle.add_argument("--limit", type=int, default=10000)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=cmd_oracle)

    generate = sub.add_parser("generate", help="write an instance file")
    gen_sub = generate.add_subparsers(dest="generator", required=True)
    tight = gen_sub.add_parser("tightness-min")
    tight.add_argument("--p", type=int, required=True)
    tight.add_argument("--M", type=_rational_flag, required=True)
    maxc = gen_sub.add_parser("max-counterexample")
    maxc.add_argument("--p", type=int, required=True)
    maxc.add_argument("--M", type=_rational_flag, required=True)
    randex = gen_sub.add_parser("random-explicit")
    randex.add_argument("--p", type=int, required=True)
    randex.add_argument("--n", type=int, required=True)
    randex.add_argument("--low", type=_rational_flag, required=True)
    randex.add_argument("--high", type=_rational_flag, required=True)
    randex.add_argument("--seed", type=int, required=True)
    randex.add_argument("--direction", choices=["min", "max"], default="min")
    randgr = gen_sub.add_parser("random-graph")
    randgr.add_argument("--nodes", type=int, required=True)
    randgr.add_argument("--arcs", type=int, required=True)
    randgr.add_argument("--p", type=int, required=True)
    randgr.add_argument("--low", type=_rational_flag, required=True)
    randgr.add_argument("--high", type=_rational_flag, required=True)
    randgr.add_argument("--seed", type=int, required=True)
    randgr.add_argument(
        "--kind", choices=["shortest-path", "spanning-tree"], required=True
    )
    for sub_parser in (tight, maxc, randex, randgr):
        sub_parser.add_argument("--out", default=None)
        sub_parser.set_defaults(func=cmd_generate)

    plot = sub.add_parser("export-plot", help="export CSV plot data from a report")
    plot.add_argument("--from-report", dest="from_report", required=True)
    plot.add_argument("--out-dir", dest="out_dir", required=True)
    plot.add_argument("--limit", type=int, default=10000)
    plot.set_defaults(func=cmd_export_plot)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MaximizationUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAXIMIZATION
    except EnumerationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 1 is reserved for "guarantee violated"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
