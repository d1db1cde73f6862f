"""Command-line front end.

Subcommands: ``approximate`` runs an algorithm and writes a JSON report,
``verify`` checks a solution set against a guarantee family, ``oracle``
computes ground-truth sets, ``generate`` writes instance files, and
``export-plot`` turns a report into CSV plot data (biobjective only),
writing each file under a temporary name and moving it into place, so a
failed export leaves no partial file.
Every other command writes its JSON to stdout or to ``--out``; an existing
file is overwritten in place, not truncated first, so ext4 does not flush it.
``approximate --cells`` adds the grid's corner table to a grid report as
its ``cells`` block, and ``export-plot`` writes the cell map from that
table, ``u`` and the weights' exponents and answer ids as ``cells.csv``.

Exit codes are a stable contract; README's exit-code table lists every
refusal under its code:

- 0: success, and "verified";
- 1: guarantee violated, and nothing else;
- 2: invalid flags or preconditions, refused before the work they guard;
- 3: unreadable or malformed input file (instance, solution list, report);
- 4: maximization instance passed to an algorithm;
- 5: graph enumeration guard exceeded;
- 6: internal error (any other exception; one ``error:`` line, no traceback).

All rationals cross this boundary as strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Iterator, Optional

from .algorithms import (
    BiobjectiveRun,
    GridRun,
    approximate_biobjective,
    approximate_grid,
    approximate_with_ptas,
)
from .core import (
    MAXIMIZATION_REJECTION,
    ContractViolation,
    Direction,
    GuaranteeFamily,
    MaximizationUnsupported,
    check_rational_literal,
    format_rational,
    format_rationals,
    parse_rational,
)
from .instances import (
    SCHEMA_VERSION,
    ExplicitInstance,
    GraphKind,
    InstanceFormatError,
    Rendered,
    canonical_dumps,
    gen_max_counterexample,
    gen_random_explicit,
    gen_random_graph,
    gen_tightness_min,
    instance_from_json,
    instance_text,
    is_utf8_text,
    load_instance,
    read_json,
)
from .oracles import (
    ENUMERATION_LIMIT,
    EnumerationLimit,
    VerificationReport,
    enumerate_graph_solutions,
    pareto_front,
    support_certificates,
    verify_approximation,
    verify_max_impossibility,
)
from .solvers import (
    SolveAnswer,
    adversarial_solver,
    compute_bounds,
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


def _check_out(out: Optional[str]) -> None:
    """Refuse, before any work, an ``--out`` that is empty, names a
    directory or lies in a missing one."""
    if out is None:
        return
    if not out:
        raise ContractViolation("--out is empty; omit it to write to stdout")
    if os.path.isdir(out):
        raise ContractViolation(f"--out {out} is a directory")
    directory = os.path.dirname(out)
    if directory and not os.path.isdir(directory):
        raise ContractViolation(f"--out directory does not exist: {directory}")


def _check_out_dir(out_dir: Optional[str]) -> None:
    """Refuse, before any work, an ``--out-dir`` that is empty or that names
    a file or lies under one."""
    existing = os.path.abspath(out_dir) if out_dir else ""
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if out_dir is not None and not os.path.isdir(existing):
        raise ContractViolation(f"--out-dir {out_dir!r} is not a directory")


def _open_without_truncating(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(payload: Any, out: Optional[str]) -> None:
    """Write ``payload`` as canonical JSON to stdout or over ``out`` in place,
    cutting only a longer old tail: ext4 starts writeback on close of a file
    truncated to zero and rewritten, at several times the cost of the write."""
    text = canonical_dumps(payload)
    if out:
        data = text.encode("utf-8")  # fails, if it must, before ``out`` is opened
        with open(out, "wb", opener=_open_without_truncating) as handle:
            handle.write(data)
            # A new file, a device or a FIFO reports size 0: ftruncate fails on devices.
            if os.fstat(handle.fileno()).st_size > len(data):
                handle.truncate()
    else:
        sys.stdout.write(text)


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
        "targets": "pareto",
        "witnesses": [
            {"target": w.target_id, "by": w.covered_by, "beta": format_rationals(w.beta)}
            for w in report.witnesses
        ],
        "violations": [
            {
                "target": v.target_id,
                "best_by": v.best_candidate,
                "best_beta": format_rationals(v.best_beta) if v.best_beta is not None else None,
            }
            for v in report.violations
        ],
    }


# Newline and indent of a ``weights[]`` or ``probes[]`` entry of a report
# (depth 2), of the entry's members (3) and of its answer's members (4).
_ENTRY, _MEMBER, _FIELD = ("\n" + "  " * depth for depth in (2, 3, 4))


def _list_text(items: list[str], nl: str) -> str:
    """Canonical text of a nonempty list at ``nl`` whose items' texts are ``items``."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _answer_entries(answers: Iterable[SolveAnswer], tails: Iterable[list[str]]) -> Rendered:
    """Canonical text of a report's ``weights`` or ``probes``, a nonempty list
    of ``{"answer": {"arcs", "f", "id", "value"}, ...}`` entries: entry i
    holds answers[i] and then tails[i], the pieces of text of its members
    after "answer".

    An answer's text up to its ``"value": ``, its head, is formatted and
    escaped once per distinct id.  The pieces hold each head, and each
    piece of a tail, by reference, so an entry adds no text but its value."""
    heads: dict[str, str] = {}
    pieces: list[str] = []
    sep, between = "[" + _ENTRY, _ENTRY + "}," + _ENTRY
    for answer, tail in zip(answers, tails):
        head = heads.get(answer.solution_id)
        if head is None:
            arcs = "" if answer.arcs is None else (
                f'"arcs": {_list_text(list(map(str, answer.arcs)), _FIELD)},{_FIELD}'
            )
            f = _list_text([f'"{v}"' for v in format_rationals(answer.image)], _FIELD)
            head = heads[answer.solution_id] = (
                f'{{{_MEMBER}"answer": {{{_FIELD}{arcs}"f": {f},'
                f'{_FIELD}"id": {encode_basestring(answer.solution_id)},{_FIELD}"value": '
            )
        pieces += (sep, head, f'"{format_rational(answer.scalar)}"{_MEMBER}}},')
        pieces += tail
        sep = between
    pieces.append(_ENTRY + "}\n  ]")
    return Rendered(1, pieces)


def _grid_report(run: GridRun, include_cells: bool) -> dict[str, Any]:
    """The grid part of an ``approximate`` report; with ``include_cells``,
    the ``cells`` block ``{"corners": text}``.

    Every cell corner is l_j * step**k from ``run.plan.corners``, so the
    block is that table formatted once, ``text[j][k]`` for k <= u_j + 1:
    sum (u_j + 2) strings however many cells the grid has.  The report's
    ``u``, ``weights[].exponents`` and ``weights[].answer.id`` then fix
    every cell, and ``export-plot`` writes them out.

    Component j of a weight is 1/corners[j][k_j], so ``weights[].weight``
    prints that corner's numerator and denominator swapped: each of the
    sum (u_j + 1) corners a weight can use is formatted once.
    """
    # [j][k]: item j of a weight's exponents and of its weight at k_j = k,
    # led by its separator and indent.
    exponents, inverses = [], []
    for j, column in enumerate(run.plan.corners):
        nl = "," + _FIELD if j else _FIELD
        exponents.append([f"{nl}{k}" for k in range(len(column) - 1)])
        inverses.append([
            f'{nl}"{c.denominator}"' if c.numerator == 1
            else f'{nl}"{c.denominator}/{c.numerator}"'
            for c in column[:-1]
        ])
    opening = _MEMBER + '"exponents": ['
    between = _MEMBER + "]," + _MEMBER + '"weight": ['
    closing = _MEMBER + "]"
    tails = (
        [
            opening, *[column[k_j] for column, k_j in zip(exponents, k)],
            between, *[column[k_j] for column, k_j in zip(inverses, k)], closing,
        ]
        for k in (entry.exponents for entry in run.plan.entries)
    )
    data: dict[str, Any] = {
        "eps_prime": format_rational(run.plan.eps_prime),
        "u": list(run.plan.u),
        "ws_calls": run.ws_calls,
        "solutions": [{"id": s.id, "f": format_rationals(s.image)} for s in run.result],
        "weights": _answer_entries(run.answers, tails),
    }
    if include_cells:
        data["cells"] = {"corners": [format_rationals(column) for column in run.plan.corners]}
    return data


def _bisect_report(run: BiobjectiveRun) -> dict[str, Any]:
    tails = (
        [f'{_MEMBER}"gamma": "{format_rational(probe.gamma)}",{_MEMBER}"t": {probe.index}']
        for probe in run.probes
    )
    return {
        "eps_prime": format_rational(run.eps_prime),
        "u": [run.u1, run.u2],
        "gamma_count": run.gamma_count,
        "ws_calls": run.ws_calls,
        "solutions": [{"id": s.id, "f": format_rationals(s.image)} for s in run.result],
        "probes": _answer_entries([probe.answer for probe in run.probes], tails),
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
    if args.tau is not None and args.algorithm != "ptas":
        raise ContractViolation("--tau is a ptas flag")
    bounds = compute_bounds(inst)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "approximate",
        "algorithm": args.algorithm,
        "direction": inst.direction.value,
        "p": inst.p,
        "epsilon": format_rational(args.epsilon),
        "solver": args.solver,
        "instance": instance_text(inst, 1),
        "bounds": {
            "lower": format_rationals(bounds.lower),
            "upper": format_rationals(bounds.upper),
        },
    }
    if args.algorithm == "grid":
        if args.solver == "adversarial":
            solver = adversarial_solver(inst, args.sigma)
        else:
            if args.sigma < 1:  # the handle's own refusal, before the one for sigma > 1
                raise ContractViolation("sigma must be >= 1")
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
        if args.sigma != 1:
            raise ContractViolation("ptas sets sigma to 1 + tau; drop --sigma")
        if args.cells:
            raise ContractViolation("--cells is a grid report feature")
        run = approximate_with_ptas(adversarial_solver(inst, 1 + args.tau), bounds, args.epsilon)
        report["sigma"] = format_rational(run.plan.sigma)
        report["tau"] = format_rational(args.tau)
        report["inner_epsilon"] = format_rational(run.plan.epsilon)
        report.update(_grid_report(run, include_cells=False))
    _write_output(report, args.out)
    return EXIT_OK


def _report_solution_ids(data: Any) -> list[str]:
    """Ids of a report's ``solutions``: a list of objects with string ids."""
    solutions = data.get("solutions") if isinstance(data, dict) else None
    if not isinstance(solutions, list) or not all(
        isinstance(entry, dict) and isinstance(entry.get("id"), str) for entry in solutions
    ):
        raise InstanceFormatError("report 'solutions' must be a list of objects with string ids")
    return [entry["id"] for entry in solutions]


def _solution_ids(args: argparse.Namespace) -> list[str]:
    if args.solutions:
        data = read_json(args.solutions, "solutions file")
        if isinstance(data, dict) and isinstance(data.get("ids"), list):
            ids = data["ids"]
        elif isinstance(data, list):
            ids = data
        else:
            raise InstanceFormatError("solutions file must be a list of ids or {'ids': [...]}")
    else:
        data = read_json(args.from_report, "report file")
        ids = _report_solution_ids(data)
    if not all(isinstance(i, str) for i in ids):
        raise InstanceFormatError("solution ids must be strings")
    return ids


def _as_explicit(inst, limit: int, named: Optional[list[str]] = None) -> ExplicitInstance:
    """``inst``, or the graph's enumeration (``enumerate_graph_solutions``)."""
    if isinstance(inst, ExplicitInstance):
        return inst
    return enumerate_graph_solutions(inst, limit=limit, named=named)


def _check_ids(ids: list[str], explicit: ExplicitInstance) -> None:
    """Refuse the first id that ``explicit`` (for a graph, its enumeration) lacks."""
    known = set(explicit.ids())
    for sid in ids:
        if sid not in known:
            raise InstanceFormatError(f"solution id {sid!r} is not an id of the instance")


def _family_from_args(args: argparse.Namespace, p: int) -> GuaranteeFamily:
    """The family that ``--family`` names.  ``disjunctive`` is the p = 2
    spelling of the exact solver's guarantee {(1, 2+eps), (2+eps, 1)}, that
    is ``multifactor --sigma 1``.  Where a family fixes sigma at 1, any other
    ``--sigma`` is refused rather than dropped."""
    if args.family == "disjunctive":
        if args.epsilon is None:
            raise ContractViolation("disjunctive verification needs --epsilon")
        if args.sum_bound is not None or args.sigma != 1:
            raise ContractViolation(
                "--family disjunctive fixes sigma at 1 and the bound at 2 + epsilon; "
                "drop --sigma and --sum-bound"
            )
        if p != 2:
            raise ContractViolation("--family disjunctive is biobjective only")
        return GuaranteeFamily.multi_factor(1, args.epsilon, 2)
    if (args.epsilon is None) == (args.sum_bound is None):
        raise ContractViolation("give exactly one of --epsilon and --sum-bound")
    if args.family == "multifactor":
        if args.epsilon is not None:
            return GuaranteeFamily.multi_factor(args.sigma, args.epsilon, p)
        return GuaranteeFamily.multi_factor_raw(args.sigma, args.sum_bound, p)
    if args.epsilon is not None:
        return GuaranteeFamily.uniform(args.sigma, args.epsilon, p)
    if args.sigma != 1:
        raise ContractViolation("--family uniform --sum-bound fixes sigma at 1; drop --sigma")
    return GuaranteeFamily.uniform_raw(args.sum_bound, p)


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    family = _family_from_args(args, inst.p)  # flags refused before enumeration
    ids = _solution_ids(args)
    explicit = _as_explicit(inst, args.limit, ids)
    _check_ids(ids, explicit)
    report = verify_approximation(ids, explicit, family)
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
        explicit = _as_explicit(inst, args.limit, [])
        if args.what == "pareto":
            payload["ids"] = sorted(pareto_front(explicit))
        else:
            certs = support_certificates(explicit)
            payload["ids"] = sorted(certs)
            payload["weak"] = sorted(i for i, c in certs.items() if c.weak)
            payload["witnesses"] = {i: format_rationals(certs[i].weight) for i in payload["ids"]}
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.generator == "tightness-min":
        inst = gen_tightness_min(args.p, args.M)
    elif args.generator == "max-counterexample":
        inst = gen_max_counterexample(args.p, args.M)
    elif args.generator == "random-explicit":
        inst = gen_random_explicit(
            args.p, args.n, args.low, args.high, args.seed, direction=Direction(args.direction)
        )
    else:
        inst = gen_random_graph(
            args.nodes, args.arcs, args.p, args.low, args.high, args.seed, GraphKind(args.kind)
        )
    _write_output(instance_text(inst, 0), args.out)
    return EXIT_OK


# Largest cells.csv, in printed characters, that export-plot writes.
MAX_CELL_DIGITS = 10**8

_CELLS_FORMAT = (
    "report 'cells' must be {\"corners\": [column_1, column_2]}, column j holding "
    "u_j + 2 rational strings, with 'u' and every 'weights[].exponents' two "
    "integers 0 <= k_j <= u_j, every 'weights[].answer.id' a string that UTF-8 "
    "can encode, and the weights' diagonals holding prod (u_j + 1) cells together"
)


def _cell_table(data: dict[str, Any]) -> Optional[tuple[list, list, list, list]]:
    """(u, exponents, ids, corners) of a report's ``cells`` corner table,
    weights and caps, as the report holds them, for ``_cells_csv``; None if
    the report has no ``cells``.  Every check is made here, before
    ``export-plot`` opens any file.

    Weight i with exponents k covers levels 0 .. min_j (u_j - k_j), and its
    cell at a level spans corners[j][k_j + level] to
    corners[j][k_j + level + 1].  Each distinct corner string is checked
    once; a corner that is not a string is refused before any set lookup,
    which could not hash it.  The diagonals of a grid tile prod [0, u_j], so
    a table whose diagonals hold another number of cells is refused, and so
    is one whose prod (u_j + 1) cells could print more than
    ``MAX_CELL_DIGITS`` characters (ContractViolation).
    """
    cells = data.get("cells")
    if cells is None:
        return None

    def is_ints(values: Any) -> bool:
        return (
            isinstance(values, list)
            and len(values) == 2
            and all(type(v) is int and v >= 0 for v in values)  # bool excluded
        )

    corners = cells.get("corners") if isinstance(cells, dict) else None
    u, weights = data.get("u"), data.get("weights")
    if not (
        is_ints(u)
        and isinstance(weights, list)
        and isinstance(corners, list)
        and len(corners) == 2
        and all(isinstance(c, list) and len(c) == u_j + 2 for c, u_j in zip(corners, u))
    ):
        raise InstanceFormatError(_CELLS_FORMAT)
    accepted: set[str] = set()
    for value in corners[0] + corners[1]:
        if not (isinstance(value, str) and value in accepted):
            try:
                check_rational_literal(value)
            except ContractViolation:
                raise InstanceFormatError(_CELLS_FORMAT) from None
            accepted.add(value)
    exponents, ids = [], []
    for w in weights:
        k = w.get("exponents") if isinstance(w, dict) else None
        answer = w.get("answer") if isinstance(w, dict) else None
        if not (
            is_ints(k)
            and all(k_j <= u_j for k_j, u_j in zip(k, u))
            and isinstance(answer, dict)
            and isinstance(answer.get("id"), str)
            and is_utf8_text(answer["id"])
        ):
            raise InstanceFormatError(_CELLS_FORMAT)
        exponents.append(k)
        ids.append(answer["id"])
    cells_count = math.prod(u_j + 1 for u_j in u)
    if sum(min(u_j - k_j for u_j, k_j in zip(u, k)) + 1 for k in exponents) != cells_count:
        raise InstanceFormatError(_CELLS_FORMAT)
    longest = max(map(len, accepted))
    if cells_count * 2 * len(u) * longest > MAX_CELL_DIGITS:
        raise ContractViolation(
            f"cells.csv of {cells_count} cells with corners of up to {longest} characters "
            f"could print over {MAX_CELL_DIGITS} characters"
        )
    return u, exponents, ids, corners


class _Echo:
    """A file whose ``write`` returns its line, which ``writerow`` returns."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_escaper() -> Callable[[Any], str]:
    """A function giving a field as ``csv.writer`` writes it in a row of two
    or more fields; it escapes each distinct field once, by ``csv.writer``,
    whose default dialect joins fields by "," and ends a row with "\r\n".
    A field is escaped as the second field of a two-field row, because
    ``csv.writer`` quotes a row of one empty field as ``""`` but writes an
    empty field in a longer row as nothing.
    """
    writer = csv.writer(_Echo())
    escaped: dict[Any, str] = {}

    def escape(field: Any) -> str:
        text = escaped.get(field)
        if text is None:
            text = escaped[field] = writer.writerow(("", field))[1:-2]
        return text

    return escape


def _cells_csv(table: Optional[tuple[list, list, list, list]]) -> Iterator[str]:
    """``cells.csv`` of a ``_cell_table`` (None: no cells) in pieces: the
    header, then each weight's diagonal, level by level, in weight order,
    the order of ``GridRun.cell_map``.  The text is what ``csv.writer``
    writes for the per-cell rows, which are never built: each distinct
    corner and id is escaped once, column j's adjacent corners are joined
    once into u_j + 1 ``"lo,hi"`` pairs, and a cell is one f-string of its
    indices, its weight's id and two pairs.
    """
    yield "weight_index,level,solution_id,f1_lo,f1_hi,f2_lo,f2_hi\r\n"
    if table is None:
        return
    (u1, u2), exponents, ids, corners = table
    escape = _csv_escaper()
    pairs1, pairs2 = (
        [f"{escape(lo)},{escape(hi)}" for lo, hi in zip(column, column[1:])] for column in corners
    )
    for idx, ((k1, k2), answer) in enumerate(zip(exponents, ids)):
        tail = f",{escape(answer)},"
        cells = zip(range(min(u1 - k1, u2 - k2) + 1), pairs1[k1:], pairs2[k2:])
        yield "".join([f"{idx},{level}{tail}{lo},{hi}\r\n" for level, lo, hi in cells])


def cmd_export_plot(args: argparse.Namespace) -> int:
    data = read_json(args.from_report, "report file")
    if not isinstance(data, dict) or "instance" not in data:
        raise InstanceFormatError("report file lacks an embedded instance")
    if data.get("p") != 2:
        raise ContractViolation("plot export is biobjective only")
    solution_ids = _report_solution_ids(data)
    table = _cell_table(data)
    embedded = instance_from_json(data["instance"])
    if embedded.p != 2:
        raise InstanceFormatError(f"report has p = 2 but its instance has p = {embedded.p}")
    inst = _as_explicit(embedded, args.limit)
    _check_ids(solution_ids + (table[2] if table else []), inst)
    output_ids = set(solution_ids)
    pareto = pareto_front(inst)
    supported = support_certificates(inst)
    os.makedirs(args.out_dir, exist_ok=True)
    points_rows = [["id", "f1", "f2", "pareto", "supported", "output"]] + [
        [
            s.id,
            format_rational(s.image[0]),
            format_rational(s.image[1]),
            int(s.id in pareto),
            int(s.id in supported),
            int(s.id in output_ids),
        ]
        for s in inst.solutions
    ]
    points = io.StringIO(newline="")
    csv.writer(points).writerows(points_rows)
    files = (("points.csv", [points.getvalue()]), ("cells.csv", _cells_csv(table)))
    for name, pieces in files:
        # Written beside the file and moved over it, so a failure leaves no
        # partial file and an earlier one as it was.
        temporary = os.path.join(args.out_dir, f".{name}.{os.urandom(8).hex()}.tmp")
        handle = open(temporary, "x", encoding="utf-8", newline="")
        try:
            with handle:
                handle.writelines(pieces)
            os.replace(temporary, os.path.join(args.out_dir, name))
        except BaseException:
            os.remove(temporary)
            raise
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
    approx.add_argument(
        "--cells", action="store_true", help="emit the corner table export-plot writes cells from"
    )
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
    verify.add_argument("--limit", type=int, default=ENUMERATION_LIMIT)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="compute ground-truth sets")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument(
        "--what", choices=["pareto", "supported", "max-impossibility"], required=True
    )
    oracle.add_argument("--limit", type=int, default=ENUMERATION_LIMIT)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=cmd_oracle)

    generate = sub.add_parser("generate", help="write an instance file")
    gen_sub = generate.add_subparsers(dest="generator", required=True)
    integer, rational = {"type": int, "required": True}, {"type": _rational_flag, "required": True}
    options = {
        "--M": rational,
        "--low": rational,
        "--high": rational,
        "--direction": {"choices": ["min", "max"], "default": "min"},
        "--kind": {"choices": ["shortest-path", "spanning-tree"], "required": True},
        "--out": {"default": None},
    }
    for generator, flags in (
        ("tightness-min", ["--p", "--M"]),
        ("max-counterexample", ["--p", "--M"]),
        ("random-explicit", ["--p", "--n", "--low", "--high", "--seed", "--direction"]),
        ("random-graph", ["--nodes", "--arcs", "--p", "--low", "--high", "--seed", "--kind"]),
    ):
        generator_parser = gen_sub.add_parser(generator)
        for flag in flags + ["--out"]:
            generator_parser.add_argument(flag, **options.get(flag, integer))
        generator_parser.set_defaults(func=cmd_generate)

    plot = sub.add_parser("export-plot", help="export CSV plot data from a report")
    plot.add_argument("--from-report", dest="from_report", required=True)
    plot.add_argument("--out-dir", dest="out_dir", required=True)
    plot.add_argument("--limit", type=int, default=ENUMERATION_LIMIT)
    plot.set_defaults(func=cmd_export_plot)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        _check_out_dir(getattr(args, "out_dir", None))
        if getattr(args, "limit", 1) < 1:
            raise ContractViolation(f"--limit must be at least 1, got {args.limit}")
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
