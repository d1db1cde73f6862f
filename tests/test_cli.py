import contextlib
import copy
import csv
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import wsapprox
from wsapprox import (
    Direction,
    ExplicitInstance,
    GraphInstance,
    GraphKind,
    ObjectiveVector,
    Solution,
    adversarial_solver,
    approximate_biobjective,
    approximate_grid,
    approximate_with_ptas,
    cli,
    compute_bounds,
    exact_solver,
    gen_tightness_min,
    oracles,
    solvers,
)
from wsapprox.cli import main
from wsapprox.core import format_rational
from wsapprox.instances import (
    MAX_GENERATED_VALUES,
    canonical_dumps,
    gen_random_explicit,
    instance_text,
    load_instance,
)

from conftest import enumerable_graphs, explicit_instances, rationals, time_limit
from reference import (
    bisect_probes_by_dicts,
    canonical_dumps_by_json,
    cell_map_by_products,
    cell_rows_by_diagonal,
    cells_csv_by_products,
    csv_text_by_writerows,
    grid_weights_by_dicts,
)

THREE_POINTS = {
    "schema_version": 1,
    "kind": "explicit",
    "direction": "min",
    "p": 2,
    "solutions": [
        {"id": "a", "f": ["1", "8"]},
        {"id": "b", "f": ["2", "2"]},
        {"id": "c", "f": ["8", "1"]},
    ],
}

LIMIT = sys.get_int_max_str_digits()  # digits int() converts; 0 means no limit

# A valid biobjective grid report of one weight, whose one cell spans the
# corner table's two corners in each objective, for export-plot and verify.
WEIGHT = {"exponents": [0, 0], "answer": {"id": "a"}}
REPORT = {
    "p": 2,
    "instance": THREE_POINTS,
    "solutions": [{"id": "a", "f": ["1", "8"]}],
    "u": [0, 0],
    "weights": [WEIGHT],
    "cells": {"corners": [["1", "2"], ["1", "2"]]},
}


def plot_report(corners=None, **fields):
    """REPORT as JSON text with ``fields`` replaced and, if given, ``corners``
    as its corner table."""
    cells = {"cells": {"corners": corners}} if corners is not None else {}
    return json.dumps({**REPORT, **cells, **fields})


@pytest.fixture
def three_points_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(canonical_dumps(THREE_POINTS))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestApproximateCommand:
    def test_grid_worked_example(self, three_points_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                three_points_file,
                "--epsilon",
                "2",
                "--sigma",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out)
        assert report["ws_calls"] == 7
        assert report["u"] == [3, 3]
        assert {s["id"] for s in report["solutions"]} == {"a", "b", "c"}
        assert len(report["weights"]) == 7
        assert report["weights"][0]["weight"] == ["1", "1"]

    def test_bisect_worked_example(self, three_points_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "approximate",
                "--algorithm",
                "bisect",
                "--instance",
                three_points_file,
                "--epsilon",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out)
        assert report["ws_calls"] == 3
        assert {tuple(s["f"]) for s in report["solutions"]} == {("1", "8"), ("8", "1")}
        assert report["tree"] == {"nodes": 1, "two_child_nodes": 0, "height": 1}

    def test_ptas_bad_tau_exits_2(self, three_points_file):
        code = main(
            [
                "approximate",
                "--algorithm",
                "ptas",
                "--instance",
                three_points_file,
                "--epsilon",
                "1",
                "--tau",
                "1/2",
                "--solver",
                "adversarial",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("tau", ["-1/2", "0", "1/2"])
    def test_ptas_tau_out_of_range_names_tau(self, three_points_file, tmp_path, capsys, tau):
        # at epsilon 1 and p = 2, tau must lie in (0, 1/2); a tau at or below
        # 0 would otherwise reach the handle's refusal of sigma = 1 + tau
        out = tmp_path / "report.json"
        argv = ["approximate", "--algorithm", "ptas", "--instance", three_points_file,
                "--epsilon", "1", f"--tau={tau}", "--solver", "adversarial", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        message = "error: tau must satisfy 0 < tau < epsilon / p\n"
        assert (captured.out, captured.err) == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_ptas_non_positive_epsilon_names_epsilon(
        self, three_points_file, tmp_path, capsys, epsilon
    ):
        out = tmp_path / "report.json"
        argv = ["approximate", "--algorithm", "ptas", "--instance", three_points_file,
                f"--epsilon={epsilon}", "--tau", "1/8", "--solver", "adversarial",
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: epsilon must be positive\n")
        assert not out.exists()

    def test_ptas_report(self, three_points_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "approximate",
                "--algorithm",
                "ptas",
                "--instance",
                three_points_file,
                "--epsilon",
                "1",
                "--tau",
                "1/4",
                "--solver",
                "adversarial",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out)
        assert report["sigma"] == "5/4"
        assert report["inner_epsilon"] == "1/2"

    def test_sigma_without_adversarial_exits_2(self, three_points_file):
        code = main(
            [
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                three_points_file,
                "--epsilon",
                "1",
                "--sigma",
                "2",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("sigma,solver,message", [
        ("1/2", "exact", "sigma must be >= 1"),
        ("1/2", "adversarial", "sigma must be >= 1"),
        ("3/2", "exact", "--sigma above 1 needs --solver adversarial"),
    ])
    def test_grid_sigma_refusal_names_its_side_of_1(
        self, three_points_file, capsys, sigma, solver, message
    ):
        argv = ["approximate", "--algorithm", "grid", "--instance", three_points_file,
                "--epsilon", "1", "--sigma", sigma, "--solver", solver]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_oversized_grid_exits_2_before_writing(self, tmp_path, capsys):
        # p = 4 spanning [1, 1000] at eps = 1/3 would plan about 2.6e6 weights.
        wide = {
            "kind": "explicit",
            "direction": "min",
            "p": 4,
            "solutions": [
                {"id": f"s{j}", "f": ["1000" if k == j else "1" for k in range(4)]}
                for j in range(4)
            ],
        }
        inst = tmp_path / "wide.json"
        inst.write_text(json.dumps(wide))
        out = tmp_path / "report.json"
        argv = ["approximate", "--algorithm", "grid", "--instance", str(inst)]
        code = main(argv + ["--epsilon", "1/3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid of ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm,eps,extra",
        [
            ("grid", "1/300", []),
            ("bisect", "1/300", []),
            ("ptas", "1/300", ["--tau", "1/1000", "--solver", "adversarial"]),
            ("grid", "1/10000000", []),
            ("bisect", "1/10000000", []),
            ("ptas", "1/10000000", ["--tau", "1/100000000", "--solver", "adversarial"]),
        ],
    )
    def test_digit_blow_up_exits_2_before_writing(
        self, tmp_path, capsys, algorithm, eps, extra
    ):
        # At eps = 1/300 a report value would have about 6850 digits, past the
        # interpreter's 4300; at 1/10^7, u is about 1.4e8 and step**u alone
        # would take hundreds of megabytes.
        inst = tmp_path / "inst.json"
        main(
            ["generate", "random-explicit", "--p", "2", "--n", "10", "--low", "1",
             "--high", "1000", "--seed", "3", "--out", str(inst)]
        )
        out = tmp_path / "report.json"
        start = time.perf_counter()
        code = main(
            ["approximate", "--algorithm", algorithm, "--instance", str(inst),
             "--epsilon", eps, *extra, "--out", str(out)]
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: report values would have")
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm,eps",
        [(a, e) for a in ("grid", "bisect") for e in ("1/10000000", "1/1" + "0" * 400)],
        ids=["grid-1e-7", "grid-1e-400", "bisect-1e-7", "bisect-1e-400"],
    )
    def test_oversized_grid_without_a_digit_limit_exits_2_at_once(
        self, tmp_path, algorithm, eps
    ):
        # With the limit off no digit guard fires: at 1/10^7 the caps are
        # about 1.4e8, and at 1/10^400 step - 1 is below float range, so the
        # cap estimate is infinite.  The grid-size estimate refuses both
        # before exponent_cap builds or counts toward step**u.
        inst = tmp_path / "inst.json"
        main(
            ["generate", "random-explicit", "--p", "2", "--n", "10", "--low", "1",
             "--high", "1000", "--seed", "3", "--out", str(inst)]
        )
        out = tmp_path / "report.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, err = bounded_main(
                ["approximate", "--algorithm", algorithm, "--instance", str(inst),
                 "--epsilon", eps, "--out", str(out)],
                seconds=1.0,
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: grid of about ")
        assert err[0].endswith("weights exceeds the limit of 1000000")
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1/50", "1/100"])
    def test_cells_csv_blow_up_exits_2_at_export_plot(self, tmp_path, capsys, eps):
        # The cell map would print about 2.8e8 digits at 1/50 and 2.5e9 at
        # 1/100, but the report holds only its corner table: approximate
        # --cells writes it, and export-plot refuses it before any file.
        inst = tmp_path / "inst.json"
        main(
            ["generate", "random-explicit", "--p", "2", "--n", "10", "--low", "1",
             "--high", "1000", "--seed", "3", "--out", str(inst)]
        )
        out = tmp_path / "report.json"
        code = main(
            ["approximate", "--algorithm", "grid", "--instance", str(inst),
             "--epsilon", eps, "--cells", "--out", str(out)]
        )
        assert code == 0
        out_dir = tmp_path / "plots"
        start = time.perf_counter()
        code = main(["export-plot", "--from-report", str(out), "--out-dir", str(out_dir)])
        assert time.perf_counter() - start < 1
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cells.csv of ")
        assert not out_dir.exists()

    def test_cells_flag_only_adds_the_corner_table(self, tmp_path, capsys):
        # cells.csv is sized by export-plot alone: --cells refuses nothing
        # that approximate accepts, and adds nothing but the "cells" block.
        inst = tmp_path / "inst.json"
        explicit = gen_random_explicit(2, 200, 100, 1000, 1951000)
        inst.write_text(canonical_dumps(instance_text(explicit, 0)))
        plain, cells = tmp_path / "plain.json", tmp_path / "cells.json"
        argv = ["approximate", "--algorithm", "grid", "--instance", str(inst)]
        for d in range(16, 61):
            assert main(argv + ["--epsilon", f"1/{d}", "--out", str(plain)]) == 0
            assert main(argv + ["--epsilon", f"1/{d}", "--cells", "--out", str(cells)]) == 0
            assert capsys.readouterr().err == ""
            report = read_json(cells)
            del report["cells"]
            assert report == read_json(plain)

    def test_max_instance_exits_4(self, tmp_path):
        max_file = tmp_path / "max.json"
        assert main(["generate", "max-counterexample", "--p", "2", "--M", "100", "--out", str(max_file)]) == 0
        for algorithm in ("grid", "bisect", "ptas"):
            code = main(
                [
                    "approximate",
                    "--algorithm",
                    algorithm,
                    "--instance",
                    str(max_file),
                    "--epsilon",
                    "1",
                ]
            )
            assert code == 4

    def test_unreadable_instance_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert (
            main(["approximate", "--algorithm", "grid", "--instance", str(bad), "--epsilon", "1"])
            == 3
        )
        data = dict(THREE_POINTS)
        data["surprise"] = 1
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(data))
        assert (
            main(["approximate", "--algorithm", "grid", "--instance", str(strict), "--epsilon", "1"])
            == 3
        )

    def test_threads_flag_is_rejected(self, three_points_file):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "approximate",
                    "--algorithm",
                    "grid",
                    "--instance",
                    three_points_file,
                    "--epsilon",
                    "2",
                    "--threads",
                    "3",
                ]
            )
        assert exc.value.code == 2

    def test_grid_on_graph_instance(self, tmp_path):
        graph = tmp_path / "graph.json"
        assert (
            main(
                [
                    "generate",
                    "random-graph",
                    "--nodes",
                    "5",
                    "--arcs",
                    "8",
                    "--p",
                    "2",
                    "--low",
                    "1",
                    "--high",
                    "4",
                    "--seed",
                    "3",
                    "--kind",
                    "shortest-path",
                    "--out",
                    str(graph),
                ]
            )
            == 0
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                str(graph),
                "--epsilon",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out)
        assert all(s["id"].startswith("path:") for s in report["solutions"])


APPROXIMATE_ARGV = ["approximate", "--instance", "{inst}", "--epsilon", "1", "--algorithm"]
VERIFY_ARGV = ["verify", "--instance", "{inst}", "--solutions"]


class TestRefusedFlagsAndInputs:
    """Each refusal exits with its code and one ``error:`` line, and writes
    no output."""

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (
                ["approximate", "--instance", "{graph}", "--epsilon", "1", "--algorithm",
                 "grid", "--solver", "adversarial", "--sigma", "3/2"],
                2,
                "adversarial backend requires an explicit instance",
            ),
            (APPROXIMATE_ARGV + ["bisect", "--solver", "adversarial"], 2, "bisect requires"),
            (APPROXIMATE_ARGV + ["bisect", "--cells"], 2, "--cells is a grid report feature"),
            (
                APPROXIMATE_ARGV + ["ptas", "--tau", "1/4", "--solver", "adversarial", "--cells"],
                2,
                "--cells is a grid report feature",
            ),
            (APPROXIMATE_ARGV + ["ptas", "--solver", "adversarial"], 2, "--tau is required"),
            (APPROXIMATE_ARGV + ["ptas", "--tau", "1/4"], 2, "ptas runs against the adversarial"),
            (
                APPROXIMATE_ARGV + ["ptas", "--tau", "1/4", "--solver", "adversarial", "--sigma", "3"],
                2,
                "ptas sets sigma to 1 + tau",
            ),
            (APPROXIMATE_ARGV + ["grid", "--tau", "1/4"], 2, "--tau is a ptas flag"),
            (
                APPROXIMATE_ARGV + ["grid", "--tau", "1/4", "--solver", "adversarial", "--sigma", "3/2"],
                2,
                "--tau is a ptas flag",
            ),
            (APPROXIMATE_ARGV + ["bisect", "--tau", "1/4"], 2, "--tau is a ptas flag"),
            (
                VERIFY_ARGV + ["{no_ids}", "--family", "multifactor", "--epsilon", "1"],
                3,
                "solutions file must be a list of ids",
            ),
            (
                VERIFY_ARGV + ["{int_ids}", "--family", "multifactor", "--epsilon", "1"],
                3,
                "solution ids must be strings",
            ),
            (
                VERIFY_ARGV + ["{foreign_ids}", "--family", "multifactor", "--epsilon", "1"],
                3,
                "solution id 'nope' is not an id of the instance",
            ),
            (
                ["verify", "--instance", "{inst}", "--from-report", "{foreign_report}",
                 "--family", "multifactor", "--epsilon", "1"],
                3,
                "solution id 'nope' is not an id of the instance",
            ),
            (
                VERIFY_ARGV + ["{ids}", "--family", "disjunctive", "--sum-bound", "3"],
                2,
                "disjunctive verification needs --epsilon",
            ),
            (
                VERIFY_ARGV + ["{ids}", "--family", "disjunctive", "--epsilon", "1", "--sigma", "3/2"],
                2,
                "--family disjunctive fixes sigma at 1",
            ),
            (
                VERIFY_ARGV + ["{ids}", "--family", "disjunctive", "--epsilon", "1", "--sigma", "100"],
                2,
                "--family disjunctive fixes sigma at 1",
            ),
            (
                ["verify", "--instance", "{graph}", "--solutions", "{ids}", "--family",
                 "disjunctive", "--epsilon", "1", "--sigma", "3/2", "--limit", "1"],
                2,
                "--family disjunctive fixes sigma at 1",
            ),
            (
                VERIFY_ARGV + ["{ids}", "--family", "disjunctive", "--epsilon", "1", "--sum-bound", "3"],
                2,
                "--family disjunctive fixes sigma at 1 and the bound",
            ),
            (
                VERIFY_ARGV + ["{ids}", "--family", "uniform", "--sum-bound", "4", "--sigma", "3/2"],
                2,
                "--family uniform --sum-bound fixes sigma at 1",
            ),
            (
                VERIFY_ARGV + ["{ids}", "--family", "uniform", "--sum-bound", "4", "--sigma", "100"],
                2,
                "--family uniform --sum-bound fixes sigma at 1",
            ),
            (
                ["export-plot", "--from-report", "{no_instance}", "--out-dir", "{plots}"],
                3,
                "report file lacks an embedded instance",
            ),
            (
                ["export-plot", "--from-report", "{no_solutions}", "--out-dir", "{plots}"],
                3,
                "report 'solutions' must be a list of objects with string ids",
            ),
            (
                ["generate", "random-explicit", "--p", "2", "--n", "2", "--low", "1", "--high",
                 "9", "--seed", "1", "--out", ""],
                2,
                "--out is empty",
            ),
            (
                ["generate", "tightness-min", "--p", "548", "--M", "4"],
                2,
                "300852 values are over the ceiling of 300000",
            ),
            (
                ["generate", "tightness-min", "--p", "3", "--M", "9" * LIMIT],
                2,
                f"the instance would print a value of more than {LIMIT} digits",
            ),
            (
                ["generate", "random-explicit", "--p", "2", "--n", "2", "--low", "1", "--high",
                 "9" * LIMIT, "--seed", "1"],
                2,
                f"the instance would print a value of more than {LIMIT} digits",
            ),
        ],
        ids=[
            "adversarial-on-graph",
            "bisect-adversarial",
            "bisect-cells",
            "ptas-cells",
            "ptas-without-tau",
            "ptas-exact-solver",
            "ptas-sigma",
            "grid-tau",
            "adversarial-grid-tau",
            "bisect-tau",
            "solutions-object-without-ids",
            "non-string-ids",
            "verify-foreign-solutions-id",
            "verify-foreign-report-id",
            "disjunctive-without-epsilon",
            "disjunctive-sigma-3/2",
            "disjunctive-sigma-100",
            "disjunctive-sigma-before-enumeration",
            "disjunctive-sum-bound",
            "uniform-sum-bound-sigma-3/2",
            "uniform-sum-bound-sigma-100",
            "export-plot-without-instance",
            "export-plot-without-solutions",
            "empty-out",
            "generate-over-the-ceiling",
            "generate-tightness-over-the-digit-limit",
            "generate-random-explicit-over-the-digit-limit",
        ],
    )
    def test_refusal(self, tmp_path, three_points_file, capsys, argv, code, message):
        files = {
            "inst": three_points_file,
            "graph": tmp_path / "graph.json",
            "ids": tmp_path / "ids.json",
            "no_ids": tmp_path / "no-ids.json",
            "int_ids": tmp_path / "int-ids.json",
            "no_instance": tmp_path / "no-instance.json",
            "foreign_ids": tmp_path / "foreign-ids.json",
            "foreign_report": tmp_path / "foreign-report.json",
            "no_solutions": tmp_path / "no-solutions.json",
            "plots": tmp_path / "plots",
        }
        main(["generate", "random-graph", "--nodes", "5", "--arcs", "8", "--p", "2", "--low",
              "1", "--high", "4", "--seed", "3", "--kind", "shortest-path",
              "--out", str(files["graph"])])
        files["ids"].write_text('["a", "c"]')
        files["no_ids"].write_text('{"solutions": ["a"]}')
        files["int_ids"].write_text("[1, 2]")
        files["no_instance"].write_text(json.dumps({"p": 2, "solutions": REPORT["solutions"]}))
        files["foreign_ids"].write_text('["a", "nope"]')
        files["foreign_report"].write_text(json.dumps({"solutions": [{"id": "a"}, {"id": "nope"}]}))
        files["no_solutions"].write_text(
            json.dumps({k: v for k, v in REPORT.items() if k != "solutions"})
        )
        out = tmp_path / "out.json"
        argv = [arg.format(**files) for arg in argv]
        if argv[0] != "export-plot" and "--out" not in argv:
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert captured.out == ""
        assert not out.exists() and not files["plots"].exists()

    def test_verify_refuses_an_id_the_graph_lacks_with_exit_3(self, tmp_path, capsys):
        # The graph is enumerated for the front and the named ids only, so a
        # named tree off the front passes and the id after it is refused.
        graph, ids = tmp_path / "graph.json", tmp_path / "ids.json"
        main(["generate", "random-graph", "--nodes", "5", "--arcs", "7", "--p", "2", "--low",
              "1", "--high", "4", "--seed", "3", "--kind", "spanning-tree", "--out", str(graph)])
        full = cli.enumerate_graph_solutions(load_instance(str(graph)))
        dominated = [s.id for s in full.solutions if s.id not in cli.pareto_front(full)]
        argv = ["verify", "--instance", str(graph), "--solutions", str(ids),
                "--family", "multifactor", "--epsilon", "1", "--out", str(tmp_path / "out.json")]
        ids.write_text(json.dumps(dominated[:1]))
        assert main(argv) in (0, 1)
        ids.write_text(json.dumps(dominated[:1] + ["tree:0,1,99"]))
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: solution id 'tree:0,1,99' is not an id of the instance"]

    @pytest.mark.parametrize("limit", ["0", "-5"])
    @pytest.mark.parametrize("command", ["verify", "oracle", "export-plot"])
    def test_limit_below_one_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, limit
    ):
        graph, report = tmp_path / "graph.json", tmp_path / "report.json"
        out, plots = tmp_path / "out.json", tmp_path / "plots"
        main(["generate", "random-graph", "--nodes", "5", "--arcs", "7", "--p", "2", "--low",
              "1", "--high", "4", "--seed", "3", "--kind", "spanning-tree", "--out", str(graph)])
        main(["approximate", "--algorithm", "grid", "--instance", str(graph), "--epsilon", "1",
              "--cells", "--out", str(report)])
        argv = {
            "verify": ["verify", "--instance", str(graph), "--from-report", str(report),
                       "--family", "multifactor", "--epsilon", "1", "--out", str(out)],
            "oracle": ["oracle", "--instance", str(graph), "--what", "pareto", "--out", str(out)],
            "export-plot": ["export-plot", "--from-report", str(report), "--out-dir", str(plots)],
        }[command]
        work = []
        for name in ("read_json", "load_instance", "enumerate_graph_solutions"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: work.append(name))
        capsys.readouterr()
        assert main(argv + ["--limit", limit]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --limit must be at least 1, got {limit}"]
        assert work == []
        assert not out.exists() and not plots.exists()

    def test_uniform_sum_bound_verifies(self, three_points_file, tmp_path):
        ids = tmp_path / "ids.json"
        ids.write_text('["b"]')
        out = tmp_path / "verify.json"
        argv = ["verify", "--instance", three_points_file, "--solutions", str(ids),
                "--family", "uniform", "--sum-bound", "4", "--out", str(out)]
        assert main(argv) == 0
        report = read_json(out)
        assert report["ok"] is True
        assert report["family"] == {"variant": "uniform", "p": 2, "sigma": "1", "bound": "4"}
        assert main(argv[:-2] + ["--sum-bound", "3/2"]) == 1
        assert main(argv + ["--sigma", "1"]) == 0

    def test_zero_denominator_flag_exits_2(self, three_points_file, capsys):
        # ASCII, Arabic-Indic (U+0660) and mixed-script zeros
        for literal in ("1/0", "1/\u0660", "1/0\u06f00"):
            with pytest.raises(SystemExit) as exc:
                main(["approximate", "--algorithm", "grid", "--instance", three_points_file,
                      "--epsilon", literal])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --epsilon: zero denominator: {literal!r}" in err
            assert "Traceback" not in err

    def test_adversarial_grid_matches_the_library(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["generate", "random-explicit", "--p", "3", "--n", "30", "--low", "1", "--high",
              "10", "--seed", "5", "--out", str(inst_path)])
        out = tmp_path / "report.json"
        code = main(["approximate", "--algorithm", "grid", "--instance", str(inst_path),
                     "--epsilon", "1", "--sigma", "3/2", "--solver", "adversarial",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        inst = load_instance(str(inst_path))
        run = approximate_grid(adversarial_solver(inst, "3/2"), compute_bounds(inst), 1)
        assert report["sigma"] == "3/2"
        assert report["ws_calls"] == run.ws_calls
        assert [s["id"] for s in report["solutions"]] == sorted(run.result_ids())
        assert [w["answer"]["id"] for w in report["weights"]] == [
            a.solution_id for a in run.answers
        ]


class TestVerifyCommand:
    def test_grid_output_verifies_clean(self, three_points_file, tmp_path):
        report = tmp_path / "report.json"
        main(
            [
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                three_points_file,
                "--epsilon",
                "2",
                "--out",
                str(report),
            ]
        )
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--instance",
                three_points_file,
                "--from-report",
                str(report),
                "--family",
                "multifactor",
                "--epsilon",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_json(out)["ok"] is True

    def test_deficit_bound_fails_with_exit_1(self, tmp_path):
        inst = tmp_path / "tight.json"
        main(["generate", "tightness-min", "--p", "2", "--M", "4", "--out", str(inst)])
        ids = tmp_path / "ids.json"
        ids.write_text(json.dumps({"ids": ["y1", "y2"]}))
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--instance",
                str(inst),
                "--solutions",
                str(ids),
                "--family",
                "multifactor",
                "--sum-bound",
                "3/2",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        data = read_json(out)
        assert data["ok"] is False
        assert data["violations"][0]["target"] == "ytilde"

    def test_whole_set_always_verifies(self, three_points_file, tmp_path):
        ids = tmp_path / "ids.json"
        ids.write_text(json.dumps(["a", "b", "c"]))
        code = main(
            [
                "verify",
                "--instance",
                three_points_file,
                "--solutions",
                str(ids),
                "--family",
                "uniform",
                "--epsilon",
                "1/10",
            ]
        )
        assert code == 0

    def test_epsilon_and_sum_bound_exclusive(self, three_points_file, tmp_path):
        ids = tmp_path / "ids.json"
        ids.write_text(json.dumps(["a"]))
        code = main(
            [
                "verify",
                "--instance",
                three_points_file,
                "--solutions",
                str(ids),
                "--family",
                "multifactor",
                "--epsilon",
                "1",
                "--sum-bound",
                "2",
            ]
        )
        assert code == 2

    def test_disjunctive_is_multifactor_at_sigma_1(self, three_points_file, tmp_path):
        ids = tmp_path / "ids.json"
        ids.write_text('["a", "c"]')
        reports = []
        for family in (["disjunctive"], ["multifactor", "--sigma", "1"]):
            out = tmp_path / "verify.json"
            argv = ["verify", "--instance", three_points_file, "--solutions", str(ids),
                    "--family", *family, "--epsilon", "1/2", "--out", str(out)]
            assert main(argv) == 1  # b = (2, 2) needs factor 2 in both objectives
            assert main(argv + ["--sigma", "1"]) == 1
            reports.append(out.read_text())
        assert reports[0] == reports[1]
        family = json.loads(reports[0])["family"]
        assert family == {"variant": "multifactor", "p": 2, "sigma": "1", "bound": "5/2"}

    def test_disjunctive_needs_p2(self, tmp_path):
        inst = tmp_path / "p3.json"
        main(["generate", "tightness-min", "--p", "3", "--M", "4", "--out", str(inst)])
        ids = tmp_path / "ids.json"
        ids.write_text(json.dumps(["y1"]))
        code = main(
            [
                "verify",
                "--instance",
                str(inst),
                "--solutions",
                str(ids),
                "--family",
                "disjunctive",
                "--epsilon",
                "1",
            ]
        )
        assert code == 2


class TestOracleCommand:
    def test_supported_on_tightness(self, tmp_path):
        inst = tmp_path / "tight.json"
        main(["generate", "tightness-min", "--p", "2", "--M", "4", "--out", str(inst)])
        out = tmp_path / "oracle.json"
        code = main(
            ["oracle", "--instance", str(inst), "--what", "supported", "--out", str(out)]
        )
        assert code == 0
        data = read_json(out)
        assert data["ids"] == ["y1", "y2"]
        assert data["weak"] == []

    def test_pareto_drops_dominated(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps(
                {
                    "kind": "explicit",
                    "direction": "min",
                    "p": 2,
                    "solutions": [
                        {"id": "good", "f": ["1", "1"]},
                        {"id": "bad", "f": ["2", "2"]},
                    ],
                }
            )
        )
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--instance", str(inst), "--what", "pareto", "--out", str(out)]) == 0
        assert read_json(out)["ids"] == ["good"]

    def test_supported_max_construction_reaches_exactly_m(self, tmp_path):
        inst = tmp_path / "max.json"
        main(["generate", "max-counterexample", "--p", "3", "--M", "100", "--out", str(inst)])
        ids = tmp_path / "ids.json"
        assert main(["oracle", "--instance", str(inst), "--what", "supported",
                     "--out", str(ids)]) == 0
        out = tmp_path / "verify.json"
        argv = ["verify", "--instance", str(inst), "--solutions", str(ids),
                "--family", "uniform", "--out", str(out), "--sum-bound"]
        assert main(argv + ["99"]) == 1
        [violation] = read_json(out)["violations"]
        assert violation["target"] == "xtilde"
        assert sorted(violation["best_beta"], key=int) == ["1", "100", "100"]
        assert main(argv + ["100"]) == 0

    def test_max_impossibility_is_refused_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--instance", "max.json", "--what", "max-impossibility"])
        assert exc.value.code == 2
        assert "argument --what: invalid choice: 'max-impossibility'" in capsys.readouterr().err

    def test_enumeration_guard_exits_5(self, tmp_path):
        graph = tmp_path / "graph.json"
        main(
            [
                "generate",
                "random-graph",
                "--nodes",
                "6",
                "--arcs",
                "14",
                "--p",
                "2",
                "--low",
                "1",
                "--high",
                "3",
                "--seed",
                "1",
                "--kind",
                "shortest-path",
                "--out",
                str(graph),
            ]
        )
        code = main(
            ["oracle", "--instance", str(graph), "--what", "pareto", "--limit", "1"]
        )
        assert code == 5

    @staticmethod
    def collinear_file(tmp_path, n):
        """n front images on the line f1 + f2 = n + 1, each weakly supported,
        plus a copy of the first and a dominated point, neither of which
        adds an LP row."""
        solutions = [{"id": f"s{i}", "f": [str(i), str(n + 1 - i)]} for i in range(1, n + 1)]
        solutions += [{"id": "copy", "f": ["1", str(n)]}, {"id": "worse", "f": [str(n)] * 2}]
        path = tmp_path / f"line-{n}.json"
        path.write_text(json.dumps({**THREE_POINTS, "solutions": solutions}))
        return str(path)

    def test_supported_at_the_lp_row_ceiling_is_certified(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_SUPPORT_ROWS", 4 * 3)
        out = tmp_path / "oracle.json"
        argv = ["--instance", self.collinear_file(tmp_path, 4), "--what", "supported"]
        assert main(["oracle", *argv, "--out", str(out)]) == 0
        assert read_json(out)["ids"] == ["copy", "s1", "s2", "s3", "s4"]

    @pytest.mark.parametrize("ceiling,n", [(4 * 3, 5), (oracles.MAX_SUPPORT_ROWS, 142)])
    def test_supported_past_the_lp_row_ceiling_exits_2_before_any_lp(
        self, tmp_path, monkeypatch, capsys, ceiling, n
    ):
        monkeypatch.setattr(oracles, "MAX_SUPPORT_ROWS", ceiling)

        def no_lp(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(oracles, "_support_certificate_lp", no_lp)
        out = tmp_path / "oracle.json"
        argv = ["--instance", self.collinear_file(tmp_path, n), "--what", "supported"]
        assert main(["oracle", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: supportedness needs {n * (n - 1)} LP rows for {n} distinct front "
            f"images, over the limit of {ceiling}"
        ]
        assert not out.exists()
        assert main(["oracle", *argv[:2], "--what", "pareto", "--out", str(out)]) == 0

        report = tmp_path / "report.json"
        approximate = ["approximate", "--algorithm", "grid", "--epsilon", "1", "--cells"]
        assert main([*approximate, "--instance", argv[1], "--out", str(report)]) == 0
        plots = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(plots)]) == 2
        assert not plots.exists()

    @staticmethod
    def verify_argv(tmp_path, n, ids):
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(ids))
        instance = TestOracleCommand.collinear_file(tmp_path, n)
        family = ["--family", "multifactor", "--epsilon", "1"]
        return ["verify", "--instance", instance, "--solutions", str(path), *family]

    def test_verify_at_the_pair_ceiling_runs(self, tmp_path, monkeypatch):
        # 4 distinct front images times 3 distinct candidates: "copy" is s1's image
        monkeypatch.setattr(oracles, "MAX_VERIFY_PAIRS", 4 * 3)
        out = tmp_path / "verify.json"
        argv = self.verify_argv(tmp_path, 4, ["s1", "copy", "s2", "worse"])
        assert main([*argv, "--out", str(out)]) == 0
        assert read_json(out)["ok"] is True

    @pytest.mark.parametrize(
        "ceiling,n,candidates",
        [(4 * 3 - 1, 4, ["s1", "copy", "s2", "worse"]), (oracles.MAX_VERIFY_PAIRS, 1415, None)],
    )
    def test_verify_past_the_pair_ceiling_exits_2_before_any_pair(
        self, tmp_path, monkeypatch, capsys, ceiling, n, candidates
    ):
        monkeypatch.setattr(oracles, "MAX_VERIFY_PAIRS", ceiling)

        def no_pair(*args):
            raise AssertionError("a pair was scored")

        monkeypatch.setattr(oracles, "_best_candidate", no_pair)
        if candidates is None:  # every id: n front images, "copy" and "worse"
            candidates = [f"s{i}" for i in range(1, n + 1)] + ["copy", "worse"]
        distinct = len(candidates) - 1
        out = tmp_path / "verify.json"
        assert main([*self.verify_argv(tmp_path, n, candidates), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: verification needs {n * distinct} pairs for {n} distinct front images "
            f"and {distinct} distinct candidates, over the limit of {ceiling}"
        ]
        assert not out.exists()


    @pytest.mark.parametrize(
        "command,text",
        [
            (
                "oracle",
                json.dumps({**THREE_POINTS, "solutions": [{"id": "a", "f": ["1" * 5000, "1"]}]}),
            ),
            ("oracle", json.dumps(THREE_POINTS).replace('"p": 2', '"p": ' + "2" * 5000)),
            ("oracle", "\udcff{}"),
            ("export-plot", json.dumps({**REPORT, "solutions": ["s1"]})),
            ("export-plot", json.dumps({**REPORT, "solutions": [{"f": ["1", "8"]}]})),
            ("export-plot", plot_report(cells="corners")),
            ("export-plot", plot_report(cells={"columns": REPORT["cells"]["corners"]})),
            ("export-plot", plot_report([["1", "2"]])),
            ("export-plot", plot_report([["1", "2"], ["1"]])),
            ("export-plot", plot_report([["1", "2", "4"], ["1", "2"]])),
            ("export-plot", plot_report(u=[1, 0])),
            ("export-plot", plot_report(u=[False, 0])),
            ("export-plot", plot_report(u="0")),
            ("export-plot", plot_report(weights=[{"answer": {"id": "a"}}])),
            ("export-plot", plot_report(weights=[{**WEIGHT, "exponents": [False, 0]}])),
            ("export-plot", plot_report(weights=[{**WEIGHT, "exponents": [None, 0]}])),
            ("export-plot", plot_report(weights=[{**WEIGHT, "exponents": [1, 0]}])),
            ("export-plot", plot_report(weights=[{**WEIGHT, "exponents": [-1, 0]}])),
            ("export-plot", plot_report(weights=[{**WEIGHT, "answer": {"id": 7}}])),
            ("export-plot", plot_report(weights=[{**WEIGHT, "answer": {"id": "a\ud800"}}])),
            ("export-plot", plot_report([[{"x": 1}, "2"], ["1", "2"]])),
            ("export-plot", plot_report([["1", "2"], ["1", 2]])),
            ("export-plot", plot_report([["1", "2"], ["1", "1/0"]])),
            ("export-plot", plot_report([["1", "2"], ["1", "1/\u0660"]])),
            ("export-plot", plot_report([["1", "2"], ["1", "1/" + "1" * (LIMIT + 1)]])),
            (
                "oracle",
                json.dumps({**THREE_POINTS, "solutions": [{"id": "a", "f": ["1", "1/\u0660"]}]}),
            ),
            ("verify", json.dumps({**REPORT, "solutions": ["s1"]})),
        ],
        ids=[
            "rational-literal-over-digit-limit",
            "json-integer-over-digit-limit",
            "not-utf-8",
            "plot-solution-not-an-object",
            "plot-solution-without-id",
            "plot-cells-not-an-object",
            "plot-cells-without-corners",
            "plot-cell-with-one-element-lower",
            "plot-cell-corner-column-too-short",
            "plot-cell-corner-column-too-long",
            "plot-cell-u-past-the-corner-table",
            "plot-cell-bool-u",
            "plot-cell-string-u",
            "plot-cell-weight-without-exponents",
            "plot-cell-bool-exponent",
            "plot-cell-null-exponent",
            "plot-cell-exponent-past-u",
            "plot-cell-negative-exponent",
            "plot-cell-integer-id",
            "plot-cell-lone-surrogate-id",
            "plot-cell-object-in-lower",
            "plot-cell-number-in-upper",
            "plot-cell-zero-denominator",
            "plot-cell-arabic-indic-zero-denominator",
            "plot-cell-bound-over-digit-limit",
            "instance-arabic-indic-zero-denominator",
            "verify-report-solution-not-an-object",
        ],
    )
    def test_unconvertible_input_exits_3(
        self, tmp_path, three_points_file, command, text, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = {
            "oracle": ["oracle", "--instance", str(bad), "--what", "pareto"],
            "export-plot": ["export-plot", "--from-report", str(bad), "--out-dir", str(tmp_path)],
            "verify": [
                "verify",
                "--instance",
                three_points_file,
                "--from-report",
                str(bad),
                "--family",
                "multifactor",
                "--epsilon",
                "1",
            ],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error:" in err
        if command == "export-plot" and json.loads(text)["solutions"] == REPORT["solutions"]:
            assert err.startswith("error: report 'cells'")  # refused for the block itself
        assert not (tmp_path / "points.csv").exists()

    @pytest.mark.parametrize("command", ["oracle", "verify", "export-plot"])
    def test_deeply_nested_json_exits_3(self, tmp_path, three_points_file, capsys, command):
        # json.load recurses once per level and raises RecursionError.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        out = tmp_path / "out"
        argv = {
            "oracle": ["oracle", "--instance", str(deep), "--what", "pareto", "--out", str(out)],
            "verify": [
                "verify", "--instance", three_points_file, "--solutions", str(deep),
                "--family", "multifactor", "--epsilon", "1", "--out", str(out),
            ],
            "export-plot": ["export-plot", "--from-report", str(deep), "--out-dir", str(out)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read ")
        assert not out.exists()

    def test_unexpected_exception_exits_6_without_traceback(
        self, three_points_file, monkeypatch, capsys
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "pareto_front", broken)
        assert main(["oracle", "--instance", three_points_file, "--what", "pareto"]) == 6
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: internal error: RuntimeError: boom"]

    def test_tree_work_guard_refuses_a_complete_graph_at_once(
        self, tmp_path, monkeypatch, capsys
    ):
        # K_12 has C(66, 11) > 2 * 10**11 sets of 11 arcs, far over the guard.
        nodes = 12
        complete = {
            "kind": "spanning-tree",
            "direction": "min",
            "p": 2,
            "nodes": nodes,
            "arcs": [
                {"from": a, "to": b, "cost": ["1", "2"]}
                for a in range(nodes)
                for b in range(a + 1, nodes)
            ],
        }
        inst, ids = tmp_path / "complete.json", tmp_path / "ids.json"
        inst.write_text(json.dumps(complete))
        ids.write_text('["tree:0,1,2,3,4,5,6,7,8,9,10"]')
        built = []
        monkeypatch.setattr(solvers, "tree_id", lambda arcs: built.append(arcs))
        out = tmp_path / "verify.json"
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["verify", "--instance", str(inst), "--solutions", str(ids), "--family",
                     "multifactor", "--epsilon", "1", "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert code == 5
        assert capsys.readouterr().err.splitlines() == [
            "error: tree enumeration work limit exceeded"
        ]
        assert built == [] and not out.exists()

    def test_spanning_tree_with_too_few_arcs_exits_3_at_once(self, tmp_path, capsys):
        # 8 arcs cannot connect 2**63 nodes; no list per declared node is built.
        short = {
            "kind": "spanning-tree",
            "direction": "min",
            "p": 2,
            "nodes": 2**63,
            "arcs": [{"from": a, "to": a + 1, "cost": ["1", "2"]} for a in range(8)],
        }
        inst, out = tmp_path / "short.json", tmp_path / "oracle.json"
        inst.write_text(json.dumps(short))
        start = time.perf_counter()
        code = main(["oracle", "--instance", str(inst), "--what", "pareto", "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: spanning-tree instance has 8 arcs")
        assert not out.exists()

    def test_shortest_path_work_is_bounded_by_the_arcs(self, tmp_path):
        # Seven arcs among nodes 0-4; ten million declared nodes change no id.
        arcs = [(0, 1, "1", "5"), (0, 2, "3", "2"), (1, 2, "1", "1"), (1, 4, "6", "1"),
                (2, 3, "2", "2"), (3, 4, "1", "3"), (2, 4, "5", "1/2")]
        outputs = {}
        for nodes in (5, 10**7):
            graph = {
                "kind": "shortest-path", "direction": "min", "p": 2, "nodes": nodes,
                "source": 0, "target": 4,
                "arcs": [{"from": a, "to": b, "cost": [c1, c2]} for a, b, c1, c2 in arcs],
            }
            inst = tmp_path / f"graph-{nodes}.json"
            inst.write_text(json.dumps(graph))
            for name, argv in {
                "pareto": ["oracle", "--instance", str(inst), "--what", "pareto"],
                "supported": ["oracle", "--instance", str(inst), "--what", "supported"],
                "grid": ["approximate", "--algorithm", "grid", "--instance", str(inst),
                         "--epsilon", "1"],
            }.items():
                out = tmp_path / f"{name}-{nodes}.json"
                start = time.perf_counter()
                assert main([*argv, "--out", str(out)]) == 0
                assert time.perf_counter() - start < 1
                outputs[name, nodes] = read_json(out)
        for name in ("pareto", "supported"):
            assert outputs[name, 10**7] == outputs[name, 5]
        small, large = outputs["grid", 5], outputs["grid", 10**7]
        assert large["solutions"] == small["solutions"]
        assert large["weights"] == small["weights"]
        assert len(small["weights"]) > 1 and len(small["solutions"]) > 1

    def test_pareto_on_long_chain(self, tmp_path):
        n = 1500
        chain = {
            "kind": "shortest-path",
            "direction": "min",
            "p": 2,
            "nodes": n,
            "source": 0,
            "target": n - 1,
            "arcs": [{"from": i, "to": i + 1, "cost": ["1", "2"]} for i in range(n - 1)],
        }
        inst = tmp_path / "chain.json"
        inst.write_text(json.dumps(chain))
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--instance", str(inst), "--what", "pareto", "--out", str(out)]) == 0
        assert read_json(out)["ids"] == ["path:" + ",".join(str(i) for i in range(n - 1))]


class TestInstanceLiterals:
    """README's exit-3 refusals of an instance file's rational literals, and
    the spellings it accepts."""

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("1.5", "not a rational literal: '1.5'"),
            (7, "not a rational literal: 7"),
            ("0", "objective values must be strictly positive"),
            ("-3/4", "objective values must be strictly positive"),
            (
                "1" * (LIMIT + 1),
                f"rational literal too long: Exceeds the limit ({LIMIT} digits) for integer "
                f"string conversion: value has {LIMIT + 1} digits; use "
                "sys.set_int_max_str_digits() to increase the limit",
            ),
        ],
        ids=["decimal", "json-number", "zero", "negative", "over-digit-limit"],
    )
    def test_refused_literal_exits_3_with_one_error_line(self, tmp_path, capsys, literal, message):
        solutions = [{"id": "a", "f": ["1", "8"]}, {"id": "b", "f": ["2", literal]}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**THREE_POINTS, "solutions": solutions}))
        assert main(["oracle", "--instance", str(bad), "--what", "supported"]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: solution image: {message}"]

    def test_accepted_spellings_give_the_canonical_report(self, tmp_path):
        # padding, a sign, leading zeros, an unreduced fraction and
        # Arabic-Indic digits (U+0663 is 3, U+0668 is 8)
        spelled = {**THREE_POINTS, "solutions": [
            {"id": "a", "f": [" 1", "+8"]},
            {"id": "b", "f": ["002", "4/2\n"]},
            {"id": "c", "f": ["\u0668", "\u0663/3"]},
        ]}
        reports = []
        for name, doc in (("plain", THREE_POINTS), ("spelled", spelled)):
            inst, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            inst.write_text(json.dumps(doc))
            argv = ["approximate", "--algorithm", "grid", "--instance", str(inst)]
            assert main([*argv, "--epsilon", "1", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestGenerateCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "generate",
            "random-explicit",
            "--p",
            "2",
            "--n",
            "6",
            "--low",
            "1",
            "--high",
            "9",
            "--seed",
            "12",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tightness-min", "--p", "3", "--M", "9" * (LIMIT - 1)],
            ["max-counterexample", "--p", "3", "--M", "9" * LIMIT],
            ["random-explicit", "--p", "2", "--n", "2", "--low", "1", "--high",
             "9" * (LIMIT - 3), "--seed", "1"],
        ],
        ids=["tightness-min", "max-counterexample", "random-explicit"],
    )
    def test_values_just_inside_the_digit_limit_generate(self, tmp_path, argv):
        # The largest int each instance can print, (M + 1)/p, M and
        # 1000 * high, has exactly LIMIT digits.
        out = tmp_path / "inst.json"
        assert main(["generate", *argv, "--out", str(out)]) == 0
        assert load_instance(str(out)).p == int(argv[2])

    def test_round_trip_canonicalization(self, tmp_path):
        from wsapprox.instances import instance_from_json

        path = tmp_path / "inst.json"
        main(["generate", "tightness-min", "--p", "3", "--M", "7/2", "--out", str(path)])
        original = path.read_text()
        reparsed = canonical_dumps(instance_text(instance_from_json(json.loads(original)), 0))
        assert reparsed == original


class TestOutFlag:
    @pytest.mark.parametrize("command", ["approximate", "verify", "oracle", "generate"])
    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "is-a-dir"])
    def test_unwritable_out_exits_2_before_any_work(
        self, tmp_path, three_points_file, monkeypatch, capsys, command, target
    ):
        solutions = tmp_path / "ids.json"
        solutions.write_text('["a", "b", "c"]')
        argv = {
            "approximate": [
                "approximate", "--algorithm", "grid", "--instance", three_points_file,
                "--epsilon", "1",
            ],
            "verify": [
                "verify", "--instance", three_points_file, "--solutions", str(solutions),
                "--family", "multifactor", "--epsilon", "1",
            ],
            "oracle": ["oracle", "--instance", three_points_file, "--what", "supported"],
            "generate": ["generate", "tightness-min", "--p", "2", "--M", "4"],
        }[command] + ["--out", str(tmp_path / target)]
        calls = []
        monkeypatch.setattr(cli, "load_instance", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "gen_tightness_min", lambda *a: calls.append(a))
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out")
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["approximate", "--algorithm", "grid", "--epsilon", "1"],
            ["oracle", "--what", "pareto"],
            ["oracle", "--what", "supported"],
        ],
        ids=["approximate", "oracle-pareto", "oracle-supported"],
    )
    def test_lone_surrogate_id_exits_3_without_out(self, tmp_path, capsys, argv):
        # A JSON string can hold "\ud800" and UTF-8 cannot: the id is refused
        # when the instance is read, not found when the output is written.
        solutions = [{"id": "a\ud800", "f": ["1", "2"]}, {"id": "b", "f": ["2", "1"]}]
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({**THREE_POINTS, "solutions": solutions}))
        out = tmp_path / "out.json"
        assert main(argv + ["--instance", str(inst), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: solution id")
        assert not out.exists()

    def test_unencodable_output_opens_no_file(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            cli._write_output({"id": "\ud800"}, str(out))
        assert not out.exists()
        out.write_bytes(b'{"earlier": "file"}\n')
        with pytest.raises(UnicodeEncodeError):
            cli._write_output({"id": "\ud800"}, str(out))
        assert out.read_bytes() == b'{"earlier": "file"}\n'


class TestOutInPlace:
    """``--out`` is overwritten in place, with only a longer old tail cut:
    the file holds exactly what stdout would, whatever it held before."""

    PAYLOAD = {"id": "s1", "values": list(range(100))}

    def write(self, out):
        cli._write_output(self.PAYLOAD, str(out))
        return canonical_dumps(self.PAYLOAD).encode("utf-8")

    @pytest.mark.parametrize("earlier", [b"#" * 200_000, b"{}"], ids=["longer", "shorter"])
    def test_no_earlier_byte_survives(self, tmp_path, earlier):
        out = tmp_path / "out.json"
        out.write_bytes(earlier)
        expected = self.write(out)
        assert out.read_bytes() == expected

    def test_a_command_over_a_longer_file_writes_its_stdout(self, tmp_path, capsys):
        argv = ["generate", "random-explicit", "--p", "2", "--n", "6", "--low", "1",
                "--high", "9", "--seed", "2"]
        out = tmp_path / "out.json"
        out.write_bytes(b"#" * 200_000)
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_symlinked_out_keeps_its_link(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"#" * 5000)
        try:
            link.symlink_to(target)
        except OSError:
            pytest.skip("symlinks are not available here")
        expected = self.write(link)
        assert link.is_symlink()
        assert target.read_bytes() == expected

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_existing_mode_is_kept(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_bytes(b"#" * 5000)
        out.chmod(0o640)
        self.write(out)
        assert out.stat().st_mode & 0o777 == 0o640

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_is_written_not_truncated(self):
        self.write("/dev/null")

    def test_out_is_opened_without_o_trunc(self, tmp_path, monkeypatch):
        # Truncating a file to zero and rewriting it makes ext4 start its
        # writeback on close, which costs several times the write.
        out = tmp_path / "out.json"
        out.write_bytes(b"#" * 5000)
        calls, real_open = [], os.open

        def spy(path, flags, *args, **kwargs):
            calls.append((path, flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        self.write(out)
        flags = [flags for path, flags in calls if path == str(out)]
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC


# Ids that JSON text must escape or that are not ASCII: a quote, a
# backslash, control characters, U+2028 and letters beyond ASCII.
ESCAPED_IDS = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "\u00e9", "\u96ea", "s"]),
    min_size=1,
    max_size=4,
)


@st.composite
def report_instances(draw, ps=(2, 3)):
    """Minimization instances whose ids are plain or need escapes in JSON.
    Some values are 1/2, 1/3 or 1, so that a lower bound's numerator is 1
    and a weight component prints as an int."""
    p = draw(st.sampled_from(ps))
    n = draw(st.integers(1, 6))
    units = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1)])
    value = st.one_of(rationals(1, 8), units)
    images = draw(st.lists(st.lists(value, min_size=p, max_size=p), min_size=n, max_size=n))
    plain = [f"s{i + 1}" for i in range(n)]
    escaped = st.lists(ESCAPED_IDS, min_size=n, max_size=n, unique=True)
    ids = draw(st.one_of(st.just(plain), escaped))
    solutions = (Solution(i, ObjectiveVector(tuple(v))) for i, v in zip(ids, images))
    return ExplicitInstance(Direction.MIN, p, tuple(solutions))


EPSILONS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)])


def assert_written_as_dicts(part, key, reference):
    """A report ``part`` whose ``key`` the CLI writes from pre-rendered text
    is written as json.dumps writes the part holding ``reference`` there."""
    assert canonical_dumps(part) == canonical_dumps_by_json({**part, key: reference})


class TestAnswerEntries:
    """``weights[]`` and ``probes[]`` are written from text formatted once
    per distinct answer and weight component; their bytes are those of the
    one-dict-per-entry references."""

    @given(report_instances(), EPSILONS, st.sampled_from(["exact", "adversarial", "ptas"]),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_explicit_grid_weights(self, inst, epsilon, solver, cells):
        bounds = compute_bounds(inst)
        if solver == "exact":
            run = approximate_grid(exact_solver(inst), bounds, epsilon)
        elif solver == "adversarial":
            run = approximate_grid(adversarial_solver(inst, Fraction(3, 2)), bounds, epsilon)
        else:
            tau = epsilon / (2 * inst.p)
            run = approximate_with_ptas(adversarial_solver(inst, 1 + tau), bounds, epsilon)
        assert_written_as_dicts(cli._grid_report(run, cells), "weights", grid_weights_by_dicts(run))

    @given(
        st.sampled_from(list(GraphKind)).flatmap(enumerable_graphs),
        st.sampled_from([Fraction(1), Fraction(3)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_graph_grid_weights(self, graph, epsilon):
        graph = GraphInstance(
            Direction.MIN, graph.p, graph.node_count, graph.arcs, graph.kind,
            graph.source, graph.target,
        )
        run = approximate_grid(exact_solver(graph), compute_bounds(graph), epsilon)
        assert_written_as_dicts(cli._grid_report(run, False), "weights", grid_weights_by_dicts(run))

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_lower_bound_of_numerator_one_prints_an_int_weight(self, p):
        inst = gen_tightness_min(p, 4)  # lower bound 1/p in every objective
        run = approximate_grid(exact_solver(inst), compute_bounds(inst), Fraction(1))
        weights = grid_weights_by_dicts(run)
        assert weights[0]["weight"] == [str(p)] * p
        assert_written_as_dicts(cli._grid_report(run, False), "weights", weights)

    @given(report_instances(ps=(2,)), st.sampled_from([Fraction(1, 4), Fraction(1)]))
    @settings(max_examples=100, deadline=None)
    def test_bisect_probes(self, inst, epsilon):
        run = approximate_biobjective(exact_solver(inst), compute_bounds(inst), epsilon)
        assert_written_as_dicts(cli._bisect_report(run), "probes", bisect_probes_by_dicts(run))


class TestCanonicalOutput:
    def test_every_output_file_is_json_dumps_text(self, tmp_path):
        def out(name):
            return str(tmp_path / name)

        inst, graph, grid = out("inst.json"), out("graph.json"), out("grid.json")
        tree, escaped = out("tree.json"), out("escaped.json")
        ids = ['say "hi"', "back\\slash", "nul\x00\ttab", "line\u2028sep", "\u00e9t\u00e9 \u96ea"]
        images = [["1", "8"], ["2", "4"], ["4", "2"], ["8", "1"], ["3", "3"]]
        pathlib.Path(escaped).write_text(canonical_dumps({
            "kind": "explicit", "direction": "min", "p": 2,
            "solutions": [{"id": i, "f": f} for i, f in zip(ids, images)],
        }), encoding="utf-8")
        values = ["--p", "2", "--low", "1", "--high", "9", "--seed", "5"]
        commands = [
            ["generate", "random-explicit", "--n", "12", *values, "--out", inst],
            ["generate", "random-graph", "--nodes", "6", "--arcs", "12", *values,
             "--kind", "shortest-path", "--out", graph],
            ["generate", "random-graph", "--nodes", "6", "--arcs", "12", *values,
             "--kind", "spanning-tree", "--out", tree],
            ["approximate", "--algorithm", "grid", "--instance", inst, "--epsilon", "1/2",
             "--cells", "--out", grid],
            ["approximate", "--algorithm", "grid", "--instance", inst, "--epsilon", "1/2",
             "--solver", "adversarial", "--sigma", "3/2", "--out", out("adversarial.json")],
            ["approximate", "--algorithm", "bisect", "--instance", inst, "--epsilon", "1/4",
             "--out", out("bisect.json")],
            ["approximate", "--algorithm", "ptas", "--instance", inst, "--epsilon", "1",
             "--tau", "1/4", "--solver", "adversarial", "--out", out("ptas.json")],
            ["approximate", "--algorithm", "grid", "--instance", graph, "--epsilon", "1/2",
             "--out", out("graph-grid.json")],
            ["approximate", "--algorithm", "grid", "--instance", tree, "--epsilon", "1/2",
             "--out", out("tree-grid.json")],
            ["approximate", "--algorithm", "grid", "--instance", escaped, "--epsilon", "1/2",
             "--out", out("escaped-grid.json")],
            ["verify", "--instance", inst, "--from-report", grid, "--family", "multifactor",
             "--epsilon", "1/2", "--out", out("verify-grid.json")],
            ["verify", "--instance", inst, "--from-report", out("bisect.json"),
             "--family", "disjunctive", "--epsilon", "1/4", "--out", out("verify-bisect.json")],
            ["oracle", "--instance", inst, "--what", "pareto", "--out", out("pareto.json")],
            ["oracle", "--instance", inst, "--what", "supported", "--out", out("supported.json")],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
            text = pathlib.Path(argv[-1]).read_text(encoding="utf-8")
            assert text == canonical_dumps_by_json(json.loads(text)), argv
        explicit = load_instance(inst)
        bounds = compute_bounds(explicit)
        run = approximate_grid(exact_solver(explicit), bounds, Fraction(1, 2))
        step = 1 + run.plan.eps_prime
        assert read_json(grid)["cells"] == {
            "corners": [
                [format_rational(low * step**k) for k in range(u + 2)]
                for low, u in zip(bounds.lower, run.plan.u)
            ]
        }


CELLS_HEADER = ["weight_index", "level", "solution_id", "f1_lo", "f1_hi", "f2_lo", "f2_hi"]

# Text that csv.writer must quote or leave empty, and rational literals
# padded with whitespace that check_rational_literal strips, which csv
# quotes where it holds "\r" or "\n".
CSV_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "1"]), max_size=4)
CSV_IDS = st.one_of(CSV_TEXT, st.sampled_from(["a,b", 'say "x"', "line\r\nbreak", '",\r\n"']))
PADDING = st.lists(st.sampled_from([" ", "\n", "\t", "\r", "\r\n", "\u2003"]), max_size=2).map(
    "".join
)
PADDED_RATIONALS = st.builds(
    lambda before, literal, after: before + literal + after,
    PADDING,
    st.sampled_from(["1/2", "3", "-7/4", "+08", "0/5"]),
    PADDING,
)


@st.composite
def corner_table_reports(draw):
    """The fields of a report that ``export-plot`` writes ``cells.csv``
    from: caps u, the grid's weights (exponents with some k_j = 0, whose
    diagonals tile prod [0, u_j]) in a drawn order with drawn ids, some of
    which csv must quote, and a corner table of u_j + 2 padded rational
    strings in column j."""
    u = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    grid = [[0, k2] for k2 in range(u[1] + 1)] + [[k1, 0] for k1 in range(1, u[0] + 1)]
    exponents = draw(st.permutations(grid))
    ids = draw(st.lists(CSV_IDS, min_size=len(grid), max_size=len(grid)))
    weights = [{"exponents": k, "answer": {"id": i}} for k, i in zip(exponents, ids)]
    corners = [draw(st.lists(PADDED_RATIONALS, min_size=u_j + 2, max_size=u_j + 2)) for u_j in u]
    return {"u": u, "weights": weights, "cells": {"corners": corners}}


class TestExportPlot:
    def test_roles_and_cells(self, tmp_path):
        inst = tmp_path / "tight.json"
        main(["generate", "tightness-min", "--p", "2", "--M", "4", "--out", str(inst)])
        report = tmp_path / "report.json"
        main(
            [
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                str(inst),
                "--epsilon",
                "1/2",
                "--cells",
                "--out",
                str(report),
            ]
        )
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 0
        points = (out_dir / "points.csv").read_text().strip().splitlines()
        assert points[0] == "id,f1,f2,pareto,supported,output"
        rows = {line.split(",")[0]: line.split(",") for line in points[1:]}
        # The center point is nondominated but unsupported.
        assert rows["ytilde"][3] == "1" and rows["ytilde"][4] == "0"
        assert rows["y1"][3] == "1" and rows["y1"][4] == "1"
        with open(out_dir / "cells.csv", encoding="utf-8", newline="") as handle:
            cells = list(csv.reader(handle))
        assert cells[0] == CELLS_HEADER
        tight = load_instance(str(inst))
        bounds = compute_bounds(tight)
        run = approximate_grid(exact_solver(tight), bounds, Fraction(1, 2))
        assert len(cells) - 1 == math.prod(u + 1 for u in run.plan.u)
        assert cells[1:] == [
            [str(c.weight_index), str(c.level), c.solution_id]
            + [format_rational(v) for pair in zip(c.lower, c.upper) for v in pair]
            for c in cell_map_by_products(run, bounds)
        ]

    @pytest.mark.parametrize(
        "corners",
        [
            [["1"] * 3000 + ["1/0"], ["1", "2"]],
            [["1", "2"], ["2", 2]],
            [["1", "2"], ["1", {"x": 1}]],
        ],
        ids=["zero-denominator-after-repeats", "int-after-equal-string", "unhashable-later"],
    )
    def test_bad_bound_after_accepted_ones_exits_3(self, tmp_path, capsys, corners):
        # Each distinct corner string is checked once: a repeat is accepted
        # from a set, so whatever is not a string must never reach that set.
        report = tmp_path / "report.json"
        report.write_text(plot_report(corners, u=[len(corners[0]) - 2, 0]))
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err.startswith("error: report 'cells' must be")
        assert not out_dir.exists()

    def test_diagonals_that_do_not_tile_the_grid_exit_3(self, tmp_path, monkeypatch, capsys):
        # 200 weights at (0, 0) of a 2000 x 2000 grid name 400,200 cells, not
        # the grid's 2001**2: refused before any cell is written.
        u = [2000, 2000]
        report = tmp_path / "report.json"
        report.write_text(plot_report([["1"] * 2002] * 2, u=u, weights=[WEIGHT] * 200))
        out_dir = tmp_path / "plots"
        walked = []
        monkeypatch.setattr(cli, "_cells_csv", lambda *a: walked.append(a) or iter(()))
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: report 'cells' must be")
        assert walked == [] and not out_dir.exists()

    def test_cells_csv_over_the_character_limit_exits_2(self, tmp_path, capsys):
        # A true 1000 x 1000 grid: 1001**2 cells * 4 corners * 30 characters
        # could print 1.2e8 characters, over MAX_CELL_DIGITS = 1e8.
        u = [1000, 1000]
        grid = [[0, k] for k in range(1001)] + [[k, 0] for k in range(1, 1001)]
        weights = [{"exponents": k, "answer": {"id": "a"}} for k in grid]
        long = "1" + "0" * 29
        report = tmp_path / "report.json"
        report.write_text(plot_report([["1"] * 1001 + [long], ["1"] * 1002], u=u, weights=weights))
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: cells.csv of 1002001 cells with corners of up to 30 characters "
            "could print over 100000000 characters"
        ]
        assert not out_dir.exists()

    def test_cell_list_exits_3(self, tmp_path, capsys):
        # Reports of schema 4 and earlier held a list of cells: not a corner table.
        cell = {"weight_index": 0, "level": 0, "id": "a", "lower": ["1", "1"], "upper": ["2", "2"]}
        report = tmp_path / "report.json"
        report.write_text(plot_report(cells=[cell]))
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: report 'cells' must be")
        assert not out_dir.exists()

    @given(
        explicit_instances(p=2, max_n=6),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3)]),
        st.sampled_from([Fraction(1), Fraction(3, 2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_cells_csv_matches_per_cell_formatting(self, inst, epsilon, sigma):
        bounds = compute_bounds(inst)
        run = approximate_grid(adversarial_solver(inst, sigma), bounds, epsilon)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp)
            (path / "inst.json").write_text(canonical_dumps(instance_text(inst, 0)))
            flags = ["--epsilon", str(epsilon), "--solver", "adversarial", "--sigma", str(sigma)]
            assert main(["approximate", "--algorithm", "grid", "--instance", str(path / "inst.json"),
                         *flags, "--cells", "--out", str(path / "report.json")]) == 0
            assert main(["export-plot", "--from-report", str(path / "report.json"),
                         "--out-dir", str(path / "plots")]) == 0
            written = (path / "plots" / "cells.csv").read_bytes()
        assert written == cells_csv_by_products(run, bounds).encode("utf-8")

    @given(corner_table_reports())
    @settings(max_examples=100, deadline=None)
    def test_cells_csv_matches_writerows(self, report):
        streamed = "".join(cli._cells_csv(cli._cell_table(report)))
        rows = [CELLS_HEADER] + cell_rows_by_diagonal(report)
        assert streamed == csv_text_by_writerows(rows)

    @staticmethod
    def grid_report(tmp_path, *generator):
        """The ``approximate --cells`` grid report, at epsilon 1, of the
        instance that ``generate`` writes from ``generator``."""
        inst, report = tmp_path / "inst.json", tmp_path / "report.json"
        assert main(["generate", *generator, "--out", str(inst)]) == 0
        argv = ["--instance", str(inst), "--epsilon", "1", "--cells", "--out", str(report)]
        assert main(["approximate", "--algorithm", "grid", *argv]) == 0
        return read_json(report)

    def export(self, tmp_path, report):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(report))
        return main(["export-plot", "--from-report", str(path), "--out-dir", str(tmp_path / "plots")])

    def test_instance_of_another_p_exits_3(self, tmp_path, capsys):
        random_explicit = ["random-explicit", "--n", "6", "--low", "1", "--high", "9", "--seed", "1"]
        report = self.grid_report(tmp_path, *random_explicit, "--p", "2")
        three = tmp_path / "p3.json"
        assert main(["generate", *random_explicit, "--p", "3", "--out", str(three)]) == 0
        report["instance"] = read_json(three)
        assert self.export(tmp_path, report) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: report has p = 2 but its instance has p = 3"]
        assert not (tmp_path / "plots").exists()

    @pytest.mark.parametrize("field", ["solutions", "answer"])
    def test_id_not_in_the_explicit_instance_exits_3(self, tmp_path, capsys, field):
        report = self.grid_report(
            tmp_path, "random-explicit", "--p", "2", "--n", "6", "--low", "1", "--high", "9",
            "--seed", "1",
        )
        if field == "solutions":
            report["solutions"].append({"id": "nope"})
        else:
            report["weights"][0]["answer"]["id"] = "ghost"
        assert self.export(tmp_path, report) == 3
        unknown = "nope" if field == "solutions" else "ghost"
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: solution id {unknown!r} is not an id of the instance"]
        assert not (tmp_path / "plots").exists()

    def test_id_not_in_the_graph_enumeration_exits_3(self, tmp_path, capsys):
        report = self.grid_report(
            tmp_path, "random-graph", "--nodes", "4", "--arcs", "6", "--p", "2", "--low", "1",
            "--high", "5", "--seed", "3", "--kind", "shortest-path",
        )
        assert self.export(tmp_path, report) == 0
        report["weights"][-1]["answer"]["id"] = "path:99"
        assert self.export(tmp_path, report) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: solution id 'path:99' is not an id of the instance"]

    def test_rejects_p3_reports(self, tmp_path):
        inst = tmp_path / "p3.json"
        main(["generate", "tightness-min", "--p", "3", "--M", "4", "--out", str(inst)])
        report = tmp_path / "report.json"
        main(
            [
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                str(inst),
                "--epsilon",
                "1",
                "--out",
                str(report),
            ]
        )
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "target", ["", "plots.txt", "plots.txt/sub"], ids=["empty", "a-file", "under-a-file"]
    )
    def test_out_dir_not_a_directory_exits_2_before_any_work(
        self, tmp_path, three_points_file, monkeypatch, capsys, target
    ):
        report = tmp_path / "report.json"
        argv = ["--instance", three_points_file, "--epsilon", "1", "--cells", "--out", str(report)]
        assert main(["approximate", "--algorithm", "grid", *argv]) == 0
        (tmp_path / "plots.txt").write_text("kept\n")
        reads = []
        read_json = cli.read_json
        monkeypatch.setattr(cli, "read_json", lambda *a: reads.append(a) or read_json(*a))

        def no_oracle(*args):
            raise AssertionError("pareto_front reached")

        monkeypatch.setattr(cli, "pareto_front", no_oracle)
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        out_dir = str(tmp_path / target) if target else ""
        assert main(["export-plot", "--from-report", str(report), "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --out-dir {out_dir!r} is not a directory"]
        assert reads == []
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert after == before

    def test_cell_bound_at_the_digit_limit_is_exported(self, tmp_path):
        bound = "-" + "0" + "9" * (LIMIT - 1)  # sign excluded, leading zero counted
        report = tmp_path / "report.json"
        report.write_text(plot_report([["1", "2"], [bound, "2"]]))
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 0
        row = (out_dir / "cells.csv").read_text().strip().splitlines()[1]
        assert row.split(",")[5] == bound

    def test_empty_solution_set_writes_header_only(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps({"p": 2, "instance": THREE_POINTS, "solutions": []})
        )
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 0
        cells = (out_dir / "cells.csv").read_text().strip().splitlines()
        assert cells == ["weight_index,level,solution_id,f1_lo,f1_hi,f2_lo,f2_hi"]

    def test_failed_export_leaves_the_earlier_file_and_no_temporary(
        self, tmp_path, monkeypatch, capsys
    ):
        report, out_dir = tmp_path / "report.json", tmp_path / "plots"
        report.write_text(plot_report())
        argv = ["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]
        assert main(argv) == 0
        earlier = (out_dir / "cells.csv").read_bytes()
        cells_csv = cli._cells_csv

        def failing(table):
            yield next(cells_csv(table))
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cli, "_cells_csv", failing)
        report.write_text(plot_report([["1", "3"], ["1", "3"]]))
        capsys.readouterr()
        assert main(argv) == 6
        assert capsys.readouterr().err == "error: internal error: RuntimeError: disk gone\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["cells.csv", "points.csv"]
        assert (out_dir / "cells.csv").read_bytes() == earlier


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(canonical_dumps(THREE_POINTS))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "wsapprox",
                "approximate",
                "--algorithm",
                "grid",
                "--instance",
                str(inst),
                "--epsilon",
                "2",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["ws_calls"] == 7

    def test_usage_error_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "wsapprox", "approximate", "--algorithm", "nope"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2


class TestStartup:
    """Importing the CLI generates no code: the records are plain slotted
    classes, so neither ``dataclasses`` nor ``inspect`` is loaded."""

    def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(wsapprox.__file__)))
        code = (
            "import sys, wsapprox.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_no_class_is_a_dataclass(self):
        names = [m.name for m in pkgutil.iter_modules(wsapprox.__path__) if m.name != "__main__"]
        modules = [importlib.import_module(f"wsapprox.{name}") for name in names]
        classes = [
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        assert solvers.SolverHandle in classes and len(classes) > 20
        assert [cls for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every ``wsapprox`` command in README's fenced blocks, in order, with
    backslash continuations joined and comments dropped."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("wsapprox ")]


class TestReadme:
    def test_commands_run_in_order_in_a_fresh_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert any(argv[1] == "export-plot" for argv in commands)
        for argv in commands:
            assert main(argv[1:]) == 0, " ".join(argv)


# Leaves and flag values that break files and flags: zero, negative, float,
# unparsable and oversized rationals, zero denominators in ASCII and in
# Arabic-Indic digits, ints past int64, booleans, empties, and a lone
# surrogate, which JSON can hold and UTF-8 cannot.
FUZZ_LEAVES = [
    0, -1, 1.5, "1/0", "1/\u0660", "1e400", 10**400, 2**63, True, False, "", "\ud800", [], {}
]
FUZZ_FLAGS = [json.dumps(v) if not isinstance(v, str) else v for v in FUZZ_LEAVES]
# Generator sizes: each is small, or past the ceiling on generated values.
FUZZ_SIZES = ["-1", "0", "1", "2", "3", str(MAX_GENERATED_VALUES + 1)]
SHORT_PATHS = {
    "kind": "shortest-path",
    "direction": "min",
    "p": 2,
    "nodes": 4,
    "source": 0,
    "target": 3,
    "arcs": [
        {"from": a, "to": b, "cost": [c1, c2]}
        for a, b, c1, c2 in [(0, 1, "1", "3"), (0, 2, "2", "1"), (1, 2, "1", "1"),
                             (1, 3, "4", "1/2"), (2, 3, "1", "2")]
    ],
}


class _Overtime(BaseException):
    """Raised by the alarm; not an Exception, so ``main`` cannot absorb it."""


def bounded_main(argv, seconds=5.0):
    """``main(argv)`` with its exit code (argparse's too) and stderr lines;
    a run past ``seconds`` raises _Overtime."""
    err = io.StringIO()
    with time_limit(seconds, _Overtime(argv)):
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue().splitlines()


@st.composite
def mutated(draw, payload):
    """``payload`` after one to three edits, each at a drawn node: replace it
    with a fuzz leaf, drop it, or add a key or element beside it."""
    data = {"root": copy.deepcopy(payload)}
    for _ in range(draw(st.integers(1, 3))):
        slots = [(data, "root")]
        for parent, key in slots:
            child = parent[key]
            if isinstance(child, dict):
                slots.extend((child, k) for k in child)
            elif isinstance(child, list):
                slots.extend((child, i) for i in range(len(child)))
        parent, key = draw(st.sampled_from(slots))
        leaf = copy.deepcopy(draw(st.sampled_from(FUZZ_LEAVES)))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "drop" and parent is not data:
            del parent[key]
        elif edit == "add" and isinstance(parent, dict) and parent is not data:
            parent[draw(st.sampled_from(["id", "f", "p", "u", "cells", "nodes", "extra"]))] = leaf
        elif edit == "add" and isinstance(parent, list):
            parent.append(leaf)
        else:
            parent[key] = leaf
    return data["root"]


@st.composite
def fuzz_cases(draw, valid):
    """(files, argv, outputs, command): a command with valid flags, or with
    one flag drawn from the fuzz values, whose input files are valid but the
    one of them drawn to be mutated; ``generate`` reads no file and draws
    its sizes from ``FUZZ_SIZES``."""
    values = {
        "--epsilon": draw(st.sampled_from(["1", "1/2"])),
        "--sigma": draw(st.sampled_from(["1", "3/2"])),
        "--tau": "1/2",
        "--limit": "10000",
        "--high": "9",
    }
    fuzzed = draw(st.sampled_from([None, *values]))
    if fuzzed:
        values[fuzzed] = draw(st.sampled_from(FUZZ_FLAGS))
    instance = draw(st.sampled_from(["inst.json", "graph.json"]))
    command = draw(
        st.sampled_from(["approximate", "verify", "oracle", "export-plot", "generate"])
    )
    if command == "approximate":
        algorithm = draw(st.sampled_from(["grid", "bisect", "ptas"]))
        solver = draw(st.sampled_from(["exact", "adversarial"]))
        argv = ["approximate", "--algorithm", algorithm, "--instance", instance, "--solver", solver,
                *[f for name in ("--epsilon", "--sigma") for f in (name, values[name])]]
        if algorithm == "ptas":
            argv += ["--tau", values["--tau"]]
        if draw(st.booleans()):
            argv.append("--cells")
    elif command == "verify":
        source = draw(st.sampled_from([["--solutions", "ids.json"],
                                       ["--from-report", "report.json"]]))
        family = draw(st.sampled_from(["multifactor", "uniform", "disjunctive"]))
        argv = ["verify", "--instance", instance, *source, "--family", family,
                *[f for name in ("--epsilon", "--sigma", "--limit") for f in (name, values[name])]]
    elif command == "oracle":
        what = draw(st.sampled_from(["pareto", "supported"]))
        argv = ["oracle", "--instance", instance, "--what", what, "--limit", values["--limit"]]
    elif command == "export-plot":
        argv = ["export-plot", "--from-report", "report.json", "--limit", values["--limit"]]
    else:
        sizes = st.sampled_from(FUZZ_SIZES)
        generator = draw(st.sampled_from(["tightness-min", "max-counterexample",
                                          "random-explicit", "random-graph"]))
        argv = ["generate", generator, "--p", draw(sizes)]
        if generator in ("tightness-min", "max-counterexample"):
            argv += ["--M", values["--high"]]
        else:
            argv += ["--low", "1", "--high", values["--high"], "--seed", "1"]
        if generator == "random-explicit":
            argv += ["--n", draw(sizes)]
        elif generator == "random-graph":
            argv += ["--nodes", draw(sizes), "--arcs", draw(sizes),
                     "--kind", draw(st.sampled_from(["shortest-path", "spanning-tree"]))]
    files = dict(valid)
    inputs = [a for a in argv if a in files]
    if inputs:
        target = draw(st.sampled_from(inputs))
        files[target] = draw(mutated(files[target]))
    if command == "export-plot":
        return files, argv + ["--out-dir", "plots"], ["plots"], command
    return files, argv + ["--out", "out.json"], ["out.json"], command


class TestExitCodeFuzz:
    """Mutated instance, solution-list and report files under drawn flags,
    and ``generate`` under drawn sizes, keep the exit-code contract: a code
    in 0-5, exactly one ``error:`` line on failure, exit 1 only from
    ``verify``, and no output on a refusal."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz")
        (base / "inst.json").write_text(canonical_dumps(THREE_POINTS))
        report = base / "report.json"
        assert main(["approximate", "--algorithm", "grid", "--instance", str(base / "inst.json"),
                     "--epsilon", "1", "--cells", "--out", str(report)]) == 0
        return {
            "inst.json": THREE_POINTS,
            "graph.json": SHORT_PATHS,
            "ids.json": ["a", "b"],
            "report.json": read_json(report),
        }

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_inputs_keep_the_contract(self, valid, data):
        files, argv, outputs, command = data.draw(fuzz_cases(valid))
        with tempfile.TemporaryDirectory() as tmp:
            work = pathlib.Path(tmp)
            for name, payload in files.items():
                (work / name).write_text(json.dumps(payload))
            argv = [str(work / a) if a in files or a in outputs else a for a in argv]
            code, err = bounded_main(argv)
            assert code in range(6), err
            assert code != 1 or command == "verify"
            if code not in (0, 1):
                assert len([line for line in err if "error:" in line]) == 1, err
                assert not any((work / name).exists() for name in outputs)
