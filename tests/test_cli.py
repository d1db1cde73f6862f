import json
import subprocess
import sys

import pytest

from wsapprox import cli
from wsapprox.cli import main
from wsapprox.instances import canonical_dumps

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

# A valid biobjective grid report with one cell, for export-plot and verify.
CELL = {"weight_index": 0, "level": 0, "id": "a", "lower": ["1", "1"], "upper": ["2", "2"]}
REPORT = {
    "p": 2,
    "instance": THREE_POINTS,
    "solutions": [{"id": "a", "f": ["1", "8"]}],
    "cells": [CELL],
}


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

    def test_oversized_grid_exits_2_before_writing(self, tmp_path, capsys):
        # p = 4 spanning [1, 1000] at eps = 1/100 would plan about 8.5e10 weights.
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
        code = main(argv + ["--epsilon", "1/100", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid of ")
        assert not out.exists()

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

    def test_max_impossibility(self, tmp_path):
        inst = tmp_path / "max.json"
        main(["generate", "max-counterexample", "--p", "2", "--M", "100", "--out", str(inst)])
        out = tmp_path / "oracle.json"
        code = main(
            ["oracle", "--instance", str(inst), "--what", "max-impossibility", "--out", str(out)]
        )
        assert code == 0
        assert read_json(out)["ok"] is True

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
            (
                "export-plot",
                json.dumps({**REPORT, "cells": [{k: v for k, v in CELL.items() if k != "weight_index"}]}),
            ),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "lower": ["1"]}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "weight_index": None}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "weight_index": True}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "level": "0"}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "id": 7}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "lower": [{"x": 1}, "1"]}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "upper": ["2", 2]}]})),
            ("export-plot", json.dumps({**REPORT, "cells": [{**CELL, "upper": ["2", "1/0"]}]})),
            ("verify", json.dumps({**REPORT, "solutions": ["s1"]})),
        ],
        ids=[
            "rational-literal-over-digit-limit",
            "json-integer-over-digit-limit",
            "not-utf-8",
            "plot-solution-not-an-object",
            "plot-solution-without-id",
            "plot-cell-without-weight-index",
            "plot-cell-with-one-element-lower",
            "plot-cell-null-weight-index",
            "plot-cell-bool-weight-index",
            "plot-cell-string-level",
            "plot-cell-integer-id",
            "plot-cell-object-in-lower",
            "plot-cell-number-in-upper",
            "plot-cell-zero-denominator",
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
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "points.csv").exists()

    def test_unexpected_exception_exits_6_without_traceback(
        self, three_points_file, monkeypatch, capsys
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "pareto_front", broken)
        assert main(["oracle", "--instance", three_points_file, "--what", "pareto"]) == 6
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: internal error: RuntimeError: boom"]

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

    def test_round_trip_canonicalization(self, tmp_path):
        from wsapprox.instances import instance_from_json, instance_to_json

        path = tmp_path / "inst.json"
        main(["generate", "tightness-min", "--p", "3", "--M", "7/2", "--out", str(path)])
        original = path.read_text()
        reparsed = canonical_dumps(instance_to_json(instance_from_json(json.loads(original))))
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
        cells = (out_dir / "cells.csv").read_text().strip().splitlines()
        assert len(cells) > 1
        assert cells[0].startswith("weight_index")

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

    def test_empty_solution_set_writes_header_only(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps({"p": 2, "instance": THREE_POINTS, "solutions": []})
        )
        out_dir = tmp_path / "plots"
        assert main(["export-plot", "--from-report", str(report), "--out-dir", str(out_dir)]) == 0
        cells = (out_dir / "cells.csv").read_text().strip().splitlines()
        assert cells == ["weight_index,level,solution_id,f1_lo,f1_hi,f2_lo,f2_hi"]


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
