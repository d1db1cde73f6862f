#!/usr/bin/env python3
"""Byte-identity check of the CLI's outputs between two source trees.

For every benchmark workload and seed, the workload's ``generate`` commands
and one pass of its command sequence (read from ``perfbench/workloads.py``)
run once against this checkout's ``src`` and once against ``--parent-src``,
each tree in its own subprocess and working directory.  Every file written
is then compared by sha256, and every command by its exit code and its
stderr.  Each difference is printed; the exit code is 1 if there is any,
else 0.

A fixed set of hand-written instance files goes through the same
comparison, each file through ``oracle --what supported`` and
``approximate --algorithm grid``: values in the spellings the loader
accepts but never writes (padded, signed, unreduced, zero-led, in
Arabic-Indic digits), one fault per file, and a bad literal and a
malformed entry in either order, of which the first in the file must be
the one refused.  Generated files hold only canonical values, so without
them the loader's literal-by-literal path, and every refusal it words,
would go unseen.  Two files are well formed for the instance writer: one
whose ids need JSON escapes and a shortest-path graph, whose reports embed
its ``source`` and ``target``.  One is a maximization, so that the
supported set's witnesses are compared on MAX as well as MIN.

Usage: python scripts/compare_outputs.py --parent-src DIR [--seeds 1 2 ...]
                                         [--size tiny|full]

``DIR`` is the ``src`` directory of the other tree, the one that holds its
``wsapprox`` package.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# Runs in the subprocess: every argv of the JSON list on stdin through
# wsapprox.cli.main, then prints each one's exit code and stderr.
RUNNER = """
import contextlib, io, json, sys
from wsapprox.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def _explicit(change=None) -> dict:
    """Three points a, b, c; ``change`` edits the document if callable, else
    it replaces b's second value."""
    doc = {"kind": "explicit", "direction": "min", "p": 2, "solutions": [
        {"id": "a", "f": ["1", "8"]}, {"id": "b", "f": ["2", "2"]}, {"id": "c", "f": ["8", "1"]},
    ]}
    if callable(change):
        change(doc)
    elif change is not None:
        doc["solutions"][1]["f"][1] = change
    return doc


def _literal_and_entry(literal_first: bool) -> dict:
    """Three points, one with the bad literal "1.5" and one with no id: the
    literal in the first point and no id in the last if ``literal_first``,
    else the other way round."""
    doc = _explicit()
    literal, entry = (0, 2) if literal_first else (2, 0)
    doc["solutions"][literal]["f"][0] = "1.5"
    del doc["solutions"][entry]["id"]
    return doc


HAND_WRITTEN = {
    "canonical": _explicit(),
    "padded": _explicit(" 2\n"),
    "signed": _explicit("+2"),
    "unreduced": _explicit("6/3"),
    "leading-zero": _explicit("002"),
    "arabic-indic": _explicit("\u0662"),
    "json-number": _explicit(2),
    "decimal": _explicit("2.0"),
    "zero-denominator": _explicit("1/0"),
    "arabic-indic-zero-denominator": _explicit("1/\u0660"),
    "zero": _explicit("0"),
    "negative": _explicit("-3/4"),
    "over-digit-limit": _explicit("1" * 5000),
    "short-vector": _explicit(lambda d: d["solutions"][1]["f"].pop()),
    "extra-key": _explicit(lambda d: d["solutions"][1].update(note="x")),
    "missing-key": _explicit(lambda d: d["solutions"][1].pop("id")),
    "graph-spelled": {
        "kind": "spanning-tree", "direction": "min", "p": 2, "nodes": 3, "arcs": [
            {"from": 0, "to": 1, "cost": ["1", " 4/2"]},
            {"from": 1, "to": 2, "cost": ["+3", "\u0661"]},
            {"from": 0, "to": 2, "cost": ["02", "2"]},
        ],
    },
    "literal-then-entry": _literal_and_entry(True),
    "entry-then-literal": _literal_and_entry(False),
    # ids holding a quote, a backslash, a tab, an "é" and a non-BMP character
    "escaped-ids": {"kind": "explicit", "direction": "min", "p": 2, "solutions": [
        {"id": 'a"', "f": ["1", "8"]},
        {"id": "b\\\t\u00e9", "f": ["2", "2"]},
        {"id": "c\U0001f600", "f": ["8", "1"]},
    ]},
    "shortest-path": {
        "kind": "shortest-path", "direction": "min", "p": 2, "nodes": 4, "source": 0,
        "target": 3, "arcs": [
            {"from": 0, "to": 1, "cost": ["1", "5/2"]},
            {"from": 1, "to": 3, "cost": ["2", "1/3"]},
            {"from": 0, "to": 2, "cost": ["3", "1"]},
            {"from": 2, "to": 3, "cost": ["7/4", "1"]},
            {"from": 1, "to": 2, "cost": ["1", "1"]},
        ],
    },
    # a maximization with halves, thirds and quarters, a duplicate image
    # ("b" and "b2"), a dominated point ("d") and an unsupported front point
    # ("e"), so that the supported set's MAX witnesses are compared
    "max-mixed": {"kind": "explicit", "direction": "max", "p": 2, "solutions": [
        {"id": "a", "f": ["9/2", "1/3"]},
        {"id": "b", "f": ["7/3", "5/2"]},
        {"id": "b2", "f": ["7/3", "5/2"]},
        {"id": "c", "f": ["3/4", "11/3"]},
        {"id": "d", "f": ["2", "2"]},
        {"id": "e", "f": ["3", "7/4"]},
    ]},
    "graph-literal-then-bool-tail": {
        "kind": "spanning-tree", "direction": "min", "p": 2, "nodes": 3, "arcs": [
            {"from": 0, "to": 1, "cost": ["1", "1.5"]},
            {"from": 1, "to": 2, "cost": ["3", "1"]},
            {"from": True, "to": 2, "cost": ["2", "2"]},
        ],
    },
}


def hand_written_argvs(workdir: str) -> list:
    """Write ``HAND_WRITTEN`` into ``workdir``: the argvs that run each file."""
    argvs = []
    for name, doc in HAND_WRITTEN.items():
        inst = os.path.join(workdir, f"{name}.json")
        with open(inst, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argvs.append(["oracle", "--instance", inst, "--what", "supported",
                      "--out", os.path.join(workdir, f"{name}-supported.json")])
        argvs.append(["approximate", "--algorithm", "grid", "--instance", inst, "--epsilon", "1",
                      "--out", os.path.join(workdir, f"{name}-grid.json")])
    return argvs


def workload_argvs(name: str, seed: int, size: str):
    """The argvs of one workload's ``generate`` commands and one pass of its
    command sequence, with every file in the workdir they are given."""

    def argvs(workdir: str) -> list:
        workload = workloads.build(name, seed, size, workdir)
        return [list(argv) for argv in workload.generate] + [
            list(cmd.argv) for cmd in workload.commands
        ]

    return argvs


def run_tree(src: str, argvs: list, workdir: str) -> list:
    """Run ``argvs`` against the package in ``src`` with ``workdir`` as the
    working directory: a list of [argv, exit code, stderr]."""
    result = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(argvs),
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        cwd=workdir,
        capture_output=True,
        text=True,
        check=True,
    )
    return [[argv, code, err] for argv, (code, err) in zip(argvs, json.loads(result.stdout))]


def digests(workdir: str) -> dict:
    """sha256 of every file under ``workdir``, keyed by relative path."""
    found = {}
    for folder, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, workdir)] = hashlib.sha256(handle.read()).hexdigest()
    return found


def compare(parent_src: str, label: str, build) -> list[str]:
    """The differences between the two trees on the argvs that ``build``
    makes for a working directory."""
    with tempfile.TemporaryDirectory() as ours, tempfile.TemporaryDirectory() as theirs:
        mine = run_tree(os.path.join(ROOT, "src"), build(ours), ours)
        other = run_tree(parent_src, build(theirs), theirs)
        # the argvs name each tree's own directory; compare them without it
        differences = [
            f"{' '.join(argv).replace(ours, '.')}: exit {code} stderr {err!r}, "
            f"parent exit {other_code} stderr {other_err.replace(theirs, ours)!r}"
            for (argv, code, err), (_, other_code, other_err) in zip(mine, other)
            if (code, err) != (other_code, other_err.replace(theirs, ours))
        ]
        mine_files, other_files = digests(ours), digests(theirs)
        differences += [
            f"{path}: sha256 {mine_files.get(path)} here, {other_files.get(path)} in the parent"
            for path in sorted(set(mine_files) | set(other_files))
            if mine_files.get(path) != other_files.get(path)
        ]
        return [f"{label}: {line}" for line in differences]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", required=True, help="src directory of the other tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(args.parent_src, "wsapprox")):
        parser.error(f"--parent-src {args.parent_src} holds no wsapprox package")
    runs = [
        (f"{name} seed {seed}", workload_argvs(name, seed, args.size))
        for name in workloads.BUILDERS
        for seed in args.seeds
    ]
    failed = False
    for label, build in [*runs, ("hand-written", hand_written_argvs)]:
        differences = compare(args.parent_src, label, build)
        print(f"{label}: {len(differences)} differences")
        for line in differences:
            print(line)
        failed = failed or bool(differences)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
