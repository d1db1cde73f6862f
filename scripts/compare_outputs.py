#!/usr/bin/env python3
"""Byte-identity check of the CLI's outputs between two source trees.

For every benchmark workload and seed, the workload's ``generate`` commands
and one pass of its command sequence (read from ``perfbench/workloads.py``)
run once against this checkout's ``src`` and once against ``--parent-src``,
each tree in its own subprocess and working directory.  Every file written
is then compared by sha256, and every command by its exit code and its
stderr.  Each difference is printed; the exit code is 1 if there is any,
else 0.

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


def run_tree(src: str, name: str, seed: int, size: str, workdir: str) -> list:
    """Run one workload's commands against the package in ``src`` with its
    files in ``workdir``: a list of [argv, exit code, stderr]."""
    workload = workloads.build(name, seed, size, workdir)
    argvs = [list(argv) for argv in workload.generate]
    argvs += [list(cmd.argv) for cmd in workload.commands]
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


def compare(parent_src: str, name: str, seed: int, size: str) -> list[str]:
    """The differences between the two trees on one workload and seed."""
    with tempfile.TemporaryDirectory() as ours, tempfile.TemporaryDirectory() as theirs:
        mine = run_tree(os.path.join(ROOT, "src"), name, seed, size, ours)
        other = run_tree(parent_src, name, seed, size, theirs)
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
        return [f"{name} seed {seed}: {line}" for line in differences]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", required=True, help="src directory of the other tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(args.parent_src, "wsapprox")):
        parser.error(f"--parent-src {args.parent_src} holds no wsapprox package")
    failed = False
    for name in workloads.BUILDERS:
        for seed in args.seeds:
            differences = compare(args.parent_src, name, seed, args.size)
            print(f"{name} seed {seed}: {len(differences)} differences")
            for line in differences:
                print(line)
            failed = failed or bool(differences)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
