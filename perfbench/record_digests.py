"""Record the answer-id digests of graph-p2's large-graph reports.

    python3 perfbench/record_digests.py --first 0 --last 127

The large graphs cannot be enumerated, so beyond checking that each answer
is a feasible path or tree with the reported image and value, the
benchmark compares the sequence of answer ids against these digests when
it runs a recorded seed.  Re-record only when a change of answers is
intended; a faster solver must give the same ids.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil

import run
import workloads


def record(seed: int, size: str) -> dict[str, str]:
    workdir = os.path.join(run.ROOT, ".perfbench", f"digests-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        full = workloads.build("graph-p2", seed, size, workdir)
        workload = dataclasses.replace(
            full, commands=tuple(c for c in full.commands if c.digest)
        )
        _, mods, failed = run.setup(workload)
        it = run.run_sequence(mods, workload, run.Checker(seed, size, {}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed or it.failed:
        raise SystemExit(f"seed {seed}: {it.errors or 'instance generation failed'}")
    return it.digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args()
    path = os.path.join(run.HERE, "graph_digests.json")
    digests = run.load_digests()
    for seed in range(args.first, args.last + 1):
        digests[f"{args.size}:{seed}"] = record(seed, args.size)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
