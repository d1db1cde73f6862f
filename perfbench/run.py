"""wsapprox benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grid-p3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client in one thread calls ``wsapprox.cli.main``
in-process: set-up generates the workload's instance files from ``--seed``
with the CLI's ``generate`` command, then the workload's command sequence
runs again and again for ``--seconds`` and every output of every run is
checked by ``checks``, outside the timed region.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced sequences: traced ones give
the per-layer metrics (medians over traced sequences), untraced ones the
untraced times that ``trace.overhead_s`` and the solver-phase metrics come
from.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Optional

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ("cli", "instances", "algorithms", "solvers", "core", "oracles")
SETUP_REPS = 7
MIN_SEQUENCES = 3
# Times are reported in reference seconds: wall time divided by the
# machine's slowdown at that moment, which is the time of a fixed piece of
# Fraction arithmetic (``calibration_unit``) over REFERENCE_UNIT_S, its
# time on an unloaded 2-vCPU VM under Python 3.11.  Shared hosts run the
# same code up to 1.7 times slower for tens of seconds at a time; the
# calibration, repeated every CALIBRATE_EVERY_S of command time, takes
# that out while a change in the program itself still shows.
REFERENCE_UNIT_S = 0.02
CALIBRATE_EVERY_S = 0.3


class MissingProgram(RuntimeError):
    """The checkout holds no wsapprox sources to benchmark."""


@dataclass
class Iteration:
    """One pass of a workload's command sequence, with its checked counts."""

    e2e: float = 0.0
    approximate: float = 0.0
    verify: float = 0.0
    attempted: int = 0
    failed: int = 0
    ws_calls: int = 0
    solutions: int = 0
    points: int = 0
    pairs: int = 0
    report_bytes: int = 0
    tree_nodes: int = 0
    memo_hits: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    slowdown: float = 1.0
    layers: Optional[dict[str, float]] = None


def calibration_unit() -> float:
    """Wall seconds of a fixed amount of Fraction arithmetic."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """Machine slowdown over an interval bracketed by two calibrations."""
    return (before + after) / (2 * REFERENCE_UNIT_S)


def import_package() -> dict[str, Any]:
    """Import wsapprox afresh from the checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "wsapprox" or m.startswith("wsapprox.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"wsapprox.{name}") for name in LAYERS}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"wsapprox was imported from outside {SRC}")
    return mods


def call_cli(mods: dict[str, Any], argv: tuple[str, ...]) -> Optional[int]:
    """Exit code of one CLI command; None if it raised."""
    try:
        return mods["cli"].main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def setup(workload: workloads.Workload) -> tuple[float, dict[str, Any], int]:
    """Import the package and write the instance files: (reference seconds,
    modules, failed generate commands)."""
    before = calibration_unit()
    start = perf_counter()
    mods = import_package()
    failed = sum(call_cli(mods, argv) != 0 for argv in workload.generate)
    elapsed = perf_counter() - start
    return elapsed / slowdown(before, calibration_unit()), mods, failed


class Checker:
    """Checks one command's output and extracts the counts it reports."""

    def __init__(self, seed: int, size: str, digests: dict[str, dict[str, str]]) -> None:
        self.instances: dict[str, checks.Instance] = {}
        self.expected_digests = digests.get(f"{size}:{seed}", {})

    def instance(self, path: str) -> checks.Instance:
        if path not in self.instances:
            self.instances[path] = checks.read_instance(path)
        return self.instances[path]

    def check(self, cmd: workloads.Command, rc: Optional[int], it: Iteration) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        inst = self.instance(cmd.instance)
        n = len(inst.points)
        if cmd.check == "plot":
            it.points += n
            it.pairs += 2 * n * (n - 1)  # Pareto scan and slope intervals
            return checks.check_plot(cmd.out, checks.read_json(cmd.report), inst)
        out = checks.read_json(cmd.out)
        if cmd.check == "verify":
            targets = len(out.get("witnesses", [])) + len(out.get("violations", []))
            candidates = {s["id"] for s in checks.read_json(cmd.report)["solutions"]}
            it.points += targets
            it.pairs += targets * len(candidates)
            return checks.check_verify(out)
        if cmd.check in ("pareto", "supported"):
            it.points += n
            it.pairs += n * (n - 1)
            if cmd.check == "pareto":
                return checks.check_pareto(out, inst)
            return checks.check_supported(out, inst)
        it.ws_calls += out["ws_calls"]
        it.solutions += len(out["solutions"])
        it.report_bytes += os.path.getsize(cmd.out)
        if cmd.check == "grid":
            errors = checks.check_grid(out, inst)
            ids = [entry["answer"]["id"] for entry in out["weights"]]
        else:
            errors = checks.check_bisect(out, inst)
            it.tree_nodes += out["tree"]["nodes"]
            it.memo_hits += out["tree"]["nodes"] + 2 - out["ws_calls"]
            ids = [s["id"] for s in out["solutions"]]
        if cmd.digest:
            digest = it.digests[cmd.digest] = checks.answer_digest(ids)
            expected = self.expected_digests.get(cmd.digest)
            if expected is not None and digest != expected:
                errors.append(f"{cmd.digest}: answer ids differ from the recorded digest")
        return errors


def run_sequence(
    mods: dict[str, Any], workload: workloads.Workload, checker: Checker
) -> Iteration:
    """Run the command sequence once, then check every output.

    Commands are timed in chunks of at least CALIBRATE_EVERY_S, each
    bracketed by calibrations; a command's time is its wall time divided
    by its chunk's slowdown.
    """
    it = Iteration()
    codes, walls, factors = [], [], []
    before = calibration_unit()
    chunk_start = perf_counter()
    last = len(workload.commands) - 1
    for index, cmd in enumerate(workload.commands):
        start = perf_counter()
        codes.append(call_cli(mods, cmd.argv))
        walls.append(perf_counter() - start)
        if index == last or perf_counter() - chunk_start >= CALIBRATE_EVERY_S:
            after = calibration_unit()
            factors += [slowdown(before, after)] * (len(walls) - len(factors))
            before = after
            chunk_start = perf_counter()
    times = [wall / factor for wall, factor in zip(walls, factors)]
    for cmd, elapsed in zip(workload.commands, times):
        if cmd.phase == "approximate":
            it.approximate += elapsed
        else:
            it.verify += elapsed
    it.e2e = sum(times)
    it.slowdown = sum(walls) / it.e2e
    for cmd, rc in zip(workload.commands, codes):
        try:
            errors = checker.check(cmd, rc, it)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        it.attempted += 1
        if errors:
            it.failed += 1
            it.errors += [f"{' '.join(cmd.argv[:3])}: {e}" for e in errors]
    return it


def measure(
    workload: workloads.Workload,
    checker: Checker,
    seconds: float,
    trace: bool,
    spans_path: Optional[str],
) -> tuple[list[float], list[Iteration], Optional[float], int]:
    """Set up ``SETUP_REPS`` times, then run the sequence for ``seconds``.

    Returns the set-up times, the iterations, the traced generate time and
    the number of failed generate commands.
    """
    setups = []
    for _ in range(SETUP_REPS):
        elapsed, mods, gen_failed = setup(workload)
        setups.append(elapsed)
    tracer = tracing.Tracer()
    generate_s = None
    if trace:
        tracer.install(mods)
        try:
            gen_failed = sum(call_cli(mods, argv) != 0 for argv in workload.generate)
        finally:
            tracer.uninstall()
        generate_s = tracer.layer_metrics()["instances.generate_s"]
        tracer.reset()
    iterations: list[Iteration] = []
    start = last = perf_counter()
    # Start another sequence only if it should end within ``seconds``, so
    # that a run lasts no longer than asked; run at least MIN_SEQUENCES.
    while len(iterations) < MIN_SEQUENCES or 2 * perf_counter() - last - start <= seconds:
        last = perf_counter()
        traced = trace and len(iterations) % 2 == 1
        if traced:
            tracer.install(mods)
        try:
            it = run_sequence(mods, workload, checker)
        finally:
            tracer.uninstall()
        if traced:
            it.layers = {
                name: value / it.slowdown if name.endswith("_s") or "_us_" in name else value
                for name, value in tracer.layer_metrics().items()
            }
            tracer.reset()
        iterations.append(it)
    if spans_path is not None:
        tracer.write(spans_path)
    return setups, iterations, generate_s, gen_failed


def median(values) -> float:
    return statistics.median(list(values))


def compute_metrics(
    setups: list[float],
    iterations: list[Iteration],
    generate_s: Optional[float],
    attempted: int,
    failed: int,
) -> dict[str, float]:
    plain = [it for it in iterations if it.layers is None]
    first = plain[0]
    approximate_s = median(it.approximate for it in plain)
    verify_s = median(it.verify for it in plain)
    e2e_s = median(it.e2e for it in plain)
    metrics = {
        "setup_s": median(setups),
        "e2e_s": e2e_s,
        "verify_s": verify_s,
        "points_per_s": first.points / verify_s,
        "pairs_per_s": first.pairs / verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_ratio": (attempted - failed) / attempted,
        "approximate_s": approximate_s,
        "ws_calls_per_s": first.ws_calls / approximate_s if approximate_s else 0.0,
        "ws_calls": first.ws_calls,
        "solutions_out": first.solutions,
        "algorithms.bisect_tree_nodes": first.tree_nodes,
        "algorithms.bisect_memo_hits": first.memo_hits,
        "cli.report_bytes": first.report_bytes,
        "machine.slowdown": median(it.slowdown for it in plain),
    }
    traced = [it for it in iterations if it.layers is not None]
    if traced:
        for name in traced[0].layers:
            metrics[name] = statistics.median_low(it.layers[name] for it in traced)
        metrics["instances.generate_s"] = generate_s
        metrics["trace.overhead_s"] = median(it.e2e for it in traced) - e2e_s
    return metrics


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_digests() -> dict[str, dict[str, str]]:
    with open(os.path.join(HERE, "graph_digests.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run(
    name: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> tuple[dict[str, Any], list[Iteration]]:
    """Run one benchmark; returns the result object and the iterations."""
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "wsapprox", "cli.py")):
        raise MissingProgram(f"no wsapprox sources under {SRC}")
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"run-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.build(name, seed, size, workdir)
        checker = Checker(seed, size, load_digests())
        spans_path = os.path.join(base, f"spans-{name}-{seed}.jsonl") if trace else None
        setups, iterations, generate_s, gen_failed = measure(
            workload, checker, seconds, trace, spans_path
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(it.attempted for it in iterations) + len(workload.generate)
    failed = sum(it.failed for it in iterations) + gen_failed
    values = compute_metrics(setups, iterations, generate_s, attempted, failed)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, iterations


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result, iterations = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (MissingProgram, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for it in iterations:
        for error in it.errors:
            print(f"check failed: {error}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(iterations)} sequences, "
          f"{result['attempted']} commands, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
