#!/usr/bin/env python3
"""Benchmark for shelterplan: set up, time, check and digest one workload.

Run from the root of a checkout (nothing to build; the package is
imported from ./src):

    python3 perfbench/run.py --workload study-town --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads: study-town, enumerate-town, grid-m (see workloads.py), or
`all`, which runs the three one after another, each in its own process.
One process and one thread; no `workers` option is set.

--trace 0 times untraced calls, in whole panels of distinct inputs, for
--seconds and reports the end-to-end metrics; call times are reported in
normalized seconds, which factor out the host's speed (hostspeed.py).
--trace 1 spends half the time on untraced calls and then
repeats the same calls with every cross-module layer wrapped, and
reports the per-layer metrics and the tracing overhead; spans go to
perfbench/out/spans-<workload>-seed<seed>.json.

Every call's output digest is printed and kept in perfbench/out/digests.json
under the code's fingerprint; a digest that differs from an earlier call
with the same inputs and code fails the determinism check. The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hostspeed import Stopwatch

HERE = Path(__file__).resolve().parent
OUT_DIR = "perfbench/out"
# set-up is short, so each sample repeats it for half a second
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
WORKLOAD_NAMES = ("study-town", "enumerate-town", "grid-m")


@dataclass
class Call:
    index: int
    watch: Stopwatch
    outputs: object
    root_span: int = -1
    solves: int = 0
    digest: str = ""
    checked: object = None


class Ledger:
    """Digests of earlier calls, keyed by workload, seed, inputs and code."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.entries: dict[str, str] = {}
        if path.is_file():
            self.entries = json.loads(path.read_text())

    def record(self, key: str, digest: str) -> Optional[str]:
        """Store the digest; return the earlier one if it differs."""
        full = f"{self.prefix}|{key}"
        earlier = self.entries.setdefault(full, digest)
        return earlier if earlier != digest else None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True) + "\n")
        tmp.replace(self.path)


def code_fingerprint(root: Path) -> str:
    """The program, its data, the benchmark and the interpreter and NumPy it runs on."""
    import numpy

    files = sorted(
        [*root.glob("src/shelterplan/**/*.py"), *root.glob("data/sanrocco_synthetic/*"),
         *HERE.glob("*.py")]
    )
    digest = hashlib.sha256(f"{sys.version}|numpy {numpy.__version__}".encode())
    for path in files:
        digest.update(str(path.relative_to(root) if path.is_relative_to(root) else path.name).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Checker:
    """Digests and checks each call as it ends, then drops its outputs.

    Each distinct input is checked once; the ledger holds the first digest
    of each input, from this run or an earlier one, and a repeat that does
    not reproduce it fails the determinism check. Outputs are kept only for
    call 0 (the probes read them), so held outputs do not grow the peak
    resident set with the number of calls.
    """

    def __init__(self, workload, ledger: Ledger):
        self.workload = workload
        self.ledger = ledger
        self.checked: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, call: Call) -> None:
        key = self.workload.key(call.index)
        call.solves = self.workload.solves(call.outputs)
        call.digest = self.workload.digest(call.outputs)
        if key not in self.checked:
            self.checked[key] = self.workload.check(call.outputs)
            self.problems += self.checked[key].failures
        call.checked = self.checked[key]
        failed = call.checked.failed
        if self.ledger.record(key, call.digest) is not None:
            self.problems.append(f"determinism: {key} digest differs from an earlier call")
            failed = call.checked.attempted
        self.attempted += call.checked.attempted
        self.failed += failed
        if call.index != 0 or call.root_span >= 0:
            call.outputs = None


def timed_calls(workload, budget: float, finish: Checker, setups: list) -> list[Call]:
    """Untraced calls, in whole panels, until their summed time reaches `budget`.

    Set-up is sampled again after every call, so its median spans the run
    as the call times do rather than one second of it.
    """
    calls: list[Call] = []
    while (
        not calls
        or len(calls) % workload.panel
        or sum(c.watch.seconds for c in calls) < budget
    ):
        # no local name may hold the outputs: the checker frees them, so the
        # peak resident set does not grow with the number of calls
        calls.append(Call(len(calls), *workload.call(len(calls), None)))
        finish(calls[-1])
        setups += repeated_setup(workload)
    return calls


def panel_mean(calls: list[Call], panel: int, value) -> float:
    """Mean over a panel's inputs of each input's median `value(call)`.

    Every input weighs the same however often it was called, so a run
    measures the same mix of work whatever the host's speed.
    """
    by_input: dict[int, list[float]] = {}
    for call in calls:
        by_input.setdefault(call.index % panel, []).append(value(call))
    return statistics.fmean(statistics.median(values) for values in by_input.values())


def traced_calls(workload, recorder, indices: list[int], finish: Checker) -> list[Call]:
    calls = []
    with recorder.installed():
        for index in indices:
            with recorder.span("bench.call") as root:
                watch, outputs = workload.call(index, recorder)
            calls.append(Call(index, watch, outputs, root_span=root))
            finish(calls[-1])
    return calls


def repeated_setup(workload) -> list[dict[str, float]]:
    """Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS.

    Each set-up is also timed in normalized seconds ("norm"), as calls are.
    """
    setups: list[dict[str, float]] = []
    while len(setups) < SETUP_REPEATS or sum(s["total"] for s in setups) < SETUP_SECONDS:
        watch = Stopwatch()
        with watch.running():
            times = workload.setup()
        setups.append({**times, "norm": watch.norm_seconds})
    return setups


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, root: Path) -> int:
    from metrics import (
        END_TO_END,
        PER_LAYER,
        UNITS,
        median_by_key,
        output_metrics,
        probe,
        span_metrics,
    )
    from spans import Recorder
    from workloads import WORKLOADS, SetupError

    workload = WORKLOADS[args.workload](root, args.seed)
    try:
        setups = repeated_setup(workload)
    except SetupError as exc:
        print(f"perfbench: {args.workload} set-up failed: {exc}", file=sys.stderr)
        return 2
    ledger = Ledger(
        root / OUT_DIR / "digests.json",
        f"{args.workload}|{args.seed}|{code_fingerprint(root)}",
    )
    finish = Checker(workload, ledger)
    budget = args.seconds / 2 if args.trace else args.seconds
    calls = timed_calls(workload, budget, finish, setups)
    peak = peak_rss_mb()
    recorder = Recorder()
    traced = []
    if args.trace:
        traced = traced_calls(workload, recorder, [c.index for c in calls], finish)
    ledger.save()
    attempted, failed, problems = finish.attempted, finish.failed, finish.problems

    for call in calls + traced:
        print(
            f"call {call.index} {'traced' if call.root_span >= 0 else 'untraced'} "
            f"{workload.key(call.index)}: {call.watch.seconds:.4f} s, "
            f"{call.watch.norm_seconds:.4f} norm-s, "
            f"{call.checked.attempted - call.checked.failed}/{call.checked.attempted} ok, "
            f"sha256 {call.digest}"
        )
    for problem in problems[:20]:
        print(f"FAILED {problem}")

    panel = workload.panel
    wall_norm_s = panel_mean(calls, panel, lambda c: c.watch.norm_seconds)
    values: dict[str, float] = {
        "wall_norm_s": wall_norm_s,
        "lower_solves_per_norm_s": panel_mean(calls, panel, lambda c: c.solves) / wall_norm_s,
        "bench.wall_s": panel_mean(calls, panel, lambda c: c.watch.seconds),
        "bench.setup_s": statistics.median(s["total"] for s in setups),
        "bench.snippet_us": 1e6 * statistics.fmean(
            sample for c in calls for sample in c.watch.samples
        ),
    }
    if args.trace:
        layer_rows = [
            {**span_metrics(recorder, c.root_span), **output_metrics(c.checked)} for c in traced
        ]
        layers = median_by_key(layer_rows)
        probed = probe(workload.probe_state(calls[0].outputs))
        untraced = sum(c.watch.norm_seconds for c in calls)
        values.update(layers)
        values.update(probed)
        values.update(
            {
                "io.load_problem_s": statistics.median(s.get("load", 0.0) for s in setups),
                "network.validate_s": statistics.median(s["validate"] for s in setups),
                "network.sp_tree_calls": layers["study.sp_tree_calls"] + probed["probe.sp_tree_calls"],
                "trace.overhead_pct": (
                    100.0 * (sum(c.watch.norm_seconds for c in traced) / untraced - 1.0)
                ),
                "trace.missing_layers": float(len(recorder.missing)),
            }
        )
        for name in recorder.missing:
            print(f"missing layer {name}: not wrapped")
        recorder.write(root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        names = [name for name, *_ in PER_LAYER]
    else:
        values.update(
            {
                "setup_s": statistics.median(s["norm"] for s in setups),
                "peak_rss_mb": peak,
                "plan_objective": panel_mean(calls, panel, lambda c: c.checked.plan_objective),
            }
        )
        values.update(median_by_key(output_metrics(c.checked) for c in calls))
        names = [name for name, *_ in END_TO_END]

    for name, value in values.items():
        if name in UNITS:
            print(f"metric {args.workload} {name} = {value:.6g} {UNITS[name]}")
    print(f"operations {args.workload}: attempted {attempted}, failed {failed}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args, root: Path) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(command, cwd=root).returncode)
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    package = root / "src" / "shelterplan"
    if not (package / "__init__.py").is_file() or not (root / "data" / "sanrocco_synthetic").is_dir():
        print(
            "perfbench: src/shelterplan or data/sanrocco_synthetic is missing; "
            "run from the root of a shelterplan checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args, root)

    sys.path.insert(0, str(root / "src"))
    import shelterplan

    if Path(shelterplan.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported shelterplan from {shelterplan.__file__}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    status = run_workload(args, root)
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
