"""Metric names, units and directions, and how each is computed.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced run. METRICS.md maps each layer metric to the end-to-end metric it
should move and the workload it shows on.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Iterable

from shelterplan import all_or_nothing, logit_distribution, shortest_path_tree

from spans import Recorder

# name, unit, better, bound (share of the parent's median). Call and set-up
# times are in normalized seconds (see hostspeed.py); setup_s keeps the unit
# s because set-up time must be reported as setup_s in s.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_norm_s", "norm-s", "lower", 0.25),
    ("lower_solves_per_norm_s", "1/norm-s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("plan_objective", "veh-min", "lower", 0.1),
)

# Spans whose self time is reported: the benchmark's own (bench.call is
# the timed call itself, minus every span below it) and each traced layer.
SELF_TIME_SPANS = (
    "bench.call",
    "study.render_report",
    "study.ga_solve",
    "study.clearance_time",
    "study.shortest_path_tree",
    "ga.evaluate_individual",
    "ga.solve_lower_level",
    "ga.constraint_violations",
    "ga.total_evacuation_time",
    "ga.validate_network",
    "enumeration.evaluate_individual",
    "assignment.solve_lower_level",
)

# name, unit, better
PER_LAYER = (
    ("bench.wall_s", "s", "lower"),
    ("bench.setup_s", "s", "lower"),
    ("bench.snippet_us", "us", "lower"),
    ("io.load_problem_s", "s", "lower"),
    ("network.validate_s", "s", "lower"),
    ("network.sp_tree_ms", "ms", "lower"),
    ("network.sp_tree_calls", "count", "lower"),
    ("assignment.solves", "count", "lower"),
    ("assignment.solve_s", "s", "lower"),
    ("assignment.solve_ms_p50", "ms", "lower"),
    ("assignment.solve_ms_p95", "ms", "lower"),
    ("assignment.ms_per_pass", "ms", "lower"),
    ("assignment.iterations", "count", "lower"),
    ("assignment.iterations_max", "count", "lower"),
    ("assignment.capped", "count", "lower"),
    ("assignment.nonconverged", "count", "lower"),
    ("assignment.share_residual_max", "share", "lower"),
    ("assignment.route_gap_max", "ratio", "lower"),
    ("assignment.aon_tree_entries", "count", "lower"),
    ("assignment.logit_ms", "ms", "lower"),
    ("assignment.aon_ms", "ms", "lower"),
    ("equilibrium_ok_share", "share", "higher"),
    ("ga.chromosomes", "count", "lower"),
    ("ga.distinct_evaluations", "count", "lower"),
    ("ga.cache_hit_ratio", "ratio", "higher"),
    ("ga.nonconverged_evaluations", "count", "lower"),
    ("ga.evaluate_s", "s", "lower"),
    ("ga.overhead_s", "s", "lower"),
    ("ga.constraint_s", "s", "lower"),
    ("enumeration.evaluate_s", "s", "lower"),
    ("study.scenario_s_max", "s", "lower"),
    ("study.clearance_s", "s", "lower"),
    ("study.render_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.missing_layers", "count", "lower"),
) + tuple((f"self_s.{name}", "s", "lower") for name in SELF_TIME_SPANS)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def median_by_key(rows: Iterable[dict[str, float]]) -> dict[str, float]:
    rows = list(rows)
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def span_metrics(recorder: Recorder, root: int) -> dict[str, float]:
    """Per-layer times and counts of one traced call (the span at `root`)."""
    indices = recorder.subtree(root)
    spans = [recorder.spans[i] for i in indices]

    def total(name: str) -> float:
        return sum((s.duration for s in spans if s.name == name), 0.0)

    solves = [s for s in spans if s.name.endswith(".solve_lower_level")]
    durations_ms = [1000.0 * s.duration for s in solves]
    iterations = [s.attrs["iterations"] for s in solves]
    solve_s = sum(s.duration for s in solves)
    ga_solves = {i for i in indices if recorder.spans[i].name == "study.ga_solve"}
    evaluate_in_ga = sum(
        recorder.spans[i].duration
        for i in indices
        if recorder.spans[i].name == "ga.evaluate_individual"
        and recorder.spans[i].parent in ga_solves
    )
    # a scenario is its ga_solve plus the clearance estimate that follows it
    scenarios: list[float] = []
    for s in spans:
        if s.parent == root and s.name == "study.ga_solve":
            scenarios.append(s.duration)
        elif s.parent == root and s.name == "study.clearance_time" and scenarios:
            scenarios[-1] += s.duration
    self_times = recorder.self_times(indices)
    metrics = {
        "assignment.solves": float(len(solves)),
        "assignment.solve_s": solve_s,
        "assignment.solve_ms_p50": _percentile(durations_ms, 50),
        "assignment.solve_ms_p95": _percentile(durations_ms, 95),
        "assignment.ms_per_pass": (
            1000.0 * solve_s / sum(i + 1 for i in iterations) if solves else 0.0
        ),
        "assignment.iterations": float(sum(iterations)),
        "assignment.iterations_max": float(max(iterations, default=0)),
        "assignment.capped": float(sum(1 for s in solves if s.attrs["capped"])),
        "assignment.nonconverged": float(sum(1 for s in solves if not s.attrs["converged"])),
        "ga.evaluate_s": total("ga.evaluate_individual"),
        "ga.overhead_s": total("study.ga_solve") - evaluate_in_ga,
        "ga.constraint_s": total("ga.constraint_violations"),
        "enumeration.evaluate_s": total("enumeration.evaluate_individual"),
        "study.scenario_s_max": max(scenarios, default=0.0),
        "study.clearance_s": total("study.clearance_time"),
        "study.render_s": total("study.render_report"),
        "study.sp_tree_calls": float(sum(1 for s in spans if s.name == "study.shortest_path_tree")),
        "trace.spans": float(len(spans)),
    }
    for name in SELF_TIME_SPANS:
        metrics[f"self_s.{name}"] = self_times.get(name, 0.0)
    return metrics


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def probe(state, repeats: int = 3) -> dict[str, float]:
    """Time public network/assignment functions at a final lower-level state."""
    network, result = state.network, state.result
    origins = sorted({o for o, _ in result.od_flows})
    shelters = sorted({s for _, s in result.od_flows})
    tree_ms: list[float] = []
    costs: dict[tuple[str, str], float] = {}
    for origin in origins:
        start = time.perf_counter()
        tree = shortest_path_tree(network, result.link_times, origin)
        tree_ms.append(1000.0 * (time.perf_counter() - start))
        for shelter in shelters:
            costs[(origin, shelter)] = tree.costs.get(shelter, math.inf)
    productions = {o: state.demand.productions[o] for o in origins}

    def timed_ms(fn, *args) -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(*args)
            samples.append(1000.0 * (time.perf_counter() - start))
        return statistics.median(samples)

    return {
        "network.sp_tree_ms": statistics.median(tree_ms),
        "probe.sp_tree_calls": float(len(tree_ms)),
        "assignment.logit_ms": timed_ms(logit_distribution, productions, costs, state.impedance),
        "assignment.aon_ms": timed_ms(
            all_or_nothing, network, result.od_flows, result.link_times
        ),
    }


def output_metrics(checked) -> dict[str, float]:
    """Per-layer numbers read off a call's checked outputs (no tracing needed)."""
    verdicts = checked.verdicts
    chromosomes = checked.counts.get("chromosomes", 0.0)
    distinct = checked.counts.get("distinct", 0.0)
    return {
        "assignment.share_residual_max": max((v.share_residual for v in verdicts), default=0.0),
        "assignment.route_gap_max": max((v.route_gap for v in verdicts), default=0.0),
        "assignment.aon_tree_entries": float(checked.aon_entries_max),
        "equilibrium_ok_share": (
            sum(1 for v in verdicts if v.equilibrium_ok) / len(verdicts) if verdicts else 0.0
        ),
        "ga.chromosomes": chromosomes,
        "ga.distinct_evaluations": distinct,
        "ga.cache_hit_ratio": 1.0 - distinct / chromosomes if chromosomes else 0.0,
        "ga.nonconverged_evaluations": checked.counts.get("nonconverged", 0.0),
    }
