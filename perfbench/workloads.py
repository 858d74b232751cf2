"""The benchmark's three workloads, driven only through shelterplan's public API.

Each workload sets itself up, makes timed calls, and checks, digests and
probes what a call returned. A call's inputs are fixed by the bench seed
and the call index, so repeated calls with one key must return identical
bytes.

* study-town: `run_scenarios` + `render_report(json)` over the four
  synthetic-town scenarios with the shipped config. This is `shelterplan
  run`, and the only workload whose chromosomes the GA cache serves. Call
  k runs GA seed GA_SEED_PANEL[k mod 3], and a run times whole panels, so
  every run measures the same trajectories. Seed-independent.
* enumerate-town: `exhaustive_solve` over all 255 subsets of the
  synthetic town's vacation scenario. Lower-level throughput with no GA
  and no cache; the exact line search dominates. Seed-independent.
* grid-m: MSA `solve_lower_level` on a generated ~1000-node grid (200
  zones, 16 candidates) for all-open plus seed-chosen half-open subsets.
  The network layer dominates (200 Dijkstras per pass). MSA runs a fixed
  budget of flow updates (the gap tolerance is never reached), because
  MSA's gap crosses any useful tolerance at an iteration that jumps with
  the seed, and a seed-dependent pass count would swamp the timing.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from shelterplan import (
    AssignmentConfig,
    ImpedanceParameter,
    exhaustive_solve,
    load_problem,
    penalized_objective,
    render_report,
    run_scenarios,
    shortest_path_tree,
    solve_lower_level,
    total_evacuation_time,
    validate_network,
)
from shelterplan import enumeration
from shelterplan.io import (
    assignment_result_to_dict,
    canonical_json,
    enumeration_report_to_dict,
    solve_report_to_dict,
)
from shelterplan.study import rows_from_json

from checker import Verdict, aon_tree_entries, check_assignment, objective_mismatch
from generator import generate_grid
from hostspeed import Stopwatch
from spans import Recorder

TOWN_DIR = Path("data") / "sanrocco_synthetic"
TOWN_SCENARIOS = tuple(f"scenario_{n}.json" for n in ("day", "night", "weekend", "vacation"))

# study-town's GA seeds. One trajectory costs 3-7 s depending on which
# slow subsets the GA meets, so runs that drew GA seeds from the bench seed
# spread by more than any useful bound (interquartile range 0.28 of the
# median over ten bench seeds). Every run walks this panel in order instead,
# a whole number of times.
GA_SEED_PANEL = (0, 1, 2)

GRID_SIZE = {"cols": 28, "rows": 28, "zones": 200, "candidates": 16, "demand_scale": 40.0}
GRID_IMPEDANCE = ImpedanceParameter(beta=1.0)
GRID_CONFIG = AssignmentConfig(max_iterations=12, gap_tolerance=1e-12, step_rule="msa")
GRID_SUBSETS = 2


class SetupError(Exception):
    """The workload's inputs are missing or invalid."""


@dataclass
class Checked:
    """What the checker found in one call's outputs."""

    attempted: int
    failures: list[str]
    failed: int
    verdicts: list[Verdict]
    plan_objective: float
    aon_entries_max: int = 0
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class ProbeState:
    """A final lower-level state the probes time the public functions at."""

    network: object
    result: object
    demand: object
    impedance: ImpedanceParameter


def sha256_json(items) -> str:
    """sha256 over the canonical JSON of each item in turn (no one big string)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(canonical_json(item).encode())
    return digest.hexdigest()


def _span(recorder: Optional[Recorder], name: str):
    return nullcontext() if recorder is None else recorder.span(name)


def _validate(network, shelters) -> None:
    findings = validate_network(network, shelters)
    if findings:
        raise SetupError("; ".join(str(f) for f in findings))


class Workload:
    name = ""
    # calls 0..panel-1 have distinct inputs, and call k repeats call k mod panel
    panel = 1

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> dict[str, float]:
        raise NotImplementedError

    def key(self, index: int) -> str:
        """Names the inputs of call `index`; equal keys must give equal digests."""
        return "fixed"

    def call(self, index: int, recorder: Optional[Recorder]) -> tuple[Stopwatch, object]:
        """One timed call: (the program's time, outputs)."""
        raise NotImplementedError

    def solves(self, outputs) -> int:
        raise NotImplementedError

    def digest(self, outputs) -> str:
        raise NotImplementedError

    def check(self, outputs) -> Checked:
        raise NotImplementedError

    def probe_state(self, outputs) -> ProbeState:
        raise NotImplementedError


class _TownWorkload(Workload):
    town = TOWN_DIR
    scenario_files = TOWN_SCENARIOS

    def setup(self) -> dict[str, float]:
        start = time.perf_counter()
        town = self.root / self.town
        bundle = load_problem(
            town,
            town / "shelters.csv",
            [town / name for name in self.scenario_files],
            town / "config.txt",
        )
        loaded = time.perf_counter()
        _validate(bundle.network, bundle.shelters)
        validated = time.perf_counter()
        solve_lower_level(  # warm-up: builds the network's cached index structures
            bundle.network,
            bundle.shelters.open_ids(),
            bundle.scenarios[0],
            bundle.impedance,
            bundle.assignment,
        )
        self.bundle = bundle
        return {
            "total": time.perf_counter() - start,
            "load": loaded - start,
            "validate": validated - loaded,
        }


@dataclass
class StudyOutputs:
    rows: list
    reports: list
    text: str


class StudyTown(_TownWorkload):
    name = "study-town"
    panel = len(GA_SEED_PANEL)

    def ga_seed(self, index: int) -> int:
        return GA_SEED_PANEL[index % len(GA_SEED_PANEL)]

    def key(self, index: int) -> str:
        return f"ga-seed={self.ga_seed(index)}"

    def call(self, index, recorder):
        reports: list = []
        watch = Stopwatch()
        with watch.running():
            rows = run_scenarios(self.bundle, self.ga_seed(index), collect_reports=reports)
            with _span(recorder, "study.render_report"):
                text = render_report(rows, "json")
        return watch, StudyOutputs(rows, reports, text)

    def solves(self, outputs: StudyOutputs) -> int:
        return sum(
            1
            for report in outputs.reports
            if report is not None
            for record in report.evaluation_log
            if record.converged is not None
        )

    def digest(self, outputs: StudyOutputs) -> str:
        return sha256_json(
            [outputs.text]
            + [solve_report_to_dict(r) if r is not None else None for r in outputs.reports]
        )

    def check(self, outputs: StudyOutputs) -> Checked:
        bundle = self.bundle
        failures: list[str] = []
        failed_rows: set[int] = set()
        verdicts: list[Verdict] = []
        if rows_from_json(outputs.text) != outputs.rows:
            failures.append("rendered JSON report does not read back to the rows")
            failed_rows.update(range(len(outputs.rows)))
        plan = 0.0
        counts = {"chromosomes": 0.0, "distinct": 0.0, "nonconverged": 0.0}
        for i, (scenario, row, report) in enumerate(
            zip(bundle.scenarios, outputs.rows, outputs.reports)
        ):
            found: list[str] = []
            if row.error is not None or report is None or report.best_assignment is None:
                found.append(f"error row: {row.error}")
            else:
                result = report.best_assignment
                verdict = check_assignment(
                    bundle.network,
                    result,
                    scenario,
                    bundle.impedance.beta,
                    bundle.assignment.gap_tolerance,
                )
                verdicts.append(verdict)
                found += verdict.violations
                shelters = bundle.shelters.with_selection(report.best_selection)
                found += objective_mismatch(
                    "best",
                    report.best_penalized_objective,
                    penalized_objective(bundle.network, shelters, result, bundle.penalties),
                )
                found += objective_mismatch(
                    "best vs evaluation log",
                    report.best_penalized_objective,
                    min(r.penalized_objective for r in report.evaluation_log),
                )
                plan += report.best_penalized_objective
                counts["chromosomes"] += len(report.history) * bundle.ga.population_size
                counts["distinct"] += len(report.evaluation_log)
                counts["nonconverged"] += sum(
                    1 for r in report.evaluation_log if r.converged is False
                )
            if found:
                failed_rows.add(i)
                failures += [f"{scenario.name}: {f}" for f in found]
        return Checked(
            attempted=len(outputs.rows),
            failures=failures,
            failed=len(failed_rows),
            verdicts=verdicts,
            plan_objective=plan,
            aon_entries_max=max(
                (aon_tree_entries(r.best_assignment) for r in outputs.reports
                 if r is not None and r.best_assignment is not None),
                default=0,
            ),
            counts=counts,
        )

    def probe_state(self, outputs: StudyOutputs) -> ProbeState:
        return ProbeState(
            self.bundle.network,
            outputs.reports[-1].best_assignment,
            self.bundle.scenarios[-1],
            self.bundle.impedance,
        )


@dataclass
class EnumerationOutputs:
    report: object
    # (selection, result without aon_trees or None, aon_trees entries) per subset
    captured: list


class EnumerateTown(_TownWorkload):
    name = "enumerate-town"
    scenario_files = ("scenario_vacation.json",)

    def call(self, index, recorder):
        captured: list = []
        evaluate = enumeration.evaluate_individual

        # exhaustive_solve keeps only objectives; the checker needs each
        # subset's flows. The capture keeps them minus aon_trees, so the
        # run holds no more memory than the program itself does.
        def capture(selection, context):
            evaluation = evaluate(selection, context)
            result = evaluation.assignment
            if result is None:
                captured.append((tuple(selection), None, 0))
            else:
                captured.append(
                    (tuple(selection), replace(result, aon_trees=()), aon_tree_entries(result))
                )
            return evaluation

        bundle = self.bundle
        watch = Stopwatch()
        enumeration.evaluate_individual = capture
        try:
            with watch.running():
                report = exhaustive_solve(
                    bundle.network,
                    bundle.shelters,
                    bundle.scenarios[0],
                    bundle.impedance,
                    bundle.penalties,
                    bundle.assignment,
                )
        finally:
            enumeration.evaluate_individual = evaluate
        return watch, EnumerationOutputs(report, captured)

    def solves(self, outputs: EnumerationOutputs) -> int:
        return sum(1 for _, result, _ in outputs.captured if result is not None)

    def digest(self, outputs: EnumerationOutputs) -> str:
        return sha256_json(
            [enumeration_report_to_dict(outputs.report)]
            + [assignment_result_to_dict(r) if r is not None else None for _, r, _ in outputs.captured]
        )

    def check(self, outputs: EnumerationOutputs) -> Checked:
        bundle = self.bundle
        scenario = bundle.scenarios[0]
        rows = outputs.report.evaluations
        best = outputs.report.best_evaluation
        failures: list[str] = []
        failed: set[int] = set()
        verdicts: list[Verdict] = []
        if [row.selection for row in rows] != [sel for sel, _, _ in outputs.captured]:
            failures.append("reported subsets differ from the subsets evaluated")
            failed.update(range(len(rows)))
        for i, (selection, result, _) in enumerate(outputs.captured):
            if result is None:
                found = ["no assignment"]
            else:
                verdict = check_assignment(
                    bundle.network,
                    result,
                    scenario,
                    bundle.impedance.beta,
                    bundle.assignment.gap_tolerance,
                )
                verdicts.append(verdict)
                found = list(verdict.violations)
            if selection == best.selection and result is not None:
                found += objective_mismatch(
                    "best",
                    best.penalized_objective,
                    penalized_objective(
                        bundle.network,
                        bundle.shelters.with_selection(selection),
                        result,
                        bundle.penalties,
                    ),
                )
            if found:
                failed.add(i)
                failures += [f"{''.join(map(str, selection))}: {f}" for f in found]
        return Checked(
            attempted=len(rows),
            failures=failures,
            failed=len(failed),
            verdicts=verdicts,
            plan_objective=best.penalized_objective,
            aon_entries_max=max((n for _, _, n in outputs.captured), default=0),
        )

    def probe_state(self, outputs: EnumerationOutputs) -> ProbeState:
        all_open = tuple([1] * len(self.bundle.shelters.candidates))
        result = next(r for sel, r, _ in outputs.captured if sel == all_open)
        return ProbeState(self.bundle.network, result, self.bundle.scenarios[0], self.bundle.impedance)


@dataclass
class GridOutputs:
    # (open shelter ids, result without aon_trees, aon_trees entries) per solve
    solves: list


class GridM(Workload):
    name = "grid-m"
    size = GRID_SIZE

    def setup(self) -> dict[str, float]:
        start = time.perf_counter()
        instance = generate_grid(self.seed, **self.size)
        generated = time.perf_counter()
        _validate(instance.network, instance.shelters)
        validated = time.perf_counter()
        network = instance.network
        origin = network.origin_ids()[0]
        shortest_path_tree(network, {l.id: l.free_flow_min for l in network.links}, origin)
        self.instance = instance
        ids = [c.node_id for c in instance.shelters.candidates]
        rng = random.Random(f"grid-m/{self.seed}")
        # one shelter of each adjacent pair on the ring, so every subset
        # spreads its shelters around the town the same way
        self.subsets = [tuple(ids)] + [
            tuple(ids[2 * j + rng.randrange(2)] for j in range(len(ids) // 2))
            for _ in range(GRID_SUBSETS)
        ]
        return {
            "total": time.perf_counter() - start,
            "generate": generated - start,
            "validate": validated - generated,
        }

    def call(self, index, recorder):
        instance = self.instance
        solve = solve_lower_level
        if recorder is not None:
            solve = recorder.wrap("assignment.solve_lower_level", solve_lower_level)
        watch = Stopwatch()
        solved = []
        for open_ids in self.subsets:
            with watch.running():
                result = solve(
                    instance.network, open_ids, instance.demand, GRID_IMPEDANCE, GRID_CONFIG
                )
            # outside the timed region: keep the flows, drop the trees
            solved.append((open_ids, replace(result, aon_trees=()), aon_tree_entries(result)))
            del result
        return watch, GridOutputs(solved)

    def solves(self, outputs: GridOutputs) -> int:
        return len(outputs.solves)

    def digest(self, outputs: GridOutputs) -> str:
        return sha256_json(
            {"open": list(open_ids), "result": assignment_result_to_dict(result)}
            for open_ids, result, _ in outputs.solves
        )

    def check(self, outputs: GridOutputs) -> Checked:
        instance = self.instance
        failures: list[str] = []
        failed = 0
        verdicts: list[Verdict] = []
        plan = 0.0
        for open_ids, result, _ in outputs.solves:
            verdict = check_assignment(
                instance.network,
                result,
                instance.demand,
                GRID_IMPEDANCE.beta,
                GRID_CONFIG.gap_tolerance,
            )
            verdicts.append(verdict)
            if verdict.violations:
                failed += 1
                failures += [f"{len(open_ids)} open: {v}" for v in verdict.violations]
            plan += total_evacuation_time(instance.network, result)
        return Checked(
            attempted=len(outputs.solves),
            failures=failures,
            failed=failed,
            verdicts=verdicts,
            plan_objective=plan,
            aon_entries_max=max((n for _, _, n in outputs.solves), default=0),
        )

    def probe_state(self, outputs: GridOutputs) -> ProbeState:
        instance = self.instance
        return ProbeState(instance.network, outputs.solves[0][1], instance.demand, GRID_IMPEDANCE)


WORKLOADS = {w.name: w for w in (StudyTown, EnumerateTown, GridM)}
