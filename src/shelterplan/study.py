"""Multi-scenario study runner and report rendering.

One independent bi-level solve per demand scenario, summarized in rows
that mirror the classic results table: per-shelter attraction rates, the
total travel time in vehicle-minutes (the table adds vehicle-hours), and a
clearance time estimate. The clearance figure is model-defined (see clearance_time)
and flagged as an estimate in all renderings.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .assignment import AssignmentResult
from .ga import SolveReport, ga_solve
from .io import ProblemBundle, canonical_json, from_csv, from_jsonable, to_csv, to_jsonable
from .network import Network, shortest_path_tree
from .problem import DemandScenario, ShelterSet, selection_to_string

CLEARANCE_ROUND_MIN = 5.0


def clearance_time(
    result: AssignmentResult,
    network: Network,
    shelters: ShelterSet,
    demand: DemandScenario,
) -> float:
    """Estimated minutes until the last evacuee is inside a shelter.

    Model-defined estimate: for each open shelter, the time to discharge
    its attracted vehicles through the tighter of shelter capacity and
    total inbound link capacity, plus the worst equilibrium travel time
    among origins actually sending flow there; the maximum over shelters
    is rounded up to the nearest 5 minutes. Warns when the assignment did
    not converge.
    """
    if demand.total_vehicles == 0:
        return 0.0
    if not result.converged:
        warnings.warn("clearance time estimated from a non-converged assignment", stacklevel=2)
    open_ids = shelters.open_ids()
    attracted = {sid: 0.0 for sid in open_ids}
    senders: dict[str, list[str]] = {sid: [] for sid in open_ids}
    for (origin, shelter), flow in result.od_flows.items():
        if shelter in attracted and flow > 0:
            attracted[shelter] += flow
            senders[shelter].append(origin)
    origin_costs: dict[str, dict[str, float]] = {}
    for origin in sorted({o for lst in senders.values() for o in lst}):
        origin_costs[origin] = shortest_path_tree(network, result.link_times, origin).costs
    worst = 0.0
    for sid in open_ids:
        if attracted[sid] <= 0:
            continue
        incoming = network.reverse_adjacency[network.node_index[sid]]
        inbound = sum(network.capacity_array[li] for li, _ in incoming)
        discharge_capacity = min(shelters.capacity_of(sid), inbound) if inbound > 0 else (
            shelters.capacity_of(sid)
        )
        discharge_min = 60.0 * attracted[sid] / discharge_capacity
        access_min = max(origin_costs[origin][sid] for origin in senders[sid])
        worst = max(worst, discharge_min + access_min)
    return math.ceil(round(worst, 9) / CLEARANCE_ROUND_MIN) * CLEARANCE_ROUND_MIN


@dataclass(frozen=True)
class ScenarioResultRow:
    """One results-table row. Attraction is keyed by shelter node id
    (every candidate, zero when unselected); selection bits align with the
    attraction keys in sorted order."""

    scenario: str
    attraction: dict[str, float]
    total_time_veh_min: float
    clearance_min: float
    selection: tuple[int, ...]
    feasible: bool = True
    error: Optional[str] = None

    def __post_init__(self) -> None:
        ordered = {sid: float(self.attraction[sid]) for sid in sorted(self.attraction)}
        object.__setattr__(self, "attraction", ordered)
        if len(self.selection) != len(ordered):
            raise ValueError("selection length must match the number of shelters")
        if self.error is None:
            for bit, (sid, rate) in zip(self.selection, ordered.items()):
                if not bit and rate != 0.0:
                    raise ValueError(f"unselected shelter {sid!r} has nonzero attraction {rate}")


def _error_row(scenario: DemandScenario, shelters: ShelterSet, error: str) -> ScenarioResultRow:
    """The row of a scenario that failed: nothing selected, nothing attracted."""
    order = sorted(c.node_id for c in shelters.candidates)
    return ScenarioResultRow(
        scenario=scenario.name,
        attraction={sid: 0.0 for sid in order},
        total_time_veh_min=0.0,
        clearance_min=0.0,
        selection=(0,) * len(order),
        feasible=False,
        error=error,
    )


def _row_from_report(
    scenario: DemandScenario,
    shelters: ShelterSet,
    network: Network,
    report: SolveReport,
) -> ScenarioResultRow:
    if report.best_assignment is None:
        return _error_row(
            scenario,
            shelters,
            "no evaluable selection (every choice left some origin without a shelter)",
        )
    order = sorted(c.node_id for c in shelters.candidates)
    by_id = {c.node_id: bit for c, bit in zip(shelters.candidates, report.best_selection)}
    clearance = clearance_time(
        report.best_assignment,
        network,
        shelters.with_selection(report.best_selection),
        scenario,
    )
    return ScenarioResultRow(
        scenario=scenario.name,
        attraction={sid: report.shelter_attraction.get(sid, 0.0) for sid in order},
        total_time_veh_min=report.best_total_evacuation_time,
        clearance_min=clearance,
        selection=tuple(by_id[sid] for sid in order),
        feasible=report.feasible,
    )


def run_scenarios(
    bundle: ProblemBundle,
    seed: int,
    *,
    collect_reports: Optional[list[SolveReport]] = None,
) -> list[ScenarioResultRow]:
    """One independent bi-level solve per scenario, rows in input order.

    Scenario k runs with rng seed `seed + k`, so a study is reproducible
    from a single seed. A failing scenario yields a row whose error names
    the exception type and message, while the remaining scenarios still
    run. `collect_reports`, when given, receives the full SolveReport per
    scenario in the same order (None for a scenario that raised).
    """
    rows = []
    for index, scenario in enumerate(bundle.scenarios):
        try:
            report = ga_solve(
                bundle.network,
                bundle.shelters,
                scenario,
                bundle.impedance,
                bundle.penalties,
                replace(bundle.ga, rng_seed=seed + index),
                bundle.assignment,
            )
            row = _row_from_report(scenario, bundle.shelters, bundle.network, report)
        except Exception as exc:  # the row records the failure
            report = None
            row = _error_row(scenario, bundle.shelters, f"{type(exc).__name__}: {exc}")
        rows.append(row)
        if collect_reports is not None:
            collect_reports.append(report)
    return rows


# ---- rendering -----------------------------------------------------------

REPORT_FORMATS = ("table", "csv", "json")


def _fmt_quantity(value: float) -> str:
    """Integer-valued floats render without a decimal point."""
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return format(value, ".10g")


def render_report(rows: Sequence[ScenarioResultRow], format: str = "table") -> str:
    """Render result rows as a plain table, CSV, or canonical JSON.

    Pure function of the rows: identical input renders identical bytes.
    CSV and JSON round-trip losslessly through rows_from_csv /
    rows_from_json; the table is a display format.
    """
    if not rows:
        raise ValueError("render_report needs at least one row")
    if format not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}")
    shelter_ids = list(rows[0].attraction)
    for row in rows:
        if list(row.attraction) != shelter_ids:
            raise ValueError("all rows must cover the same shelters")

    if format == "json":
        return canonical_json([to_jsonable(row) for row in rows])

    if format == "csv":
        return to_csv(rows, ScenarioResultRow)

    header = [
        "scenario",
        *shelter_ids,
        "total time (veh-min)",
        "total time (veh-h)",
        "clearance est. (min)",
        "selection",
    ]
    body: list[list[str]] = []
    for row in rows:
        if row.error is not None:
            body.append([row.scenario, *([""] * len(shelter_ids)), "", "", "", f"ERROR: {row.error}"])
            continue
        body.append(
            [
                row.scenario,
                *[_fmt_quantity(row.attraction[sid]) for sid in shelter_ids],
                f"{row.total_time_veh_min:.1f}",
                f"{row.total_time_veh_min / 60.0:.2f}",
                _fmt_quantity(row.clearance_min),
                selection_to_string(row.selection),
            ]
        )
    widths = [max(len(header[c]), *(len(r[c]) for r in body)) for c in range(len(header))]
    lines = [
        "  ".join(header[c].rjust(widths[c]) for c in range(len(header))).rstrip(),
        "  ".join("-" * widths[c] for c in range(len(header))).rstrip(),
    ]
    for r in body:
        lines.append("  ".join(r[c].rjust(widths[c]) for c in range(len(header))).rstrip())
    lines.append("(attraction rates in vph; clearance time is a model-defined estimate)")
    return "\n".join(lines) + "\n"


def rows_from_json(text: str) -> list[ScenarioResultRow]:
    return list(from_jsonable(tuple[ScenarioResultRow, ...], json.loads(text)))


def rows_from_csv(text: str) -> list[ScenarioResultRow]:
    return from_csv(ScenarioResultRow, text)


def load_rows(path) -> list[ScenarioResultRow]:
    """Load stored result rows from a .json or .csv file; a file that
    cannot be read or does not hold rows raises ValueError naming it."""
    p = Path(path)
    readers = {".json": rows_from_json, ".csv": rows_from_csv}
    if p.suffix not in readers:
        raise ValueError(f"{p}: expected a .json or .csv results file")
    try:
        return readers[p.suffix](p.read_text())
    except (OSError, RecursionError, ValueError) as exc:
        raise ValueError(f"{p}: {exc}") from None
