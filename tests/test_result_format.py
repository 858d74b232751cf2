"""Pins the JSON result formats byte for byte.

Round-trip tests alone would still pass if a format drifted (a renamed
key, a selection written as a list, od_flows flattened), so each record
here is built by hand and its canonical JSON text is spelled out in full.
"""

import json
import math
from dataclasses import replace

from shelterplan.assignment import AssignmentResult
from shelterplan.enumeration import EnumerationReport, SubsetEvaluation
from shelterplan.ga import EvaluationRecord, GenerationStats, SolveReport
from shelterplan.io import (
    assignment_result_from_dict,
    assignment_result_to_dict,
    canonical_json,
    enumeration_report_from_dict,
    enumeration_report_to_dict,
    solve_report_from_dict,
    solve_report_to_dict,
)
from shelterplan.study import ScenarioResultRow, render_report, rows_from_json

RESULT = AssignmentResult(
    link_flows={"L1": 600.0, "L2": 400.0},
    od_flows={("o", "s1"): 600.0, ("o", "s2"): 400.0, ("p", "s2"): 0.5},
    link_times={"L1": 5.25, "L2": 6.5},
    relative_gap=1.5e-05,
    iterations=2,
    converged=True,
    aon_trees=({"o": {"s1": "L1", "s2": "L2"}}, {"o": {"s1": "L1", "s2": "L2"}}),
    objective_history=(10.0, 9.5),
)
# aon_trees and objective_history are in-memory diagnostics, not written
BARE_RESULT = replace(RESULT, aon_trees=(), objective_history=())

RESULT_JSON = """\
{
  "converged": true,
  "iterations": 2,
  "link_flows": {
    "L1": 600.0,
    "L2": 400.0
  },
  "link_times": {
    "L1": 5.25,
    "L2": 6.5
  },
  "od_flows": {
    "o": {
      "s1": 600.0,
      "s2": 400.0
    },
    "p": {
      "s2": 0.5
    }
  },
  "relative_gap": 1.5e-05
}
"""

REPORT = SolveReport(
    best_selection=(1, 1),
    best_penalized_objective=5750.0,
    best_total_evacuation_time=5750.0,
    feasible=True,
    shelter_attraction={"s1": 600.0, "s2": 400.5},
    history=(GenerationStats(0, 5750.0, math.inf, 1),),
    assignment_diagnostics={"converged": True, "iterations": 2, "relative_gap": 1.5e-05},
    evaluation_log=(
        EvaluationRecord("11", 5750.0, True, 0.0, 5750.0, True),
        EvaluationRecord("00", math.inf, False, 0.0, None, None, "no open shelters"),
    ),
    best_assignment=RESULT,
)

REPORT_JSON = """\
{
  "assignment_diagnostics": {
    "converged": true,
    "iterations": 2,
    "relative_gap": 1.5e-05
  },
  "best_assignment": {
    "converged": true,
    "iterations": 2,
    "link_flows": {
      "L1": 600.0,
      "L2": 400.0
    },
    "link_times": {
      "L1": 5.25,
      "L2": 6.5
    },
    "od_flows": {
      "o": {
        "s1": 600.0,
        "s2": 400.0
      },
      "p": {
        "s2": 0.5
      }
    },
    "relative_gap": 1.5e-05
  },
  "best_penalized_objective": 5750.0,
  "best_selection": "11",
  "best_total_evacuation_time": 5750.0,
  "evaluation_log": [
    {
      "converged": true,
      "feasible": true,
      "note": "",
      "penalized_objective": 5750.0,
      "selection": "11",
      "total_evacuation_time": 5750.0,
      "total_excess": 0.0
    },
    {
      "converged": null,
      "feasible": false,
      "note": "no open shelters",
      "penalized_objective": Infinity,
      "selection": "00",
      "total_evacuation_time": null,
      "total_excess": 0.0
    }
  ],
  "feasible": true,
  "history": [
    {
      "best_fitness": 5750.0,
      "feasible_count": 1,
      "generation": 0,
      "mean_fitness": Infinity
    }
  ],
  "shelter_attraction": {
    "s1": 600.0,
    "s2": 400.5
  }
}
"""

ENUMERATION = EnumerationReport(
    evaluations=(
        SubsetEvaluation((1, 0), 6000.25, False, 5900.0),
        SubsetEvaluation((0, 1), math.inf, False, None),
        SubsetEvaluation((1, 1), 5750.0, True, 5750.0),
    ),
    best=2,
)

ENUMERATION_JSON = """\
{
  "best": 2,
  "evaluations": [
    {
      "feasible": false,
      "penalized_objective": 6000.25,
      "selection": "10",
      "total_evacuation_time": 5900.0
    },
    {
      "feasible": false,
      "penalized_objective": Infinity,
      "selection": "01",
      "total_evacuation_time": null
    },
    {
      "feasible": true,
      "penalized_objective": 5750.0,
      "selection": "11",
      "total_evacuation_time": 5750.0
    }
  ]
}
"""

ROWS = [
    ScenarioResultRow("night", {"s2": 400.5, "s1": 600.0}, 5750.0, 5750.0 / 60.0, 85.0, (1, 1)),
    ScenarioResultRow(
        "broken", {"s1": 0.0, "s2": 0.0}, 0.0, 0.0, 0.0, (0, 0), False, "ValueError: boom"
    ),
]

ROWS_JSON = """\
[
  {
    "attraction": {
      "s1": 600.0,
      "s2": 400.5
    },
    "clearance_min": 85.0,
    "error": null,
    "feasible": true,
    "scenario": "night",
    "selection": "11",
    "total_time_veh_h": 95.83333333333333,
    "total_time_veh_min": 5750.0
  },
  {
    "attraction": {
      "s1": 0.0,
      "s2": 0.0
    },
    "clearance_min": 0.0,
    "error": "ValueError: boom",
    "feasible": false,
    "scenario": "broken",
    "selection": "00",
    "total_time_veh_h": 0.0,
    "total_time_veh_min": 0.0
  }
]
"""


def test_assignment_result_format_is_pinned():
    text = canonical_json(assignment_result_to_dict(RESULT))
    assert text == RESULT_JSON
    assert assignment_result_from_dict(json.loads(text)) == BARE_RESULT


def test_solve_report_format_is_pinned():
    text = canonical_json(solve_report_to_dict(REPORT))
    assert text == REPORT_JSON
    back = solve_report_from_dict(json.loads(text))
    assert back == replace(REPORT, best_assignment=BARE_RESULT)
    assert back.evaluation_log[1].converged is None


def test_enumeration_report_format_is_pinned():
    text = canonical_json(enumeration_report_to_dict(ENUMERATION))
    assert text == ENUMERATION_JSON
    assert enumeration_report_from_dict(json.loads(text)) == ENUMERATION


def test_scenario_rows_format_is_pinned():
    text = render_report(ROWS, "json")
    assert text == ROWS_JSON
    assert rows_from_json(text) == ROWS
