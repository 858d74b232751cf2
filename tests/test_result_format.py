"""Pins the JSON and CSV result formats byte for byte.

Round-trip tests alone would still pass if a format drifted (a renamed
key, a selection written as a list, od_flows flattened), so each record
here is built by hand and its canonical JSON or CSV text is spelled out
in full.
"""

import json
import math
from dataclasses import replace

from shelterplan.assignment import AssignmentResult
from shelterplan.enumeration import EnumerationReport
from shelterplan.ga import Evaluation, GenerationStats, SolveReport
from shelterplan.io import (
    assignment_result_to_dict,
    canonical_json,
    enumeration_report_from_csv,
    enumeration_report_to_csv,
    enumeration_report_to_dict,
    from_jsonable,
    solve_report_to_dict,
    to_csv,
)
from shelterplan.study import ScenarioResultRow, render_report, rows_from_csv, rows_from_json

RESULT = AssignmentResult(
    link_flows={"L1": 600.0, "L2": 400.0},
    od_flows={("o", "s1"): 600.0, ("o", "s2"): 400.0, ("p", "s2"): 0.5},
    link_times={"L1": 5.25, "L2": 6.5},
    relative_gap=1.5e-05,
    iterations=2,
    converged=True,
    aon_trees=({"o": {"s1": "L1", "s2": "L2"}}, {"o": {"s1": "L1", "s2": "L2"}}),
)
# aon_trees is an in-memory diagnostic, not written
BARE_RESULT = replace(RESULT, aon_trees=())

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
    evaluation_log=(
        Evaluation((1, 1), 5750.0, True, 5750.0, 0.0, True),
        Evaluation((0, 0), math.inf, False, None, 0.0, None, "no open shelters"),
    ),
    best_assignment=RESULT,
)

REPORT_JSON = """\
{
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

HISTORY = (GenerationStats(0, 5750.0, math.inf, 1), GenerationStats(1, 5712.125, 5900.1, 2))

HISTORY_CSV = """\
generation,best_fitness,mean_fitness,feasible_count
0,5750.0,inf,1
1,5712.125,5900.1,2
"""

ENUMERATION = EnumerationReport(
    evaluations=(
        Evaluation((1, 0), 6000.25, False, 5900.0, 0.00010025, True),
        Evaluation((0, 1), math.inf, False, None, note="origin 'o' cannot reach any open shelter"),
        Evaluation((1, 1), 5750.0, True, 5750.0, 0.0, False),
    ),
    best=2,
)

ENUMERATION_JSON = """\
{
  "best": 2,
  "evaluations": [
    {
      "converged": true,
      "feasible": false,
      "note": "",
      "penalized_objective": 6000.25,
      "selection": "10",
      "total_evacuation_time": 5900.0,
      "total_excess": 0.00010025
    },
    {
      "converged": null,
      "feasible": false,
      "note": "origin 'o' cannot reach any open shelter",
      "penalized_objective": Infinity,
      "selection": "01",
      "total_evacuation_time": null,
      "total_excess": 0.0
    },
    {
      "converged": false,
      "feasible": true,
      "note": "",
      "penalized_objective": 5750.0,
      "selection": "11",
      "total_evacuation_time": 5750.0,
      "total_excess": 0.0
    }
  ]
}
"""

ENUMERATION_CSV = """\
selection,penalized_objective,feasible,total_evacuation_time,total_excess,converged,note,is_best
10,6000.25,False,5900.0,0.00010025,True,,False
01,inf,False,,0.0,,origin 'o' cannot reach any open shelter,False
11,5750.0,True,5750.0,0.0,False,,True
"""

# the enumeration JSON and CSV as written before evaluations carried
# total_excess, converged and note
OLD_ENUMERATION_JSON = """\
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

OLD_ENUMERATION_CSV = """\
selection,penalized_objective,feasible,total_evacuation_time,is_best
10,6000.25,False,5900.0,False
01,inf,False,,False
11,5750.0,True,5750.0,True
"""

ROWS = [
    ScenarioResultRow("night", {"s2": 400.5, "s1": 600.0}, 5750.0, 85.0, (1, 1)),
    ScenarioResultRow(
        "broken", {"s1": 0.0, "s2": 0.0}, 0.0, 0.0, (0, 0), False, "ValueError: boom"
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
    "total_time_veh_min": 0.0
  }
]
"""

ROWS_CSV = """\
scenario,s1,s2,total_time_veh_min,clearance_min,selection,feasible,error
night,600.0,400.5,5750.0,85.0,11,True,
broken,0.0,0.0,0.0,0.0,00,False,ValueError: boom
"""


def test_assignment_result_format_is_pinned():
    text = canonical_json(assignment_result_to_dict(RESULT))
    assert text == RESULT_JSON
    assert from_jsonable(AssignmentResult, json.loads(text)) == BARE_RESULT


def test_solve_report_format_is_pinned():
    text = canonical_json(solve_report_to_dict(REPORT))
    assert text == REPORT_JSON
    back = from_jsonable(SolveReport, json.loads(text))
    assert back == replace(REPORT, best_assignment=BARE_RESULT)
    assert back.evaluation_log[1].converged is None


def test_enumeration_report_format_is_pinned():
    text = canonical_json(enumeration_report_to_dict(ENUMERATION))
    assert text == ENUMERATION_JSON
    assert from_jsonable(EnumerationReport, json.loads(text)) == ENUMERATION


def test_scenario_rows_format_is_pinned():
    text = render_report(ROWS, "json")
    assert text == ROWS_JSON
    assert rows_from_json(text) == ROWS


def test_scenario_rows_csv_is_pinned():
    text = render_report(ROWS, "csv")
    assert text == ROWS_CSV
    assert rows_from_csv(text) == ROWS


def test_generation_history_csv_is_pinned():
    assert to_csv(HISTORY, GenerationStats) == HISTORY_CSV


def test_enumeration_csv_is_pinned():
    text = enumeration_report_to_csv(ENUMERATION)
    assert text == ENUMERATION_CSV
    assert enumeration_report_from_csv(text) == ENUMERATION


def test_enumeration_json_and_csv_without_the_added_keys_still_load():
    back = from_jsonable(EnumerationReport, json.loads(OLD_ENUMERATION_JSON))
    assert enumeration_report_from_csv(OLD_ENUMERATION_CSV) == back
    assert back == EnumerationReport(
        evaluations=(
            Evaluation((1, 0), 6000.25, False, 5900.0),
            Evaluation((0, 1), math.inf, False, None),
            Evaluation((1, 1), 5750.0, True, 5750.0),
        ),
        best=2,
    )
    assert [(e.total_excess, e.converged, e.note) for e in back.evaluations] == [(0.0, None, "")] * 3


def test_note_with_comma_quote_and_newline_survives_enumeration_csv():
    # node ids from a JSON network may hold any of these
    note = 'origin "a,b\nc" cannot reach any open shelter'
    report = replace(
        ENUMERATION,
        evaluations=(
            ENUMERATION.evaluations[0],
            replace(ENUMERATION.evaluations[1], note=note),
            ENUMERATION.evaluations[2],
        ),
    )
    back = enumeration_report_from_csv(enumeration_report_to_csv(report))
    assert back == report
    assert back.evaluations[1].note == note
