import json
import math

import pytest

from shelterplan.assignment import AssignmentResult
from shelterplan.io import ProblemBundle
from shelterplan.problem import (
    AssignmentConfig,
    CandidateShelter,
    DemandScenario,
    GAConfig,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
)
from shelterplan.study import (
    ScenarioResultRow,
    clearance_time,
    load_rows,
    render_report,
    rows_from_csv,
    rows_from_json,
    run_scenarios,
)

from conftest import load_instance, make_network

SHELTER_IDS = [f"s{i}" for i in range(1, 9)]

# the classic four-scenario results table used as a rendering fixture
FIXTURE = [
    ("1", [0, 260, 340, 60, 135, 0, 335, 170], 891.5, 80, (0, 1, 1, 1, 1, 0, 1, 1)),
    ("2", [0, 412, 493, 48, 236, 0, 616, 425], 1494.0, 80, (0, 1, 1, 1, 1, 0, 1, 1)),
    ("3", [0, 390, 575, 90, 203, 0, 605, 340], 1501.1, 80, (0, 1, 1, 1, 1, 0, 1, 1)),
    ("4", [885, 910, 0, 385, 473, 0, 967, 425], 2984.4, 85, (1, 1, 0, 1, 1, 0, 1, 1)),
]


def fixture_rows():
    rows = []
    for name, rates, total_min, clearance, selection in FIXTURE:
        rows.append(
            ScenarioResultRow(
                scenario=name,
                attraction={sid: float(r) for sid, r in zip(SHELTER_IDS, rates)},
                total_time_veh_min=float(total_min),
                clearance_min=float(clearance),
                selection=selection,
            )
        )
    return rows


# ---- clearance time ---------------------------------------------------------


def one_shelter_setup(attracted, route_minutes=10.0, shelter_capacity=1000.0,
                      converged=True):
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("L", "o", "s", 1000, route_minutes)],
    )
    shelters = ShelterSet(candidates=(CandidateShelter("s", shelter_capacity),))
    result = AssignmentResult(
        link_flows={"L": attracted},
        od_flows={("o", "s"): attracted},
        link_times={"L": route_minutes},
        relative_gap=0.0,
        iterations=1,
        converged=converged,
    )
    demand = DemandScenario("t", {"o": attracted})
    return net, shelters, result, demand


def test_clearance_zero_demand_is_zero():
    net, shelters, result, _ = one_shelter_setup(0.0)
    empty = DemandScenario("none", {"o": 0.0})
    assert clearance_time(result, net, shelters, empty) == 0.0


def test_clearance_discharge_plus_access():
    net, shelters, result, demand = one_shelter_setup(1000.0, route_minutes=10.0)
    assert clearance_time(result, net, shelters, demand) == 70.0


def test_clearance_rounds_up_to_five_minutes():
    net, shelters, result, demand = one_shelter_setup(1001.0, route_minutes=10.0)
    assert clearance_time(result, net, shelters, demand) == 75.0


def test_clearance_monotone_in_attracted_demand():
    net, shelters, single, demand = one_shelter_setup(1000.0)
    _, _, double, demand2 = one_shelter_setup(2000.0)
    assert clearance_time(double, net, shelters, demand2) >= clearance_time(
        single, net, shelters, demand
    )


def test_clearance_warns_when_not_converged():
    net, shelters, result, demand = one_shelter_setup(500.0, converged=False)
    with pytest.warns(UserWarning, match="non-converged"):
        clearance_time(result, net, shelters, demand)


def test_clearance_uses_binding_inflow_capacity():
    # two inbound links of 300 vph each beat the 1000 vph shelter capacity
    net = make_network(
        [("o", "origin"), ("m", "intermediate"), ("s", "shelter-candidate")],
        [("L1", "o", "m", 600, 2.0), ("L2", "m", "s", 300, 2.0), ("L3", "o", "s", 300, 4.0)],
    )
    shelters = ShelterSet(candidates=(CandidateShelter("s", 1000.0),))
    result = AssignmentResult(
        link_flows={"L1": 300.0, "L2": 300.0, "L3": 300.0},
        od_flows={("o", "s"): 600.0},
        link_times={"L1": 2.0, "L2": 2.0, "L3": 4.0},
        relative_gap=0.0,
        iterations=1,
        converged=True,
    )
    demand = DemandScenario("t", {"o": 600.0})
    # discharge = 60 * 600 / min(1000, 600) = 60; access = 4 minutes -> 64 -> 65
    assert clearance_time(result, net, shelters, demand) == 65.0


# ---- row invariants ---------------------------------------------------------


def test_unselected_shelter_with_attraction_is_rejected():
    with pytest.raises(ValueError, match="unselected"):
        ScenarioResultRow(
            scenario="x",
            attraction={"s1": 5.0, "s2": 0.0},
            total_time_veh_min=1.0,
            clearance_min=5.0,
            selection=(0, 1),
        )


def test_selection_length_must_match_shelters():
    with pytest.raises(ValueError, match="length"):
        ScenarioResultRow(
            scenario="x",
            attraction={"s1": 5.0},
            total_time_veh_min=1.0,
            clearance_min=5.0,
            selection=(1, 1),
        )


# ---- rendering --------------------------------------------------------------


def test_table_reproduces_fixture_values():
    text = render_report(fixture_rows(), "table")
    for _, rates, total_min, clearance, _ in FIXTURE:
        for rate in rates:
            assert f" {rate}" in text or f" {rate} " in text
        assert f"{total_min:.1f}" in text
        assert f" {clearance}" in text
    # headline row sanity: scenario 1 appears with its travel metric
    line_one = next(line for line in text.splitlines() if line.strip().startswith("1 "))
    assert "891.5" in line_one and "80" in line_one


def test_csv_round_trip_is_lossless():
    rows = fixture_rows()
    text = render_report(rows, "csv")
    back = rows_from_csv(text)
    assert back == rows
    for row, original in zip(back, rows):
        assert row.total_time_veh_min == original.total_time_veh_min
        assert row.clearance_min == original.clearance_min
        assert row.attraction == original.attraction


def test_json_round_trip_is_byte_identical():
    rows = fixture_rows()
    text = render_report(rows, "json")
    assert render_report(rows_from_json(text), "json") == text


def test_rendering_is_pure():
    rows = fixture_rows()
    assert render_report(rows, "table") == render_report(list(rows), "table")


def test_single_row_table_has_header_and_one_data_row():
    text = render_report(fixture_rows()[:1], "table")
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) == 4  # header, separator, one row, footnote
    assert lines[0].startswith("scenario")


def test_csv_header_is_checked():
    lines = render_report(fixture_rows(), "csv").splitlines(keepends=True)
    swapped = lines[0].replace("selection,feasible", "feasible,selection")
    with pytest.raises(ValueError, match="unrecognized"):
        rows_from_csv(swapped + "".join(lines[1:]))
    # a column whose field has no default may not be left out
    with pytest.raises(ValueError, match="scenario"):
        rows_from_csv("".join(line.split(",", 1)[1] for line in lines))


def test_csv_cell_over_the_reader_limit_is_a_value_error():
    header = render_report(fixture_rows(), "csv").splitlines()[0]
    with pytest.raises(ValueError, match="field larger than field limit"):
        rows_from_csv(header + "\n" + "x" * 200_000 + "\n")


def test_json_row_without_a_required_key_is_rejected():
    doc = json.loads(render_report(fixture_rows(), "json"))
    del doc[0]["scenario"]
    with pytest.raises(ValueError, match="scenario"):
        rows_from_json(json.dumps(doc))


def test_error_rows_render_the_error():
    row = ScenarioResultRow(
        scenario="broken",
        attraction={"s1": 0.0},
        total_time_veh_min=0.0,
        clearance_min=0.0,
        selection=(0,),
        feasible=False,
        error="solver exploded",
    )
    assert "ERROR: solver exploded" in render_report([row], "table")
    back = rows_from_csv(render_report([row], "csv"))
    assert back[0].error == "solver exploded"


def test_render_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one row"):
        render_report([], "table")
    with pytest.raises(ValueError, match="format"):
        render_report(fixture_rows(), "yaml")
    mixed = fixture_rows()[:1] + [
        ScenarioResultRow(
            scenario="other",
            attraction={"x1": 0.0},
            total_time_veh_min=0.0,
                clearance_min=0.0,
            selection=(1,),
        )
    ]
    with pytest.raises(ValueError, match="same shelters"):
        render_report(mixed, "csv")


def test_load_rows_detects_format(tmp_path):
    rows = fixture_rows()
    json_path = tmp_path / "rows.json"
    json_path.write_text(render_report(rows, "json"))
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(render_report(rows, "csv"))
    assert load_rows(json_path) == rows
    assert load_rows(csv_path) == rows
    bad = tmp_path / "rows.txt"
    bad.write_text("nope")
    with pytest.raises(ValueError, match="expected"):
        load_rows(bad)


# ---- run_scenarios ----------------------------------------------------------


def double_scenario_bundle():
    bundle = load_instance("toy_two_shelters")
    second = DemandScenario("surge", {"o": 1200.0})
    return ProblemBundle(
        network=bundle.network,
        shelters=bundle.shelters,
        scenarios=(bundle.scenarios[0], second),
        impedance=bundle.impedance,
        penalties=bundle.penalties,
        ga=GAConfig(max_generations=6, population_size=6),
        assignment=bundle.assignment,
    )


def test_rows_follow_scenario_order_and_are_deterministic():
    bundle = double_scenario_bundle()
    first = run_scenarios(bundle, seed=3)
    second = run_scenarios(bundle, seed=3)
    assert [r.scenario for r in first] == ["base", "surge"]
    assert first == second


def test_attraction_sums_to_scenario_demand():
    bundle = double_scenario_bundle()
    for row, scenario in zip(run_scenarios(bundle, seed=1), bundle.scenarios):
        assert sum(row.attraction.values()) == pytest.approx(
            scenario.total_vehicles, rel=1e-6
        )


def test_failed_scenario_is_recorded_and_others_still_run():
    toy = load_instance("toy_two_shelters")
    broken_net = make_network(
        [("o", "origin"), ("o2", "origin"),
         ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o", "s1", 800, 5.0), ("L2", "o", "s2", 1000, 6.5)],
    )  # o2 has no outgoing link: validation fails inside ga_solve
    bundle = ProblemBundle(
        network=broken_net,
        shelters=toy.shelters,
        scenarios=(DemandScenario("bad", {"o": 10.0, "o2": 10.0}),),
        impedance=toy.impedance,
        penalties=toy.penalties,
        ga=GAConfig(max_generations=3, population_size=4),
        assignment=toy.assignment,
    )
    rows = run_scenarios(bundle, seed=0)
    assert len(rows) == 1
    assert rows[0].error is not None
    assert not rows[0].feasible


def test_reports_can_be_collected():
    bundle = double_scenario_bundle()
    reports = []
    rows = run_scenarios(bundle, seed=2, collect_reports=reports)
    assert len(reports) == len(rows) == 2
    assert reports[0] is not None and reports[0].best_selection in {(1, 1), (1, 0), (0, 1)}


def _raise_memory_error(*args, **kwargs):
    raise MemoryError()  # an exception whose message is empty


def test_failure_with_empty_message_stays_an_error_row(monkeypatch):
    monkeypatch.setattr("shelterplan.study.ga_solve", _raise_memory_error)
    reports = []
    rows = run_scenarios(double_scenario_bundle(), seed=0, collect_reports=reports)
    assert [row.error for row in rows] == ["MemoryError: "] * 2
    assert reports == [None, None]
    assert rows_from_csv(render_report(rows, "csv")) == rows
    assert rows_from_json(render_report(rows, "json")) == rows
