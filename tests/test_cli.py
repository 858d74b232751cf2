import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shelterplan
from shelterplan.assignment import AssignmentResult
from shelterplan.cli import build_parser, main
from shelterplan.enumeration import EnumerationReport
from shelterplan.ga import SolveReport
from shelterplan.io import enumeration_report_from_csv, from_jsonable
from shelterplan.study import load_rows, rows_from_json

from conftest import DATA_DIR

TOY = DATA_DIR / "toy_two_shelters"
SANROCCO = DATA_DIR / "sanrocco_synthetic"


def fresh_interpreter_env():
    """os.environ with this package's source directory on PYTHONPATH."""
    src = str(Path(shelterplan.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def toy_args(*extra):
    return [
        "--network", str(TOY),
        "--shelters", str(TOY / "shelters.csv"),
        "--scenario", str(TOY / "scenario.json"),
        "--config", str(TOY / "config.txt"),
        *extra,
    ]


def test_validate_ok(capsys):
    assert main(["validate", "--network", str(TOY), "--shelters", str(TOY / "shelters.csv")]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_findings(tmp_path, capsys):
    root = tmp_path / "net"
    root.mkdir()
    (root / "nodes.csv").write_text("id,kind\no,origin\ns,shelter-candidate\n")
    (root / "links.csv").write_text(
        "id,from,to,capacity_vph,free_flow_min\nL,s,o,1000,1.0\n"
    )
    assert main(["validate", "--network", str(root)]) == 1
    out = capsys.readouterr().out
    assert "origin-no-exit" in out and "origin-isolated" in out


def test_validate_bad_file_exits_1(tmp_path, capsys):
    assert main(["validate", "--network", str(tmp_path / "missing")]) == 1
    assert "error:" in capsys.readouterr().err


def test_duplicate_shelter_ids_exit_1_naming_the_file(tmp_path, capsys):
    shelters = tmp_path / "shelters.csv"
    shelters.write_text("node_id,capacity_vph\ns1,800\ns2,1000\ns1,800\n")
    message = f"error: {shelters}:4: shelter candidate 's1' already listed on line 2\n"
    assert main(["validate", "--network", str(TOY), "--shelters", str(shelters)]) == 1
    assert capsys.readouterr().err == message
    args = toy_args("--seed", "0")
    args[args.index("--shelters") + 1] = str(shelters)
    assert main(["solve", *args]) == 1
    assert capsys.readouterr().err == message


def test_a_production_too_large_for_a_float_exits_1(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"name": "x", "productions": {"o": 1%s}}' % ("0" * 400))
    args = toy_args()
    args[args.index("--scenario") + 1] = str(scenario)
    assert main(["assign", *args]) == 1
    message = "DemandScenario.productions['o']: int too large to convert to float"
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"


@pytest.mark.parametrize("capacity, message", [
    ('"1000"', "link 0: capacity_vph: expected a number, got '1000'"),
    ("1" + "0" * 4399, "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["string", "4400-digit-integer"])
def test_a_network_json_capacity_that_is_not_a_json_number_exits_1(tmp_path, capsys, capacity, message):
    network = tmp_path / "net.json"
    network.write_text(
        '{"nodes": [{"id": "o", "kind": "origin"}, {"id": "s", "kind": "shelter-candidate"}],'
        ' "links": [{"id": "L", "from": "o", "to": "s", "capacity_vph": %s,'
        ' "free_flow_min": 2.0}]}' % capacity
    )
    assert main(["validate", "--network", str(network)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {network}: ") and message in err


def test_assign_writes_reloadable_result(tmp_path):
    out = tmp_path / "assignment.json"
    assert main(["assign", *toy_args("--out", str(out))]) == 0
    result = from_jsonable(AssignmentResult, json.loads(out.read_text()))
    assert result.converged
    assert sum(result.od_flows.values()) == pytest.approx(1000.0)


def test_assign_with_selection(tmp_path):
    out = tmp_path / "assignment.json"
    assert main(["assign", *toy_args("--select", "10", "--out", str(out))]) == 0
    result = from_jsonable(AssignmentResult, json.loads(out.read_text()))
    assert set(result.od_flows) == {("o", "s1")}


def test_assign_infeasible_selection_exits_2(tmp_path, capsys):
    # a selection whose only open shelter is unreachable
    root = tmp_path / "net"
    root.mkdir()
    (root / "nodes.csv").write_text(
        "id,kind\no,origin\ns1,shelter-candidate\nx,intermediate\ns2,shelter-candidate\n"
    )
    (root / "links.csv").write_text(
        "id,from,to,capacity_vph,free_flow_min\nL1,o,s1,1000,1.0\nL2,x,s2,1000,1.0\n"
    )
    shelters = tmp_path / "shelters.csv"
    shelters.write_text("node_id,capacity_vph\ns1,100\ns2,100\n")
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"name": "s", "productions": {"o": 10}}))
    code = main([
        "assign", "--network", str(root), "--shelters", str(shelters),
        "--scenario", str(scenario), "--select", "01",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["solve", *toy_args("--seed", "7", "--out", str(out))]) == 0
    report = from_jsonable(SolveReport, json.loads(out.read_text()))
    assert report.best_selection in {(1, 1), (1, 0), (0, 1)}
    assert report.feasible


def test_solve_is_seed_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["solve", *toy_args("--seed", "3", "--out", str(first))]) == 0
    assert main(["solve", *toy_args("--seed", "3", "--out", str(second))]) == 0
    assert first.read_text() == second.read_text()


def test_solver_subcommands_take_only_their_documented_options():
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    problem = ["--config", "--help", "--network", "--out", "--scenario", "--shelters", "-h"]
    expected = {
        "solve": problem + ["--seed"],
        "enumerate": problem + ["--format"],
        "run": problem + ["--format", "--seed"],
    }
    for name, options in expected.items():
        found = [opt for action in subcommands[name]._actions for opt in action.option_strings]
        assert sorted(found) == sorted(options), name


def test_enumerate_json_and_csv(tmp_path):
    json_out = tmp_path / "enum.json"
    csv_out = tmp_path / "enum.csv"
    assert main(["enumerate", *toy_args("--out", str(json_out))]) == 0
    assert main(["enumerate", *toy_args("--format", "csv", "--out", str(csv_out))]) == 0
    from_json = from_jsonable(EnumerationReport, json.loads(json_out.read_text()))
    from_csv = enumeration_report_from_csv(csv_out.read_text())
    assert from_json == from_csv
    assert len(from_json.evaluations) == 3


def test_run_and_report_round_trip(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    scenarios = sorted(SANROCCO.glob("scenario_*.json"))
    args = [
        "run", "--network", str(SANROCCO),
        "--shelters", str(SANROCCO / "shelters.csv"),
        *[arg for s in scenarios for arg in ("--scenario", str(s))],
        "--config", str(tmp_path / "quick.txt"),
        "--seed", "1", "--format", "json", "--out", str(rows_path),
    ]
    (tmp_path / "quick.txt").write_text(
        "impedance.beta = 10\n"
        "assignment.step_rule = exact-line-search\n"
        "assignment.gap_tolerance = 1e-4\n"
        "assignment.max_iterations = 200\n"
        "ga.population_size = 6\n"
        "ga.max_generations = 4\n"
    )
    assert main(args) == 0
    rows = load_rows(rows_path)
    assert [r.scenario for r in rows] == ["day", "night", "vacation", "weekend"]
    assert all(r.error is None for r in rows)

    assert main(["report", str(rows_path), "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert "day" in table and "clearance est." in table

    csv_out = tmp_path / "rows.csv"
    assert main(["report", str(rows_path), "--format", "csv", "--out", str(csv_out)]) == 0
    assert load_rows(csv_out) == rows


def test_run_prints_table_to_stdout(capsys):
    args = [
        "run", "--network", str(TOY),
        "--shelters", str(TOY / "shelters.csv"),
        "--scenario", str(TOY / "scenario.json"),
        "--config", str(TOY / "config.txt"),
        "--seed", "0",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario") and "base" in out


def test_run_exits_2_when_a_scenario_fails_with_an_empty_message(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("shelterplan.study.ga_solve", out_of_memory)
    assert main(["run", *toy_args("--seed", "0")]) == 2
    assert "failed: MemoryError" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["ga.elitism_count", "ga.reproduction_rate", "ga.mutation_probability"])
def test_solve_with_a_fixed_ga_parameter_in_the_config_exits_1(tmp_path, capsys, key):
    text = (TOY / "config.txt").read_text()
    config = tmp_path / "config.txt"
    config.write_text(text + f"{key} = 1\n")
    args = toy_args("--seed", "0")
    args[args.index("--config") + 1] = str(config)
    assert main(["solve", *args]) == 1
    line = len(text.splitlines()) + 1
    assert f"error: {config}:{line}: unknown config key '{key}'" in capsys.readouterr().err


GOOD_ROW = {
    "scenario": "night", "attraction": {"s1": 600.0, "s2": 0.0}, "total_time_veh_min": 60.0,
    "clearance_min": 10.0, "selection": "10", "feasible": True, "error": None,
}


@pytest.mark.parametrize("name, content, message", [
    ("feasible.json", [dict(GOOD_ROW, feasible="false")], "feasible: expected true or false"),
    ("total.json", [dict(GOOD_ROW, total_time_veh_min="60")], "total_time_veh_min: expected a number"),
    ("selection.json", [dict(GOOD_ROW, selection=5)], "selection: expected a string"),
    ("list_of_int.json", [5], "expected a ScenarioResultRow object, got 5"),
    ("object.json", {}, "expected a list, got {}"),
    ("missing.json", None, "No such file"),
    ("misspelled.json",
     [{**{k: v for k, v in GOOD_ROW.items() if k != "feasible"}, "feasable": False}],
     "ScenarioResultRow: unknown key 'feasable'"),
])
def test_report_on_a_bad_rows_file_exits_2_without_a_traceback(tmp_path, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_text(json.dumps(content))
    # the console script's entry point, in a fresh interpreter
    done = subprocess.run(
        [sys.executable, "-m", "shelterplan.cli", "report", str(path)],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {path}: ") and done.stderr.count("\n") == 1
    assert message in done.stderr


# `run --seed 7` rows of toy_two_origins as written while the rows still held
# total_time_veh_h, with that value edited by hand to disagree with veh-min
OLD_ROWS = {
    "rows.json": """\
[
  {
    "attraction": {
      "s1": 577.771917207217,
      "s2": 922.2280827927829
    },
    "clearance_min": 65.0,
    "error": null,
    "feasible": true,
    "scenario": "base",
    "selection": "11",
    "total_time_veh_h": 1.0,
    "total_time_veh_min": 5520.778937830722
  }
]
""",
    "rows.csv": """\
scenario,s1,s2,total_time_veh_min,total_time_veh_h,clearance_min,selection,feasible,error
base,577.771917207217,922.2280827927829,5520.778937830722,1.0,65.0,11,True,
""",
}
OLD_ROWS_TABLE = """\
scenario           s1           s2  total time (veh-min)  total time (veh-h)  clearance est. (min)  selection
--------  -----------  -----------  --------------------  ------------------  --------------------  ---------
    base  577.7719172  922.2280828                5520.8               92.01                    65         11
(attraction rates in vph; clearance time is a model-defined estimate)
"""


@pytest.mark.parametrize("name", sorted(OLD_ROWS))
def test_report_reads_rows_written_with_total_time_veh_h(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(OLD_ROWS[name])
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out == OLD_ROWS_TABLE  # veh-h from veh-min, not the stored 1.0


def test_importing_the_package_leaves_scipy_unloaded():
    # importing scipy.sparse.csgraph costs about 33 MB of peak memory
    code = (
        "import sys, shelterplan; "
        "print('shelterplan.network' in sys.modules, 'scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert (done.returncode, done.stdout) == (0, "True False\n")
