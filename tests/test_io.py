import importlib.util
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from shelterplan.assignment import AssignmentResult, solve_lower_level
from shelterplan.enumeration import EnumerationReport, exhaustive_solve
from shelterplan.ga import (
    ELITES,
    MUTATION_PROBABILITY,
    REPRODUCTION_RATE,
    SolveReport,
    ga_solve,
)
from shelterplan.io import (
    _CONFIG_SCHEMA,
    ProblemLoadError,
    assignment_result_to_dict,
    canonical_json,
    enumeration_report_from_csv,
    enumeration_report_to_csv,
    enumeration_report_to_dict,
    from_jsonable,
    load_config,
    load_network,
    load_problem,
    load_scenario,
    load_shelters,
    minutes_from_length,
    parse_config_text,
    solve_report_to_dict,
    to_jsonable,
    write_text_atomic,
)
from shelterplan.problem import GAConfig
from shelterplan.study import ScenarioResultRow

from conftest import DATA_DIR, load_instance
from test_result_format import ENUMERATION, REPORT, RESULT, ROWS

SANROCCO = DATA_DIR / "sanrocco_synthetic"


def write_network_dir(tmp_path, nodes_text, links_text):
    root = tmp_path / "net"
    root.mkdir()
    (root / "nodes.csv").write_text(nodes_text)
    (root / "links.csv").write_text(links_text)
    return root


BASIC_NODES = "id,kind\no,origin\ns,shelter-candidate\n"
BASIC_LINKS = "id,from,to,capacity_vph,free_flow_min,max_saturation\nL,o,s,1000,2.0,1.0\n"


# ---- network loading -------------------------------------------------------


def test_load_network_from_csv_directory(tmp_path):
    net = load_network(write_network_dir(tmp_path, BASIC_NODES, BASIC_LINKS))
    assert [n.id for n in net.nodes] == ["o", "s"]
    assert net.links[0].capacity_vph == 1000.0


def test_load_network_from_json(tmp_path):
    doc = {
        "nodes": [{"id": "o", "kind": "origin"}, {"id": "s", "kind": "shelter-candidate"}],
        "links": [
            {"id": "L", "from": "o", "to": "s", "capacity_vph": 1000,
             "free_flow_min": 2.0, "max_saturation": 1.0}
        ],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    from_json = load_network(path)
    from_csv = load_network(write_network_dir(tmp_path, BASIC_NODES, BASIC_LINKS))
    assert from_json.nodes == from_csv.nodes
    assert from_json.links == from_csv.links


def test_length_column_converts_at_35_mph(tmp_path):
    links = "id,from,to,capacity_vph,free_flow_min,length_mi\nL,o,s,1000,,35\n"
    net = load_network(write_network_dir(tmp_path, BASIC_NODES, links))
    assert net.links[0].free_flow_min == pytest.approx(60.0)
    assert minutes_from_length(7.0) == pytest.approx(12.0)


def test_direct_time_wins_over_length_with_warning(tmp_path):
    links = "id,from,to,capacity_vph,free_flow_min,length_mi\nL,o,s,1000,3.5,35\n"
    root = write_network_dir(tmp_path, BASIC_NODES, links)
    with pytest.warns(UserWarning, match="free_flow_min wins"):
        net = load_network(root)
    assert net.links[0].free_flow_min == 3.5


def test_neither_time_nor_length_is_an_error(tmp_path):
    links = "id,from,to,capacity_vph,free_flow_min,length_mi\nL,o,s,1000,,\n"
    with pytest.raises(ProblemLoadError, match="free_flow_min or length_mi"):
        load_network(write_network_dir(tmp_path, BASIC_NODES, links))


def test_unknown_column_is_an_error(tmp_path):
    links = "id,from,to,capacity_vph,free_flow_min,speed\nL,o,s,1000,2.0,30\n"
    with pytest.raises(ProblemLoadError, match="unknown column"):
        load_network(write_network_dir(tmp_path, BASIC_NODES, links))


def test_bad_number_reports_file_and_line(tmp_path):
    links = "id,from,to,capacity_vph,free_flow_min\nL,o,s,fast,2.0\n"
    with pytest.raises(ProblemLoadError, match=r"links\.csv:2"):
        load_network(write_network_dir(tmp_path, BASIC_NODES, links))


def test_bad_node_kind_reports_file_and_line(tmp_path):
    nodes = "id,kind\no,origin\ns,bunker\n"
    with pytest.raises(ProblemLoadError, match=r"nodes\.csv:3"):
        load_network(write_network_dir(tmp_path, nodes, BASIC_LINKS))


def test_parallel_links_load_fine(tmp_path):
    links = (
        "id,from,to,capacity_vph,free_flow_min\n"
        "La,o,s,1000,2.0\n"
        "Lb,o,s,800,3.0\n"
    )
    net = load_network(write_network_dir(tmp_path, BASIC_NODES, links))
    assert len(net.links) == 2


def test_a_line_number_counts_blank_lines(tmp_path):
    path = tmp_path / "shelters.csv"
    path.write_text("node_id,capacity_vph\n\ns1,1000\n\ns2,x\n")
    with pytest.raises(ProblemLoadError, match=r"shelters\.csv:5: capacity_vph: could not convert"):
        load_shelters(path)


@pytest.mark.parametrize("load, name", [
    (load_network, "net.json"), (load_shelters, "shelters.csv"),
    (load_scenario, "scenario.json"), (load_config, "config.txt"),
])
def test_a_file_that_is_not_utf8_is_a_load_error(tmp_path, load, name):
    path = tmp_path / name
    path.write_bytes(b"node_id,capacity_vph\ns1,1000\xff\n")
    with pytest.raises(ProblemLoadError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode")


def test_a_row_with_more_cells_than_columns_names_its_line(tmp_path):
    links = "id,from,to,capacity_vph,free_flow_min\nL,o,s,1000,2.0,9\n"
    with pytest.raises(ProblemLoadError, match=r"links\.csv:2: more cells than columns"):
        load_network(write_network_dir(tmp_path, BASIC_NODES, links))


NETWORK_DOC = {
    "nodes": [{"id": "o", "kind": "origin"}, {"id": "s", "kind": "shelter-candidate"}],
    "links": [{"id": "L", "from": "o", "to": "s", "capacity_vph": 1000, "free_flow_min": 2.0}],
}
LINK_DOC = NETWORK_DOC["links"][0]


@pytest.mark.parametrize("path, value, message", [
    (("links", 0, "capacity_vph"), True, "link 0: capacity_vph: expected a number, got True"),
    (("links", 0, "capacity_vph"), 10**400, "link 0: capacity_vph: int too large to convert"),
    (("nodes", 1, "id"), 7, "node 1: id: expected a string, got 7"),
    (("links", 0), dict(LINK_DOC, speed=30), "link 0: unknown key 'speed'"),
    (("links", 0), {k: v for k, v in LINK_DOC.items() if k != "capacity_vph"},
     "link 0: missing field 'capacity_vph'"),
    (("links", 0), ["L"], ": links: expected an object, got ['L']"),
    ((), dict(NETWORK_DOC, edges=[]), ": unknown key 'edges'"),
    ((), {"links": []}, ": missing field 'nodes'"),
    ((), [], ": expected an object, got []"),
], ids=["bool", "401-digit-integer", "numeric-id", "unknown-link-key", "missing-link-key",
        "link-list", "unknown-key", "missing-key", "list"])
def test_a_network_json_value_of_the_wrong_type_or_key_is_a_load_error(tmp_path, path, value, message):
    network = tmp_path / "net.json"
    network.write_text(json.dumps(replaced(NETWORK_DOC, path, value)))
    with pytest.raises(ProblemLoadError) as info:
        load_network(network)
    assert str(info.value).startswith(f"{network}: ") and message in str(info.value)


# ---- shelters / scenarios --------------------------------------------------


def test_load_shelters(tmp_path):
    path = tmp_path / "shelters.csv"
    path.write_text("node_id,capacity_vph\ns1,1000\ns2,500\n")
    shelters = load_shelters(path)
    assert [c.node_id for c in shelters.candidates] == ["s1", "s2"]
    assert shelters.selection == (1, 1)


def test_shelter_capacity_must_be_positive(tmp_path):
    path = tmp_path / "shelters.csv"
    path.write_text("node_id,capacity_vph\ns1,0\n")
    with pytest.raises(ProblemLoadError, match="capacity"):
        load_shelters(path)


def test_duplicate_shelter_id_names_the_file_and_both_lines(tmp_path):
    path = tmp_path / "shelters.csv"
    path.write_text("node_id,capacity_vph\ns1,1000\ns2,500\ns1,700\n")
    with pytest.raises(ProblemLoadError) as info:
        load_shelters(path)
    assert str(info.value) == f"{path}:4: shelter candidate 's1' already listed on line 2"


def test_load_scenario_defaults_name_to_stem(tmp_path):
    path = tmp_path / "rush_hour.json"
    path.write_text(json.dumps({"productions": {"o": 10}}))
    scenario = load_scenario(path)
    assert scenario.name == "rush_hour"
    assert scenario.total_vehicles == 10.0


def test_negative_production_names_the_origin(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "productions": {"z9": -5}}))
    with pytest.raises(ProblemLoadError, match="z9"):
        load_scenario(path)


@pytest.mark.parametrize("text, message", [
    ('{"o": true}', "DemandScenario.productions['o']: expected a number, got True"),
    ('{"o": "1000"}', "DemandScenario.productions['o']: expected a number, got '1000'"),
    ('{"o": 1%s}' % ("0" * 400),
     "DemandScenario.productions['o']: int too large to convert to float"),
    ('{"o": Infinity}', "production for origin 'o' must be finite and >= 0"),
    ('{"o": 1e400}', "production for origin 'o' must be finite and >= 0"),
    ('{"o": NaN}', "production for origin 'o' must be finite and >= 0"),
    ('{"o": 1%s}' % ("0" * 5000), "Exceeds the limit"),
], ids=["bool", "string", "401-digit-integer", "Infinity", "1e400", "NaN", "5001-digit-integer"])
def test_a_production_that_is_not_a_finite_json_number_is_a_load_error(tmp_path, text, message):
    path = tmp_path / "scenario.json"
    path.write_text('{"name": "x", "productions": %s}' % text)
    with pytest.raises(ProblemLoadError) as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


# ---- config ----------------------------------------------------------------


def test_defaults_match_published_parameters():
    impedance, penalties, ga, assignment = load_config(None)
    assert impedance.beta == 10.0
    assert (ga.population_size, ga.max_generations) == (20, 50)
    assert (REPRODUCTION_RATE, MUTATION_PROBABILITY, ELITES) == (0.6, 0.4, 1)
    assert penalties.alpha_shelter == penalties.beta_link == 1e6
    assert assignment.max_iterations == 500
    assert assignment.gap_tolerance == 1e-5
    assert assignment.step_rule == "msa"


def test_config_omitting_ga_block_uses_defaults(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("impedance.beta = 4.0\nassignment.step_rule = exact-line-search\n")
    impedance, _, ga, assignment = load_config(path)
    assert impedance.beta == 4.0
    assert ga == GAConfig()
    assert assignment.step_rule == "exact-line-search"


def test_config_parses_comments_and_types():
    values = parse_config_text(
        "# study setup\n"
        "ga.population_size = 12   # small run\n"
        "ga.rng_seed = 99\n"
        "penalties.alpha_shelter = 1e4\n"
    )
    assert values == {
        "ga.population_size": 12,
        "ga.rng_seed": 99,
        "penalties.alpha_shelter": 1e4,
    }


def test_unknown_config_key_reports_line():
    with pytest.raises(ProblemLoadError, match=":2: unknown config key"):
        parse_config_text("impedance.beta = 2\nga.popsize = 10\n")


def test_repeated_config_key_is_rejected():
    with pytest.raises(ProblemLoadError) as info:
        parse_config_text("ga.rng_seed = 1\nimpedance.beta = 2\n ga.rng_seed=3 # again\n", "c.txt")
    assert str(info.value) == "c.txt:3: config key 'ga.rng_seed' already set on line 1"


def test_bad_config_value_reports_line():
    with pytest.raises(ProblemLoadError, match=":1: bad value"):
        parse_config_text("ga.population_size = twenty\n")


def test_invalid_config_combination_is_structured(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("ga.population_size = 1\n")
    with pytest.raises(ProblemLoadError, match="population_size"):
        load_config(path)


def test_config_schema_has_nine_keys():
    assert sorted(_CONFIG_SCHEMA) == [
        "assignment.gap_tolerance", "assignment.max_iterations", "assignment.step_rule",
        "ga.max_generations", "ga.population_size", "ga.rng_seed",
        "impedance.beta", "penalties.alpha_shelter", "penalties.beta_link",
    ]


@pytest.mark.parametrize("line", [
    "penalties.beta_link = inf", "penalties.alpha_shelter = nan", "penalties.beta_link = -inf",
])
def test_non_finite_penalty_weight_is_rejected(tmp_path, line):
    path = tmp_path / "config.txt"
    path.write_text(line + "\n")
    with pytest.raises(ProblemLoadError, match="penalty weights must be finite"):
        load_config(path)


# ---- load_problem ----------------------------------------------------------


def test_bundled_synthetic_instance_loads():
    bundle = load_instance("sanrocco_synthetic")
    assert len(bundle.shelters.candidates) == 8
    assert all(c.capacity_vph == 1000.0 for c in bundle.shelters.candidates)
    assert len(bundle.network.origin_ids()) == 48
    assert sorted(s.name for s in bundle.scenarios) == [
        "day", "night", "vacation", "weekend",
    ]
    totals = {s.name: s.total_vehicles for s in bundle.scenarios}
    assert totals == {"day": 1300.0, "night": 2200.0, "weekend": 2200.0, "vacation": 4000.0}
    assert bundle.impedance.beta == 10.0


def test_synthetic_town_files_are_what_the_generator_writes(tmp_path, monkeypatch):
    script = DATA_DIR.parent / "scripts" / "make_sanrocco_synthetic.py"
    spec = importlib.util.spec_from_file_location("make_sanrocco_synthetic", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "OUT_DIR", tmp_path)
    generator.main()
    shipped = DATA_DIR / "sanrocco_synthetic"
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f.name for f in shipped.iterdir())
    for written in tmp_path.iterdir():
        assert written.read_bytes() == (shipped / written.name).read_bytes(), written.name


def test_validation_findings_become_structured_errors(tmp_path):
    nodes = "id,kind\no,origin\ns,shelter-candidate\nx,intermediate\n"
    links = "id,from,to,capacity_vph,free_flow_min\nL,x,s,1000,2.0\n"
    root = write_network_dir(tmp_path, nodes, links)
    shelters = tmp_path / "shelters.csv"
    shelters.write_text("node_id,capacity_vph\ns,100\n")
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"name": "s", "productions": {"o": 5}}))
    with pytest.raises(ProblemLoadError, match="origin-") as info:
        load_problem(root, shelters, [scenario])
    assert info.value.findings


def test_scenario_origin_must_be_an_origin_node(tmp_path):
    root = write_network_dir(tmp_path, BASIC_NODES, BASIC_LINKS)
    shelters = tmp_path / "shelters.csv"
    shelters.write_text("node_id,capacity_vph\ns,100\n")
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"name": "s", "productions": {"s": 5}}))
    with pytest.raises(ProblemLoadError, match="not an origin node"):
        load_problem(root, shelters, [scenario])


# ---- serialization ---------------------------------------------------------


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "deep" / "out.json"
    write_text_atomic(target, "first")
    write_text_atomic(target, "second")
    assert target.read_text() == "second"
    assert list(target.parent.iterdir()) == [target]  # no temp litter


def test_assignment_result_round_trips():
    bundle = load_instance("toy_two_shelters")
    result = solve_lower_level(
        bundle.network, bundle.shelters.open_ids(), bundle.scenarios[0],
        bundle.impedance, bundle.assignment,
    )
    doc = assignment_result_to_dict(result)
    text = canonical_json(doc)
    back = from_jsonable(AssignmentResult, json.loads(text))
    assert back.link_flows == result.link_flows
    assert back.od_flows == result.od_flows
    assert back.link_times == result.link_times
    assert back.relative_gap == result.relative_gap
    assert back.iterations == result.iterations
    assert back.converged == result.converged
    assert canonical_json(assignment_result_to_dict(back)) == text


def test_solve_report_round_trips():
    bundle = load_instance("desk_a")
    report = ga_solve(
        bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
        bundle.penalties, GAConfig(rng_seed=5, max_generations=8), bundle.assignment,
    )
    text = canonical_json(solve_report_to_dict(report))
    back = from_jsonable(SolveReport, json.loads(text))
    assert canonical_json(solve_report_to_dict(back)) == text
    assert back.best_selection == report.best_selection
    assert back.best_penalized_objective == report.best_penalized_objective


def test_enumeration_report_round_trips_json_and_csv():
    bundle = load_instance("toy_two_shelters")
    report = exhaustive_solve(
        bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
        bundle.penalties, bundle.assignment,
    )
    text = canonical_json(enumeration_report_to_dict(report))
    assert from_jsonable(EnumerationReport, json.loads(text)) == report
    assert enumeration_report_from_csv(enumeration_report_to_csv(report)) == report


def test_sentinel_fitness_survives_json():
    bundle = load_instance("toy_two_shelters")
    report = ga_solve(
        bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
        bundle.penalties, GAConfig(rng_seed=0, max_generations=3, population_size=4),
        bundle.assignment,
    )
    if not any(math.isinf(r.penalized_objective) for r in report.evaluation_log):
        pytest.skip("no sentinel evaluation in this run")
    text = canonical_json(solve_report_to_dict(report))
    back = from_jsonable(SolveReport, json.loads(text))
    assert canonical_json(solve_report_to_dict(back)) == text


ENUMERATION_CSV_HEADER = "selection,penalized_objective,feasible,total_evacuation_time,is_best\n"


def test_enumeration_csv_without_a_best_row_is_rejected():
    # read naively, row 0 (objective 5.0) would pass as best while 1.0 exists
    text = ENUMERATION_CSV_HEADER + "10,5.0,True,5.0,False\n01,1.0,True,1.0,False\n"
    with pytest.raises(ValueError, match="exactly one is_best"):
        enumeration_report_from_csv(text)


def test_enumeration_csv_with_two_best_rows_is_rejected():
    text = ENUMERATION_CSV_HEADER + "10,5.0,True,5.0,True\n01,1.0,True,1.0,True\n"
    with pytest.raises(ValueError, match="exactly one is_best"):
        enumeration_report_from_csv(text)


def test_enumeration_json_best_outside_the_evaluations_is_rejected():
    doc = {
        "best": 7,
        "evaluations": [
            {"selection": "1", "penalized_objective": 1.0, "feasible": True,
             "total_evacuation_time": 1.0},
        ],
    }
    with pytest.raises(ValueError, match="best index 7"):
        from_jsonable(EnumerationReport, doc)
    doc["best"] = -1
    with pytest.raises(ValueError, match="best index -1"):
        from_jsonable(EnumerationReport, doc)


# ---- strict JSON reads -------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)
# a valid document of each record type, written by the codec
VALID_DOCS = {
    type(record): json.loads(canonical_json(to_jsonable(record)))
    for record in (ROWS[0], REPORT, ENUMERATION, RESULT)
}


def json_paths(doc, prefix=()):
    """Every position in a JSON document, as a key/index path."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


PATHS = {tp: list(json_paths(doc)) for tp, doc in VALID_DOCS.items()}


@settings(max_examples=2000)
@given(value=JSON_VALUES, paths=st.tuples(*(st.sampled_from(PATHS[tp]) for tp in VALID_DOCS)))
def test_from_jsonable_returns_a_record_or_raises_value_error(value, paths):
    """Each record type reads an arbitrary JSON value, and a valid
    document of its own with that value put anywhere inside it."""
    for (tp, valid), path in zip(VALID_DOCS.items(), paths):
        for doc in (value, replaced(valid, path, value)):
            try:
                record = from_jsonable(tp, doc)
            except ValueError:
                continue
            assert isinstance(record, tp)
            # what loads writes text that loads back to the same text
            text = canonical_json(to_jsonable(record))
            assert canonical_json(to_jsonable(from_jsonable(tp, json.loads(text)))) == text


@pytest.mark.parametrize("tp, path, value, message", [
    (ScenarioResultRow, ("feasible",), "false", r"ScenarioResultRow\.feasible: expected true or false"),
    (ScenarioResultRow, ("feasible",), 1, r"ScenarioResultRow\.feasible: expected true or false"),
    (ScenarioResultRow, ("total_time_veh_min",), True, "total_time_veh_min: expected a number"),
    (ScenarioResultRow, ("total_time_veh_min",), "1.0", "total_time_veh_min: expected a number"),
    (ScenarioResultRow, ("selection",), 5, r"ScenarioResultRow\.selection: expected a string"),
    (ScenarioResultRow, ("attraction",), [], r"ScenarioResultRow\.attraction: expected an object"),
    (ScenarioResultRow, ("scenario",), None, r"ScenarioResultRow\.scenario: expected a string"),
    (AssignmentResult, ("iterations",), 2.0, r"AssignmentResult\.iterations: expected an integer"),
    (AssignmentResult, ("od_flows", "o"), 1.0,
     r"AssignmentResult\.od_flows\['o'\]: expected an object"),
    (EnumerationReport, ("evaluations",), {}, r"EnumerationReport\.evaluations: expected a list"),
    (EnumerationReport, ("best",), False, r"EnumerationReport\.best: expected an integer"),
    (SolveReport, ("history", 0, "generation"), 2.5,
     r"SolveReport\.history: GenerationStats\.generation: expected an integer, got 2\.5"),
    (ScenarioResultRow, ("attraction", "s1"), True,
     r"ScenarioResultRow\.attraction\['s1'\]: expected a number, got True"),
])
def test_a_value_of_the_wrong_json_type_names_the_field(tp, path, value, message):
    with pytest.raises(ValueError, match=message):
        from_jsonable(tp, replaced(VALID_DOCS[tp], path, value))


@pytest.mark.parametrize("tp, path, message", [
    (ScenarioResultRow, (), r"^ScenarioResultRow: unknown key 'feasable'$"),
    (AssignmentResult, (), r"^AssignmentResult: unknown key 'feasable'$"),
    (EnumerationReport, ("evaluations", 0),
     r"^EnumerationReport\.evaluations: Evaluation: unknown key"),
    (SolveReport, ("history", 0), r"^SolveReport\.history: GenerationStats: unknown key"),
])
def test_a_key_that_names_no_field_is_rejected(tp, path, message):
    record = VALID_DOCS[tp]
    for key in path:
        record = record[key]
    with pytest.raises(ValueError, match=message):
        from_jsonable(tp, replaced(VALID_DOCS[tp], path, dict(record, feasable=False)))


def test_fields_kept_in_memory_only_are_unknown_keys_on_read():
    doc = dict(VALID_DOCS[AssignmentResult], aon_trees=[])
    with pytest.raises(ValueError, match="AssignmentResult: unknown key 'aon_trees'"):
        from_jsonable(AssignmentResult, doc)


def test_solve_report_written_with_assignment_diagnostics_still_loads():
    doc = dict(VALID_DOCS[SolveReport], assignment_diagnostics={"converged": True, "iterations": 2})
    assert from_jsonable(SolveReport, doc) == from_jsonable(SolveReport, VALID_DOCS[SolveReport])


# ---- malformed input files -------------------------------------------------

CELLS = st.sampled_from([
    "", " ", "o", "s", "x", "origin", "shelter-candidate", "0", "-1", "2.0", "1e400", "nan",
    "inf", "True", '"', '"a,b"', ",", "=", "#", "\n", "ga.rng_seed", "1" * 5000,
]) | st.text(max_size=4)


@st.composite
def mutated_lines(draw, text, sep):
    """`text` with one to three of its `sep`-separated cells replaced,
    dropped or added."""
    rows = [line.split(sep) for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "add" or at == len(row):
            row.insert(at, draw(CELLS))
        elif edit == "drop":
            del row[at]
        else:
            row[at] = draw(CELLS)
    return "\n".join(sep.join(row) for row in rows) + "\n"


@st.composite
def mutated_json(draw, doc):
    """JSON text of `doc` with one of its values replaced by any JSON value."""
    path = draw(st.sampled_from(list(json_paths(doc))))
    return json.dumps(replaced(doc, path, draw(JSON_VALUES)))


def csv_texts(valid):
    return mutated_lines(valid, ",") | st.text(max_size=40)


def json_texts(valid):
    return mutated_json(valid) | st.text(max_size=40)


FUZZ_LINKS = (
    "id,from,to,capacity_vph,free_flow_min,length_mi,max_saturation\n"
    "L,o,s,1000,2.0,,1.0\nM,s,o,800,,0.5,\n"
)
FUZZ_SHELTERS = "node_id,capacity_vph\ns,1000\no,500\n"
FUZZ_SCENARIO = {"name": "x", "productions": {"o": 10, "p": 2.5}}
FUZZ_CONFIG = (SANROCCO / "config.txt").read_text()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def loads_or_raises_a_load_error(load, path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # free_flow_min wins over length_mi
        try:
            load(path)
        except ProblemLoadError:
            pass


@given(nodes=csv_texts(BASIC_NODES), links=csv_texts(FUZZ_LINKS))
def test_a_malformed_network_directory_is_a_load_error(fuzz_dir, nodes, links):
    (fuzz_dir / "nodes.csv").write_text(nodes)
    (fuzz_dir / "links.csv").write_text(links)
    loads_or_raises_a_load_error(load_network, fuzz_dir)


@pytest.mark.parametrize("load, name, texts", [
    (load_network, "network.json", json_texts(NETWORK_DOC)),
    (load_shelters, "shelters.csv", csv_texts(FUZZ_SHELTERS)),
    (load_scenario, "scenario.json", json_texts(FUZZ_SCENARIO)),
    (load_config, "config.txt", mutated_lines(FUZZ_CONFIG, "=") | st.text(max_size=40)),
], ids=["network-json", "shelters", "scenario", "config"])
@given(data=st.data())
def test_a_malformed_input_file_is_a_load_error(fuzz_dir, load, name, texts, data):
    path = fuzz_dir / name
    path.write_text(data.draw(texts))
    loads_or_raises_a_load_error(load, path)
