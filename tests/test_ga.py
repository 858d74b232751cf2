import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shelterplan import ga as ga_module
from shelterplan.assignment import AssignmentResult
from shelterplan.ga import (
    EvaluationContext,
    GenerationStats,
    evaluate_individual,
    ga_solve,
    penalized_objective,
)
from shelterplan.io import solve_report_to_dict, to_csv
from shelterplan.problem import (
    AssignmentConfig,
    CandidateShelter,
    DemandScenario,
    GAConfig,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
)

from conftest import load_instance, make_network


def desk_context(**overrides):
    bundle = load_instance("desk_a")
    values = dict(
        network=bundle.network,
        shelters=bundle.shelters,
        demand=bundle.scenarios[0],
        impedance=bundle.impedance,
        penalties=bundle.penalties,
        assignment=bundle.assignment,
    )
    values.update(overrides)
    return EvaluationContext(**values)


def tiny_context():
    net = make_network(
        [("o", "origin"), ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o", "s1", 800, 5.0), ("L2", "o", "s2", 1000, 6.5)],
    )
    shelters = ShelterSet(
        candidates=(CandidateShelter("s1", 700.0), CandidateShelter("s2", 600.0))
    )
    return EvaluationContext(
        network=net,
        shelters=shelters,
        demand=DemandScenario("t", {"o": 1000.0}),
        impedance=ImpedanceParameter(0.5),
        penalties=PenaltyConfig(),
        assignment=AssignmentConfig(step_rule="exact-line-search"),
    )


# ---- penalized objective ---------------------------------------------------


def one_link_setup(flow, shelter_capacity, selection=(1,), saturation=1.0):
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("L", "o", "s", 1000, 1.0, saturation)],
    )
    shelters = ShelterSet(
        candidates=(CandidateShelter("s", shelter_capacity),), selection=selection
    )
    result = AssignmentResult(
        link_flows={"L": flow},
        od_flows={("o", "s"): flow},
        link_times={"L": 1.0},
        relative_gap=0.0,
        iterations=1,
        converged=True,
    )
    return net, shelters, result


def test_feasible_objective_is_exactly_total_time():
    from shelterplan.assignment import total_evacuation_time

    net, shelters, result = one_link_setup(500.0, 1000.0)
    value = penalized_objective(net, shelters, result, PenaltyConfig(1000.0, 1000.0))
    assert value == total_evacuation_time(net, result)


def test_shelter_excess_penalty_arithmetic():
    from shelterplan.assignment import total_evacuation_time

    net, shelters, result = one_link_setup(1010.0, 1000.0)
    base = total_evacuation_time(net, result)
    value = penalized_objective(net, shelters, result, PenaltyConfig(1000.0, 0.0))
    assert value == base + 1000.0 * 10.0


def test_link_excess_penalty_arithmetic():
    from shelterplan.assignment import total_evacuation_time

    net, shelters, result = one_link_setup(1005.0, 2000.0)
    base = total_evacuation_time(net, result)
    value = penalized_objective(net, shelters, result, PenaltyConfig(0.0, 100.0))
    assert value == base + 100.0 * 5.0


@given(factor=st.floats(1.0001, 1e6))
def test_scaling_both_penalties_preserves_ranking(factor):
    net, shelters, feasible = one_link_setup(500.0, 1000.0)
    _, _, infeasible = one_link_setup(1200.0, 1000.0)
    base = PenaltyConfig(1e6, 1e6)
    scaled = PenaltyConfig(1e6 * factor, 1e6 * factor)
    assert penalized_objective(net, shelters, feasible, base) < penalized_objective(
        net, shelters, infeasible, base
    )
    assert penalized_objective(net, shelters, feasible, scaled) < penalized_objective(
        net, shelters, infeasible, scaled
    )


# ---- evaluate_individual ----------------------------------------------------


def test_all_zero_selection_gets_sentinel():
    evaluation = evaluate_individual((0, 0), tiny_context())
    assert math.isinf(evaluation.penalized_objective)
    assert evaluation.assignment is None
    assert not evaluation.feasible
    assert "no open shelters" in evaluation.note


def test_all_ones_selection_is_finite_and_feasible():
    evaluation = evaluate_individual((1, 1), tiny_context())
    assert math.isfinite(evaluation.penalized_objective)
    assert evaluation.feasible
    assert evaluation.assignment is not None and evaluation.assignment.converged


def test_same_selection_evaluates_identically():
    context = tiny_context()
    first = evaluate_individual((1, 0), context)
    second = evaluate_individual((1, 0), context)
    assert first.penalized_objective == second.penalized_objective
    assert first.assignment.link_flows == second.assignment.link_flows


@pytest.mark.parametrize("selection", [(1, 1, 0, 0), (1, 0, 1, 0)])
def test_evaluation_computes_each_term_once(monkeypatch, selection):
    calls = {"constraint_violations": 0, "total_evacuation_time": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(ga_module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ga_module, name, counted)
    context = desk_context()
    evaluation = evaluate_individual(selection, context)
    assert calls == {"constraint_violations": 1, "total_evacuation_time": 1}
    # bit for bit the public objective (an infeasible and a feasible plan)
    assert evaluation.feasible == (selection == (1, 0, 1, 0))
    assert evaluation.penalized_objective == penalized_objective(
        context.network,
        context.shelters.with_selection(selection),
        evaluation.assignment,
        context.penalties,
    )


def test_selection_length_must_match():
    with pytest.raises(ValueError, match="length"):
        evaluate_individual((1, 0, 1), tiny_context())


def test_selection_must_be_binary():
    with pytest.raises(ValueError, match="0/1"):
        evaluate_individual((1, 2), tiny_context())


def test_unreachable_origin_yields_sentinel_not_crash():
    net = make_network(
        [("o", "origin"), ("s1", "shelter-candidate"), ("s2", "shelter-candidate"),
         ("x", "intermediate")],
        [("L1", "o", "s1", 800, 5.0), ("L2", "x", "s2", 1000, 6.5)],
    )
    shelters = ShelterSet(
        candidates=(CandidateShelter("s1", 700.0), CandidateShelter("s2", 600.0))
    )
    context = EvaluationContext(
        network=net, shelters=shelters,
        demand=DemandScenario("t", {"o": 1000.0}),
        impedance=ImpedanceParameter(0.5),
        penalties=PenaltyConfig(),
        assignment=AssignmentConfig(),
    )
    evaluation = evaluate_individual((0, 1), context)  # only unreachable shelter open
    assert math.isinf(evaluation.penalized_objective)
    assert "o" in evaluation.note


# ---- ga_solve ---------------------------------------------------------------


def test_single_candidate_opens_it():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 1.0)]
    )
    shelters = ShelterSet(candidates=(CandidateShelter("s", 1000.0),))
    report = ga_solve(
        net, shelters, DemandScenario("t", {"o": 500.0}),
        ImpedanceParameter(10.0), PenaltyConfig(), GAConfig(rng_seed=1),
        AssignmentConfig(),
    )
    assert report.best_selection == (1,)
    assert report.feasible
    assert report.shelter_attraction == {"s": 500.0}


def test_seeded_runs_are_bit_identical():
    bundle = load_instance("desk_a")
    reports = [
        ga_solve(bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
                 bundle.penalties, GAConfig(rng_seed=11), bundle.assignment)
        for _ in range(2)
    ]
    assert solve_report_to_dict(reports[0]) == solve_report_to_dict(reports[1])


def test_cache_evaluates_each_distinct_chromosome_once(monkeypatch):
    calls = []

    def counted(selection, context):
        calls.append(tuple(selection))
        return evaluate_individual(selection, context)

    monkeypatch.setattr(ga_module, "evaluate_individual", counted)
    report = _desk_report(seed=7)
    log = report.evaluation_log
    # one call per log entry, plus the final re-evaluation of the best
    assert len(calls) == len(log) + 1
    assert len({r.selection for r in log}) == len(log)
    assert calls[:-1] == [r.selection for r in log]
    chromosomes = len(report.history) * GAConfig().population_size
    assert len(log) < chromosomes  # the cache served repeats


def test_per_generation_best_is_non_increasing():
    report = _desk_report(seed=5)
    best = [h.best_fitness for h in report.history]
    assert all(later <= earlier for earlier, later in zip(best, best[1:]))


def _desk_report(seed, **ga_overrides):
    bundle = load_instance("desk_a")
    ga = GAConfig(rng_seed=seed, **ga_overrides)
    return ga_solve(bundle.network, bundle.shelters, bundle.scenarios[0],
                    bundle.impedance, bundle.penalties, ga, bundle.assignment)


def test_history_covers_every_generation():
    report = _desk_report(seed=2, max_generations=12, population_size=8)
    assert [h.generation for h in report.history] == list(range(12))
    assert all(h.feasible_count >= 0 for h in report.history)


def test_every_evaluated_chromosome_is_valid():
    report = _desk_report(seed=3)
    assert report.evaluation_log  # something was evaluated
    for record in report.evaluation_log:
        assert len(record.selection) == 4
        assert set(record.selection) <= {0, 1}


def test_best_objective_matches_fresh_reevaluation():
    bundle = load_instance("desk_a")
    report = _desk_report(seed=9)
    context = EvaluationContext(
        network=bundle.network, shelters=bundle.shelters, demand=bundle.scenarios[0],
        impedance=bundle.impedance, penalties=bundle.penalties,
        assignment=bundle.assignment,
    )
    fresh = evaluate_individual(report.best_selection, context)
    assert fresh.penalized_objective == report.best_penalized_objective


def test_feasible_individuals_always_beat_violators():
    report = _desk_report(seed=4)
    feasible = [r.penalized_objective for r in report.evaluation_log if r.feasible]
    violating = [
        r.penalized_objective
        for r in report.evaluation_log
        if not r.feasible and r.total_excess > 0
    ]
    assert feasible and violating
    assert max(feasible) < min(violating)


def test_attraction_zero_for_unselected_shelters():
    report = _desk_report(seed=6)
    bundle = load_instance("desk_a")
    for candidate, bit in zip(bundle.shelters.candidates, report.best_selection):
        if not bit:
            assert report.shelter_attraction[candidate.node_id] == 0.0


def test_invalid_network_fails_before_search():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate"), ("x", "intermediate")],
        [("L", "x", "s", 1000, 1.0)],  # origin has no exit
    )
    shelters = ShelterSet(candidates=(CandidateShelter("s", 100.0),))
    with pytest.raises(ValueError, match="validation"):
        ga_solve(net, shelters, DemandScenario("t", {"o": 10.0}),
                 ImpedanceParameter(1.0), PenaltyConfig(), GAConfig(rng_seed=0),
                 AssignmentConfig())


def next_generation_by_choice(population, fitness, rng):
    """Reference: the generation step drawing each parent with rng.choice."""
    n = len(population)
    length = len(population[0])
    order = sorted(range(n), key=lambda i: (fitness[i], population[i]))
    elites = [population[i] for i in order[: ga_module.ELITES]]
    weights = np.empty(n)
    for position, i in enumerate(order):
        weights[i] = n - position
    probabilities = weights / weights.sum()

    def pick():
        return population[int(rng.choice(n, p=probabilities))]

    slots = n - ga_module.ELITES
    crossover_slots = round(ga_module.REPRODUCTION_RATE * slots)
    children = []
    for slot in range(slots):
        if slot < crossover_slots and length >= 2:
            mother, father = pick(), pick()
            cut = int(rng.integers(1, length))
            child = mother[:cut] + father[cut:]
        else:
            child = pick()
        children.append(ga_module._mutate(child, rng))
    return elites + children


@pytest.mark.parametrize("population_size", [2, 3, 20, 37])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_parent_draws_match_rng_choice(population_size, seed):
    setup = np.random.default_rng(1000 + seed)
    population = [tuple(int(b) for b in setup.integers(0, 2, size=6)) for _ in range(population_size)]
    # ties in fitness are broken by the chromosome, as in ga_solve
    fitness = [float(f) for f in setup.integers(0, 4, size=population_size)]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        expected = next_generation_by_choice(population, fitness, theirs)
        population = ga_module._next_generation(population, fitness, ours)
        assert population == expected
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(population_size=1),
        dict(population_size=0),
        dict(population_size=-5),
        dict(max_generations=-1),
        dict(population_size=1, max_generations=0),
        dict(max_generations=0),
    ],
)
def test_invalid_ga_config_rejected(kwargs):
    with pytest.raises(ValueError):
        GAConfig(**kwargs)


def test_history_csv_round_trips_fields():
    report = _desk_report(seed=1, max_generations=5, population_size=6)
    text = to_csv(report.history, GenerationStats)
    lines = text.strip().splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness,feasible_count"
    assert len(lines) == 6
    for line, stats in zip(lines[1:], report.history):
        generation, best, mean, feasible = line.split(",")
        assert int(generation) == stats.generation
        assert float(best) == stats.best_fitness
        assert float(mean) == stats.mean_fitness
        assert int(feasible) == stats.feasible_count
