import math

import pytest

from shelterplan.enumeration import exhaustive_solve
from shelterplan.ga import EvaluationContext, evaluate_individual, ga_solve
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


def symmetric_setup(demand=200.0, capacity=1000.0):
    net = make_network(
        [("o", "origin"), ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o", "s1", 1000, 4.0), ("L2", "o", "s2", 1000, 4.0)],
    )
    shelters = ShelterSet(
        candidates=(CandidateShelter("s1", capacity), CandidateShelter("s2", capacity))
    )
    return net, shelters, DemandScenario("t", {"o": demand})


def run_exhaustive(net, shelters, demand):
    return exhaustive_solve(
        net, shelters, demand, ImpedanceParameter(1.0), PenaltyConfig(),
        AssignmentConfig(step_rule="exact-line-search"),
    )


def test_two_candidates_give_three_evaluations_in_mask_order():
    net, shelters, demand = symmetric_setup()
    report = run_exhaustive(net, shelters, demand)
    assert [e.selection for e in report.evaluations] == [(1, 0), (0, 1), (1, 1)]


def test_mirrored_singles_evaluate_identically_but_pair_wins():
    net, shelters, demand = symmetric_setup()
    report = run_exhaustive(net, shelters, demand)
    singles = [e for e in report.evaluations if sum(e.selection) == 1]
    assert singles[0].penalized_objective == singles[1].penalized_objective
    assert report.best_evaluation.selection == (1, 1)  # splitting halves congestion


def test_ties_prefer_fewer_shelters_then_lexicographic_order():
    # zero demand makes every subset cost exactly 0.0
    net, shelters, _ = symmetric_setup()
    report = run_exhaustive(net, shelters, DemandScenario("empty", {"o": 0.0}))
    assert {e.penalized_objective for e in report.evaluations} == {0.0}
    assert report.best_evaluation.selection == (0, 1)


def test_all_infeasible_still_picks_minimum_penalty():
    net, shelters, demand = symmetric_setup(demand=5000.0, capacity=100.0)
    report = run_exhaustive(net, shelters, demand)
    assert all(not e.feasible for e in report.evaluations)
    best = report.best_evaluation
    assert best.penalized_objective == min(
        e.penalized_objective for e in report.evaluations
    )
    assert not best.feasible


def test_candidate_limit_is_enforced():
    net_nodes = [("o", "origin")] + [(f"s{i:02d}", "shelter-candidate") for i in range(21)]
    links = [(f"L{i:02d}", "o", f"s{i:02d}", 1000, 1.0) for i in range(21)]
    net = make_network(net_nodes, links)
    shelters = ShelterSet(
        candidates=tuple(CandidateShelter(f"s{i:02d}", 100.0) for i in range(21))
    )
    with pytest.raises(ValueError, match="limited to 20"):
        run_exhaustive(net, shelters, DemandScenario("t", {"o": 10.0}))


def test_recorded_objectives_match_evaluate_individual():
    bundle = load_instance("desk_a")
    report = exhaustive_solve(
        bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
        bundle.penalties, bundle.assignment,
    )
    context = EvaluationContext(
        network=bundle.network, shelters=bundle.shelters, demand=bundle.scenarios[0],
        impedance=bundle.impedance, penalties=bundle.penalties,
        assignment=bundle.assignment,
    )
    assert len(report.evaluations) == 2 ** 4 - 1
    for entry in report.evaluations:
        fresh = evaluate_individual(entry.selection, context)
        assert entry.penalized_objective == fresh.penalized_objective
        assert entry.feasible == fresh.feasible


def test_exhaustive_never_loses_to_the_ga():
    bundle = load_instance("desk_a")
    report = exhaustive_solve(
        bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
        bundle.penalties, bundle.assignment,
    )
    for seed in (0, 1, 2):
        ga_report = ga_solve(
            bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
            bundle.penalties, GAConfig(rng_seed=seed, max_generations=10),
            bundle.assignment,
        )
        assert (
            report.best_evaluation.penalized_objective
            <= ga_report.best_penalized_objective
        )

