"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import itertools
import math
import time

import pytest

from shelterplan.assignment import solve_lower_level, total_evacuation_time
from shelterplan.enumeration import exhaustive_solve
from shelterplan.ga import ga_solve, penalized_objective
from shelterplan.io import canonical_json, solve_report_to_dict
from shelterplan.network import bpr_time
from shelterplan.problem import (
    AssignmentConfig,
    CandidateShelter,
    DemandScenario,
    GAConfig,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
)
from shelterplan.study import render_report, rows_from_csv, rows_from_json, run_scenarios

from conftest import (
    ALL_INSTANCES,
    DESK_INSTANCES,
    TOY_INSTANCES,
    check_equilibrium_invariants,
    load_instance,
    make_network,
)
from oracles import route_fixed_point, simple_paths
from test_study import FIXTURE, SHELTER_IDS, fixture_rows

RUNS_PER_INSTANCE = 20
REQUIRED_HITS = 18
TIME_BUDGET_SECONDS = 300.0


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. bi-level pipeline finds the enumerated optimum -----------------------


@pytest.mark.parametrize("name", DESK_INSTANCES)
def test_criterion_1_ga_matches_exhaustive_optimum(name):
    bundle = load_instance(name)
    assert 4 <= len(bundle.shelters.candidates) <= 6
    assert len(bundle.network.nodes) <= 15
    started = time.perf_counter()
    oracle = exhaustive_solve(
        bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
        bundle.penalties, bundle.assignment,
    )
    hits = 0
    for seed in range(RUNS_PER_INSTANCE):
        report = ga_solve(
            bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
            bundle.penalties, GAConfig(rng_seed=seed), bundle.assignment,
        )
        assert oracle.best_evaluation.penalized_objective <= report.best_penalized_objective
        if report.best_selection == oracle.best_evaluation.selection:
            hits += 1
    elapsed = time.perf_counter() - started
    _verdict(
        f"1:{name}",
        hits >= REQUIRED_HITS and elapsed < TIME_BUDGET_SECONDS,
        f"GA found the exhaustive optimum {oracle.best_evaluation.selection} in "
        f"{hits}/{RUNS_PER_INSTANCE} seeded runs, {elapsed:.1f}s (budget {TIME_BUDGET_SECONDS:.0f}s)",
    )


# -- 2. lower level matches the route-enumeration oracle ---------------------


@pytest.mark.parametrize("name", TOY_INSTANCES)
def test_criterion_2_lower_level_matches_route_oracle(name):
    bundle = load_instance(name)
    scenario = bundle.scenarios[0]
    open_ids = bundle.shelters.open_ids()
    total_routes = sum(
        len(simple_paths(bundle.network, origin, shelter))
        for origin in sorted(scenario.productions)
        for shelter in open_ids
    )
    assert total_routes <= 6, "instance no longer qualifies as a small oracle case"
    result = solve_lower_level(
        bundle.network, open_ids, scenario, bundle.impedance, bundle.assignment
    )
    oracle = route_fixed_point(
        bundle.network, open_ids, dict(scenario.productions), bundle.impedance.beta
    )
    assert oracle.residual <= 1e-10
    worst = 0.0
    for link_id, expected in oracle.link_flows.items():
        got = result.link_flows[link_id]
        denom = max(abs(expected), 1e-9)
        worst = max(worst, abs(got - expected) / denom)
    ok = (
        result.converged
        and result.relative_gap <= 1e-5
        and result.iterations <= 500
        and worst <= 1e-3
    )
    _verdict(
        f"2:{name}",
        ok,
        f"{total_routes} routes; gap={result.relative_gap:.1e} in {result.iterations} "
        f"iterations; worst link-flow deviation {worst:.1e} (tol 1e-3)",
    )


# -- 3. equilibrium consistency on every converged result --------------------


def test_criterion_3_equilibrium_consistency_suite():
    checked = 0
    for name in TOY_INSTANCES + DESK_INSTANCES:
        bundle = load_instance(name)
        tight = AssignmentConfig(
            max_iterations=bundle.assignment.max_iterations,
            gap_tolerance=1e-6,
            step_rule="exact-line-search",
        )
        for subset in _open_subsets(bundle.shelters):
            try:
                result = solve_lower_level(
                    bundle.network, subset, bundle.scenarios[0], bundle.impedance, tight
                )
            except Exception:
                continue  # selections that strand an origin are not converged results
            if not result.converged:
                continue
            check_equilibrium_invariants(
                bundle.network,
                result,
                dict(bundle.scenarios[0].productions),
                bundle.impedance.beta,
                check_shares=result.relative_gap <= 1e-6,
            )
            checked += 1
    _verdict(
        "3",
        checked >= 10,
        f"production conservation (1e-9), shelter-inflow balance (1e-6) and "
        f"logit-share consistency (1e-2) held on all {checked} converged results",
    )


def _open_subsets(shelters, limit=8):
    ids = [c.node_id for c in shelters.candidates]
    subsets = [ids]  # all open
    subsets.extend([sid] for sid in ids[:3])  # a few singletons
    if len(ids) >= 2:
        subsets.append(ids[: len(ids) // 2 or 1])
    return subsets[:limit]


# -- 4. numerical identities --------------------------------------------------


def test_criterion_4_numerical_identities():
    from shelterplan.assignment import AssignmentResult, lower_level_objective

    for t0, cap in itertools.product((0.5, 1.0, 2.0, 35.0), (400.0, 1000.0, 1800.0)):
        assert bpr_time(t0, cap, cap) == 1.15 * t0

    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 1.0)]
    )
    loaded = AssignmentResult(
        link_flows={"L": 1000.0}, od_flows={}, link_times={"L": 1.15},
        relative_gap=0.0, iterations=1, converged=True,
    )
    integral = lower_level_objective(net, loaded, ImpedanceParameter(10.0))
    assert integral == 1030.0

    shelters = ShelterSet(candidates=(CandidateShelter("s", 1000.0),))
    over_shelter = AssignmentResult(
        link_flows={"L": 1010.0}, od_flows={("o", "s"): 1010.0}, link_times={"L": 1.15},
        relative_gap=0.0, iterations=1, converged=True,
    )
    base = total_evacuation_time(net, over_shelter)
    assert penalized_objective(net, shelters, over_shelter, PenaltyConfig(1000.0, 0.0)) == base + 10000.0
    roomy = ShelterSet(candidates=(CandidateShelter("s", 2000.0),))
    over_link = AssignmentResult(
        link_flows={"L": 1005.0}, od_flows={("o", "s"): 1005.0}, link_times={"L": 1.15},
        relative_gap=0.0, iterations=1, converged=True,
    )
    base = total_evacuation_time(net, over_link)
    assert penalized_objective(net, roomy, over_link, PenaltyConfig(0.0, 100.0)) == base + 500.0
    _verdict(
        "4",
        True,
        "bpr(t0,C,C) == 1.15*t0 exact on a parameter grid; single-link objective "
        "integral == 1030.0 exact; penalty arithmetic exact",
    )


# -- 5. dispersion over the impedance grid ------------------------------------


def test_criterion_5_dispersion_over_impedance_grid():
    net = make_network(
        [("o", "origin"), ("near", "shelter-candidate"), ("far", "shelter-candidate")],
        [("L1", "o", "near", 10000, 5.0), ("L2", "o", "far", 10000, 8.0)],
    )
    demand = DemandScenario("d", {"o": 100.0})
    config = AssignmentConfig(step_rule="exact-line-search", gap_tolerance=1e-8)
    shares = []
    for beta in (0.1, 1.0, 10.0, 100.0, 1000.0):
        result = solve_lower_level(net, ["near", "far"], demand, ImpedanceParameter(beta), config)
        assert result.converged
        shares.append(result.od_flows[("o", "near")] / 100.0)
    monotone = all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
    _verdict(
        "5",
        monotone and shares[-1] > 0.999,
        f"nearest-shelter equilibrium share over beta grid: "
        f"{[round(s, 6) for s in shares]} (nondecreasing, final > 0.999)",
    )


# -- 6. seeded determinism ------------------------------------------------------


@pytest.mark.parametrize("name", ALL_INSTANCES)
def test_criterion_6_bit_identical_reports(name):
    bundle = load_instance(name)
    ga = GAConfig(rng_seed=123, population_size=8, max_generations=6)
    blobs = []
    for _ in range(2):
        report = ga_solve(
            bundle.network, bundle.shelters, bundle.scenarios[0], bundle.impedance,
            bundle.penalties, ga, bundle.assignment,
        )
        blobs.append(canonical_json(solve_report_to_dict(report)).encode())
    ok = blobs[0] == blobs[1]
    _verdict(
        f"6:{name}",
        ok,
        f"two seeded runs produced {len(blobs[0])} identical bytes",
    )


# -- 7. report fidelity to the published results table -------------------------


def test_criterion_7_report_fidelity():
    rows = fixture_rows()
    table = render_report(rows, "table")
    for _, rates, total_min, clearance, _ in FIXTURE:
        for rate in rates:
            assert f" {rate}" in table
        assert f"{total_min:.1f}" in table
        assert f"{total_min / 60.0:.2f}" in table
        assert f" {clearance}" in table

    for parse, fmt in ((rows_from_csv, "csv"), (rows_from_json, "json")):
        recovered = parse(render_report(rows, fmt))
        for row, (name, rates, total_min, clearance, selection) in zip(recovered, FIXTURE):
            assert row.scenario == name
            assert [row.attraction[sid] for sid in SHELTER_IDS] == [float(r) for r in rates]
            assert row.total_time_veh_min == total_min
            assert row.clearance_min == float(clearance)
            assert row.selection == selection
    _verdict(
        "7",
        True,
        "all 40 attraction rates, travel-time totals (891.5/1494.0/1501.1/2984.4 "
        "veh-min and veh-h) and clearance times (80/80/80/85) reproduced exactly",
    )


# -- 8. qualitative scenario ordering on the synthetic town --------------------


def test_criterion_8_scenario_ordering_on_synthetic_town(sanrocco):
    rows = run_scenarios(sanrocco, seed=42)
    totals = {row.scenario: row.total_time_veh_min for row in rows}
    assert set(totals) == {"day", "night", "weekend", "vacation"}
    ok = (
        totals["vacation"] > totals["night"]
        and totals["vacation"] > totals["weekend"]
        and totals["night"] > totals["day"]
        and totals["weekend"] > totals["day"]
    )
    _verdict(
        "8",
        ok,
        "total travel time ordering "
        f"day={totals['day']:.1f} < night={totals['night']:.1f}, "
        f"weekend={totals['weekend']:.1f} < vacation={totals['vacation']:.1f} veh-min",
    )
