import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shelterplan import assignment as assignment_module
from shelterplan.assignment import (
    AssignmentResult,
    _beckmann_entropy,
    _line_search_step,
    _shelter_costs,
    InfeasibleOriginError,
    UnreachablePairError,
    all_or_nothing,
    constraint_violations,
    logit_distribution,
    lower_level_objective,
    relative_gap,
    solve_lower_level,
    total_evacuation_time,
)
from shelterplan.problem import (
    AssignmentConfig,
    CandidateShelter,
    DemandScenario,
    ImpedanceParameter,
    ShelterSet,
)

from shelterplan.network import _dijkstra_indexed, shortest_path_tree

from conftest import load_instance, make_network, small_digraphs, two_shelter_network
from oracles import bisection_line_search_step, convex_route_minimum, route_fixed_point

BETA10 = ImpedanceParameter(10.0)


def solve(network, shelters, productions, beta, **config):
    return solve_lower_level(
        network,
        shelters,
        DemandScenario("t", productions),
        ImpedanceParameter(beta),
        AssignmentConfig(**config),
    )


# ---- logit ---------------------------------------------------------------


def test_logit_equal_costs_split_evenly():
    split = logit_distribution({"o": 100.0}, {("o", "a"): 3.0, ("o", "b"): 3.0}, BETA10)
    assert split == {("o", "a"): 50.0, ("o", "b"): 50.0}


def test_logit_high_impedance_sends_all_to_nearest():
    split = logit_distribution(
        {"o": 100.0}, {("o", "a"): 1.0, ("o", "b"): 2.0}, ImpedanceParameter(1000.0)
    )
    assert split[("o", "a")] == pytest.approx(100.0, abs=1e-9)
    assert split[("o", "b")] == pytest.approx(0.0, abs=1e-9)


def test_logit_closed_form_case():
    costs = {("o", "a"): 1.0, ("o", "b"): 1.0 + math.log(2) / 10.0}
    split = logit_distribution({"o": 100.0}, costs, BETA10)
    assert split[("o", "a")] == pytest.approx(66.67, abs=1e-2)
    assert split[("o", "b")] == pytest.approx(33.33, abs=1e-2)


def test_logit_unreachable_origin_is_an_error():
    with pytest.raises(InfeasibleOriginError, match="o2"):
        logit_distribution(
            {"o1": 10.0, "o2": 5.0},
            {("o1", "a"): 1.0, ("o2", "a"): math.inf},
            BETA10,
        )


def test_logit_zero_production_origin_contributes_nothing():
    assert logit_distribution({"o": 0.0}, {}, BETA10) == {}


@given(
    production=st.floats(0.1, 1e5),
    costs=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=8),
    beta=st.floats(0.05, 50.0),
)
def test_logit_conserves_production(production, costs, beta):
    cost_map = {("o", f"s{i}"): c for i, c in enumerate(costs)}
    split = logit_distribution({"o": production}, cost_map, ImpedanceParameter(beta))
    assert sum(split.values()) == pytest.approx(production, rel=1e-9)
    assert all(v >= 0 for v in split.values())


@pytest.mark.parametrize("grid", [(0.1, 1.0, 10.0, 100.0, 1000.0)])
def test_logit_share_of_nearer_shelter_nondecreasing_in_beta(grid):
    costs = {("o", "near"): 2.0, ("o", "far"): 3.0}
    shares = [
        logit_distribution({"o": 1.0}, costs, ImpedanceParameter(b))[("o", "near")]
        for b in grid
    ]
    assert all(a <= b + 1e-15 for a, b in zip(shares, shares[1:]))


# ---- all-or-nothing -------------------------------------------------------


def chain_network():
    return make_network(
        [("o", "origin"), ("m", "intermediate"), ("s", "shelter-candidate")],
        [("L1", "o", "m", 1000, 1.0), ("L2", "m", "s", 1000, 1.0)],
    )


def test_aon_single_path_carries_everything():
    net = chain_network()
    flows = all_or_nothing(net, {("o", "s"): 400.0}, {"L1": 1.0, "L2": 1.0})
    assert flows == {"L1": 400.0, "L2": 400.0}


def test_aon_parallel_links_use_the_faster():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("La", "o", "s", 1000, 3.0), ("Lb", "o", "s", 1000, 5.0)],
    )
    flows = all_or_nothing(net, {("o", "s"): 250.0}, {"La": 3.0, "Lb": 5.0})
    assert flows == {"La": 250.0, "Lb": 0.0}


def test_aon_conserves_total_inflow_at_shelters():
    net = make_network(
        [("o1", "origin"), ("o2", "origin"), ("m", "intermediate"),
         ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o1", "m", 1000, 1.0), ("L2", "o2", "m", 1000, 1.0),
         ("L3", "m", "s1", 1000, 1.0), ("L4", "m", "s2", 1000, 2.0)],
    )
    od = {("o1", "s1"): 100.0, ("o1", "s2"): 50.0, ("o2", "s1"): 70.0, ("o2", "s2"): 30.0}
    times = {"L1": 1.0, "L2": 1.0, "L3": 1.0, "L4": 2.0}
    flows = all_or_nothing(net, od, times)
    shelter_inflow = flows["L3"] + flows["L4"]
    assert shelter_inflow == pytest.approx(sum(od.values()), rel=1e-12)


def test_aon_unreachable_pair_is_an_error():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate"), ("t", "shelter-candidate")],
        [("L1", "o", "s", 1000, 1.0), ("L2", "s", "t", 1000, 1.0), ("L3", "t", "s", 1000, 1.0)],
    )
    isolated = make_network(
        [("o", "origin"), ("s", "shelter-candidate"), ("x", "intermediate"),
         ("t", "shelter-candidate")],
        [("L1", "o", "s", 1000, 1.0), ("L2", "x", "t", 1000, 1.0)],
    )
    with pytest.raises(UnreachablePairError, match="t"):
        all_or_nothing(isolated, {("o", "t"): 5.0}, {"L1": 1.0, "L2": 1.0})
    # zero flow on an unreachable pair is fine
    flows = all_or_nothing(isolated, {("o", "t"): 0.0, ("o", "s"): 1.0}, {"L1": 1.0, "L2": 1.0})
    assert flows["L1"] == 1.0


def test_aon_rejects_negative_flow():
    net = chain_network()
    with pytest.raises(ValueError):
        all_or_nothing(net, {("o", "s"): -1.0}, {"L1": 1.0, "L2": 1.0})


# ---- the kernel against forward shortest-path trees ----------------------


def kernel_trees(net, times, shelter_idx):
    """Per shelter index: the kernel's cost and successor link at every
    node index, the layout `_dijkstra_indexed` gives over the reverse graph."""
    trees = net.core_trees(times.tolist(), shelter_idx)
    cost, zone_succ = _shelter_costs(net, trees, times, shelter_idx)
    return [
        (cost[s, :-1].tolist(), [*succ, *zone_succ[s].tolist()])
        for s, (_, succ, _) in enumerate(trees)
    ]


@given(small_digraphs())
def test_shelter_tree_costs_match_forward_trees(graph):
    net, times = graph
    t = net.times_to_array(times)
    targets = range(len(net.node_ids))
    for v, (_, _, order) in zip(targets, net.core_trees(t.tolist(), targets)):
        # a core search settles its source first; a zone's is empty
        assert order[:1] == ([v] if v < net.core.size else [])
    trees = kernel_trees(net, t, targets)
    for target, (dist, succ) in zip(net.node_ids, trees):
        assert dist[net.node_index[target]] == 0.0 and succ[net.node_index[target]] == -1
        for source in net.node_ids:
            forward = shortest_path_tree(net, times, source).costs.get(target, math.inf)
            reverse = dist[net.node_index[source]]
            if math.isinf(forward):
                assert math.isinf(reverse)
            else:
                assert reverse == pytest.approx(forward, rel=1e-12, abs=0.0)


def assert_kernel_matches_full_search(net, times):
    """The zone/core kernel equals one `_dijkstra_indexed` over the whole
    reverse graph per shelter: the same cost at every node and the same
    successor link at every node (-1 at the shelter and where unreachable)."""
    t = net.times_to_array(times)
    targets = range(len(net.node_ids))
    for target, (dist, succ) in zip(targets, kernel_trees(net, t, targets)):
        full_dist, full_succ, _ = _dijkstra_indexed(net.reverse_adjacency, t.tolist(), target)
        assert dist == full_dist
        assert succ == full_succ


@given(small_digraphs(times=st.integers(1, 3).map(float)))
def test_kernel_equals_the_full_search_with_ties(graph):
    assert_kernel_matches_full_search(*graph)


def test_kernel_zone_with_two_out_links():
    net = load_instance("toy_two_shelters").network
    assert net.node_ids == ("s1", "s2", "o") and net.core.size == 2
    assert_kernel_matches_full_search(net, {"L1": 5.0, "L2": 6.5})
    # toward s2 the zone must leave by its second out-link
    t = net.free_flow_array
    (_, to_s1), (_, to_s2) = kernel_trees(net, t, [net.node_index["s1"], net.node_index["s2"]])
    o = net.node_index["o"]
    assert net.link_ids[to_s1[o]] == "L1" and net.link_ids[to_s2[o]] == "L2"


def test_kernel_shelter_without_an_incoming_link():
    net = make_network(
        [("s", "shelter-candidate"), ("a", "intermediate"), ("t", "shelter-candidate")],
        [("L1", "s", "a", 1000, 1.0), ("L2", "a", "t", 1000, 2.0)],
    )
    # the core a, t in id order, then the zone s
    assert net.node_ids == ("a", "t", "s") and net.core.size == 2
    assert_kernel_matches_full_search(net, {"L1": 1.0, "L2": 2.0})
    (dist, succ), = kernel_trees(net, net.free_flow_array, [net.node_index["s"]])
    # nothing but s itself reaches s
    assert dist == [math.inf, math.inf, 0.0] and succ == [-1, -1, -1]
    result = solve(net, ["s", "t"], {"s": 10.0}, 0.5)
    assert result.converged
    # the demand at s stays there only in part: t is 3 minutes away
    assert result.od_flows[("s", "s")] + result.od_flows[("s", "t")] == pytest.approx(10.0)
    assert result.link_flows["L1"] == result.link_flows["L2"] == result.od_flows[("s", "t")]


def test_kernel_zone_that_cannot_reach_the_shelter():
    net = make_network(
        [("z", "origin"), ("w", "origin"), ("x", "intermediate"), ("s", "shelter-candidate")],
        [("L1", "z", "x", 1000, 1.0), ("L2", "w", "s", 1000, 1.0)],
    )
    assert net.node_ids == ("s", "x", "w", "z") and net.core.size == 2
    assert_kernel_matches_full_search(net, {"L1": 1.0, "L2": 1.0})
    (dist, succ), = kernel_trees(net, net.free_flow_array, [net.node_index["s"]])
    z = net.node_index["z"]
    assert math.isinf(dist[z]) and succ[z] == -1
    with pytest.raises(InfeasibleOriginError, match="'z'"):
        solve(net, ["s"], {"w": 1.0, "z": 1.0}, 0.5)


def test_free_flow_trees_are_a_fresh_search_and_survive_a_solve(sanrocco):
    net = sanrocco.network
    shelter_idx = [net.node_index[c.node_id] for c in sanrocco.shelters.candidates]

    def as_lists(trees):
        return [(list(dist), list(succ), list(order)) for dist, succ, order in trees]

    fresh = net.core_trees(net.free_flow_array.tolist(), shelter_idx)
    cached = net.free_flow_core_trees(shelter_idx)
    assert as_lists(cached) == fresh
    for scenario in sanrocco.scenarios:
        solve_lower_level(
            net, sanrocco.shelters.open_ids(), scenario, sanrocco.impedance, sanrocco.assignment
        )
    assert as_lists(net.free_flow_core_trees(shelter_idx)) == fresh
    assert net.free_flow_core_trees(shelter_idx[:1])[0] is cached[0]


@given(small_digraphs(), st.data())
def test_aon_conserves_flow_and_loads_shortest_paths(graph, data):
    net, times = graph
    costs = {o: shortest_path_tree(net, times, o).costs for o in net.node_ids}
    pairs = [(o, s) for o in net.node_ids for s in sorted(costs[o])]
    amounts = data.draw(st.lists(st.floats(0.0, 1000.0), min_size=len(pairs), max_size=len(pairs)))
    od = dict(zip(pairs, amounts))
    flows = all_or_nothing(net, od, times)
    total = sum(amounts)
    balance = {n: 0.0 for n in net.node_ids}
    for link in net.links:
        balance[link.to_node] += flows[link.id]
        balance[link.from_node] -= flows[link.id]
    for (o, s), flow in od.items():
        balance[s] -= flow
        balance[o] += flow
    for net_inflow in balance.values():
        assert net_inflow == pytest.approx(0.0, abs=1e-12 * max(total, 1.0))
    loaded = sum(flows[l] * t for l, t in times.items())
    shortest = sum(flow * costs[o][s] for (o, s), flow in od.items())
    assert loaded == pytest.approx(shortest, rel=1e-12, abs=0.0)


def diamond_network():
    return make_network(
        [("o", "origin"), ("a", "intermediate"), ("b", "intermediate"),
         ("s", "shelter-candidate")],
        [("L1", "o", "a", 1000, 1.0), ("L2", "o", "b", 1000, 1.0),
         ("L3", "a", "s", 1000, 1.0), ("L4", "b", "s", 1000, 1.0)],
    )


def test_equal_cost_routes_take_the_lower_link_id():
    net = diamond_network()
    flows = all_or_nothing(net, {("o", "s"): 10.0}, {l: 1.0 for l in ("L1", "L2", "L3", "L4")})
    assert flows == {"L1": 10.0, "L2": 0.0, "L3": 10.0, "L4": 0.0}
    result = solve(net, ["s"], {"o": 10.0}, 1.0)
    assert result.aon_trees[0]["s"] == {"a": "L3", "b": "L4", "o": "L1"}
    assert result.link_flows["L1"] == 10.0 and result.link_flows["L2"] == 0.0


def test_origin_at_an_open_shelter_stays_there():
    net = two_shelter_network()
    flows = all_or_nothing(net, {("s1", "s1"): 5.0, ("o", "s2"): 2.0}, {"L1": 5.0, "L2": 6.5})
    assert flows == {"L1": 0.0, "L2": 2.0}
    # s1 cannot reach s2, so all of its demand stays at zero cost
    result = solve(net, ["s1", "s2"], {"s1": 300.0}, 0.5)
    assert result.converged
    assert result.od_flows == {("s1", "s1"): 300.0, ("s1", "s2"): 0.0}
    assert result.link_flows == {"L1": 0.0, "L2": 0.0}


# ---- solve_lower_level ----------------------------------------------------


def test_single_link_converges_first_iteration():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 1.0)]
    )
    result = solve(net, ["s"], {"o": 500.0}, 10.0)
    assert result.converged and result.iterations == 1
    assert result.link_flows == {"L": 500.0}
    assert result.od_flows == {("o", "s"): 500.0}
    assert result.relative_gap == 0.0


def test_symmetric_network_splits_evenly():
    net = two_shelter_network()
    symmetric = make_network(
        [("o", "origin"), ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o", "s1", 900, 4.0), ("L2", "o", "s2", 900, 4.0)],
    )
    result = solve(symmetric, ["s1", "s2"], {"o": 800.0}, 10.0)
    assert result.od_flows[("o", "s1")] == result.od_flows[("o", "s2")] == 400.0
    assert result.link_flows["L1"] == result.link_flows["L2"] == 400.0


def test_empty_open_shelters_is_an_error():
    net = two_shelter_network()
    with pytest.raises(ValueError, match="non-empty"):
        solve(net, [], {"o": 100.0}, 1.0)


def test_unknown_shelter_is_an_error():
    net = two_shelter_network()
    with pytest.raises(ValueError, match="ghost"):
        solve(net, ["ghost"], {"o": 100.0}, 1.0)


def test_unreachable_origin_propagates():
    net = make_network(
        [("o1", "origin"), ("o2", "origin"), ("s", "shelter-candidate"),
         ("x", "intermediate")],
        [("L1", "o1", "s", 1000, 1.0), ("L2", "o2", "x", 1000, 1.0)],
    )
    with pytest.raises(InfeasibleOriginError, match="o2"):
        solve(net, ["s"], {"o1": 10.0, "o2": 10.0}, 1.0)


def test_zero_demand_converges_to_free_flow():
    net = two_shelter_network()
    result = solve(net, ["s1", "s2"], {"o": 0.0}, 1.0)
    assert result.converged and result.iterations == 0
    assert result.link_flows == {"L1": 0.0, "L2": 0.0}
    assert result.link_times == {"L1": 5.0, "L2": 6.5}
    assert result.od_flows == {}


from conftest import check_equilibrium_invariants  # noqa: E402  (shared suite helper)


@pytest.mark.parametrize("step_rule", ["msa", "exact-line-search"])
def test_equilibrium_invariants_on_asymmetric_instance(step_rule):
    net = two_shelter_network()
    productions = {"o": 1000.0}
    result = solve(
        net, ["s1", "s2"], productions, 0.5, step_rule=step_rule, gap_tolerance=1e-6,
        max_iterations=5000,
    )
    assert result.converged
    check_equilibrium_invariants(net, result, productions, 0.5)


def test_solver_matches_route_enumeration_oracle():
    net = two_shelter_network()
    productions = {"o": 1000.0}
    result = solve(net, ["s1", "s2"], productions, 0.5, step_rule="exact-line-search",
                   gap_tolerance=1e-7)
    oracle = route_fixed_point(net, ["s1", "s2"], productions, 0.5)
    assert oracle.residual <= 1e-10
    for link_id, flow in oracle.link_flows.items():
        assert result.link_flows[link_id] == pytest.approx(flow, rel=1e-3)


def test_solver_matches_convex_program_with_route_overlap():
    # Two routes serve (o, s1) and both carry flow at equilibrium. The
    # all-or-nothing auxiliary zigzags between them, so the gap tail is
    # slow here; flows are checked at the accuracy that gap buys.
    net = make_network(
        [("o", "origin"), ("m", "intermediate"),
         ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o", "s1", 400, 3.0), ("L2", "o", "m", 900, 1.0),
         ("L3", "m", "s1", 900, 1.8), ("L4", "m", "s2", 900, 2.5)],
    )
    productions = {"o": 1200.0}
    result = solve(net, ["s1", "s2"], productions, 1.0, step_rule="exact-line-search",
                   gap_tolerance=5e-4, max_iterations=3000)
    assert result.converged
    reference = convex_route_minimum(net, ["s1", "s2"], productions, 1.0)
    for link_id, flow in reference.items():
        assert result.link_flows[link_id] == pytest.approx(flow, rel=2e-2, abs=1e-6)
    # both parallel approaches to s1 are genuinely used, at near-equal cost
    assert result.link_flows["L1"] > 50 and result.link_flows["L3"] > 50
    direct = result.link_times["L1"]
    via_m = result.link_times["L2"] + result.link_times["L3"]
    assert direct == pytest.approx(via_m, rel=5e-3)
    check_equilibrium_invariants(net, result, productions, 1.0)


def test_deterministic_repeat_solves_are_identical():
    net = two_shelter_network()
    a = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5)
    b = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5)
    assert a.link_flows == b.link_flows
    assert a.od_flows == b.od_flows
    assert a.relative_gap == b.relative_gap
    assert a.iterations == b.iterations


def test_non_converged_result_is_flagged():
    net = two_shelter_network()
    result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, max_iterations=3,
                   gap_tolerance=1e-12)
    assert not result.converged
    assert result.iterations == 3
    assert result.relative_gap > 1e-12


def test_aon_trees_record_one_tree_per_iteration():
    net = two_shelter_network()
    result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, step_rule="exact-line-search")
    assert len(result.aon_trees) == result.iterations
    for trees in result.aon_trees:
        # one tree per open shelter: node -> successor link toward it
        assert set(trees) == {"s1", "s2"}
        assert trees["s1"] == {"o": "L1"}
        assert trees["s2"] == {"o": "L2"}


def test_town_solver_trajectory_is_pinned(sanrocco):
    """Flow updates and capped solves per scenario over every town subset.

    These are the counts of the double-stage solver with the exact line
    search. A kernel change that only reorders floating-point sums keeps
    them; a change to the algorithm updates them here, in the open.
    """
    ids = [c.node_id for c in sanrocco.shelters.candidates]
    config = sanrocco.assignment
    counts = {}
    for scenario in sanrocco.scenarios:
        iterations = capped = 0
        for bits in itertools.product((0, 1), repeat=len(ids)):
            if not any(bits):
                continue
            open_ids = [sid for sid, bit in zip(ids, bits) if bit]
            result = solve_lower_level(
                sanrocco.network, open_ids, scenario, sanrocco.impedance, config
            )
            iterations += result.iterations
            capped += not result.converged and result.iterations >= config.max_iterations
        counts[scenario.name] = (iterations, capped)
    assert counts == {"day": (655, 0), "night": (775, 0), "weekend": (764, 0),
                      "vacation": (3864, 9)}


# ---- gap metric -----------------------------------------------------------


def test_gap_conventions():
    assert relative_gap(0.0, 0.0) == 0.0
    assert relative_gap(0.0, 10.0) == math.inf
    assert relative_gap(10.0, 9.0) == pytest.approx(0.1)
    assert relative_gap(10.0, 11.0) == pytest.approx(0.1)


@given(st.floats(0.1, 1e6), st.floats(0.0, 1e6))
def test_gap_nonnegative(current, auxiliary):
    assert relative_gap(current, auxiliary) >= 0.0


def test_gap_zero_only_at_fixed_point():
    net = two_shelter_network()
    result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, step_rule="exact-line-search",
                   gap_tolerance=1e-10, max_iterations=5000)
    assert result.relative_gap <= 1e-10
    # a perturbed (non-fixed) point has a strictly positive gap
    early = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, max_iterations=1)
    assert early.relative_gap > 1e-6


# ---- objective ------------------------------------------------------------


def empty_result(network):
    zero = {lid: 0.0 for lid in network.link_ids}
    times = {l.id: l.free_flow_min for l in network.links}
    return AssignmentResult(
        link_flows=zero, od_flows={}, link_times=times,
        relative_gap=0.0, iterations=0, converged=True,
    )


def test_objective_zero_at_zero_flow():
    net = two_shelter_network()
    assert lower_level_objective(net, empty_result(net), BETA10) == 0.0


def test_objective_single_link_closed_form():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 1.0)]
    )
    result = AssignmentResult(
        link_flows={"L": 1000.0}, od_flows={}, link_times={"L": 1.15},
        relative_gap=0.0, iterations=1, converged=True,
    )
    assert lower_level_objective(net, result, BETA10) == pytest.approx(1030.0, rel=1e-12)


def test_objective_entropy_convention_at_zero():
    net = two_shelter_network()
    result = AssignmentResult(
        link_flows={"L1": 0.0, "L2": 0.0},
        od_flows={("o", "s1"): 0.0, ("o", "s2"): 0.0},
        link_times={"L1": 5.0, "L2": 6.5},
        relative_gap=0.0, iterations=0, converged=True,
    )
    assert lower_level_objective(net, result, BETA10) == 0.0


def check_every_line_search_descends(monkeypatch):
    """Make each exact line search of the solver assert that its step does
    not raise the objective, phi(lambda) <= phi(0). The objective after a
    flow update is phi(0) of the next one, so this says the objective never
    increases from one update to the next. Returns the steps taken."""
    steps = []

    def checked(t0, cap, V, dV, q, dq, beta):
        lam = _line_search_step(t0, cap, V, dV, q, dq, beta)
        start = _beckmann_entropy(t0, cap, V, q, beta)
        assert _beckmann_entropy(t0, cap, V + lam * dV, q + lam * dq, beta) <= start
        steps.append(lam)
        return lam

    monkeypatch.setattr(assignment_module, "_line_search_step", checked)
    return steps


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_line_search_objective_never_increases(monkeypatch, beta):
    steps = check_every_line_search_descends(monkeypatch)
    result = solve(two_shelter_network(), ["s1", "s2"], {"o": 1000.0}, beta,
                   step_rule="exact-line-search", gap_tolerance=1e-9, max_iterations=3000)
    # every update after the all-or-nothing start is a line search
    assert len(steps) == result.iterations - 1 > 0


def test_line_search_objective_never_increases_on_synthetic_town(monkeypatch):
    steps = check_every_line_search_descends(monkeypatch)
    bundle = load_instance("sanrocco_synthetic")
    vacation = next(s for s in bundle.scenarios if s.name == "vacation")
    candidates = [c.node_id for c in bundle.shelters.candidates]
    assert bundle.assignment.step_rule == "exact-line-search"
    for mask in range(1, 2 ** len(candidates)):
        open_ids = [c for k, c in enumerate(candidates) if mask >> k & 1]
        solve_lower_level(bundle.network, open_ids, vacation, bundle.impedance, bundle.assignment)
    assert steps


# ---- line-search step ------------------------------------------------------


def segment_objective(t0, cap, V, dV, q, dq, beta, lam):
    return _beckmann_entropy(t0, cap, V + lam * dV, q + lam * dq, beta)


def check_step_against_bisection(t0, cap, V, V_aux, q, q_aux, beta):
    """The Newton step lands within 1e-12 of the bisection reference, or
    reaches an objective no higher than the reference's."""
    args = (t0, cap, V, V_aux - V, q, q_aux - q, beta)
    lam = _line_search_step(*args)
    reference = bisection_line_search_step(*args)
    assert 0.0 <= lam <= 1.0
    if abs(lam - reference) > 1e-12:
        # on a flat segment the two minimizers differ by more than 1e-12
        # while their objectives agree to rounding
        ref_objective = segment_objective(*args, reference)
        assert segment_objective(*args, lam) <= ref_objective + 8 * np.spacing(abs(ref_objective))
    return lam, reference


# tiny positive flows make phi'' huge near the segment's ends
flows = st.one_of(st.just(0.0), st.floats(1e-30, 1e-3), st.floats(1e-3, 5000.0))


@st.composite
def line_search_segments(draw):
    n_links = draw(st.integers(1, 6))
    n_pairs = draw(st.integers(0, 6))

    def vector(n, elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    return (
        vector(n_links, st.floats(0.1, 20.0)),
        vector(n_links, st.floats(100.0, 5000.0)),
        vector(n_links, flows),
        vector(n_links, flows),
        vector(n_pairs, flows),
        vector(n_pairs, flows),
        draw(st.floats(0.01, 20.0)),
    )


@given(line_search_segments())
def test_line_search_step_matches_bisection_reference(segment):
    check_step_against_bisection(*segment)


def one_link_segment(V, V_aux, q, q_aux, beta=0.5):
    return (
        np.array([5.0]), np.array([800.0]), np.array([V]), np.array([V_aux]),
        np.array(q, dtype=float), np.array(q_aux, dtype=float), beta,
    )


def test_line_search_step_takes_the_whole_step_when_the_far_end_is_downhill():
    # all flow moves onto an empty link, and phi'(1) <= 0
    assert check_step_against_bisection(*one_link_segment(900.0, 0.0, [], [])) == (1.0, 1.0)


def test_line_search_step_stays_put_when_the_near_end_is_uphill():
    # loading an empty link only adds time, and phi'(0) >= 0
    assert check_step_against_bisection(*one_link_segment(0.0, 900.0, [], [])) == (0.0, 0.0)


def test_line_search_step_with_a_pair_empty_at_the_start():
    # q = 0 on one pair: log 0 and dq/0 at lambda = 0
    lam, reference = check_step_against_bisection(
        *one_link_segment(500.0, 900.0, [0.0, 600.0], [400.0, 200.0])
    )
    assert 0.0 < lam < 1.0
    assert lam == pytest.approx(reference, abs=1e-12)


def test_line_search_step_with_a_pair_empty_at_the_end():
    # q_aux = 0 on one pair: log 0 and dq/0 at lambda = 1
    lam, reference = check_step_against_bisection(
        *one_link_segment(900.0, 500.0, [300.0, 300.0], [600.0, 0.0])
    )
    assert 0.0 < lam < 1.0
    assert lam == pytest.approx(reference, abs=1e-12)


def test_line_search_step_with_a_tiny_pair_flow_at_the_start():
    # q = 1e-20 makes phi''(0) about 1e26 / beta, so the first Newton step
    # is about 5e-22 although the minimizer is halfway along
    lam, reference = check_step_against_bisection(
        *one_link_segment(0.0, 0.0, [1e-20, 1000.0], [1000.0, 0.0], beta=10.0)
    )
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert lam == pytest.approx(reference, abs=1e-12)


def test_line_search_step_with_a_tiny_pair_flow_at_the_end():
    lam, reference = check_step_against_bisection(
        *one_link_segment(0.0, 0.0, [1000.0, 0.0], [1e-20, 1000.0], beta=10.0)
    )
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert lam == pytest.approx(reference, abs=1e-12)


def test_line_search_step_for_a_route_only_move():
    # dq == 0: flow shifts between routes of unchanged origin-shelter pairs
    t0, cap = np.array([5.0, 6.0]), np.array([800.0, 1000.0])
    q = np.array([400.0, 700.0])
    lam, reference = check_step_against_bisection(
        t0, cap, np.array([1100.0, 0.0]), np.array([0.0, 1100.0]), q, q.copy(), 0.5
    )
    assert 0.0 < lam < 1.0
    assert lam == pytest.approx(reference, abs=1e-12)


def test_line_search_step_for_a_shelter_only_move():
    # dV == 0: demand moves between shelters over unchanged link flows
    V = np.array([900.0, 300.0])
    lam, reference = check_step_against_bisection(
        np.array([5.0, 6.0]), np.array([800.0, 1000.0]), V, V.copy(),
        np.array([1000.0, 200.0]), np.array([200.0, 1000.0]), 0.5,
    )
    # the entropy alone is least at the even split, halfway along
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert lam == pytest.approx(reference, abs=1e-12)


def test_converged_objective_below_all_or_nothing_start():
    net = two_shelter_network()
    impedance = ImpedanceParameter(0.5)
    # one flow update is the all-or-nothing start
    start = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, step_rule="exact-line-search",
                  max_iterations=1)
    result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, step_rule="exact-line-search")
    assert start.iterations == 1 < result.iterations
    assert lower_level_objective(net, result, impedance) <= lower_level_objective(
        net, start, impedance
    )


def test_msa_objective_close_to_line_search():
    net = two_shelter_network()
    impedance = ImpedanceParameter(0.5)
    by_rule = {}
    for rule in ("msa", "exact-line-search"):
        result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5, step_rule=rule)
        by_rule[rule] = lower_level_objective(net, result, impedance)
    assert by_rule["msa"] == pytest.approx(by_rule["exact-line-search"], rel=1e-3)


# ---- total evacuation time -----------------------------------------------


def test_total_time_zero_flow():
    net = two_shelter_network()
    assert total_evacuation_time(net, empty_result(net)) == 0.0


def test_total_time_single_link():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 1.0)]
    )
    result = AssignmentResult(
        link_flows={"L": 1000.0}, od_flows={("o", "s"): 1000.0}, link_times={"L": 1.15},
        relative_gap=0.0, iterations=1, converged=True,
    )
    assert total_evacuation_time(net, result) == 1000.0 * 1.15


def test_total_time_at_least_free_flow_time():
    net = two_shelter_network()
    result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5)
    free_flow_total = sum(
        result.link_flows[l.id] * l.free_flow_min for l in net.links
    )
    assert total_evacuation_time(net, result) >= free_flow_total


# ---- constraint violations ------------------------------------------------


def shelter_pair():
    return ShelterSet(
        candidates=(CandidateShelter("s1", 1000.0), CandidateShelter("s2", 1000.0))
    )


def test_no_violations_within_capacity():
    net = two_shelter_network()
    result = solve(net, ["s1", "s2"], {"o": 1000.0}, 0.5)
    shelter_excess, link_excess = constraint_violations(result, shelter_pair(), net)
    assert set(shelter_excess.values()) == {0.0}
    assert set(link_excess.values()) == {0.0}


def test_shelter_excess_is_inflow_minus_capacity():
    net = two_shelter_network()
    shelters = ShelterSet(
        candidates=(CandidateShelter("s1", 1000.0), CandidateShelter("s2", 1000.0))
    )
    result = AssignmentResult(
        link_flows={"L1": 1010.0, "L2": 0.0},
        od_flows={("o", "s1"): 1010.0},
        link_times={"L1": 5.0, "L2": 6.5},
        relative_gap=0.0, iterations=1, converged=True,
    )
    shelter_excess, _ = constraint_violations(result, shelters, net)
    assert shelter_excess == {"s1": 10.0, "s2": 0.0}


def test_closed_shelter_counts_all_inflow():
    net = two_shelter_network()
    shelters = shelter_pair().with_selection((1, 0))
    result = AssignmentResult(
        link_flows={"L1": 0.0, "L2": 5.0},
        od_flows={("o", "s2"): 5.0},
        link_times={"L1": 5.0, "L2": 6.5},
        relative_gap=0.0, iterations=1, converged=True,
    )
    shelter_excess, _ = constraint_violations(result, shelters, net)
    assert shelter_excess == {"s1": 0.0, "s2": 5.0}


def test_link_excess_respects_max_saturation():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("L", "o", "s", 1000, 1.0, 0.8)],
    )
    shelters = ShelterSet(candidates=(CandidateShelter("s", 2000.0),))
    result = AssignmentResult(
        link_flows={"L": 900.0}, od_flows={("o", "s"): 900.0}, link_times={"L": 1.0},
        relative_gap=0.0, iterations=1, converged=True,
    )
    _, link_excess = constraint_violations(result, shelters, net)
    assert link_excess == {"L": pytest.approx(100.0)}
