import math

import pytest
from hypothesis import given, strategies as st

from shelterplan.network import (
    Link,
    Network,
    Node,
    bpr_time,
    shortest_path_tree,
    validate_network,
)
from shelterplan.problem import CandidateShelter, ShelterSet

from conftest import make_network, small_digraphs
from oracles import min_cost_by_enumeration, path_cost, simple_paths


# ---- BPR ------------------------------------------------------------------


def test_bpr_zero_flow_is_free_flow():
    assert bpr_time(1.0, 1000.0, 0.0) == 1.0


def test_bpr_at_capacity():
    assert bpr_time(1.0, 1000.0, 1000.0) == 1.15


def test_bpr_direct_substitution():
    assert bpr_time(2.0, 500.0, 1000.0) == 6.8


@pytest.mark.parametrize(
    "t0,cap,flow",
    [
        (-1.0, 100.0, 0.0),
        (0.0, 100.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, -5.0, 0.0),
        (1.0, 100.0, -1.0),
        (float("nan"), 100.0, 0.0),
        (1.0, float("inf"), 0.0),
        (1.0, 100.0, float("inf")),
    ],
)
def test_bpr_rejects_bad_inputs(t0, cap, flow):
    with pytest.raises(ValueError):
        bpr_time(t0, cap, flow)


@given(
    t0=st.floats(0.1, 1e3),
    cap=st.floats(1.0, 1e5),
    ratio=st.floats(0.0, 3.0),
    bump=st.floats(0.01, 3.0),
)
def test_bpr_strictly_increasing_in_flow(t0, cap, ratio, bump):
    low = bpr_time(t0, cap, ratio * cap)
    high = bpr_time(t0, cap, (ratio + bump) * cap)
    assert low < high


@given(t0=st.floats(0.01, 1e4), cap=st.floats(0.01, 1e6))
def test_bpr_zero_flow_exact(t0, cap):
    assert bpr_time(t0, cap, 0.0) == t0


# ---- shortest paths -------------------------------------------------------


def test_single_link_tree():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 5.0)]
    )
    tree = shortest_path_tree(net, {"L": 5.0}, "o")
    assert tree.costs == {"o": 0.0, "s": 5.0}
    assert tree.predecessors == {"s": "L"}


def test_origin_without_exits_reaches_nothing():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate"), ("x", "intermediate")],
        [("L", "x", "s", 1000, 2.0)],
    )
    tree = shortest_path_tree(net, {"L": 2.0}, "o")
    assert tree.costs == {"o": 0.0}
    assert tree.predecessors == {}


def test_triangle_shortcut_wins():
    net = make_network(
        [("o", "origin"), ("a", "intermediate"), ("s", "shelter-candidate")],
        [("L1", "o", "a", 1000, 2.0), ("L2", "a", "s", 1000, 2.0), ("L3", "o", "s", 1000, 5.0)],
    )
    times = {"L1": 2.0, "L2": 2.0, "L3": 5.0}
    tree = shortest_path_tree(net, times, "o")
    assert tree.costs["s"] == min_cost_by_enumeration(net, times, "o", "s") == 4.0
    assert tree.predecessors["s"] == "L2"


def test_parallel_links_take_faster_one():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("La", "o", "s", 1000, 5.0), ("Lb", "o", "s", 1000, 3.0)],
    )
    tree = shortest_path_tree(net, {"La": 5.0, "Lb": 3.0}, "o")
    assert tree.costs["s"] == 3.0
    assert tree.predecessors["s"] == "Lb"


def test_equal_cost_tie_goes_to_lower_link_id():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("La", "o", "s", 1000, 3.0), ("Lb", "o", "s", 1000, 3.0)],
    )
    tree = shortest_path_tree(net, {"La": 3.0, "Lb": 3.0}, "o")
    assert tree.predecessors["s"] == "La"


def test_missing_link_time_is_an_error():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 5.0)]
    )
    with pytest.raises(ValueError, match="L"):
        shortest_path_tree(net, {}, "o")


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_nonpositive_link_time_is_an_error(bad):
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 5.0)]
    )
    with pytest.raises(ValueError):
        shortest_path_tree(net, {"L": bad}, "o")


def test_unknown_origin_is_an_error():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")], [("L", "o", "s", 1000, 5.0)]
    )
    with pytest.raises(ValueError, match="nope"):
        shortest_path_tree(net, {"L": 5.0}, "nope")


@given(small_digraphs())
def test_tree_costs_match_exhaustive_enumeration(graph):
    net, times = graph
    tree = shortest_path_tree(net, times, "n0")
    for node in net.node_ids:
        expected = min_cost_by_enumeration(net, times, "n0", node)
        if node == "n0":
            assert tree.costs[node] == 0.0
        elif expected is None:
            assert node not in tree.costs
        else:
            assert tree.costs[node] == expected


@given(small_digraphs())
def test_tree_costs_satisfy_relaxation(graph):
    net, times = graph
    tree = shortest_path_tree(net, times, "n0")
    for link in net.links:
        if link.from_node in tree.costs:
            assert link.to_node in tree.costs
            assert tree.costs[link.to_node] <= tree.costs[link.from_node] + times[link.id] + 1e-9


@given(small_digraphs())
def test_predecessor_chain_reconstructs_cost(graph):
    net, times = graph
    tree = shortest_path_tree(net, times, "n0")
    for node, cost in tree.costs.items():
        trail = []
        cursor = node
        while cursor != "n0":
            link = net.links_by_id[tree.predecessors[cursor]]
            trail.append(link.id)
            cursor = link.from_node
        assert path_cost(reversed(trail), times) == pytest.approx(cost, abs=1e-12)


# ---- construction guards --------------------------------------------------


def test_link_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Link("L", "a", "a", 100.0, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(capacity_vph=0.0, free_flow_min=1.0),
        dict(capacity_vph=-10.0, free_flow_min=1.0),
        dict(capacity_vph=100.0, free_flow_min=0.0),
        dict(capacity_vph=100.0, free_flow_min=-1.0),
        dict(capacity_vph=100.0, free_flow_min=1.0, max_saturation=0.0),
        dict(capacity_vph=100.0, free_flow_min=1.0, max_saturation=1.2),
    ],
)
def test_link_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Link("L", "a", "b", **kwargs)


def test_node_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Node("n", "depot")


# ---- validation -----------------------------------------------------------


def valid_toy():
    net = make_network(
        [("o", "origin"), ("m", "intermediate"), ("s", "shelter-candidate")],
        [("L1", "o", "m", 1000, 1.0), ("L2", "m", "s", 1000, 1.0)],
    )
    shelters = ShelterSet(candidates=(CandidateShelter("s", 500.0),))
    return net, shelters


def test_valid_network_has_empty_report():
    net, shelters = valid_toy()
    assert validate_network(net, shelters) == []


def test_unknown_endpoint_names_the_link():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate")],
        [("L1", "o", "s", 1000, 1.0), ("L2", "o", "ghost", 1000, 1.0)],
    )
    findings = validate_network(net)
    assert any(f.code == "unknown-endpoint" and f.subject == "L2" for f in findings)


def test_isolated_origin_names_the_origin():
    net = make_network(
        [("o1", "origin"), ("o2", "origin"), ("s", "shelter-candidate"),
         ("dead", "intermediate")],
        [("L1", "o1", "s", 1000, 1.0), ("L2", "o2", "dead", 1000, 1.0)],
    )
    findings = validate_network(net)
    assert [f.subject for f in findings if f.code == "origin-isolated"] == ["o2"]


def test_duplicate_ids_reported():
    net = Network(
        nodes=[Node("a", "origin"), Node("a", "origin"), Node("s", "shelter-candidate")],
        links=[Link("L", "a", "s", 100, 1.0), Link("L", "a", "s", 100, 2.0)],
    )
    codes = {f.code for f in validate_network(net)}
    assert "duplicate-node" in codes and "duplicate-link" in codes


def test_degree_invariants_reported():
    net = make_network(
        [("o", "origin"), ("s", "shelter-candidate"), ("x", "intermediate")],
        [("L1", "x", "o", 1000, 1.0)],
    )
    codes = {f.code for f in validate_network(net)}
    assert "origin-no-exit" in codes and "shelter-no-entry" in codes


def test_shelter_cross_references_checked():
    net, _ = valid_toy()
    shelters = ShelterSet(
        candidates=(CandidateShelter("ghost", 10.0), CandidateShelter("m", 10.0))
    )
    codes = {f.code for f in validate_network(net, shelters)}
    assert "unknown-shelter-node" in codes and "shelter-kind-mismatch" in codes
