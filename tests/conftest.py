from __future__ import annotations

import math
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

from shelterplan.io import ProblemBundle, load_problem
from shelterplan.network import Link, Network, Node, bpr_time, shortest_path_tree

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

TOY_INSTANCES = ("toy_two_shelters", "toy_two_origins", "toy_y")
DESK_INSTANCES = ("desk_a", "desk_b", "desk_c")
ALL_INSTANCES = TOY_INSTANCES + DESK_INSTANCES + ("sanrocco_synthetic",)


def make_network(nodes, links) -> Network:
    """Compact builder: nodes as (id, kind), links as
    (id, from, to, capacity, free_flow[, max_saturation])."""
    return Network(
        nodes=[Node(i, k) for i, k in nodes],
        links=[Link(l[0], l[1], l[2], l[3], l[4], l[5] if len(l) > 5 else 1.0) for l in links],
    )


@st.composite
def small_digraphs(draw, times=st.floats(0.1, 10.0)):
    """Random directed graphs on up to 8 nodes: (network, link-id -> time),
    with link times drawn from `times`."""
    n_nodes = draw(st.integers(2, 8))
    node_ids = [f"n{i}" for i in range(n_nodes)]
    n_links = draw(st.integers(1, 16))
    links = []
    for k in range(n_links):
        u = draw(st.integers(0, n_nodes - 1))
        v = draw(st.integers(0, n_nodes - 1))
        if u == v:
            v = (v + 1) % n_nodes
        time = draw(times)
        links.append((f"e{k:02d}", node_ids[u], node_ids[v], 1000.0, time))
    net = make_network([(nid, "intermediate") for nid in node_ids], links)
    return net, {l[0]: l[4] for l in links}


def two_shelter_network() -> Network:
    return make_network(
        [("o", "origin"), ("s1", "shelter-candidate"), ("s2", "shelter-candidate")],
        [("L1", "o", "s1", 800, 5.0), ("L2", "o", "s2", 1000, 6.5)],
    )


def load_instance(name: str) -> ProblemBundle:
    """Load a bundled instance directory by its layout conventions."""
    root = DATA_DIR / name
    scenarios = sorted(root.glob("scenario*.json"))
    return load_problem(root, root / "shelters.csv", scenarios, root / "config.txt")


@pytest.fixture(scope="session")
def sanrocco() -> ProblemBundle:
    return load_instance("sanrocco_synthetic")


@pytest.fixture(scope="session", params=TOY_INSTANCES)
def toy_bundle(request) -> ProblemBundle:
    return load_instance(request.param)


@pytest.fixture(scope="session", params=DESK_INSTANCES)
def desk_bundle(request) -> ProblemBundle:
    return load_instance(request.param)


def check_equilibrium_invariants(network, result, productions, beta, check_shares=True):
    """Suite-wide assertions for any converged assignment result:
    BPR-consistent times, per-origin production conservation (1e-9
    relative), aggregate shelter-inflow balance (1e-6 relative), and,
    when requested, logit-share consistency at the converged costs
    (1e-2 per share)."""
    for link_id, flow in result.link_flows.items():
        assert flow >= 0
        link = network.links_by_id[link_id]
        assert result.link_times[link_id] == pytest.approx(
            bpr_time(link.free_flow_min, link.capacity_vph, flow), rel=1e-12
        )
    for origin, production in productions.items():
        if production == 0:
            continue
        row = sum(f for (o, _), f in result.od_flows.items() if o == origin)
        assert row == pytest.approx(production, rel=1e-9)
    shelters = {s for (_, s) in result.od_flows}
    inflow = sum(
        result.link_flows[network.link_ids[li]]
        for shelter in shelters
        for li, _ in network.reverse_adjacency[network.node_index[shelter]]
    )
    total = sum(productions.values())
    assert inflow == pytest.approx(total, rel=1e-6)
    if not check_shares:
        return
    for origin, production in productions.items():
        if production == 0:
            continue
        costs = shortest_path_tree(network, result.link_times, origin).costs
        flows = {s: f for (o, s), f in result.od_flows.items() if o == origin}
        names = sorted(flows)
        best = min(costs[s] for s in names)
        weights = {s: math.exp(-beta * (costs[s] - best)) for s in names}
        denominator = sum(weights.values())
        for s in names:
            assert flows[s] / production == pytest.approx(
                weights[s] / denominator, abs=1e-2
            )
