"""Equilibrium checker and hard invariants, run outside the timed region.

The checker judges a lower-level result by its own arithmetic, not by the
solver's convergence flag:

* share residual: the largest gap between an origin's returned shelter
  shares and the logit shares at the returned link times. Costs come from
  the public `shortest_path_tree`; the logit formula is written out here.
* route gap: (V.t - V_aux.t) / V.t, where V_aux loads the returned
  origin-shelter flows all-or-nothing (public `all_or_nothing`) at the
  returned times. Zero means every vehicle is on a shortest route.

Hard invariants (a breach makes the operation fail): flow conservation at
every node, demand conservation per origin, non-negative link and
origin-shelter flows, and -- where a workload reports one -- a best
objective equal to its re-evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from shelterplan import (
    AssignmentResult,
    DemandScenario,
    Network,
    all_or_nothing,
    shortest_path_tree,
)

SHARE_TOLERANCE = 1e-3
# conservation is exact up to rounding of convex combinations
CONSERVATION_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    share_residual: float
    route_gap: float
    equilibrium_ok: bool
    violations: tuple[str, ...]


def share_residual(
    network: Network, result: AssignmentResult, demand: DemandScenario, beta: float
) -> float:
    by_origin: dict[str, dict[str, float]] = {}
    for (origin, shelter), flow in result.od_flows.items():
        by_origin.setdefault(origin, {})[shelter] = flow
    worst = 0.0
    for origin in sorted(by_origin):
        production = demand.productions[origin]
        costs = shortest_path_tree(network, result.link_times, origin).costs
        reachable = {s: costs[s] for s in by_origin[origin] if s in costs}
        best = min(reachable.values())
        weights = {s: math.exp(-beta * (c - best)) for s, c in reachable.items()}
        total = sum(weights.values())
        for shelter, flow in by_origin[origin].items():
            logit = weights.get(shelter, 0.0) / total
            worst = max(worst, abs(flow / production - logit))
    return worst


def route_gap(network: Network, result: AssignmentResult) -> float:
    aux = all_or_nothing(network, result.od_flows, result.link_times)
    current = sum(result.link_flows[l] * t for l, t in result.link_times.items())
    shortest = sum(aux[l] * t for l, t in result.link_times.items())
    if current == 0.0:
        return 0.0
    return (current - shortest) / current


def invariant_violations(
    network: Network, result: AssignmentResult, demand: DemandScenario
) -> list[str]:
    found: list[str] = []
    negative_links = [l for l, v in result.link_flows.items() if not v >= 0.0]
    if negative_links:
        found.append(f"negative link flow on {len(negative_links)} link(s)")
    if any(not q >= 0.0 for q in result.od_flows.values()):
        found.append("negative origin-shelter flow")

    scale = max(demand.total_vehicles, 1.0) * CONSERVATION_RTOL
    sent: dict[str, float] = {}
    received: dict[str, float] = {}
    for (origin, shelter), flow in result.od_flows.items():
        sent[origin] = sent.get(origin, 0.0) + flow
        received[shelter] = received.get(shelter, 0.0) + flow
    for origin, production in demand.productions.items():
        if production > 0 and abs(sent.get(origin, 0.0) - production) > scale:
            found.append(f"origin {origin}: sends {sent.get(origin, 0.0)!r} of {production!r}")
            break

    balance = {nid: 0.0 for nid in network.node_ids}
    for link in network.links:
        flow = result.link_flows[link.id]
        balance[link.to_node] += flow
        balance[link.from_node] -= flow
    for node_id, net in balance.items():
        expected = received.get(node_id, 0.0) - sent.get(node_id, 0.0)
        if abs(net - expected) > scale:
            found.append(f"node {node_id}: net inflow {net!r}, expected {expected!r}")
            break
    return found


def check_assignment(
    network: Network,
    result: AssignmentResult,
    demand: DemandScenario,
    beta: float,
    gap_tolerance: float,
) -> Verdict:
    residual = share_residual(network, result, demand, beta)
    gap = route_gap(network, result)
    return Verdict(
        share_residual=residual,
        route_gap=gap,
        equilibrium_ok=residual <= SHARE_TOLERANCE and gap <= gap_tolerance,
        violations=tuple(invariant_violations(network, result, demand)),
    )


def objective_mismatch(name: str, reported: float, recomputed: float) -> list[str]:
    """The hard invariant that a reported objective equals its re-evaluation."""
    if reported == recomputed:
        return []
    return [f"{name}: reported objective {reported!r} != re-evaluated {recomputed!r}"]


def aon_tree_entries(result: AssignmentResult) -> int:
    """Predecessor entries the result keeps in `aon_trees` (memory it holds)."""
    return sum(len(tree) for trees in result.aon_trees for tree in trees.values())

