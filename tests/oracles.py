"""Independent reference computations used only by the test suite.

Everything here deliberately avoids the production solver's machinery:
routes are enumerated explicitly, costs are sequential sums over explicit
paths, and the equilibrium is found as a damped fixed point over route
flows (or, as a cross-check, by direct convex minimization with scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from shelterplan.network import Network, bpr_times_array


def simple_paths(network: Network, origin: str, target: str) -> list[tuple[str, ...]]:
    """All simple paths origin -> target as link-id tuples, in the
    deterministic order induced by ascending link ids."""
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for link in network.sorted_links:
        adjacency.setdefault(link.from_node, []).append((link.id, link.to_node))
    paths: list[tuple[str, ...]] = []

    def walk(node: str, visited: set[str], trail: list[str]) -> None:
        if node == target:
            paths.append(tuple(trail))
            return
        for link_id, head in adjacency.get(node, ()):
            if head in visited:
                continue
            visited.add(head)
            trail.append(link_id)
            walk(head, visited, trail)
            trail.pop()
            visited.discard(head)

    walk(origin, {origin}, [])
    return paths


def path_cost(path: Sequence[str], link_times: dict[str, float]) -> float:
    """Sequential left-to-right sum, matching the accumulation order of a
    label-setting shortest-path search."""
    total = 0.0
    for link_id in path:
        total = total + link_times[link_id]
    return total


def min_cost_by_enumeration(
    network: Network, link_times: dict[str, float], origin: str, target: str
) -> float | None:
    routes = simple_paths(network, origin, target)
    if not routes:
        return None
    return min(path_cost(path, link_times) for path in routes)


@dataclass
class RouteEquilibrium:
    link_flows: dict[str, float]
    od_flows: dict[tuple[str, str], float]
    route_flows: dict[tuple[str, str, tuple[str, ...]], float]
    residual: float
    iterations: int


def route_fixed_point(
    network: Network,
    open_shelters: Sequence[str],
    productions: dict[str, float],
    beta: float,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iterations: int = 200_000,
) -> RouteEquilibrium:
    """Damped fixed-point iteration over explicitly enumerated route flows.

    Each pass recomputes BPR times from the current route flows, splits
    every origin's production over shelters by logit of the minimum route
    cost, assigns each split to its minimum-cost route, and moves the
    route-flow vector a `damping` fraction toward that target. Converges
    when the largest route-flow change of an undamped step is below tol.
    """
    origins = sorted(o for o, p in productions.items() if p > 0)
    shelters = sorted(open_shelters)
    routes: list[tuple[str, str, tuple[str, ...]]] = []
    for origin in origins:
        available = False
        for shelter in shelters:
            for path in simple_paths(network, origin, shelter):
                routes.append((origin, shelter, path))
                available = True
        if not available:
            raise ValueError(f"origin {origin!r} has no route to any open shelter")

    link_ids = list(network.link_ids)
    capacity = {l.id: l.capacity_vph for l in network.links}
    free_flow = {l.id: l.free_flow_min for l in network.links}

    flows = np.zeros(len(routes))
    for origin in origins:
        indices = [k for k, (o, _, _) in enumerate(routes) if o == origin]
        flows[indices] = productions[origin] / len(indices)

    residual = math.inf
    for iteration in range(1, max_iterations + 1):
        link_flow = {lid: 0.0 for lid in link_ids}
        for k, (_, _, path) in enumerate(routes):
            for lid in path:
                link_flow[lid] += flows[k]
        times = {
            lid: free_flow[lid] * (1.0 + 0.15 * (link_flow[lid] / capacity[lid]) ** 4)
            for lid in link_ids
        }
        costs = [path_cost(path, times) for (_, _, path) in routes]
        target = np.zeros_like(flows)
        for origin in origins:
            per_shelter: dict[str, tuple[int, float]] = {}
            for k, (o, shelter, _) in enumerate(routes):
                if o != origin:
                    continue
                if shelter not in per_shelter or costs[k] < per_shelter[shelter][1]:
                    per_shelter[shelter] = (k, costs[k])
            names = sorted(per_shelter)
            best = min(per_shelter[s][1] for s in names)
            weights = [math.exp(-beta * (per_shelter[s][1] - best)) for s in names]
            total_weight = sum(weights)
            for s, w in zip(names, weights):
                target[per_shelter[s][0]] += productions[origin] * w / total_weight
        residual = float(np.max(np.abs(target - flows)))
        if residual <= tol:
            break
        flows = flows + damping * (target - flows)

    link_flow = {lid: 0.0 for lid in link_ids}
    od: dict[tuple[str, str], float] = {}
    route_flow: dict[tuple[str, str, tuple[str, ...]], float] = {}
    for k, (origin, shelter, path) in enumerate(routes):
        route_flow[(origin, shelter, path)] = float(flows[k])
        od[(origin, shelter)] = od.get((origin, shelter), 0.0) + float(flows[k])
        for lid in path:
            link_flow[lid] += float(flows[k])
    return RouteEquilibrium(
        link_flows=link_flow,
        od_flows=od,
        route_flows=route_flow,
        residual=residual,
        iterations=iteration,
    )


def convex_route_minimum(
    network: Network,
    open_shelters: Sequence[str],
    productions: dict[str, float],
    beta: float,
) -> dict[str, float]:
    """Cross-check: minimize the closed-form objective over route flows
    with scipy (SLSQP with analytic gradient); returns link flows."""
    from scipy.optimize import minimize

    origins = sorted(o for o, p in productions.items() if p > 0)
    shelters = sorted(open_shelters)
    routes: list[tuple[str, str, tuple[str, ...]]] = []
    for origin in origins:
        for shelter in shelters:
            for path in simple_paths(network, origin, shelter):
                routes.append((origin, shelter, path))

    link_ids = list(network.link_ids)
    link_pos = {lid: i for i, lid in enumerate(link_ids)}
    incidence = np.zeros((len(link_ids), len(routes)))
    for k, (_, _, path) in enumerate(routes):
        for lid in path:
            incidence[link_pos[lid], k] += 1.0
    od_pairs = sorted({(o, s) for (o, s, _) in routes})
    od_pos = {pair: i for i, pair in enumerate(od_pairs)}
    aggregation = np.zeros((len(od_pairs), len(routes)))
    for k, (o, s, _) in enumerate(routes):
        aggregation[od_pos[(o, s)], k] = 1.0

    t0 = np.array([network.links_by_id[lid].free_flow_min for lid in link_ids])
    cap = np.array([network.links_by_id[lid].capacity_vph for lid in link_ids])
    tiny = 1e-300

    def objective(f: np.ndarray) -> float:
        v = incidence @ f
        beckmann = np.sum(t0 * v + 0.15 * t0 * v ** 5 / (5 * cap ** 4))
        q = aggregation @ f
        return float(beckmann + np.sum(q * (np.log(np.maximum(q, tiny)) - 1.0)) / beta)

    def gradient(f: np.ndarray) -> np.ndarray:
        v = incidence @ f
        times = t0 * (1.0 + 0.15 * (v / cap) ** 4)
        q = aggregation @ f
        return incidence.T @ times + (aggregation.T @ np.log(np.maximum(q, tiny))) / beta

    constraints = []
    for origin in origins:
        mask = np.array([1.0 if o == origin else 0.0 for (o, _, _) in routes])
        constraints.append(
            {"type": "eq", "fun": lambda f, m=mask, p=productions[origin]: m @ f - p,
             "jac": lambda f, m=mask: m}
        )
    start = np.zeros(len(routes))
    for origin in origins:
        indices = [k for k, (o, _, _) in enumerate(routes) if o == origin]
        start[indices] = productions[origin] / len(indices)
    solution = minimize(
        objective,
        start,
        jac=gradient,
        bounds=[(0.0, None)] * len(routes),
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert solution.success, solution.message
    v = incidence @ solution.x
    return {lid: float(v[link_pos[lid]]) for lid in link_ids}


def bisection_line_search_step(
    t0: np.ndarray,
    cap: np.ndarray,
    V: np.ndarray,
    dV: np.ndarray,
    q: np.ndarray,
    dq: np.ndarray,
    beta: float,
) -> float:
    """Reference for the solver's exact line search: minimize the convex
    objective along the blend segment by bisecting its directional
    derivative over lambda in [0, 1] (the solver's step before it took
    Newton steps on the closed-form second derivative)."""
    moving = dq != 0.0
    dq_m = dq[moving]
    q_m = q[moving]

    def derivative(lam: float) -> float:
        value = float(np.dot(bpr_times_array(t0, cap, V + lam * dV), dV))
        if dq_m.size:
            value += float(np.dot(np.log(q_m + lam * dq_m), dq_m)) / beta
        return value

    # log(0) = -inf where a pair's flow reaches zero at an end of the segment
    with np.errstate(divide="ignore"):
        if derivative(1.0) <= 0.0:
            return 1.0
        if derivative(0.0) >= 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if derivative(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
    return 0.5 * (lo + hi)
