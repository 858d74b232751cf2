"""Lower-level equilibrium: combined logit shelter choice and route assignment.

Evacuees distribute themselves over the open shelters by a logit model of
travel times and take minimum-time routes; congestion feeds back through
the BPR link times. The solver is the classic double-stage scheme: each
iteration recomputes shortest-path costs, splits demand by logit, loads it
all-or-nothing, and blends with the current flows (successive averages or
an exact line search on the convex objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .network import (
    BPR_COEFFICIENT,
    BPR_EXPONENT,
    Network,
    _dijkstra_indexed,
    bpr_times_array,
)
from .problem import AssignmentConfig, DemandScenario, ImpedanceParameter, ShelterSet


class InfeasibleOriginError(Exception):
    """An origin with positive production cannot reach any open shelter."""

    def __init__(self, origin: str, message: str | None = None):
        self.origin = origin
        super().__init__(message or f"origin {origin!r} cannot reach any open shelter")


class UnreachablePairError(Exception):
    """A positive origin-shelter flow has no connecting path."""

    def __init__(self, origin: str, shelter: str):
        self.origin = origin
        self.shelter = shelter
        super().__init__(f"no path from origin {origin!r} to shelter {shelter!r}")


@dataclass(frozen=True)
class AssignmentResult:
    """Converged (or iteration-capped) state of the lower-level solve.

    od_flows holds one entry per (positive-production origin, open shelter)
    pair, zero where the pair is unreachable. aon_trees keeps the
    shortest-path predecessor maps used by each flow update (origin id ->
    node id -> incoming link id), which implicitly encode the route sets
    the loading used; len(aon_trees) == iterations. aon_trees and
    objective_history are in-memory diagnostics and are not serialized.
    """

    link_flows: dict[str, float]
    od_flows: dict[tuple[str, str], float]
    link_times: dict[str, float]
    relative_gap: float
    iterations: int
    converged: bool
    aon_trees: tuple[dict[str, dict[str, str]], ...] = field(default=(), metadata={"json": False})
    objective_history: tuple[float, ...] = field(default=(), metadata={"json": False})


def relative_gap(total_current: float, total_auxiliary: float) -> float:
    """|current - auxiliary| / current with the 0/0 -> 0 convention.

    Nonnegative, and zero exactly when the all-or-nothing reloading
    reproduces the current total travel time (a fixed point of the
    double-stage map).
    """
    diff = abs(total_current - total_auxiliary)
    if total_current == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / total_current


def logit_distribution(
    productions: Mapping[str, float],
    costs: Mapping[tuple[str, str], float],
    impedance: ImpedanceParameter,
) -> dict[tuple[str, str], float]:
    """Split each origin's production over shelters by exp(-beta * cost).

    `costs` carries the available (origin, shelter) pairs; entries with
    infinite cost are treated as unreachable and dropped from the choice
    set. Origins with zero production contribute no entries. Raises
    InfeasibleOriginError for a positive-production origin left with no
    reachable shelter.
    """
    beta = impedance.beta
    split: dict[tuple[str, str], float] = {}
    for origin in sorted(productions):
        production = productions[origin]
        if production < 0 or not math.isfinite(production):
            raise ValueError(f"production for origin {origin!r} must be finite and >= 0")
        if production == 0:
            continue
        options = sorted(
            (shelter, cost)
            for (o, shelter), cost in costs.items()
            if o == origin and math.isfinite(cost)
        )
        if not options:
            raise InfeasibleOriginError(origin)
        best = min(cost for _, cost in options)
        weights = [math.exp(-beta * (cost - best)) for _, cost in options]
        total = sum(weights)
        for (shelter, _), weight in zip(options, weights):
            split[(origin, shelter)] = production * weight / total
    return split


def _logit_rows(
    productions: np.ndarray, cost: np.ndarray, beta: float, origins: Sequence[str]
) -> np.ndarray:
    """Row-wise stabilized logit split; cost rows may contain inf (unreachable)."""
    q = np.zeros_like(cost)
    for i in range(cost.shape[0]):
        row = cost[i]
        finite = np.isfinite(row)
        if not finite.any():
            raise InfeasibleOriginError(origins[i])
        weights = np.zeros_like(row)
        weights[finite] = np.exp(-beta * (row[finite] - row[finite].min()))
        q[i] = productions[i] * weights / weights.sum()
    return q


def all_or_nothing(
    network: Network,
    od_flows: Mapping[tuple[str, str], float],
    link_times: Mapping[str, float],
) -> dict[str, float]:
    """Load each origin-shelter flow entirely onto its current shortest path.

    Ties in path cost resolve toward lower link ids, so the loading is
    deterministic. Raises UnreachablePairError when a pair with positive
    flow has no path.
    """
    times = network.times_to_array(link_times)
    by_origin: dict[str, list[tuple[str, float]]] = {}
    for (origin, shelter), flow in od_flows.items():
        if flow < 0 or not math.isfinite(flow):
            raise ValueError(f"flow for pair ({origin!r}, {shelter!r}) must be finite and >= 0")
        by_origin.setdefault(origin, []).append((shelter, flow))
    flows = np.zeros(len(network.link_ids))
    tails = _tail_indices(network)
    for origin in sorted(by_origin):
        if origin not in network.node_index:
            raise ValueError(f"origin {origin!r} is not a network node")
        origin_idx = network.node_index[origin]
        dist, pred = _dijkstra_indexed(network, times, origin_idx)
        for shelter, flow in sorted(by_origin[origin]):
            if flow == 0:
                continue
            shelter_idx = network.node_index.get(shelter)
            if shelter_idx is None:
                raise ValueError(f"shelter {shelter!r} is not a network node")
            if math.isinf(dist[shelter_idx]):
                raise UnreachablePairError(origin, shelter)
            _walk_path(flows, pred, tails, origin_idx, shelter_idx, flow)
    return network.link_dict(flows)


def _tail_indices(network: Network) -> list[int]:
    index = network.node_index
    return [index.get(link.from_node, -1) for link in network.sorted_links]


def _walk_path(
    flows: np.ndarray,
    pred: Sequence[int],
    tails: Sequence[int],
    origin_idx: int,
    node_idx: int,
    flow: float,
) -> None:
    while node_idx != origin_idx:
        li = pred[node_idx]
        flows[li] += flow
        node_idx = tails[li]


def _beckmann_entropy(
    t0: np.ndarray, cap: np.ndarray, V: np.ndarray, q: np.ndarray, beta: float
) -> float:
    """Closed-form objective: sum of BPR integrals plus scaled flow entropy.

    The integral of t0*(1+0.15*(w/C)^4) from 0 to V is
    t0*V + 0.15*t0*V^5/(5*C^4); entropy terms use the q*(ln q - 1) -> 0
    convention at q = 0.
    """
    beckmann = float(
        np.sum(t0 * V + (BPR_COEFFICIENT / (BPR_EXPONENT + 1)) * t0 * V ** 5 / cap ** 4)
    )
    positive = q[q > 0]
    entropy = float(np.sum(positive * (np.log(positive) - 1.0))) if positive.size else 0.0
    return beckmann + entropy / beta


def _line_search_step(
    t0: np.ndarray,
    cap: np.ndarray,
    V: np.ndarray,
    dV: np.ndarray,
    q: np.ndarray,
    dq: np.ndarray,
    beta: float,
) -> float:
    """Minimize the convex objective along the blend segment by bisecting
    its directional derivative over lambda in [0, 1]."""
    moving = dq != 0.0
    dq_m = dq[moving]
    q_m = q[moving]

    def derivative(lam: float) -> float:
        value = float(np.dot(bpr_times_array(t0, cap, V + lam * dV), dV))
        if dq_m.size:
            with np.errstate(divide="ignore"):
                logs = np.log(q_m + lam * dq_m)
            value += float(np.dot(logs, dq_m)) / beta
        return value

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


def solve_lower_level(
    network: Network,
    open_shelters: Iterable[str],
    demand: DemandScenario,
    impedance: ImpedanceParameter,
    config: AssignmentConfig,
) -> AssignmentResult:
    """Solve the evacuees' combined shelter/route choice equilibrium.

    Deterministic double-stage iteration: starting from free-flow times,
    each pass builds shortest-path trees per origin, splits demand by
    logit at those costs, loads it all-or-nothing on the same trees, and
    blends flows with step 1/k (msa) or the exact line search. Stops when
    the relative gap drops to config.gap_tolerance, or flags the result
    non-converged after config.max_iterations flow updates.
    """
    open_ids = sorted(set(open_shelters))
    if not open_ids:
        raise ValueError("open_shelters must be non-empty")
    for sid in open_ids:
        if sid not in network.node_index:
            raise ValueError(f"open shelter {sid!r} is not a network node")
    origins = sorted(o for o, p in demand.productions.items() if p > 0)
    for origin in origins:
        if origin not in network.node_index:
            raise ValueError(f"demand origin {origin!r} is not a network node")
    productions = np.array([demand.productions[o] for o in origins], dtype=float)
    origin_idx = [network.node_index[o] for o in origins]
    shelter_idx = [network.node_index[s] for s in open_ids]
    beta = impedance.beta
    t0 = network.free_flow_array
    cap = network.capacity_array
    tails = _tail_indices(network)
    node_ids = network.node_ids
    link_ids = network.link_ids

    n_links = len(link_ids)
    V = np.zeros(n_links)
    q = np.zeros((len(origins), len(open_ids)))
    times = t0.copy()
    aon_trees: list[dict[str, dict[str, str]]] = []
    objective_history: list[float] = []
    iterations = 0
    converged = False

    while True:
        preds: list[list[int]] = []
        cost = np.empty((len(origins), len(open_ids)))
        for i, oi in enumerate(origin_idx):
            dist, pred = _dijkstra_indexed(network, times, oi)
            preds.append(pred)
            cost[i] = [dist[si] for si in shelter_idx]
        q_aux = _logit_rows(productions, cost, beta, origins)

        V_aux = np.zeros(n_links)
        for i, oi in enumerate(origin_idx):
            for s, si in enumerate(shelter_idx):
                flow = q_aux[i, s]
                if flow > 0:
                    _walk_path(V_aux, preds[i], tails, oi, si, flow)

        gap = relative_gap(float(np.dot(V, times)), float(np.dot(V_aux, times)))
        if gap <= config.gap_tolerance:
            converged = True
            break
        if iterations >= config.max_iterations:
            break

        if iterations == 0:
            lam = 1.0  # first pass is the plain all-or-nothing start
        elif config.step_rule == "msa":
            lam = 1.0 / (iterations + 1)
        else:
            lam = _line_search_step(t0, cap, V, V_aux - V, q.ravel(), (q_aux - q).ravel(), beta)
        V = V + lam * (V_aux - V)
        q = q + lam * (q_aux - q)
        times = bpr_times_array(t0, cap, V)
        iterations += 1
        aon_trees.append(
            {
                origins[i]: {
                    node_ids[v]: link_ids[preds[i][v]]
                    for v in range(len(node_ids))
                    if preds[i][v] >= 0
                }
                for i in range(len(origins))
            }
        )
        objective_history.append(_beckmann_entropy(t0, cap, V, q.ravel(), beta))

    od_flows = {
        (origins[i], open_ids[s]): float(q[i, s])
        for i in range(len(origins))
        for s in range(len(open_ids))
    }
    return AssignmentResult(
        link_flows=network.link_dict(V),
        od_flows=od_flows,
        link_times=network.link_dict(times),
        relative_gap=gap,
        iterations=iterations,
        converged=converged,
        aon_trees=tuple(aon_trees),
        objective_history=tuple(objective_history),
    )


def lower_level_objective(
    network: Network, result: AssignmentResult, impedance: ImpedanceParameter
) -> float:
    """Evaluate the evacuees' objective (BPR integrals + scaled entropy) at
    a result's flows."""
    V = np.array([result.link_flows.get(lid, 0.0) for lid in network.link_ids])
    q = np.array(list(result.od_flows.values())) if result.od_flows else np.zeros(0)
    if np.any(V < 0) or np.any(q < 0):
        raise ValueError("flows must be non-negative")
    return _beckmann_entropy(
        network.free_flow_array, network.capacity_array, V, q, impedance.beta
    )


def total_evacuation_time(network: Network, result: AssignmentResult) -> float:
    """Total vehicle-minutes spent: sum of V_a * t_a(V_a) over links."""
    V = np.array([result.link_flows.get(lid, 0.0) for lid in network.link_ids])
    times = bpr_times_array(network.free_flow_array, network.capacity_array, V)
    return float(np.dot(V, times))


def constraint_violations(
    result: AssignmentResult, shelters: ShelterSet, network: Network
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-shelter and per-link capacity excess (zero where satisfied).

    A closed shelter has effective capacity zero, so any flow reaching it
    counts in full.
    """
    inflow: dict[str, float] = {c.node_id: 0.0 for c in shelters.candidates}
    for (_, shelter), flow in result.od_flows.items():
        if shelter in inflow:
            inflow[shelter] += flow
    shelter_excess = {
        c.node_id: max(inflow[c.node_id] - c.capacity_vph * bit, 0.0)
        for c, bit in zip(shelters.candidates, shelters.selection)
    }
    link_excess = {
        link.id: max(
            result.link_flows.get(link.id, 0.0) - link.max_saturation * link.capacity_vph, 0.0
        )
        for link in network.sorted_links
    }
    return shelter_excess, link_excess
