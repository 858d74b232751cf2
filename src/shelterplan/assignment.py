"""Lower-level equilibrium: combined logit shelter choice and route assignment.

Evacuees distribute themselves over the open shelters by a logit model of
travel times and take minimum-time routes; congestion feeds back through
the BPR link times. The solver is Evans' (1976) double-stage scheme, and
each pass runs one array kernel:

1. one shortest-path tree per open shelter: every node's cost to that
   shelter and its successor link toward it (on exact cost ties the lower
   link id wins), so the origin x shelter cost matrix needs |open
   shelters| searches, not |origins|. The network numbers its nodes core
   first and the zones after them (`network.CoreGraph`); a zone is a node
   with no incoming link, such as an origin hanging off the roads by its
   connectors. One search per shelter runs over the reversed graph of the
   core, and one NumPy gather-add then prices every zone for all open
   shelters at once through its out-links. The first pass of a solve runs
   at free-flow times, so its core trees come from the network's cache;
2. one logit split of that whole matrix;
3. all-or-nothing loading of each shelter's column of the split: the
   zones' flows go onto their out-links at once, and then each core tree
   is walked from its far end back to the shelter;
4. a blend with the current flows: successive averages, or an exact
   line search on the convex objective, which takes safeguarded Newton
   steps on its closed-form first and second derivatives along the blend
   segment.

`logit_distribution` (step 2) and `all_or_nothing` (steps 1 and 3) are
the dict-keyed public forms of the same kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .network import BPR_COEFFICIENT, BPR_EXPONENT, Network, bpr_times_array
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
    pair, zero where the pair is unreachable. aon_trees keeps, for each
    flow update, the shortest-path trees its loading used: open shelter
    id -> node id -> id of the successor link leaving that node toward the
    shelter, for every node that reaches the shelter except the shelter
    itself; len(aon_trees) == iterations. aon_trees is an in-memory
    diagnostic and is not serialized.
    """

    link_flows: dict[str, float]
    od_flows: dict[tuple[str, str], float]
    link_times: dict[str, float]
    relative_gap: float
    iterations: int
    converged: bool
    aon_trees: tuple[dict[str, dict[str, str]], ...] = field(default=(), metadata={"json": False})


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


def _shelter_costs(
    network: Network,
    trees: Sequence[tuple[list[float], list[int], list[int]]],
    times: np.ndarray,
    shelter_idx: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel step 1, the zone half: every node's cost to each shelter.

    `trees` are the shelters' core trees (`Network.core_trees`). Returns
    (cost, zone_succ): cost[s, v] is the cost to shelter s from node index
    v, with a last column of inf for the free node index; zone_succ[s, z]
    is zone z's out-link toward s, or -1 where the zone is s or cannot
    reach it. One gather-add prices every zone through each of its
    out-links; argmin takes the first minimum, so on an exact tie the
    lower link id wins.
    """
    core = network.core
    size = core.size
    cost = np.empty((len(trees), len(network.node_ids) + 1))
    cost[:, :size] = np.fromiter(
        itertools.chain.from_iterable(dist for dist, _, _ in trees), float, len(trees) * size
    ).reshape(len(trees), size)
    cost[:, -1] = math.inf
    reach = cost[:, core.zone_heads] + times[core.zone_links]
    zone_cost = cost[:, size:-1] = reach.min(axis=2)
    zone_succ = core.zone_links[np.arange(len(core.zone_links)), reach.argmin(axis=2)]
    zone_succ[np.isinf(zone_cost)] = -1
    for s, v in enumerate(shelter_idx):
        if v >= size:  # a shelter without an incoming link
            cost[s, v] = 0.0
            zone_succ[s, v - size] = -1
    return cost, zone_succ


def _logit_split(
    productions: np.ndarray, cost: np.ndarray, beta: float, origins: Sequence[str]
) -> np.ndarray:
    """Kernel step 2: stabilized logit split of every row of `cost`.

    `cost` is origins x shelters; an infinite cost (no path) gets weight
    exp(-inf) = 0. Raises InfeasibleOriginError for the first origin whose
    row is all infinite.
    """
    best = np.min(cost, axis=1, initial=math.inf)
    stranded = np.flatnonzero(np.isinf(best))
    if stranded.size:
        raise InfeasibleOriginError(origins[stranded[0]])
    weights = np.exp(-beta * (cost - best[:, None]))
    return productions[:, None] * weights / weights.sum(axis=1, keepdims=True)


def _load(
    network: Network,
    trees: Sequence[tuple[list[float], list[int], list[int]]],
    zone_succ: np.ndarray,
    q: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Kernel step 3: link flows when node index sources[i] sends q[i, s]
    to shelter s along the kernel's trees.

    A zone's flow goes onto its out-link toward s and into that link's
    head, for all zones and shelters at once; a core node's flow is put on
    the node. Then each core tree is walked in reverse settle order,
    pushing each node's flow onto its successor link and into that link's
    head node. Link times are > 0, so the head is settled before the node
    and receives all its flow before its own turn. The shelter itself
    (settled first) keeps what reaches it.
    """
    core = network.core
    size = core.size
    shelters = q.shape[1]
    flow = np.zeros((shelters, len(network.node_ids)))
    flow[:, sources] = q.T
    moving = zone_succ >= 0
    links = zone_succ[moving]
    zone_flow = flow[:, size:][moving]
    V = np.bincount(links, weights=zone_flow, minlength=len(core.link_heads)).tolist()
    node_flow = flow[:, :size]
    node_flow += np.bincount(
        np.nonzero(moving)[0] * size + core.link_heads[links],
        weights=zone_flow,
        minlength=shelters * size,
    ).reshape(shelters, size)
    heads = core.link_heads.tolist()
    for (_, succ, order), node_flow_s in zip(trees, node_flow.tolist()):
        for v in order[:0:-1]:
            flow_v = node_flow_s[v]
            if flow_v:
                li = succ[v]
                V[li] += flow_v
                node_flow_s[heads[li]] += flow_v
    return np.array(V)


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
    for origin in sorted(productions):
        production = productions[origin]
        if production < 0 or not math.isfinite(production):
            raise ValueError(f"production for origin {origin!r} must be finite and >= 0")
    origins = sorted(o for o, p in productions.items() if p > 0)
    shelters = sorted({s for _, s in costs})
    row = {o: i for i, o in enumerate(origins)}
    col = {s: j for j, s in enumerate(shelters)}
    cost = np.full((len(origins), len(shelters)), math.inf)
    for (origin, shelter), c in costs.items():
        if origin in row and math.isfinite(c):
            cost[row[origin], col[shelter]] = c
    q = _logit_split(
        np.array([productions[o] for o in origins], dtype=float), cost, impedance.beta, origins
    )
    return {
        (origin, shelter): float(q[i, j])
        for i, origin in enumerate(origins)
        for j, shelter in enumerate(shelters)
        if math.isfinite(cost[i, j])
    }


def all_or_nothing(
    network: Network,
    od_flows: Mapping[tuple[str, str], float],
    link_times: Mapping[str, float],
) -> dict[str, float]:
    """Load each origin-shelter flow entirely onto its current shortest path.

    The paths are those of the solver's kernel: one tree per shelter with
    positive flow, searched from the shelter, where on exact cost ties the
    successor link with the lower id wins, so the loading is
    deterministic. Raises ValueError for a negative or non-finite flow or
    a pair naming no network node, and UnreachablePairError when a pair
    with positive flow has no path.
    """
    times = network.times_to_array(link_times)
    for (origin, shelter), flow in od_flows.items():
        if flow < 0 or not math.isfinite(flow):
            raise ValueError(f"flow for pair ({origin!r}, {shelter!r}) must be finite and >= 0")
    positive = sorted(pair for pair, flow in od_flows.items() if flow > 0)
    origins = sorted({o for o, _ in od_flows})
    shelters = sorted({s for _, s in positive})
    for kind, ids in (("origin", origins), ("shelter", shelters)):
        for node_id in ids:
            if node_id not in network.node_index:
                raise ValueError(f"{kind} {node_id!r} is not a network node")
    row = {o: i for i, o in enumerate(origins)}
    col = {s: j for j, s in enumerate(shelters)}
    shelter_idx = [network.node_index[s] for s in shelters]
    trees = network.core_trees(times.tolist(), shelter_idx)
    cost, zone_succ = _shelter_costs(network, trees, times, shelter_idx)
    sources = np.array([network.node_index[o] for o in origins], dtype=np.intp)
    q = np.zeros((len(origins), len(shelters)))
    for origin, shelter in positive:
        if math.isinf(cost[col[shelter], sources[row[origin]]]):
            raise UnreachablePairError(origin, shelter)
        q[row[origin], col[shelter]] = od_flows[(origin, shelter)]
    return network.link_dict(_load(network, trees, zone_succ, q, sources))


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
    """Minimize the convex objective phi along the blend segment over
    lambda in [0, 1] by a safeguarded Newton search on phi'.

    Returns 1.0 if phi'(1) <= 0 and 0.0 if phi'(0) >= 0. Otherwise each
    probe gives phi' and phi'' in closed form,

        phi'(l)  = sum t(V + l dV) dV + sum log(q + l dq) dq / beta
        phi''(l) = sum t'(V + l dV) dV^2 + sum dq^2 / (q + l dq) / beta

    with t' the BPR slope, and the search keeps a bracket [lo, hi] with
    phi'(lo) < 0 <= phi'(hi). It takes the Newton point when that falls
    strictly inside the bracket and bisects otherwise, so a non-finite
    phi' or phi'' (log 0 and dq/0 at the segment's ends, where a pair's
    flow is zero) costs one bisection and never ends the search. It
    returns lambda once a Newton update would move it by less than 1e-15
    and by less than a sixteenth of lambda's distance m to the nearer end,
    and the bracket's midpoint once the bracket is narrower than 1e-14 or
    after 60 probes inside the segment.

    The second condition makes a small step mean a near root. The flows
    are blends of two non-negative states, so every V + l dV is at least
    m |dV| and every q + l dq at least m |dq|. Within m / 2 of lambda each
    term of phi'' therefore keeps at least 1/8 of its value, and a step
    below m / 16 puts the root within 8 steps. Near an end, phi'' is huge
    where a pair's flow is tiny (dq^2 / q for q = 1e-20), and a tiny step
    there says nothing about the distance to the root.
    """
    moving = dq != 0.0
    dq_m = dq[moving]
    q_m = q[moving]
    dq2_m = dq_m * dq_m
    # t'(x) dV^2 = slope * x^3 for the BPR exponent 4
    slope = (BPR_EXPONENT * BPR_COEFFICIENT) * t0 / cap ** BPR_EXPONENT * (dV * dV)

    def probe(lam: float) -> tuple[float, float]:
        x = V + lam * dV
        first = float(np.dot(bpr_times_array(t0, cap, x), dV))
        second = float(np.dot(slope, x * x * x))
        if dq_m.size:
            flow = q_m + lam * dq_m
            first += float(np.dot(np.log(flow), dq_m)) / beta
            second += float((dq2_m / flow).sum()) / beta
        return first, second

    # log 0 = -inf and dq/0 = inf where a pair's flow is zero at an end of
    # the segment
    with np.errstate(divide="ignore"):
        if probe(1.0)[0] <= 0.0:
            return 1.0
        first, second = probe(0.0)
        if first >= 0.0:
            return 0.0
        lo, hi, lam = 0.0, 1.0, 0.0
        for _ in range(60):
            step = first / second if 0.0 < second < math.inf else math.nan
            if abs(step) < 1e-15 and 16.0 * abs(step) < min(lam, 1.0 - lam):
                return lam
            lam = lam - step if lo < lam - step < hi else 0.5 * (lo + hi)
            first, second = probe(lam)
            if first < 0.0:
                lo = lam
            else:
                hi = lam
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
    each pass builds one shortest-path tree per open shelter from the
    shelter end (its costs are the origin x shelter cost matrix), splits
    all demand by logit at those costs, loads each shelter's share
    all-or-nothing down the same tree, and blends flows with step 1/k
    (msa) or the exact line search. Stops when the relative gap drops to
    config.gap_tolerance, or flags the result non-converged after
    config.max_iterations flow updates.
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
    sources = np.array([network.node_index[o] for o in origins], dtype=np.intp)
    shelter_idx = [network.node_index[s] for s in open_ids]
    beta = impedance.beta
    t0 = network.free_flow_array
    cap = network.capacity_array
    node_ids = network.node_ids
    link_ids = network.link_ids

    V = np.zeros(len(link_ids))
    q = np.zeros((len(origins), len(open_ids)))
    times = t0.copy()
    aon_trees: list[dict[str, dict[str, str]]] = []
    iterations = 0
    converged = False

    while True:
        if iterations == 0:
            trees = network.free_flow_core_trees(shelter_idx)
        else:
            trees = network.core_trees(times.tolist(), shelter_idx)
        cost, zone_succ = _shelter_costs(network, trees, times, shelter_idx)
        q_aux = _logit_split(productions, cost.T[sources], beta, origins)
        V_aux = _load(network, trees, zone_succ, q_aux, sources)

        gap = relative_gap(float(np.dot(V, times)), float(np.dot(V_aux, times)))
        # The empty start also has gap 0 when all demand sits at open
        # shelters, but q is still zero there: take the first update.
        if gap <= config.gap_tolerance and (iterations > 0 or not origins):
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
                sid: {
                    **{node_ids[u]: link_ids[succ[u]] for u in order[1:]},
                    **network.zone_links_named(v, links),
                }
                for sid, v, (_, succ, order), links in zip(
                    open_ids, shelter_idx, trees, zone_succ.tolist()
                )
            }
        )

    od_flows = dict(zip(itertools.product(origins, open_ids), q.ravel().tolist()))
    return AssignmentResult(
        link_flows=network.link_dict(V),
        od_flows=od_flows,
        link_times=network.link_dict(times),
        relative_gap=gap,
        iterations=iterations,
        converged=converged,
        aon_trees=tuple(aon_trees),
    )


def lower_level_objective(
    network: Network, result: AssignmentResult, impedance: ImpedanceParameter
) -> float:
    """Evaluate the evacuees' objective (BPR integrals + scaled entropy) at
    a result's flows."""
    V = _link_flow_array(network, result)
    q = np.array(list(result.od_flows.values())) if result.od_flows else np.zeros(0)
    if np.any(V < 0) or np.any(q < 0):
        raise ValueError("flows must be non-negative")
    return _beckmann_entropy(
        network.free_flow_array, network.capacity_array, V, q, impedance.beta
    )


def _link_flow_array(network: Network, result: AssignmentResult) -> np.ndarray:
    """The result's link flows in link index order (0.0 for a missing link)."""
    return np.fromiter(
        map(result.link_flows.get, network.link_ids, itertools.repeat(0.0)),
        float,
        len(network.link_ids),
    )


def total_evacuation_time(network: Network, result: AssignmentResult) -> float:
    """Total vehicle-minutes spent: sum of V_a * t_a(V_a) over links."""
    V = _link_flow_array(network, result)
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
    excess = np.maximum(_link_flow_array(network, result) - network.flow_limit_array, 0.0)
    return shelter_excess, dict(zip(network.link_ids, excess.tolist()))
