"""Directed road network model: BPR link travel times and shortest-path trees.

The network is a plain directed graph. Two-way roads are represented as a
pair of opposing links. Link travel times follow the BPR volume-delay
function; all times are minutes and all flows/capacities are vehicles per
hour.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .problem import ShelterSet

NODE_KINDS = ("origin", "shelter-candidate", "intermediate")

BPR_COEFFICIENT = 0.15
BPR_EXPONENT = 4


@dataclass(frozen=True)
class Node:
    id: str
    kind: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("node id must be a non-empty string")
        if self.kind not in NODE_KINDS:
            raise ValueError(
                f"node {self.id!r}: kind must be one of {NODE_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class Link:
    """A directed road link with BPR parameters.

    capacity_vph is the practical capacity C, free_flow_min the zero-flow
    travel time, and max_saturation the acceptable V/C ratio used by the
    upper-level link constraint (1.0 means flow may reach capacity).
    """

    id: str
    from_node: str
    to_node: str
    capacity_vph: float
    free_flow_min: float
    max_saturation: float = 1.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("link id must be a non-empty string")
        if self.from_node == self.to_node:
            raise ValueError(f"link {self.id!r}: self-loops are not allowed")
        if not (math.isfinite(self.capacity_vph) and self.capacity_vph > 0):
            raise ValueError(f"link {self.id!r}: capacity_vph must be finite and > 0")
        if not (math.isfinite(self.free_flow_min) and self.free_flow_min > 0):
            raise ValueError(f"link {self.id!r}: free_flow_min must be finite and > 0")
        if not (0 < self.max_saturation <= 1):
            raise ValueError(f"link {self.id!r}: max_saturation must be in (0, 1]")


class CoreGraph(NamedTuple):
    """A network split at its zones, for the searches toward shelters.

    A zone is a node with outgoing links but no incoming one, such as an
    origin hanging off the road network by its connectors. It can start a
    path but never lie inside one, so its cost to a shelter is the minimum
    over its out-links of (head cost + link time), and a search over the
    reverse graph need not visit it. Every other node is in the core.

    `Network` numbers the core first and the zones after it, each in id
    order: the core is node indices 0 .. size - 1 and zone z is node index
    size + z; node index `len(Network.node_ids)` is left free for padding.
    """

    size: int  # the number of core nodes
    # per core node: incoming (link index, tail) from core tails, ascending link index
    reverse_adjacency: tuple[tuple[tuple[int, int], ...], ...]
    link_heads: np.ndarray  # per link index: its head's node index (-1 if unknown)
    # zones x max out-degree: out-link indices in ascending order, and
    # their heads; padded with link 0 and the free node index
    zone_links: np.ndarray
    zone_heads: np.ndarray


class Network:
    """Immutable directed network with derived index structures.

    The constructor is permissive about cross-references (dangling link
    endpoints, duplicate ids): those are reported by `validate_network`
    rather than raised, so broken inputs can be diagnosed. Solver behavior
    is only defined for networks with an empty validation report.

    The index structures are built on first use and kept. Node indices
    number the core first, then the zones (see CoreGraph): `core_trees`
    searches the core only, and a zone is priced through its out-links.
    Two caches serve the solver's repeated work: `free_flow_core_trees`
    keeps each node's core tree at free-flow times, the times of every
    solve's first pass, and `zone_links_named` keeps the zones' part of
    the id-keyed trees a solve records (`AssignmentResult.aon_trees`).
    """

    def __init__(self, nodes: Sequence[Node], links: Sequence[Link]):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.links: tuple[Link, ...] = tuple(links)

    # ---- derived, cached structures (core, then zones, each sorted by id) ----

    @cached_property
    def _node_split(self) -> tuple[tuple[str, ...], int]:
        """(node ids by node index, core size): sorted core ids, then sorted zone ids."""
        ids = {n.id for n in self.nodes}
        zones = ids & ({l.from_node for l in self.links} - {l.to_node for l in self.links})
        core = sorted(ids - zones)
        return (*core, *sorted(zones)), len(core)

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return self._node_split[0]

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    @cached_property
    def nodes_by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def sorted_links(self) -> tuple[Link, ...]:
        """Links sorted by id; this order defines the internal link index."""
        return tuple(sorted(self.links, key=lambda l: l.id))

    @cached_property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.sorted_links)

    @cached_property
    def links_by_id(self) -> dict[str, Link]:
        return {l.id: l for l in self.links}

    @cached_property
    def free_flow_array(self) -> np.ndarray:
        return np.array([l.free_flow_min for l in self.sorted_links], dtype=float)

    @cached_property
    def capacity_array(self) -> np.ndarray:
        return np.array([l.capacity_vph for l in self.sorted_links], dtype=float)

    @cached_property
    def flow_limit_array(self) -> np.ndarray:
        """max_saturation * capacity per link: the upper level's flow limit."""
        return np.array([l.max_saturation * l.capacity_vph for l in self.sorted_links], dtype=float)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node index: outgoing (link_index, head_node_index), ascending link index.

        Link indices follow sorted link ids, so iterating in index order
        realizes the lowest-link-id tie-break during relaxation. Links with
        unknown endpoints are skipped (they are validation findings).
        """
        out: list[list[tuple[int, int]]] = [[] for _ in self.node_ids]
        for li, link in enumerate(self.sorted_links):
            u = self.node_index.get(link.from_node)
            v = self.node_index.get(link.to_node)
            if u is None or v is None:
                continue
            out[u].append((li, v))
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def reverse_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node index: incoming (link_index, tail_node_index), ascending link index.

        The reversed graph of `adjacency`: a search over it from a node
        finds the shortest paths that end there.
        """
        inc: list[list[tuple[int, int]]] = [[] for _ in self.node_ids]
        for u, outgoing in enumerate(self.adjacency):
            for li, v in outgoing:
                inc[v].append((li, u))
        return tuple(tuple(sorted(lst)) for lst in inc)

    @cached_property
    def core(self) -> CoreGraph:
        """The core's reverse graph and the zones' out-links (see CoreGraph)."""
        size = self._node_split[1]
        zone_out = self.adjacency[size:]
        width = max(map(len, zone_out), default=1)
        zone_links = np.zeros((len(zone_out), width), dtype=np.intp)
        zone_heads = np.full((len(zone_out), width), len(self.node_ids), dtype=np.intp)
        for z, outgoing in enumerate(zone_out):
            for k, (li, head) in enumerate(outgoing):
                zone_links[z, k] = li
                zone_heads[z, k] = head
        return CoreGraph(
            size=size,
            reverse_adjacency=tuple(
                tuple((li, u) for li, u in incoming if u < size)
                for incoming in self.reverse_adjacency[:size]
            ),
            link_heads=np.array(
                [self.node_index.get(l.to_node, -1) for l in self.sorted_links], dtype=np.intp
            ),
            zone_links=zone_links,
            zone_heads=zone_heads,
        )

    @cached_property
    def _free_flow_trees(self) -> dict[int, tuple[Sequence[float], list[int], list[int]]]:
        return {}

    @cached_property
    def _zone_links_named(self) -> dict[int, tuple[list[int], dict[str, str]]]:
        return {}

    def core_trees(
        self, times: Sequence[float], nodes: Sequence[int]
    ) -> list[tuple[list[float], list[int], list[int]]]:
        """Per node index in `nodes`: its shortest-path tree over the core's
        reverse graph under link `times`, as `_dijkstra_indexed` returns it
        (indexed by the core's node indices). A zone gets the empty tree: no
        core node reaches it."""
        core = self.core
        return [
            _dijkstra_indexed(core.reverse_adjacency, times, v) if v < core.size
            else ([math.inf] * core.size, [-1] * core.size, [])
            for v in nodes
        ]

    def free_flow_core_trees(
        self, nodes: Sequence[int]
    ) -> list[tuple[Sequence[float], list[int], list[int]]]:
        """`core_trees` at the free-flow times, searched once per node and
        kept; callers must not change the returned trees. The costs are
        kept as an array('d'), a third of a list of floats' memory."""
        cache = self._free_flow_trees
        missing = [v for v in nodes if v not in cache]
        if missing:
            times = self.free_flow_array.tolist()
            for v, (dist, succ, order) in zip(missing, self.core_trees(times, missing)):
                cache[v] = (array("d", dist), succ, order)
        return [cache[v] for v in nodes]

    def zone_links_named(self, node: int, links: list[int]) -> dict[str, str]:
        """Zone id -> link id for the zones toward node index `node`, where
        links[z] is zone z's link index (-1: none).

        The last map per node is kept and returned again, unchanged, while
        `links` is the same. For zones with one out-link it changes only
        with which zones reach the node, and link times do not change that.
        """
        last = self._zone_links_named.get(node)
        if last is None or last[0] != links:
            zone_ids = self.node_ids[self.core.size:]
            named = {zone_ids[z]: self.link_ids[li] for z, li in enumerate(links) if li >= 0}
            last = self._zone_links_named[node] = (links, named)
        return last[1]

    def origin_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in sorted(self.nodes, key=lambda n: n.id) if n.kind == "origin")

    def shelter_candidate_ids(self) -> tuple[str, ...]:
        return tuple(
            n.id for n in sorted(self.nodes, key=lambda n: n.id) if n.kind == "shelter-candidate"
        )

    def times_to_array(self, link_times: Mapping[str, float]) -> np.ndarray:
        """Convert a link-id keyed time map to the internal index order."""
        times = np.empty(len(self.link_ids), dtype=float)
        for i, lid in enumerate(self.link_ids):
            if lid not in link_times:
                raise ValueError(f"missing travel time for link {lid!r}")
            times[i] = link_times[lid]
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            raise ValueError("link travel times must be finite and > 0")
        return times

    def link_dict(self, values: np.ndarray) -> dict[str, float]:
        """Convert an internal link-indexed array back to a link-id keyed map."""
        return dict(zip(self.link_ids, values.tolist()))


def bpr_time(free_flow_min: float, capacity_vph: float, flow_vph: float) -> float:
    """BPR travel time t0 * (1 + 0.15 * (V/C)^4) in minutes.

    Strictly increasing and continuous in flow; equals free_flow_min at
    zero flow. Rejects non-finite or out-of-domain inputs.
    """
    if not (math.isfinite(free_flow_min) and free_flow_min > 0):
        raise ValueError("free_flow_min must be finite and > 0")
    if not (math.isfinite(capacity_vph) and capacity_vph > 0):
        raise ValueError("capacity_vph must be finite and > 0")
    if not (math.isfinite(flow_vph) and flow_vph >= 0):
        raise ValueError("flow_vph must be finite and >= 0")
    return free_flow_min * (1.0 + BPR_COEFFICIENT * (flow_vph / capacity_vph) ** BPR_EXPONENT)


def bpr_times_array(
    free_flow: np.ndarray, capacity: np.ndarray, flow: np.ndarray
) -> np.ndarray:
    """Vectorized BPR times; assumes validated inputs (solver hot path)."""
    return free_flow * (1.0 + BPR_COEFFICIENT * (flow / capacity) ** BPR_EXPONENT)


class ShortestPathTree(NamedTuple):
    """Costs and one shortest path per reachable node (as predecessor links).

    `costs` maps every reachable node id to the minimum time from the
    origin (the origin itself has cost 0.0); unreachable nodes are absent.
    `predecessors` maps every reachable node except the origin to the id of
    the incoming link on one shortest path.
    """

    costs: dict[str, float]
    predecessors: dict[str, str]


def _dijkstra_indexed(
    adjacency: Sequence[Sequence[tuple[int, int]]], times: Sequence[float], source: int
) -> tuple[list[float], list[int], list[int]]:
    """Dijkstra over internal indices; `times` is indexed by link.

    Returns (dist, link, order): dist[v] is the cost between `source` and
    v, link[v] the tree link at v on one such path, and order the
    reachable nodes in settle order (nondecreasing dist, `source` first).
    link[v] == -1 for `source` and for unreachable nodes, whose dist is
    inf. On exact cost ties the lower link index (== lower link id) wins.

    Over `Network.adjacency` link[v] is the predecessor link entering v on
    a path from `source`. Over a reversed graph (`Network.reverse_adjacency`,
    or `CoreGraph.reverse_adjacency` over the core's node indices) dist[v] is
    the cost from v to `source` and link[v] the successor link leaving v
    toward it, so one call gives every node's path to one shelter.
    """
    n = len(adjacency)
    dist: list[float] = [math.inf] * n
    link: list[int] = [-1] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    done = [False] * n
    order: list[int] = []
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for li, v in adjacency[u]:
            nd = d + times[li]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                link[v] = li
                heapq.heappush(heap, (nd, v))
            elif nd == dv and link[v] >= 0 and li < link[v]:
                link[v] = li
    return dist, link, order


def shortest_path_tree(
    network: Network, link_times: Mapping[str, float], origin: str
) -> ShortestPathTree:
    """One-to-all shortest paths from `origin` under the given link times.

    Raises ValueError if any link lacks a time, if a time is non-positive
    or non-finite, or if the origin is not a network node.
    """
    if origin not in network.node_index:
        raise ValueError(f"origin {origin!r} is not a network node")
    times = network.times_to_array(link_times).tolist()
    dist, pred, _ = _dijkstra_indexed(network.adjacency, times, network.node_index[origin])
    costs: dict[str, float] = {}
    predecessors: dict[str, str] = {}
    for i, nid in enumerate(network.node_ids):
        if math.isinf(dist[i]):
            continue
        costs[nid] = dist[i]
        if pred[i] >= 0:
            predecessors[nid] = network.link_ids[pred[i]]
    return ShortestPathTree(costs=costs, predecessors=predecessors)


@dataclass(frozen=True)
class Finding:
    """One validation finding; `subject` names the offending node/link/origin."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def validate_network(network: Network, shelters: Optional["ShelterSet"] = None) -> list[Finding]:
    """Check network invariants and origin-to-shelter reachability.

    Returns an empty list iff the network (and shelter cross-references,
    when a shelter set is given) is valid. Shelter candidates default to
    the nodes of kind "shelter-candidate" when no shelter set is passed.
    """
    findings: list[Finding] = []
    seen_nodes: set[str] = set()
    for node in network.nodes:
        if node.id in seen_nodes:
            findings.append(Finding("duplicate-node", node.id, "node id appears more than once"))
        seen_nodes.add(node.id)
    seen_links: set[str] = set()
    for link in network.links:
        if link.id in seen_links:
            findings.append(Finding("duplicate-link", link.id, "link id appears more than once"))
        seen_links.add(link.id)
        for endpoint in (link.from_node, link.to_node):
            if endpoint not in seen_nodes and endpoint not in network.nodes_by_id:
                findings.append(
                    Finding("unknown-endpoint", link.id, f"references unknown node {endpoint!r}")
                )

    has_out = {l.from_node for l in network.links}
    has_in = {l.to_node for l in network.links}
    for node in network.nodes:
        if node.kind == "origin" and node.id not in has_out:
            findings.append(Finding("origin-no-exit", node.id, "origin has no outgoing link"))
        if node.kind == "shelter-candidate" and node.id not in has_in:
            findings.append(
                Finding("shelter-no-entry", node.id, "shelter candidate has no incoming link")
            )

    if shelters is not None:
        candidate_ids = [c.node_id for c in shelters.candidates]
        for cid in candidate_ids:
            if cid not in network.nodes_by_id:
                findings.append(
                    Finding("unknown-shelter-node", cid, "shelter candidate is not a network node")
                )
            elif network.nodes_by_id[cid].kind != "shelter-candidate":
                findings.append(
                    Finding(
                        "shelter-kind-mismatch",
                        cid,
                        f"shelter candidate node has kind {network.nodes_by_id[cid].kind!r}",
                    )
                )
        targets = [c for c in candidate_ids if c in network.node_index]
    else:
        targets = list(network.shelter_candidate_ids())

    # Reverse BFS from all shelter targets; origins left unmarked cannot
    # reach any candidate shelter.
    reaches_shelter: set[str] = set(targets)
    reverse: dict[str, list[str]] = {}
    for link in network.links:
        reverse.setdefault(link.to_node, []).append(link.from_node)
    stack = list(targets)
    while stack:
        node_id = stack.pop()
        for upstream in reverse.get(node_id, ()):
            if upstream not in reaches_shelter:
                reaches_shelter.add(upstream)
                stack.append(upstream)
    for node in network.nodes:
        if node.kind == "origin" and node.id not in reaches_shelter:
            findings.append(
                Finding("origin-isolated", node.id, "origin cannot reach any candidate shelter")
            )
    return findings
