"""Seeded, parametric grid-town instance generator for the benchmark.

An instance is a two-way street grid of `cols` x `rows` intersections, a
set of origin zones hanging off interior intersections by one-way
connectors, and candidate shelters fed from evenly spaced perimeter
intersections. The seed perturbs link lengths, zone placement, shelter
placement and how productions split within zone pairs; the structure
(node, link and pair counts) and total demand depend only on the size
parameters, so every seed asks the solver for the same work per pass. The same arguments always give the same
instance, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from shelterplan import (
    CandidateShelter,
    DemandScenario,
    Link,
    Network,
    Node,
    ShelterSet,
)

FREE_FLOW_SPEED_MPH = 35.0
BLOCK_MI = 0.25
CONNECTOR_MI = (0.08, 0.2)
FEEDER_MI = (0.15, 0.3)
STREET_VPH = 600.0
ARTERIAL_VPH = 1800.0
ARTERIAL_EVERY = 5  # every fifth row and column is an arterial


@dataclass(frozen=True)
class GridInstance:
    network: Network
    shelters: ShelterSet
    demand: DemandScenario


def _minutes(length_mi: float) -> float:
    return length_mi / FREE_FLOW_SPEED_MPH * 60.0


def _perimeter(cols: int, rows: int) -> list[tuple[int, int]]:
    """Perimeter intersections clockwise from the north-west corner."""
    ring = [(c, 0) for c in range(cols)]
    ring += [(cols - 1, r) for r in range(1, rows)]
    ring += [(c, rows - 1) for c in range(cols - 2, -1, -1)]
    ring += [(0, r) for r in range(rows - 2, 0, -1)]
    return ring


def generate_grid(
    seed: int,
    cols: int,
    rows: int,
    zones: int,
    candidates: int,
    demand_scale: float,
) -> GridInstance:
    """Build one grid instance; `demand_scale` is the mean vehicles per zone.

    Shelter capacity is twice the fair share of total demand, so the
    all-open plan and most half-open plans are capacity-feasible.
    """
    if cols < 3 or rows < 3:
        raise ValueError("the grid needs at least 3 x 3 intersections")
    interior = [(c, r) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    ring = _perimeter(cols, rows)
    if not 1 <= zones <= len(interior):
        raise ValueError(f"zones must be in [1, {len(interior)}] for this grid")
    if not 1 <= candidates <= len(ring):
        raise ValueError(f"candidates must be in [1, {len(ring)}] for this grid")
    if not demand_scale > 0:
        raise ValueError("demand_scale must be > 0")
    rng = random.Random(seed)

    def grid_id(c: int, r: int) -> str:
        return f"g{r:03d}x{c:03d}"

    nodes = [Node(grid_id(c, r), "intermediate") for r in range(rows) for c in range(cols)]
    links: list[Link] = []

    def add(from_id: str, to_id: str, length_mi: float, capacity: float) -> None:
        links.append(
            Link(f"l{len(links):05d}", from_id, to_id, capacity, _minutes(length_mi))
        )

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                length = BLOCK_MI * rng.uniform(0.9, 1.1)
                capacity = ARTERIAL_VPH if r % ARTERIAL_EVERY == 0 else STREET_VPH
                add(grid_id(c, r), grid_id(c + 1, r), length, capacity)
                add(grid_id(c + 1, r), grid_id(c, r), length, capacity)
            if r + 1 < rows:
                length = BLOCK_MI * rng.uniform(0.9, 1.1)
                capacity = ARTERIAL_VPH if c % ARTERIAL_EVERY == 0 else STREET_VPH
                add(grid_id(c, r), grid_id(c, r + 1), length, capacity)
                add(grid_id(c, r + 1), grid_id(c, r), length, capacity)

    # one zone per equal run of interior intersections (row-major), so
    # zones spread evenly over the town whatever the seed; productions move
    # in +/- pairs, so total demand is zones * demand_scale for every seed
    productions: dict[str, float] = {}
    for k in range(zones):
        lo, hi = k * len(interior) // zones, (k + 1) * len(interior) // zones
        c, r = interior[rng.randrange(lo, hi)]
        zone = f"z{k:04d}"
        nodes.append(Node(zone, "origin"))
        add(zone, grid_id(c, r), rng.uniform(*CONNECTOR_MI), ARTERIAL_VPH)
        if k % 2 == 0:
            swing = demand_scale * rng.uniform(0.0, 0.2)
            productions[zone] = demand_scale + (swing if k + 1 < zones else 0.0)
        else:
            productions[zone] = demand_scale - swing

    spacing = len(ring) / candidates
    offset = rng.uniform(0.0, spacing)
    total = sum(productions.values())
    shelters = []
    for k in range(candidates):
        c, r = ring[int(offset + k * spacing) % len(ring)]
        shelter = f"s{k:03d}"
        nodes.append(Node(shelter, "shelter-candidate"))
        add(grid_id(c, r), shelter, rng.uniform(*FEEDER_MI), ARTERIAL_VPH)
        shelters.append(CandidateShelter(shelter, 2.0 * total / candidates))

    return GridInstance(
        network=Network(nodes, links),
        shelters=ShelterSet(tuple(shelters)),
        demand=DemandScenario(f"grid-seed{seed}", productions),
    )
