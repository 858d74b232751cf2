"""Problem-definition dataclasses: shelters, demand scenarios, solver configs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence


@dataclass(frozen=True)
class CandidateShelter:
    node_id: str
    capacity_vph: float

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("shelter node_id must be a non-empty string")
        if not (math.isfinite(self.capacity_vph) and self.capacity_vph > 0):
            raise ValueError(f"shelter {self.node_id!r}: capacity_vph must be finite and > 0")


@dataclass(frozen=True)
class ShelterSet:
    """Candidate shelters plus a binary selection vector (one bit per candidate).

    The selection defaults to all-open. Candidate order is significant: bit k
    of any selection refers to candidates[k].
    """

    candidates: tuple[CandidateShelter, ...]
    selection: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("shelter set needs at least one candidate")
        ids = [c.node_id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("shelter candidate node ids must be distinct")
        if not self.selection:
            object.__setattr__(self, "selection", (1,) * len(self.candidates))
        if len(self.selection) != len(self.candidates):
            raise ValueError(
                f"selection length {len(self.selection)} != candidate count {len(self.candidates)}"
            )
        if any(bit not in (0, 1) for bit in self.selection):
            raise ValueError("selection must contain only 0/1 bits")

    def with_selection(self, selection: Sequence[int]) -> "ShelterSet":
        bits = tuple(int(b) for b in selection)
        if not bits:  # () would read as the all-open default
            raise ValueError(f"selection length 0 != candidate count {len(self.candidates)}")
        return replace(self, selection=bits)

    def open_ids(self) -> tuple[str, ...]:
        return tuple(
            c.node_id for c, bit in zip(self.candidates, self.selection) if bit
        )

    def capacity_of(self, node_id: str) -> float:
        for c in self.candidates:
            if c.node_id == node_id:
                return c.capacity_vph
        raise KeyError(node_id)


@dataclass(frozen=True)
class ImpedanceParameter:
    """Dispersion parameter of the logit shelter choice; larger = more
    concentrated on the nearest shelter."""

    beta: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("impedance beta must be finite and > 0")


@dataclass(frozen=True)
class DemandScenario:
    """Trip productions per origin node; total_vehicles is always the exact sum."""

    name: str
    productions: dict[str, float]
    total_vehicles: float = field(init=False, metadata={"json": False})

    def __post_init__(self) -> None:
        for origin, value in self.productions.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"scenario {self.name!r}: production for origin {origin!r} "
                    "must be finite and >= 0"
                )
        object.__setattr__(self, "productions", dict(self.productions))
        object.__setattr__(self, "total_vehicles", float(sum(self.productions.values())))


STEP_RULES = ("msa", "exact-line-search")


@dataclass(frozen=True)
class AssignmentConfig:
    max_iterations: int = 500
    gap_tolerance: float = 1e-5
    step_rule: str = "msa"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.gap_tolerance) and self.gap_tolerance > 0):
            raise ValueError("gap_tolerance must be finite and > 0")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")


@dataclass(frozen=True)
class PenaltyConfig:
    """Weights for constraint violations in the upper-level objective.

    Named alpha_shelter / beta_link (shelter-capacity and link-capacity
    excess, per vph) to avoid colliding with the impedance beta. Defaults
    are large enough that any violation dominates feasible objective
    differences at desk scale.
    """

    alpha_shelter: float = 1e6
    beta_link: float = 1e6

    def __post_init__(self) -> None:
        for weight in (self.alpha_shelter, self.beta_link):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError("penalty weights must be finite and >= 0")


@dataclass(frozen=True)
class GAConfig:
    """Genetic-algorithm controls: population 20 and 50 generations by default.

    The published reproduction rate (0.6), mutation probability (0.4) and
    single elite are the constants ga.REPRODUCTION_RATE,
    ga.MUTATION_PROBABILITY and ga.ELITES, not settings: no instance varies
    them, and without an elite the per-generation best fitness could rise.
    """

    population_size: int = 20
    max_generations: int = 50
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


def selection_to_string(selection: Sequence[int]) -> str:
    return "".join("1" if bit else "0" for bit in selection)


def selection_from_string(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"selection must be a non-empty string of 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)
