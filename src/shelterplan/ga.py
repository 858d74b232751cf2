"""Upper-level genetic algorithm over shelter subsets.

Chromosomes are binary selection vectors; fitness is the penalized total
evacuation time at the lower-level equilibrium the selection induces.
Selection is linear-rank, crossover single-point, mutation single-bit (or
per-bit when configured), with elitism. Runs are deterministic given the
seed; each distinct chromosome is evaluated once, and its evaluation record
serves both the cache and the evaluation log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assignment import (
    AssignmentResult,
    InfeasibleOriginError,
    UnreachablePairError,
    constraint_violations,
    solve_lower_level,
    total_evacuation_time,
)
from .network import Network, validate_network
from .problem import (
    AssignmentConfig,
    DemandScenario,
    GAConfig,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
    selection_to_string,
)

WORST_FITNESS = math.inf


def penalized_objective(
    network: Network,
    shelters: ShelterSet,
    result: AssignmentResult,
    penalties: PenaltyConfig,
) -> float:
    """Total evacuation time plus weighted shelter/link capacity excess."""
    shelter_excess, link_excess = constraint_violations(result, shelters, network)
    return _penalized(
        total_evacuation_time(network, result),
        sum(shelter_excess.values()),
        sum(link_excess.values()),
        penalties,
    )


def _penalized(
    total_time: float, shelter_total: float, link_total: float, penalties: PenaltyConfig
) -> float:
    """The one expression of the penalized objective, so that a fitness
    evaluation equals `penalized_objective` bit for bit."""
    return total_time + penalties.alpha_shelter * shelter_total + penalties.beta_link * link_total


@dataclass(frozen=True)
class EvaluationContext:
    """Everything a fitness evaluation needs besides the selection bits."""

    network: Network
    shelters: ShelterSet
    demand: DemandScenario
    impedance: ImpedanceParameter
    penalties: PenaltyConfig
    assignment: AssignmentConfig


@dataclass(frozen=True)
class Evaluation:
    penalized_objective: float
    assignment: Optional[AssignmentResult]
    feasible: bool
    total_evacuation_time: Optional[float] = None
    shelter_excess_total: float = 0.0
    link_excess_total: float = 0.0
    note: str = ""


def evaluate_individual(selection: Sequence[int], context: EvaluationContext) -> Evaluation:
    """Fitness of one selection: lower-level solve, then the penalized objective.

    All-zero selections (and selections that strand an origin) receive the
    sentinel worst fitness with a diagnostic note instead of crashing.
    Pure function of (selection, context).
    """
    bits = tuple(int(b) for b in selection)
    if len(bits) != len(context.shelters.candidates):
        raise ValueError(
            f"selection length {len(bits)} != candidate count {len(context.shelters.candidates)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("selection must contain only 0/1 genes")
    if not any(bits):
        return Evaluation(WORST_FITNESS, None, False, note="no open shelters")
    shelters = context.shelters.with_selection(bits)
    try:
        result = solve_lower_level(
            context.network,
            shelters.open_ids(),
            context.demand,
            context.impedance,
            context.assignment,
        )
    except (InfeasibleOriginError, UnreachablePairError) as exc:
        return Evaluation(WORST_FITNESS, None, False, note=str(exc))
    shelter_excess, link_excess = constraint_violations(result, shelters, context.network)
    total_time = total_evacuation_time(context.network, result)
    shelter_total = sum(shelter_excess.values())
    link_total = sum(link_excess.values())
    return Evaluation(
        penalized_objective=_penalized(total_time, shelter_total, link_total, context.penalties),
        assignment=result,
        feasible=(shelter_total == 0.0 and link_total == 0.0),
        total_evacuation_time=total_time,
        shelter_excess_total=shelter_total,
        link_excess_total=link_total,
    )


@dataclass(frozen=True)
class EvaluationRecord:
    """One log row per distinct chromosome the search evaluated."""

    selection: str
    penalized_objective: float
    feasible: bool
    total_excess: float
    total_evacuation_time: Optional[float]
    converged: Optional[bool]
    note: str = ""


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    feasible_count: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one bi-level GA run.

    best_penalized_objective always equals a fresh evaluation of
    best_selection; shelter_attraction maps every candidate to the
    equilibrium inflow it receives under the best selection (zero when
    unselected). evaluation_log has one entry per distinct chromosome in
    first-encounter order.
    """

    best_selection: tuple[int, ...]
    best_penalized_objective: float
    best_total_evacuation_time: float
    feasible: bool
    shelter_attraction: dict[str, float]
    history: tuple[GenerationStats, ...]
    assignment_diagnostics: dict[str, float | int | bool]
    evaluation_log: tuple[EvaluationRecord, ...]
    best_assignment: Optional[AssignmentResult] = None


def _evaluate_population(
    population: list[tuple[int, ...]],
    context: EvaluationContext,
    cache: dict[tuple[int, ...], EvaluationRecord],
) -> list[EvaluationRecord]:
    """Records for the population, evaluating each chromosome on first sight.

    The cache keeps insertion order, so its values are the evaluation log
    in first-encounter order.
    """
    for bits in population:
        if bits not in cache:
            evaluation = evaluate_individual(bits, context)
            result = evaluation.assignment
            cache[bits] = EvaluationRecord(
                selection=selection_to_string(bits),
                penalized_objective=evaluation.penalized_objective,
                feasible=evaluation.feasible,
                total_excess=evaluation.shelter_excess_total + evaluation.link_excess_total,
                total_evacuation_time=evaluation.total_evacuation_time,
                converged=result.converged if result is not None else None,
                note=evaluation.note,
            )
    return [cache[bits] for bits in population]


def _mutate(bits: tuple[int, ...], rng: np.random.Generator, ga: GAConfig) -> tuple[int, ...]:
    if ga.mutation_mode == "individual":
        if rng.random() < ga.mutation_probability:
            j = int(rng.integers(len(bits)))
            return bits[:j] + (1 - bits[j],) + bits[j + 1 :]
        return bits
    flips = rng.random(len(bits)) < ga.mutation_probability
    return tuple(1 - b if flip else b for b, flip in zip(bits, flips))


def _next_generation(
    population: list[tuple[int, ...]],
    fitness: list[float],
    rng: np.random.Generator,
    ga: GAConfig,
) -> list[tuple[int, ...]]:
    n = len(population)
    length = len(population[0])
    order = sorted(range(n), key=lambda i: (fitness[i], population[i]))
    elites = [population[i] for i in order[: ga.elitism_count]]
    weights = np.empty(n)
    for position, i in enumerate(order):
        weights[i] = n - position  # linear rank: best n, worst 1
    # the rank CDF that rng.choice(n, p=weights / weights.sum()) builds on
    # every call: one rng.random() per draw gives the same draws and stream
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]

    def pick() -> tuple[int, ...]:
        return population[int(cdf.searchsorted(rng.random(), side="right"))]

    slots = n - ga.elitism_count
    crossover_slots = round(ga.reproduction_rate * slots)
    children: list[tuple[int, ...]] = []
    for slot in range(slots):
        if slot < crossover_slots and length >= 2:
            mother, father = pick(), pick()
            cut = int(rng.integers(1, length))
            child = mother[:cut] + father[cut:]
        else:
            child = pick()
        children.append(_mutate(child, rng, ga))
    return elites + children


def ga_solve(
    network: Network,
    shelters: ShelterSet,
    demand: DemandScenario,
    impedance: ImpedanceParameter,
    penalties: PenaltyConfig,
    ga: GAConfig,
    assignment: AssignmentConfig,
) -> SolveReport:
    """Run the bi-level search and return the best selection found.

    Deterministic given ga.rng_seed: all randomness happens in the
    generation loop. Elitism keeps the incumbent, so per-generation best
    fitness is non-increasing.
    """
    findings = validate_network(network, shelters)
    if findings:
        details = "; ".join(str(f) for f in findings)
        raise ValueError(f"network validation failed: {details}")
    context = EvaluationContext(network, shelters, demand, impedance, penalties, assignment)
    rng = np.random.default_rng(ga.rng_seed)
    length = len(shelters.candidates)
    population = [
        tuple(int(b) for b in rng.integers(0, 2, size=length))
        for _ in range(ga.population_size)
    ]
    population[0] = (1,) * length  # guarantee the all-open individual is tried

    cache: dict[tuple[int, ...], EvaluationRecord] = {}
    history: list[GenerationStats] = []
    best_bits: Optional[tuple[int, ...]] = None
    best_fitness = math.inf

    for generation in range(ga.max_generations):
        entries = _evaluate_population(population, context, cache)
        fitness = [e.penalized_objective for e in entries]
        gen_best = min(range(len(population)), key=lambda i: (fitness[i], population[i]))
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=fitness[gen_best],
                mean_fitness=sum(fitness) / len(fitness),
                feasible_count=sum(1 for e in entries if e.feasible),
            )
        )
        if best_bits is None or fitness[gen_best] < best_fitness:
            best_bits = population[gen_best]
            best_fitness = fitness[gen_best]
        if generation < ga.max_generations - 1:
            population = _next_generation(population, fitness, rng, ga)

    assert best_bits is not None
    final = evaluate_individual(best_bits, context)
    attraction = {c.node_id: 0.0 for c in shelters.candidates}
    diagnostics: dict[str, float | int | bool] = {}
    if final.assignment is not None:
        for (_, shelter), flow in final.assignment.od_flows.items():
            if shelter in attraction:
                attraction[shelter] += flow
        diagnostics = {
            "relative_gap": final.assignment.relative_gap,
            "iterations": final.assignment.iterations,
            "converged": final.assignment.converged,
        }
    return SolveReport(
        best_selection=best_bits,
        best_penalized_objective=final.penalized_objective,
        best_total_evacuation_time=(
            final.total_evacuation_time if final.total_evacuation_time is not None else math.inf
        ),
        feasible=final.feasible,
        shelter_attraction=attraction,
        history=tuple(history),
        assignment_diagnostics=diagnostics,
        evaluation_log=tuple(cache.values()),
        best_assignment=final.assignment,
    )


def history_to_csv(report: SolveReport) -> str:
    """Per-generation history as CSV text."""
    lines = ["generation,best_fitness,mean_fitness,feasible_count"]
    for row in report.history:
        lines.append(
            f"{row.generation},{row.best_fitness!r},{row.mean_fitness!r},{row.feasible_count}"
        )
    return "\n".join(lines) + "\n"
