"""Upper-level genetic algorithm over shelter subsets.

Chromosomes are binary selection vectors; fitness is the penalized total
evacuation time at the lower-level equilibrium the selection induces.
Selection is linear-rank, crossover single-point, mutation single-bit,
with elitism, at the published rates (ELITES, REPRODUCTION_RATE,
MUTATION_PROBABILITY): constants, since no instance varies them and the
elite keeps the per-generation best fitness from rising. Runs are
deterministic given the seed; each distinct chromosome is evaluated once,
and its evaluation, kept without the flows, serves both the cache and
the evaluation log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .assignment import (
    AssignmentResult,
    InfeasibleOriginError,
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
)

WORST_FITNESS = math.inf

# the published GA parameters
ELITES = 1
REPRODUCTION_RATE = 0.6
MUTATION_PROBABILITY = 0.4


@dataclass(frozen=True)
class Evaluation:
    """The fitness of one selection: the penalized total evacuation time
    at the equilibrium it induces, and the terms behind it.

    A selection with no open shelter, or one that strands an origin, has
    no assignment: it scores WORST_FITNESS, `converged` is None and `note`
    says why. `assignment` holds the flows and is not serialized; the GA
    log and the enumeration keep records without it.
    """

    selection: tuple[int, ...]
    penalized_objective: float
    feasible: bool
    total_evacuation_time: Optional[float]
    total_excess: float = 0.0
    converged: Optional[bool] = None
    note: str = ""
    assignment: Optional[AssignmentResult] = field(default=None, metadata={"json": False})


def _score(
    network: Network,
    shelters: ShelterSet,
    result: AssignmentResult,
    penalties: PenaltyConfig,
) -> Evaluation:
    """The evaluation of `shelters.selection` given its solved assignment:
    the one place the penalized objective is computed."""
    shelter_excess, link_excess = constraint_violations(result, shelters, network)
    total_time = total_evacuation_time(network, result)
    shelter_total = sum(shelter_excess.values())
    link_total = sum(link_excess.values())
    return Evaluation(
        selection=shelters.selection,
        penalized_objective=(
            total_time
            + penalties.alpha_shelter * shelter_total
            + penalties.beta_link * link_total
        ),
        feasible=(shelter_total == 0.0 and link_total == 0.0),
        total_evacuation_time=total_time,
        total_excess=shelter_total + link_total,
        converged=result.converged,
        assignment=result,
    )


def penalized_objective(
    network: Network,
    shelters: ShelterSet,
    result: AssignmentResult,
    penalties: PenaltyConfig,
) -> float:
    """Total evacuation time plus weighted shelter/link capacity excess."""
    return _score(network, shelters, result, penalties).penalized_objective


@dataclass(frozen=True)
class EvaluationContext:
    """Everything a fitness evaluation needs besides the selection bits."""

    network: Network
    shelters: ShelterSet
    demand: DemandScenario
    impedance: ImpedanceParameter
    penalties: PenaltyConfig
    assignment: AssignmentConfig


def evaluate_individual(selection: Sequence[int], context: EvaluationContext) -> Evaluation:
    """Fitness of one selection: lower-level solve, then the penalized objective.

    All-zero selections (and selections that strand an origin) receive the
    sentinel worst fitness with a diagnostic note instead of crashing.
    Pure function of (selection, context).
    """
    shelters = context.shelters.with_selection(selection)
    if not any(shelters.selection):
        return Evaluation(shelters.selection, WORST_FITNESS, False, None, note="no open shelters")
    try:
        result = solve_lower_level(
            context.network,
            shelters.open_ids(),
            context.demand,
            context.impedance,
            context.assignment,
        )
    except InfeasibleOriginError as exc:
        return Evaluation(shelters.selection, WORST_FITNESS, False, None, note=str(exc))
    return _score(context.network, shelters, result, context.penalties)


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
    first-encounter order. best_assignment holds the best selection's
    equilibrium, with its relative_gap, iterations and converged flag.
    """

    best_selection: tuple[int, ...]
    best_penalized_objective: float
    best_total_evacuation_time: float
    feasible: bool
    shelter_attraction: dict[str, float]
    history: tuple[GenerationStats, ...]
    evaluation_log: tuple[Evaluation, ...]
    best_assignment: Optional[AssignmentResult] = None


def _evaluate_population(
    population: list[tuple[int, ...]],
    context: EvaluationContext,
    cache: dict[tuple[int, ...], Evaluation],
) -> list[Evaluation]:
    """Evaluations for the population, each chromosome solved on first sight.

    The cache keeps insertion order, so its values are the evaluation log
    in first-encounter order.
    """
    for bits in population:
        if bits not in cache:
            cache[bits] = replace(evaluate_individual(bits, context), assignment=None)
    return [cache[bits] for bits in population]


def _mutate(bits: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
    """With probability MUTATION_PROBABILITY, flip one uniformly chosen bit."""
    if rng.random() < MUTATION_PROBABILITY:
        j = int(rng.integers(len(bits)))
        return bits[:j] + (1 - bits[j],) + bits[j + 1 :]
    return bits


def _next_generation(
    population: list[tuple[int, ...]],
    fitness: list[float],
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    n = len(population)
    length = len(population[0])
    order = sorted(range(n), key=lambda i: (fitness[i], population[i]))
    elites = [population[i] for i in order[:ELITES]]
    weights = np.empty(n)
    for position, i in enumerate(order):
        weights[i] = n - position  # linear rank: best n, worst 1
    # the rank CDF that rng.choice(n, p=weights / weights.sum()) builds on
    # every call: one rng.random() per draw gives the same draws and stream
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]

    def pick() -> tuple[int, ...]:
        return population[int(cdf.searchsorted(rng.random(), side="right"))]

    slots = n - ELITES
    crossover_slots = round(REPRODUCTION_RATE * slots)
    children: list[tuple[int, ...]] = []
    for slot in range(slots):
        if slot < crossover_slots and length >= 2:
            mother, father = pick(), pick()
            cut = int(rng.integers(1, length))
            child = mother[:cut] + father[cut:]
        else:
            child = pick()
        children.append(_mutate(child, rng))
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

    cache: dict[tuple[int, ...], Evaluation] = {}
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
            population = _next_generation(population, fitness, rng)

    assert best_bits is not None
    final = evaluate_individual(best_bits, context)
    attraction = {c.node_id: 0.0 for c in shelters.candidates}
    if final.assignment is not None:
        for (_, shelter), flow in final.assignment.od_flows.items():
            if shelter in attraction:
                attraction[shelter] += flow
    return SolveReport(
        best_selection=best_bits,
        best_penalized_objective=final.penalized_objective,
        best_total_evacuation_time=(
            final.total_evacuation_time if final.total_evacuation_time is not None else math.inf
        ),
        feasible=final.feasible,
        shelter_attraction=attraction,
        history=tuple(history),
        evaluation_log=tuple(cache.values()),
        best_assignment=final.assignment,
    )
