"""Exhaustive evaluation of every non-empty shelter subset.

A transparency oracle for small candidate counts: it reuses the GA's
fitness evaluation verbatim so the two are comparable term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ga import Evaluation, EvaluationContext, evaluate_individual
from .network import Network
from .problem import (
    AssignmentConfig,
    DemandScenario,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
)

MAX_CANDIDATES = 20


@dataclass(frozen=True)
class EnumerationReport:
    """All 2^J - 1 subset evaluations in canonical (bit-vector value) order,
    kept without their flows.

    `best` indexes the entry with the minimum penalized objective; ties go
    to fewer open shelters, then to the lexicographically smaller selection.
    """

    evaluations: tuple[Evaluation, ...]
    best: int

    def __post_init__(self) -> None:
        if not 0 <= self.best < len(self.evaluations):
            raise ValueError(
                f"best index {self.best} is outside the {len(self.evaluations)} evaluations"
            )

    @property
    def best_evaluation(self) -> Evaluation:
        return self.evaluations[self.best]


def _selection_for_mask(mask: int, count: int) -> tuple[int, ...]:
    return tuple((mask >> k) & 1 for k in range(count))


def exhaustive_solve(
    network: Network,
    shelters: ShelterSet,
    demand: DemandScenario,
    impedance: ImpedanceParameter,
    penalties: PenaltyConfig,
    assignment: AssignmentConfig,
) -> EnumerationReport:
    """Evaluate every non-empty shelter subset with the GA's own fitness.

    The empty subset can never win under the tie policy, so it is skipped
    rather than evaluated at sentinel fitness. Refuses more than
    MAX_CANDIDATES candidates.
    """
    count = len(shelters.candidates)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{count} candidates would need {2 ** count - 1} evaluations; "
            f"exhaustive_solve is limited to {MAX_CANDIDATES} candidates"
        )
    context = EvaluationContext(network, shelters, demand, impedance, penalties, assignment)
    # one set of flows alive at a time
    rows = tuple(
        replace(evaluate_individual(_selection_for_mask(mask, count), context), assignment=None)
        for mask in range(1, 2 ** count)
    )
    best = min(
        range(len(rows)),
        key=lambda i: (rows[i].penalized_objective, sum(rows[i].selection), rows[i].selection),
    )
    return EnumerationReport(evaluations=rows, best=best)
