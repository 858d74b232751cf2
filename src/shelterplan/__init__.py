"""Capacitated shelter location-allocation for evacuation planning.

Bi-level solver: a genetic algorithm chooses which candidate shelters to
open; evacuees respond with a logit shelter choice and minimum-time
routing under BPR congestion. Includes an exhaustive enumeration oracle,
a multi-scenario study runner, and a CLI.
"""

from .assignment import (
    AssignmentResult,
    InfeasibleOriginError,
    UnreachablePairError,
    all_or_nothing,
    constraint_violations,
    logit_distribution,
    lower_level_objective,
    solve_lower_level,
    total_evacuation_time,
)
from .enumeration import EnumerationReport, exhaustive_solve
from .ga import (
    Evaluation,
    EvaluationContext,
    GenerationStats,
    SolveReport,
    evaluate_individual,
    ga_solve,
    penalized_objective,
)
from .io import ProblemBundle, ProblemLoadError, load_network, load_problem
from .network import (
    Finding,
    Link,
    Network,
    Node,
    ShortestPathTree,
    bpr_time,
    shortest_path_tree,
    validate_network,
)
from .problem import (
    AssignmentConfig,
    CandidateShelter,
    DemandScenario,
    GAConfig,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
)
from .study import ScenarioResultRow, clearance_time, render_report, run_scenarios

__all__ = [
    "AssignmentConfig",
    "AssignmentResult",
    "CandidateShelter",
    "DemandScenario",
    "EnumerationReport",
    "Evaluation",
    "EvaluationContext",
    "Finding",
    "GAConfig",
    "GenerationStats",
    "ImpedanceParameter",
    "InfeasibleOriginError",
    "Link",
    "Network",
    "Node",
    "PenaltyConfig",
    "ProblemBundle",
    "ProblemLoadError",
    "ScenarioResultRow",
    "ShelterSet",
    "ShortestPathTree",
    "SolveReport",
    "UnreachablePairError",
    "all_or_nothing",
    "bpr_time",
    "clearance_time",
    "constraint_violations",
    "evaluate_individual",
    "exhaustive_solve",
    "ga_solve",
    "load_network",
    "load_problem",
    "logit_distribution",
    "lower_level_objective",
    "penalized_objective",
    "render_report",
    "run_scenarios",
    "shortest_path_tree",
    "solve_lower_level",
    "total_evacuation_time",
    "validate_network",
]

__version__ = "0.1.0"
