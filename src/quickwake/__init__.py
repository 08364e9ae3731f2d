"""Sleep-wake scheduling for Bayesian quickest change detection.

A fusion centre watches ``n`` sensors for a disruption that arrives at a
random slot.  Each slot it either declares the change or picks how many
sensors stay awake, trading sensing energy against detection delay and
false alarms.  This package solves the resulting belief-state dynamic
programs, extracts threshold policies, and simulates them.
"""

from .dp import (
    BeliefGrid,
    ConvergenceError,
    ExpectationOperator,
    LikelihoodAtoms,
    SolveReport,
    ValueFunction,
    bellman_maps,
    binomial_weights,
    build_expectation_operator,
    monte_carlo_atoms,
    operator_from_atoms,
    solve_finite_horizon,
    value_iteration,
)
from .model import (
    ChangePrior,
    Costs,
    Problem,
    SensorModel,
    prior_mass,
)
from .oracle import DiscreteInstance, brute_force_value, likelihood_atoms
from .policy import Policy, extract_policy
from .sim import (
    CalibrationResult,
    EpisodeResult,
    Metrics,
    SweepResult,
    calibrate_lambda_f,
    default_horizon_cap,
    estimate_metrics,
    metrics_from_episodes,
    run_episodes,
    sweep_open_loop_q,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefGrid",
    "CalibrationResult",
    "ChangePrior",
    "ConvergenceError",
    "Costs",
    "DiscreteInstance",
    "EpisodeResult",
    "ExpectationOperator",
    "LikelihoodAtoms",
    "Metrics",
    "Policy",
    "Problem",
    "SensorModel",
    "SolveReport",
    "SweepResult",
    "ValueFunction",
    "bellman_maps",
    "binomial_weights",
    "brute_force_value",
    "build_expectation_operator",
    "calibrate_lambda_f",
    "default_horizon_cap",
    "estimate_metrics",
    "extract_policy",
    "likelihood_atoms",
    "metrics_from_episodes",
    "monte_carlo_atoms",
    "operator_from_atoms",
    "prior_mass",
    "run_episodes",
    "solve_finite_horizon",
    "sweep_open_loop_q",
    "value_iteration",
]
