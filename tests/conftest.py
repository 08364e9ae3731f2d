"""Shared fixtures: the benchmark instance, its solves, and heavy sims.

Everything expensive is session-scoped so the acceptance tests and the
unit tests draw from one set of solves.  The 10^5-replication metrics
are only materialized when a test actually asks for them.
"""

import numpy as np
import pytest

from quickwake import (
    BeliefGrid,
    ChangePrior,
    Costs,
    Policy,
    Problem,
    SensorModel,
    build_expectation_operator,
    estimate_metrics,
    extract_policy,
    value_iteration,
)

# One sim budget for every acceptance-grade estimate.
REPLICATIONS = 100_000
BASE_SEED = 20260818

# Scorecard lines appended by the acceptance tests, echoed after the run
# so the verdicts are visible without -s.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_benchmark_problem() -> Problem:
    return Problem(
        model=SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=1.0),
        prior=ChangePrior(rho=0.0, p=0.01),
        costs=Costs(lambda_s=0.5, lambda_f=100.0),
        n=10,
    )


@pytest.fixture(scope="session")
def problem():
    return make_benchmark_problem()


@pytest.fixture(scope="session")
def grid1001():
    return BeliefGrid.uniform(1001)


@pytest.fixture(scope="session")
def operator(problem, grid1001):
    return build_expectation_operator(problem, grid1001)


@pytest.fixture(scope="session")
def grid201():
    return BeliefGrid.uniform(201)


@pytest.fixture(scope="session")
def operator201(problem, grid201):
    return build_expectation_operator(problem, grid201)


@pytest.fixture(scope="session")
def solved_control_m(problem, grid1001, operator):
    return value_iteration(problem, "control_m", grid1001, operator=operator)


@pytest.fixture(scope="session")
def policy_control_m(solved_control_m, problem, operator):
    J, _ = solved_control_m
    return extract_policy(J, problem, "control_m", operator=operator)


@pytest.fixture(scope="session")
def solved_control_q(problem, grid1001, operator):
    return value_iteration(problem, "control_q", grid1001, operator=operator)


@pytest.fixture(scope="session")
def policy_control_q(solved_control_q, problem, operator):
    J, _ = solved_control_q
    return extract_policy(J, problem, "control_q", operator=operator)


@pytest.fixture(scope="session")
def solved_open_loop(problem, grid1001, operator):
    # q fixed at the benchmark curve's minimizer (0.01-resolution sweep).
    return value_iteration(problem, "open_loop", grid1001, q=0.03, operator=operator)


@pytest.fixture(scope="session")
def policy_open_loop(solved_open_loop, problem, operator):
    J, _ = solved_open_loop
    return extract_policy(J, problem, "open_loop", q=0.03, operator=operator)


@pytest.fixture(scope="session")
def solved_fixed_1(problem, grid1001, operator):
    return value_iteration(problem, "fixed_m", grid1001, fixed_m=1, operator=operator)


@pytest.fixture(scope="session")
def policy_fixed_1(solved_fixed_1, problem, operator):
    J, _ = solved_fixed_1
    return extract_policy(J, problem, "fixed_m", fixed_m=1, operator=operator)


def constant_count_policy(problem, grid, gamma: float, m: int) -> Policy:
    """m sensors awake every slot below an externally chosen threshold."""
    return Policy(
        kind="fixed_m", gamma=gamma, grid=grid, n=problem.n,
        awake_map=np.full(grid.size, m, dtype=int),
    )


@pytest.fixture(scope="session")
def metrics_control_m(problem, policy_control_m):
    return estimate_metrics(problem, policy_control_m, REPLICATIONS, BASE_SEED)


@pytest.fixture(scope="session")
def metrics_control_q(problem, policy_control_q):
    return estimate_metrics(problem, policy_control_q, REPLICATIONS, BASE_SEED)


@pytest.fixture(scope="session")
def metrics_open_loop(problem, policy_open_loop):
    return estimate_metrics(problem, policy_open_loop, REPLICATIONS, BASE_SEED)


@pytest.fixture(scope="session")
def metrics_fixed_1(problem, policy_fixed_1):
    return estimate_metrics(problem, policy_fixed_1, REPLICATIONS, BASE_SEED)


@pytest.fixture(scope="session")
def metrics_constant_10(problem, grid1001, policy_control_m):
    pol = constant_count_policy(problem, grid1001, policy_control_m.gamma, 10)
    return estimate_metrics(problem, pol, REPLICATIONS, BASE_SEED)


@pytest.fixture(scope="session")
def metrics_constant_3(problem, grid1001, policy_control_m):
    pol = constant_count_policy(problem, grid1001, policy_control_m.gamma, 3)
    return estimate_metrics(problem, pol, REPLICATIONS, BASE_SEED)
