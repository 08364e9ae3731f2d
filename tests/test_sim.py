import math

import numpy as np
import pytest

from quickwake import (
    BeliefGrid,
    ChangePrior,
    Costs,
    Problem,
    SensorModel,
    build_expectation_operator,
    calibrate_lambda_f,
    default_horizon_cap,
    estimate_metrics,
    extract_policy,
    metrics_from_episodes,
    run_episodes,
    sweep_open_loop_q,
    value_iteration,
)
from quickwake import sim
from tests.conftest import constant_count_policy


def test_default_horizon_cap():
    assert default_horizon_cap(ChangePrior(0.0, 0.01)) == 10_000
    assert default_horizon_cap(ChangePrior(0.0, 0.3)) == 334


def test_change_time_distribution(problem, grid201):
    # gamma = 0 stops every episode at slot 0, so only the change time is drawn.
    prior_problem = Problem(problem.model, ChangePrior(rho=0.3, p=0.2), problem.costs, problem.n)
    pol = constant_count_policy(prior_problem, grid201, 0.0, 1)
    eps = list(run_episodes(prior_problem, pol, 20_000, 11))
    assert all(e.stop_time == 0 for e in eps)
    draws = np.array([e.change_time for e in eps])
    assert abs(float((draws == 0).mean()) - 0.3) < 0.01
    positive = draws[draws > 0]
    assert abs(float(positive.mean()) - 5.0) < 0.15  # geometric mean 1/p


def test_run_episode_is_deterministic(problem, policy_control_m):
    """The same base seed gives the same episodes, each costed from its
    own change and stopping times."""
    a = list(run_episodes(problem, policy_control_m, 8, 99))
    b = list(run_episodes(problem, policy_control_m, 8, 99))
    assert a == b
    for i, ep in enumerate(a):
        assert ep.episode == i
        assert ep.delay == max(0, ep.stop_time - ep.change_time)
        assert ep.false_alarm == (ep.stop_time < ep.change_time)
        expected_total = problem.costs.lambda_f * ep.false_alarm + ep.delay + ep.obs_cost
        assert ep.total_cost == pytest.approx(expected_total)


def test_run_episode_trace_accounts_costs(problem, policy_control_m):
    """Episode 0 carries its per-slot trace, which accounts its sensing."""
    ep = next(run_episodes(problem, policy_control_m, 1, 5))
    assert len(ep.trace) == ep.stop_time
    ks, pis, ms = zip(*ep.trace)
    assert ks == tuple(range(ep.stop_time))
    assert all(0.0 <= pi < policy_control_m.gamma for pi in pis)
    assert ep.obs_cost == pytest.approx(problem.costs.lambda_s * sum(ms))


def test_truncation_counted_and_excluded(problem, policy_control_m):
    eps = list(
        run_episodes(problem, policy_control_m, 50, 3, horizon_cap=3)
    )
    truncated = [e for e in eps if e.truncated]
    assert truncated  # a 3-slot budget cannot reach a 0.93 threshold from 0
    for e in truncated:
        assert e.stop_time == 3
    completed = [e for e in eps if not e.truncated]
    if completed:
        m = metrics_from_episodes(eps)
        assert m.completed == len(completed)
        assert m.truncated == len(truncated)
    else:
        with pytest.raises(RuntimeError, match="horizon cap"):
            metrics_from_episodes(eps)


def test_metrics_match_simulated_cost(problem, policy_control_m, solved_control_m):
    """Coupling of the two independent cost computations: Monte Carlo on
    sample paths vs the converged dynamic program."""
    J, _ = solved_control_m
    met = estimate_metrics(problem, policy_control_m, 4000, base_seed=17)
    dp_value = float(J(0.0))
    assert met.mean_total_cost == pytest.approx(
        dp_value, abs=3.0 * met.total_cost_half_width / 1.96 + 0.02 * dp_value
    )
    assert 0.0 <= met.prob_false_alarm <= 1.0
    assert met.completed == 4000


def test_unequal_variance_path_runs():
    problem = Problem(
        model=SensorModel(0.0, 1.0, 1.5, 2.0),
        prior=ChangePrior(0.0, 0.05),
        costs=Costs(0.2, 50.0),
        n=3,
    )
    from quickwake import BeliefGrid, build_expectation_operator, extract_policy, value_iteration

    grid = BeliefGrid.uniform(301)
    op = build_expectation_operator(problem, grid)
    J, _ = value_iteration(problem, "control_m", grid, operator=op)
    pol = extract_policy(J, problem, "control_m", operator=op)
    met = estimate_metrics(problem, pol, 800, base_seed=2)
    assert met.mean_total_cost == pytest.approx(
        float(J(0.0)), abs=3.0 * met.total_cost_half_width / 1.96 + 0.02 * float(J(0.0))
    )


def test_near_equal_variance_agrees_with_sum_statistic_path(problem, policy_control_m):
    """The per-sample update and the summed-statistic fast path must give
    statistically indistinguishable metrics."""
    nudged = Problem(
        model=SensorModel(0.0, 1.0, 1.0, 1.0 + 1e-9),  # forces the general path
        prior=problem.prior,
        costs=problem.costs,
        n=problem.n,
    )
    fast = estimate_metrics(problem, policy_control_m, 3000, base_seed=31)
    slow = estimate_metrics(nudged, policy_control_m, 3000, base_seed=31)
    width = fast.total_cost_half_width + slow.total_cost_half_width
    assert abs(fast.mean_total_cost - slow.mean_total_cost) < 2.0 * width + 0.5


@pytest.fixture(scope="module")
def policy201(problem, grid201, operator201):
    J, _ = value_iteration(problem, "control_m", grid201, operator=operator201)
    return extract_policy(J, problem, "control_m", operator=operator201)


def test_base_seeds_give_distinct_streams(problem, policy201):
    """Different base seeds must simulate different episodes.

    Seeding episode i with ``base_seed ^ i`` made base seeds 0 to 3 draw
    the same 512 episodes and report the same mean cost.
    """
    costs = [estimate_metrics(problem, policy201, 512, seed).mean_total_cost for seed in range(4)]
    assert len({round(c, 9) for c in costs}) == 4


def test_same_base_seed_repeats_bit_for_bit(problem, policy201):
    a = list(run_episodes(problem, policy201, 300, 42))
    b = list(run_episodes(problem, policy201, 300, 42))
    assert a == b
    assert [e.episode for e in a] == list(range(300))
    assert estimate_metrics(problem, policy201, 300, 42) == metrics_from_episodes(a)


def test_blocks_do_not_depend_on_their_neighbours(problem, policy201, monkeypatch):
    """Block b runs on child b of SeedSequence(base_seed), whatever the run length."""
    monkeypatch.setattr(sim, "BLOCK_EPISODES", 4)
    ten = list(run_episodes(problem, policy201, 10, 7))
    eight = list(run_episodes(problem, policy201, 8, 7))
    assert ten[:8] == eight
    for b, count in enumerate((4, 4, 2)):
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(b + 1)[b])
        change, stop, _, final, _ = sim._run_block(problem, policy201, rng, count, None)
        block = ten[4 * b: 4 * b + count]
        assert [e.change_time for e in block] == change.tolist()
        assert [e.stop_time for e in block] == stop.tolist()
        assert [e.final_belief for e in block] == final.tolist()


def test_policy_problem_mismatch_rejected(problem, policy_control_m):
    other = Problem(
        model=problem.model, prior=problem.prior, costs=problem.costs, n=4
    )
    with pytest.raises(ValueError, match="n="):
        next(run_episodes(other, policy_control_m, 1))


def test_sweep_open_loop_rows(problem, grid201, operator201):
    res = sweep_open_loop_q(
        problem, [0.0, 0.02, 0.3], grid=grid201, operator=operator201
    )
    assert len(res.rows) == 3
    assert res.argmin_q == 0.02
    assert res.rows[res.argmin_index].value_at_start == min(
        r.value_at_start for r in res.rows
    )
    assert math.isnan(res.rows[0].mean_delay)  # no replications requested
    with pytest.raises(ValueError):
        sweep_open_loop_q(problem, [], grid=grid201, operator=operator201)
    with pytest.raises(ValueError):
        sweep_open_loop_q(problem, [0.5, 1.2], grid=grid201, operator=operator201)


def test_sweep_reports_delay_with_replications(problem, grid201, operator201):
    res = sweep_open_loop_q(
        problem, [0.05], grid=grid201, operator=operator201, replications=300, base_seed=9
    )
    assert res.rows[0].mean_delay > 0.0


def test_calibration_reaches_target(problem):
    result = calibrate_lambda_f(
        problem, "control_m", target_alpha=0.05, tolerance=0.015,
        replications=600, base_seed=13, grid=201, max_trials=25,
    )
    assert abs(result.alpha - 0.05) <= 0.015
    assert result.trials == len(result.trace)
    assert result.lambda_f > 0


def test_grid_may_be_a_numpy_integer(problem):
    sweep = sweep_open_loop_q(problem, [0.0, 0.05], grid=np.int64(51))
    assert sweep.rows == sweep_open_loop_q(problem, [0.0, 0.05], grid=51).rows
    # A tolerance of 1 accepts the first bracket probe: one trial.
    kw = dict(target_alpha=0.05, tolerance=1.0, replications=50, base_seed=3)
    cal = calibrate_lambda_f(problem, "control_m", grid=np.int64(51), **kw)
    assert cal.trials == 1
    grid = BeliefGrid.uniform(51)
    op = build_expectation_operator(problem, grid)
    assert calibrate_lambda_f(problem, "control_m", grid=grid, operator=op, **kw) == cal
    with pytest.raises(ValueError, match="operator does not match"):
        calibrate_lambda_f(problem, "control_m", grid=101, operator=op, **kw)


def test_calibration_bracket_must_straddle(problem):
    with pytest.raises(ValueError, match="straddle"):
        calibrate_lambda_f(
            problem, "control_m", target_alpha=0.5, tolerance=0.001,
            lambda_lo=5_000.0, lambda_hi=10_000.0,
            replications=300, base_seed=1, grid=201,
        )


def test_constant_count_policy_delay_shrinks_with_more_sensors(problem, grid201):
    gamma = 0.9
    slow = estimate_metrics(
        problem, constant_count_policy(problem, grid201, gamma, 1), 1500, 21
    )
    fast = estimate_metrics(
        problem, constant_count_policy(problem, grid201, gamma, 8), 1500, 21
    )
    assert fast.mean_delay < slow.mean_delay
