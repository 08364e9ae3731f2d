import math
from types import SimpleNamespace

import numpy as np
import pytest

from quickwake import (
    BeliefGrid,
    ChangePrior,
    ConvergenceError,
    Costs,
    Problem,
    SensorModel,
    build_expectation_operator,
    calibrate_lambda_f,
    estimate_metrics,
    extract_policy,
    metrics_from_episodes,
    run_episodes,
    sweep_open_loop_q,
    value_iteration,
)
from quickwake import sim
from tests.conftest import constant_count_policy


def test_horizon_cap_cuts_episodes_at_100_mean_change_times(problem, grid201):
    """With no sensor awake the belief follows the prior's prediction,
    which stalls just below 1 in floating point, so a threshold of 1 is
    never reached and every episode runs to the cap."""
    for p, cap in ((0.01, 10_000), (0.3, 334)):
        assert cap == math.ceil(sim.HORIZON_CHANGE_TIMES / p)
        prior_problem = Problem(problem.model, ChangePrior(0.0, p), problem.costs, problem.n)
        pol = constant_count_policy(prior_problem, grid201, 1.0, 0)
        (ep,) = run_episodes(prior_problem, pol, 1, 4)
        assert (ep.stop_time, ep.truncated) == (cap, True)
        assert len(ep.trace) == cap


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


def test_run_episodes_checks_its_arguments_at_the_call(problem, policy_control_m):
    """The run is simulated at the call, so a bad argument raises there,
    before anything is iterated; so does ``estimate_metrics``.  Counts
    and seeds are integers, not bools or floats."""
    bad = [((r,), "replications must be >= 1 and an integer") for r in (0, True, 2.5, 3.0)]
    bad += [((2, s), "base_seed must be >= 0 and an integer") for s in (True, 1.5, -1)]
    for args, fragment in bad:
        for call in (run_episodes, estimate_metrics):
            with pytest.raises(ValueError, match=fragment):
                call(problem, policy_control_m, *args)


def test_run_episode_trace_accounts_costs(problem, policy_control_m):
    """Episode 0 carries its per-slot trace, which accounts its sensing."""
    ep = next(run_episodes(problem, policy_control_m, 1, 5))
    assert len(ep.trace) == ep.stop_time
    ks, pis, ms = zip(*ep.trace)
    assert ks == tuple(range(ep.stop_time))
    assert all(0.0 <= pi < policy_control_m.gamma for pi in pis)
    assert ep.obs_cost == pytest.approx(problem.costs.lambda_s * sum(ms))


def test_truncation_counted_and_excluded(problem, policy_control_m, monkeypatch):
    monkeypatch.setattr(sim, "HORIZON_CHANGE_TIMES", 0.025)  # read per block: 3 slots at p = 0.01
    eps = list(run_episodes(problem, policy_control_m, 50, 3))
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


@pytest.mark.parametrize("strategy", ["control_m", "control_q", "open_loop"])
def test_grid_terms_lie_within_the_simulations_half_widths(request, strategy):
    """The solve's exact P_FA and delay at rho against criterion 9's
    10^5-episode estimates of the same policies."""
    _, report = request.getfixturevalue(f"solved_{strategy}")
    met = request.getfixturevalue(f"metrics_{strategy}")
    assert abs(report.p_false_alarm - met.prob_false_alarm) <= met.false_alarm_half_width
    assert abs(report.mean_delay - met.mean_delay) <= met.delay_half_width


def test_mean_delay_counts_false_alarms_as_zero(problem, grid201):
    """``mean_delay`` is E[(tau - T)^+] over the completed episodes, a
    false alarm adding 0, which is what the solve's delay term is."""
    pol = constant_count_policy(problem, grid201, 0.6, 1)
    episodes = list(run_episodes(problem, pol, 2000, 3))
    assert any(e.false_alarm for e in episodes) and not any(e.truncated for e in episodes)
    delay = np.mean([max(e.stop_time - e.change_time, 0) for e in episodes])
    assert estimate_metrics(problem, pol, 2000, 3).mean_delay == delay


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
    # Each row's exact delay: q = 0.3 stops at once.
    assert res.rows[1].mean_delay > 0.0 and res.rows[2].mean_delay == 0.0
    with pytest.raises(ValueError):
        sweep_open_loop_q(problem, [], grid=grid201, operator=operator201)
    with pytest.raises(ValueError):
        sweep_open_loop_q(problem, [0.5, 1.2], grid=grid201, operator=operator201)


def test_sweep_rows_carry_each_solves_mean_delay(problem, grid201, operator201):
    """A row's delay is its solve's exact E[(tau - T)^+] at rho."""
    q_values = [0.0, 0.03, 0.5]
    res = sweep_open_loop_q(problem, q_values, grid=grid201, operator=operator201)
    for q, row in zip(q_values, res.rows):
        J, report = value_iteration(problem, "open_loop", grid201, q=q, operator=operator201)
        assert (row.value_at_start, row.mean_delay) == (J(problem.prior.rho), report.mean_delay)


def test_sweep_checks_q_values_before_any_solve(problem, operator201, monkeypatch):
    def no_solve(*args, **kw):
        raise AssertionError("solved before the argument checks")

    monkeypatch.setattr(sim, "value_iteration", no_solve)
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match="q_values must lie in"):
            sweep_open_loop_q(problem, [0.05, bad], operator=operator201)
    for bad in ([[0.1, 0.2]], 0.1):
        with pytest.raises(ValueError, match="q_values must be a non-empty 1-D sequence"):
            sweep_open_loop_q(problem, bad, operator=operator201)


def solver_at(problem, strategy: str, grid_size: int):
    """A calibrate ``solve_at``: each trial's solve on one operator, which
    lambda_f does not enter."""
    grid = BeliefGrid.uniform(grid_size)
    op = build_expectation_operator(problem, grid)
    return lambda trial: value_iteration(trial, strategy, grid, operator=op)


def test_calibration_reaches_target(problem):
    result = calibrate_lambda_f(
        problem, solver_at(problem, "control_m", 201), target_alpha=0.05, tolerance=0.015,
        max_trials=25,
    )
    assert abs(result.alpha - 0.05) <= 0.015
    assert result.trials == len(result.trace)
    assert result.lambda_f > 0
    # The result's solve is the last trial's, at the result's lambda_f.
    assert result.trace[-1] == (result.lambda_f, result.alpha)
    assert result.value_function.p_false_alarm[0] == result.alpha


def test_calibration_factors_once_per_trial_that_continues(problem, grid1001, operator):
    """open_loop q = 0.03 with the benchmark's target and bracket: every
    trial's fine rounds share one factorization, none if it stops at once."""
    reports = []

    def solve_at(trial):
        J, report = value_iteration(trial, "open_loop", grid1001, q=0.03, operator=operator)
        reports.append(report)
        return J, report

    result = calibrate_lambda_f(
        problem, solve_at, target_alpha=0.04, tolerance=0.005, lambda_lo=10.0, lambda_hi=1000.0,
        max_trials=40,
    )
    assert result.trials == len(reports) == 3
    assert [r.factorizations for r in reports] == [int(r.p_false_alarm < 1.0) for r in reports]
    assert [r.iterations for r in reports] == [1, 3, 3]


def test_calibration_bracket_must_straddle(problem):
    with pytest.raises(ValueError, match="straddle"):
        calibrate_lambda_f(
            problem, solver_at(problem, "control_m", 201), target_alpha=0.5, tolerance=0.001,
            lambda_lo=5_000.0, lambda_hi=10_000.0,
        )


def test_calibration_tries_the_float_inside_a_two_ulp_bracket(problem):
    """The geometric midpoint of this bracket rounds onto its lower end
    while one float lies between the ends; the search tries that float,
    where the fake P_FA still reads high, and reports the jump only
    between adjacent floats."""
    lo = 72.3868790736938
    mid = math.nextafter(lo, math.inf)
    hi = math.nextafter(mid, math.inf)
    assert math.sqrt(lo) * math.sqrt(hi) == lo
    tried = []

    def solve_at(trial):
        lam = trial.costs.lambda_f
        tried.append(lam)
        return None, SimpleNamespace(p_false_alarm=0.05 if lam <= mid else 0.03)

    with pytest.raises(ConvergenceError, match="between adjacent lambda_f") as err:
        calibrate_lambda_f(
            problem, solve_at, target_alpha=0.04, tolerance=1e-9, lambda_lo=lo, lambda_hi=hi,
        )
    assert tried == [lo, hi, mid]
    assert f"at {mid!r}, " in str(err.value) and f"at {hi!r}" in str(err.value)


@pytest.mark.parametrize(
    "kw,fragment",
    [
        ({"max_trials": 0}, "max_trials must be >= 1"),
        ({"tolerance": math.nan}, "tolerance must be > 0"),
        ({"tolerance": -0.01}, "tolerance must be > 0"),
        ({"lambda_hi": math.inf}, "lambda_lo < lambda_hi, both finite"),
        ({"target_alpha": 1.0}, "target_alpha must lie in"),
        ({"lambda_lo": 10.0, "lambda_hi": 5.0}, "lambda_lo < lambda_hi"),
        ({"max_trials": True}, "max_trials must be >= 1 and an integer"),
        ({"max_trials": 2.5}, "max_trials must be >= 1 and an integer"),
    ],
)
def test_calibration_checks_its_settings_before_any_trial(problem, kw, fragment):
    trials = []
    with pytest.raises(ValueError, match=fragment):
        calibrate_lambda_f(problem, trials.append, **{"target_alpha": 0.05, **kw})
    assert trials == []


def test_constant_count_policy_delay_shrinks_with_more_sensors(problem, grid201):
    gamma = 0.9
    slow = estimate_metrics(
        problem, constant_count_policy(problem, grid201, gamma, 1), 1500, 21
    )
    fast = estimate_metrics(
        problem, constant_count_policy(problem, grid201, gamma, 8), 1500, 21
    )
    assert fast.mean_delay < slow.mean_delay
