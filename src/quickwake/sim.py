"""Monte Carlo evaluation of detection policies, plus cost calibration.

Episodes draw a change time from the geometric prior, run a policy slot
by slot to its stopping time, and account the realized Bayes risk:
``lambda_f`` on a false alarm, one unit per slot of detection delay, and
``lambda_s`` per sensor-slot of sensing.  Episode ``i`` draws from its
own generator seeded ``base_seed ^ i``, so replications do not depend on
their order.  Base seeds do not give independent streams: for ``R = 2^k``
replications, every base seed in one aligned block of ``2^k`` (at
``R = 512``, every base seed below 512) draws the same set of episode
seeds and returns the same metrics, and other base seeds overlap in part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .belief import one_step_predict, posterior_update, sufficient_statistic_update
from .dp import BeliefGrid, ExpectationOperator, build_expectation_operator, value_iteration
from .model import ChangePrior, Problem, SensorModel
from .policy import Policy, extract_policy


@dataclass(frozen=True)
class EpisodeResult:
    """One simulated run of a policy against one drawn change time."""

    seed: int
    change_time: int
    stop_time: int
    delay: int
    false_alarm: bool
    obs_cost: float
    total_cost: float
    final_belief: float
    truncated: bool
    trace: tuple | None = None


@dataclass(frozen=True)
class Metrics:
    """Aggregates over completed replications, with 95% half-widths.

    ``truncated`` runs hit the horizon cap before stopping; they are
    counted here and excluded from every mean.
    """

    replications: int
    completed: int
    truncated: int
    mean_delay: float
    delay_half_width: float
    prob_false_alarm: float
    false_alarm_half_width: float
    mean_obs_cost: float
    mean_total_cost: float
    total_cost_half_width: float


def default_horizon_cap(prior: ChangePrior) -> int:
    """Slot budget per episode: 100 mean change times."""
    return int(math.ceil(100.0 / prior.p))


def sample_change_time(rng: np.random.Generator, prior: ChangePrior) -> int:
    """Draw T: 0 with probability rho, else geometric on {1, 2, ...}."""
    if rng.random() < prior.rho:
        return 0
    return int(rng.geometric(prior.p))


def run_episode(
    problem: Problem,
    policy: Policy,
    rng: np.random.Generator,
    horizon_cap: int | None = None,
    *,
    seed: int = -1,
    collect_trace: bool = False,
) -> EpisodeResult:
    """Run ``policy`` from belief rho until it stops or hits the cap.

    Per slot, in a fixed draw order: the wake decision (a binomial draw
    for probability-based kinds), then the slot's observations, drawn
    pre-change while the next slot index is still below T.  Equal-
    variance Gaussian models are simulated through the sample-sum
    statistic; anything else is sampled per sensor.

    Args:
        problem: Instance to simulate.
        policy: Stationary rule; its grid resolves belief lookups.
        rng: Generator owned by this episode.
        horizon_cap: Slot budget; default 100/p.  Hitting it flags the
            result truncated.
        seed: Recorded in the result for bookkeeping only.
        collect_trace: Keep a per-slot (slot, belief, awake_count) log.
    """
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(problem.prior)
    if horizon_cap < 1:
        raise ValueError(f"horizon_cap must be >= 1, got {horizon_cap!r}")
    if policy.n != problem.n:
        raise ValueError(f"policy is for n={policy.n}, problem has n={problem.n}")
    model = problem.model
    prior = problem.prior
    lam_s = problem.costs.lambda_s
    lam_f = problem.costs.lambda_f
    n = problem.n
    gamma = policy.gamma
    kind = policy.kind
    sum_statistic = isinstance(model, SensorModel) and model.equal_variance
    T = sample_change_time(rng, prior)
    pi = float(prior.rho)
    obs_cost = 0.0
    k = 0
    truncated = False
    trace: list | None = [] if collect_trace else None
    while True:
        if pi >= gamma:
            break
        if k >= horizon_cap:
            truncated = True
            break
        if kind in ("control_m", "fixed_m"):
            m = policy.awake_count_at(pi)
        else:
            m = int(rng.binomial(n, policy.wake_prob_at(pi)))
        if trace is not None:
            trace.append((k, pi, m))
        obs_cost += lam_s * m
        post_change = T <= k + 1
        if m == 0:
            pi = one_step_predict(pi, prior.p)
        elif sum_statistic:
            mu = model.mu1 if post_change else model.mu0
            s = rng.normal(m * mu, math.sqrt(m) * model.sigma0)
            pi = sufficient_statistic_update(pi, prior.p, m, s, model)
        else:
            regime = "post" if post_change else "pre"
            xs = model.sample(regime, m, rng)
            pi = posterior_update(pi, prior.p, xs, model)
        k += 1
    tau = k
    delay = max(0, tau - T)
    false_alarm = tau < T
    total = lam_f * false_alarm + delay + obs_cost
    return EpisodeResult(
        seed=seed,
        change_time=T,
        stop_time=tau,
        delay=delay,
        false_alarm=false_alarm,
        obs_cost=obs_cost,
        total_cost=total,
        final_belief=pi,
        truncated=truncated,
        trace=tuple(trace) if trace is not None else None,
    )


def _half_width(x: np.ndarray) -> float:
    if x.size < 2:
        return math.inf
    return 1.96 * float(np.std(x, ddof=1)) / math.sqrt(x.size)


def run_episodes(
    problem: Problem,
    policy: Policy,
    replications: int,
    base_seed: int = 0,
    *,
    horizon_cap: int | None = None,
):
    """Yield one EpisodeResult per replication, episode i seeded base_seed ^ i.

    Base seeds that agree above the index bits share most episodes: at
    512 replications, every base seed below 512 yields the same episodes
    in another order.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    for i in range(replications):
        seed = base_seed ^ i
        yield run_episode(
            problem, policy, np.random.default_rng(seed), horizon_cap, seed=seed
        )


def metrics_from_episodes(episodes) -> Metrics:
    """Aggregate episode results; truncated runs are counted, not averaged."""
    episodes = list(episodes)
    if not episodes:
        raise ValueError("no episodes given")
    completed = [e for e in episodes if not e.truncated]
    if not completed:
        raise RuntimeError(
            f"all {len(episodes)} episodes hit the horizon cap; no completed runs"
        )
    delays = np.array([e.delay for e in completed], dtype=float)
    alarms = np.array([e.false_alarm for e in completed], dtype=float)
    obs = np.array([e.obs_cost for e in completed], dtype=float)
    totals = np.array([e.total_cost for e in completed], dtype=float)
    return Metrics(
        replications=len(episodes),
        completed=len(completed),
        truncated=len(episodes) - len(completed),
        mean_delay=float(delays.mean()),
        delay_half_width=_half_width(delays),
        prob_false_alarm=float(alarms.mean()),
        false_alarm_half_width=_half_width(alarms),
        mean_obs_cost=float(obs.mean()),
        mean_total_cost=float(totals.mean()),
        total_cost_half_width=_half_width(totals),
    )


def estimate_metrics(
    problem: Problem,
    policy: Policy,
    replications: int,
    base_seed: int = 0,
    *,
    horizon_cap: int | None = None,
) -> Metrics:
    """Mean delay, false-alarm rate, and total cost over R episodes.

    Episode i uses its own generator seeded ``base_seed ^ i``, so base
    seeds that agree above the index bits share most episodes; at
    ``replications=512`` every base seed below 512 returns identical
    metrics.  Truncated episodes are excluded from the averages and
    reported by count.

    Args:
        problem: Instance to simulate.
        policy: Stationary rule to evaluate.
        replications: Episode count R (>= 1).
        base_seed: XOR-combined with the episode index; not an
            independent stream (see above).
        horizon_cap: Per-episode slot budget.
    """
    return metrics_from_episodes(
        run_episodes(problem, policy, replications, base_seed, horizon_cap=horizon_cap)
    )


@dataclass(frozen=True)
class SweepRow:
    q: float
    value_at_start: float
    mean_delay: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    argmin_q: float
    argmin_index: int


def sweep_open_loop_q(
    problem: Problem,
    q_values,
    *,
    grid=None,
    operator: ExpectationOperator | None = None,
    tolerance: float | None = None,
    max_iters: int = 10_000,
    replications: int = 0,
    base_seed: int = 0,
    horizon_cap: int | None = None,
) -> SweepResult:
    """Solve the fixed-q problem for each q and report J*(rho) per q.

    With ``replications`` > 0 each solved policy is also simulated and
    the row carries its mean detection delay (NaN otherwise).  Returns
    all rows plus the minimizing q (first minimum on value ties).
    """
    q_values = np.asarray(q_values, dtype=float)
    if q_values.size == 0:
        raise ValueError("q_values must not be empty")
    if np.any((q_values < 0.0) | (q_values > 1.0)):
        raise ValueError("q_values must lie in [0, 1]")
    if grid is None:
        grid = BeliefGrid.uniform(1001)
    elif isinstance(grid, int):
        grid = BeliefGrid.uniform(grid)
    if operator is None:
        operator = build_expectation_operator(problem, grid)
    rho = problem.prior.rho
    rows = []
    for q in q_values:
        J, _ = value_iteration(
            problem, "open_loop", grid, tolerance, max_iters, q=float(q), operator=operator
        )
        value = float(J(rho))
        if replications > 0:
            pol = extract_policy(J, problem, "open_loop", operator=operator, q=float(q))
            met = estimate_metrics(
                problem, pol, replications, base_seed, horizon_cap=horizon_cap
            )
            mean_delay = met.mean_delay
        else:
            mean_delay = math.nan
        rows.append(SweepRow(q=float(q), value_at_start=value, mean_delay=mean_delay))
    values = np.array([r.value_at_start for r in rows])
    best = int(np.argmin(values))
    return SweepResult(rows=tuple(rows), argmin_q=rows[best].q, argmin_index=best)


@dataclass(frozen=True)
class CalibrationResult:
    lambda_f: float
    alpha: float
    trials: int
    trace: tuple


def calibrate_lambda_f(
    problem: Problem,
    strategy: str,
    target_alpha: float,
    tolerance: float = 0.005,
    *,
    lambda_lo: float = 0.1,
    lambda_hi: float = 1e4,
    max_trials: int = 40,
    replications: int = 2000,
    base_seed: int = 0,
    grid=None,
    horizon_cap: int | None = None,
    q: float | None = None,
    fixed_m: int | None = None,
    q_grid_size: int = 101,
) -> CalibrationResult:
    """Bisect the false-alarm cost until simulated P_FA hits the target.

    Each trial re-solves the DP at the candidate ``lambda_f`` and
    simulates the extracted policy with common random numbers (the same
    ``base_seed``), which makes the estimated P_FA monotone along the
    bisection and the search well-posed despite sampling noise.

    Args:
        problem: Template instance; its lambda_f is overridden per trial.
        strategy: Solve strategy for each trial.
        target_alpha: Desired false-alarm probability in (0, 1).
        tolerance: Acceptable |P_FA - target|.
        lambda_lo: Lower bracket endpoint (high-alpha side).
        lambda_hi: Upper bracket endpoint (low-alpha side).
        max_trials: Bisection budget including the two bracket probes.
        replications: Episodes per trial.
        base_seed: Shared across trials for common random numbers.
        grid: Belief grid for the per-trial solves.
        horizon_cap: Per-episode slot budget.
        q: Wake probability when strategy is open_loop.
        fixed_m: Awake count when strategy is fixed_m.
        q_grid_size: Search grid size for control_q trials.

    Raises:
        ValueError: If the target is outside (0, 1) or the bracket does
            not straddle it.
        RuntimeError: If the trial budget runs out before tolerance.
    """
    if not 0.0 < target_alpha < 1.0:
        raise ValueError(f"target_alpha must lie in (0, 1), got {target_alpha!r}")
    if not 0.0 < lambda_lo < lambda_hi:
        raise ValueError(f"need 0 < lambda_lo < lambda_hi, got {lambda_lo!r}, {lambda_hi!r}")
    if grid is None:
        grid = BeliefGrid.uniform(1001)
    elif isinstance(grid, int):
        grid = BeliefGrid.uniform(grid)
    operator = build_expectation_operator(problem, grid)
    trace: list = []

    def alpha_at(lam: float) -> float:
        trial = replace(problem, costs=replace(problem.costs, lambda_f=lam))
        J, _ = value_iteration(
            trial, strategy, grid, operator=operator,
            q=q, fixed_m=fixed_m, q_grid_size=q_grid_size,
        )
        pol = extract_policy(
            J, trial, strategy, operator=operator, q=q, fixed_m=fixed_m,
            q_grid_size=q_grid_size,
        )
        met = estimate_metrics(trial, pol, replications, base_seed, horizon_cap=horizon_cap)
        trace.append((lam, met.prob_false_alarm))
        return met.prob_false_alarm

    a_lo = alpha_at(lambda_lo)
    if abs(a_lo - target_alpha) <= tolerance:
        return CalibrationResult(lambda_lo, a_lo, len(trace), tuple(trace))
    a_hi = alpha_at(lambda_hi)
    if abs(a_hi - target_alpha) <= tolerance:
        return CalibrationResult(lambda_hi, a_hi, len(trace), tuple(trace))
    if not (a_lo >= target_alpha >= a_hi):
        raise ValueError(
            f"bracket [{lambda_lo:g}, {lambda_hi:g}] gives P_FA "
            f"[{a_lo:.4f}, {a_hi:.4f}], which does not straddle {target_alpha}"
        )
    lo, hi = lambda_lo, lambda_hi
    while len(trace) < max_trials:
        mid = math.sqrt(lo * hi)
        a_mid = alpha_at(mid)
        if abs(a_mid - target_alpha) <= tolerance:
            return CalibrationResult(mid, a_mid, len(trace), tuple(trace))
        if a_mid > target_alpha:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"calibration used {max_trials} trials without reaching "
        f"|P_FA - {target_alpha}| <= {tolerance}"
    )
