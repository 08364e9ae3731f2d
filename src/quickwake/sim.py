"""Monte Carlo evaluation of detection policies, plus cost calibration.

Episodes draw a change time from the geometric prior, run a policy slot
by slot to its stopping time, and account the realized Bayes risk:
``lambda_f`` on a false alarm, one unit per slot of detection delay, and
``lambda_s`` per sensor-slot of sensing.

One engine runs every episode.  Replications are cut into blocks of
``BLOCK_EPISODES``; block ``b`` draws from its own generator, seeded by
child ``b`` of ``SeedSequence(base_seed)``, so different base seeds give
independent streams and block ``b`` does not depend on how many blocks
run beside it.  Within a block all still-active episodes advance one slot
per iteration in numpy arrays, their beliefs by ``_belief_step``, the
package's one posterior recursion, and episodes leave the arrays when
they stop or reach the horizon cap.  An episode is therefore reproduced
by ``base_seed`` and its index.  ``run_episodes`` yields the episodes one
object each and ``estimate_metrics`` aggregates the same episodes
straight from the engine's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .dp import (
    DEFAULT_MAX_ITERS, DEFAULT_Q_GRID_SIZE, ConvergenceError, ExpectationOperator,
    _llr_coefficients, _logit_array, _resolve_grid, _resolve_operator, value_iteration,
)
from .model import ChangePrior, Problem, SensorModel
from .policy import Policy, extract_policy

# Episodes advanced together on one generator.  Long enough that each
# slot's numpy calls amortize their fixed cost over many episodes; short
# enough that a block's (episodes, n) per-sensor readings stay near 1 MB
# at n = 10.
BLOCK_EPISODES = 1 << 14


@dataclass(frozen=True)
class EpisodeResult:
    """One simulated run of a policy against one drawn change time.

    ``episode`` is the index within its run; with ``base_seed`` it
    reproduces the episode (see the module docstring).
    """

    episode: int
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


def _belief_step(model, pi, p: float, m, obs):
    """One slot of the posterior recursion for a batch of episodes.

    The belief ``pi = P(change by now | data)`` is first predicted one
    slot ahead, ``t = pi + (1 - pi) * p``, then conditioned on the awake
    sensors' readings.  Their likelihood ratios multiply in, so in logit
    form

        logit(pi') = logit(t) + sum_i llr(x_i)

    which is how the update is computed, since products of far-tail
    densities underflow long before their log-odds do.  ``obs`` has shape
    (episodes, n), of which the first ``m[i]`` readings of row i count;
    for equal-variance Gaussians it may instead have shape (episodes,),
    the sum of the ``m[i]`` readings, whose joint log likelihood ratio is
    affine in the sum.  Rows with ``m = 0`` only predict.  A predicted
    belief of 1 is absorbing whatever is observed, since once the change
    has surely happened no reading can undo it; one of 0 stays at 0.
    """
    if obs.ndim == 1:
        a, b = _llr_coefficients(model, m)
        llr = a * obs + b
    else:
        counted = np.arange(obs.shape[1]) < m[:, None]
        llr = np.where(counted, model.log_likelihood_ratio(obs), 0.0).sum(axis=1)
    t = pi + (1.0 - pi) * p
    moved = expit(_logit_array(t) + llr)
    moved = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, moved))
    return np.where(m == 0, t, moved)


def _run_block(
    problem: Problem,
    policy: Policy,
    rng: np.random.Generator,
    count: int,
    horizon_cap: int | None,
    trace: list | None = None,
):
    """Run ``count`` episodes in lockstep on one generator.

    Draw order: every change time (a uniform for the mass at zero, then a
    geometric), then per slot, over the episodes still active in index
    order, the binomial wake draws (control_q and open_loop), then the
    readings: one normal per episode for the summed reading of equal-
    variance Gaussians, else an (episodes, n) block per regime, pre-change
    rows first.  ``trace`` collects (slot, belief, awake count) of episode
    0 while it runs.

    Returns:
        change, stop and sensed (awake sensor-slots) as integer arrays,
        the final belief, and the truncation flags.
    """
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(problem.prior)
    if horizon_cap < 1:
        raise ValueError(f"horizon_cap must be >= 1, got {horizon_cap!r}")
    if policy.n != problem.n:
        raise ValueError(f"policy is for n={policy.n}, problem has n={problem.n}")
    prior, model, n, gamma = problem.prior, problem.model, problem.n, policy.gamma
    sum_statistic = isinstance(model, SensorModel) and model.equal_variance
    change = np.where(rng.random(count) < prior.rho, 0, rng.geometric(prior.p, count))
    stop = np.zeros(count, dtype=np.int64)
    sensed = np.zeros(count, dtype=np.int64)
    final = np.empty(count)
    truncated = np.zeros(count, dtype=bool)
    # State of the active episodes, compacted whenever some leave.
    idx = np.arange(count)
    pi = np.full(count, float(prior.rho))
    T = change
    awake = np.zeros(count, dtype=np.int64)
    k = 0
    while True:
        done = pi >= gamma
        if k >= horizon_cap:
            truncated[idx[~done]] = True
            done[:] = True
        if done.any():
            out = idx[done]
            stop[out] = k
            final[out] = pi[done]
            sensed[out] = awake[done]
            keep = ~done
            idx, pi, T, awake = idx[keep], pi[keep], T[keep], awake[keep]
            if idx.size == 0:
                break
        if policy.kind == "open_loop":
            m = rng.binomial(n, policy.fixed_q, idx.size)
        elif policy.kind == "control_q":
            m = rng.binomial(n, policy.wake_prob_map[policy._continue_indices(pi)])
        else:
            m = policy.awake_map[policy._continue_indices(pi)]
        if trace is not None and idx[0] == 0:
            trace.append((k, float(pi[0]), int(m[0])))
        awake += m
        post = T <= k + 1
        if sum_statistic:
            mean = np.where(post, model.mu1, model.mu0)
            obs = m * mean + np.sqrt(m) * model.sigma0 * rng.standard_normal(idx.size)
        else:
            obs = np.empty((idx.size, n))
            obs[~post] = model.sample("pre", (idx.size - int(post.sum()), n), rng)
            obs[post] = model.sample("post", (int(post.sum()), n), rng)
        pi = _belief_step(model, pi, prior.p, m, obs)
        k += 1
    return change, stop, sensed, final, truncated


def _simulate(
    problem: Problem,
    policy: Policy,
    replications: int,
    base_seed: int,
    horizon_cap: int | None,
    trace: list | None = None,
):
    """Every block of a run, concatenated in episode order."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    blocks = -(-replications // BLOCK_EPISODES)
    seeds = np.random.SeedSequence(base_seed).spawn(blocks)
    parts = [
        _run_block(
            problem, policy, np.random.default_rng(seed),
            min(BLOCK_EPISODES, replications - b * BLOCK_EPISODES), horizon_cap,
            trace if b == 0 else None,
        )
        for b, seed in enumerate(seeds)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _outcomes(problem: Problem, change, stop, sensed):
    """Delay, false-alarm flag, sensing cost and total cost per episode."""
    delay = np.maximum(stop - change, 0)
    false_alarm = stop < change
    obs_cost = problem.costs.lambda_s * sensed
    total = problem.costs.lambda_f * false_alarm + delay + obs_cost
    return delay, false_alarm, obs_cost, total


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
    """Yield one EpisodeResult per replication, in episode order.

    Episodes run in blocks of ``BLOCK_EPISODES``, block ``b`` on child
    ``b`` of ``SeedSequence(base_seed)`` (see the module docstring), so
    ``base_seed`` and an episode's index reproduce it.  Episode 0 also
    carries its per-slot (slot, belief, awake_count) trace.
    """
    trace: list = []
    change, stop, sensed, final, truncated = _simulate(
        problem, policy, replications, base_seed, horizon_cap, trace
    )
    delay, false_alarm, obs_cost, total = _outcomes(problem, change, stop, sensed)
    for i in range(replications):
        yield EpisodeResult(
            episode=i,
            change_time=int(change[i]),
            stop_time=int(stop[i]),
            delay=int(delay[i]),
            false_alarm=bool(false_alarm[i]),
            obs_cost=float(obs_cost[i]),
            total_cost=float(total[i]),
            final_belief=float(final[i]),
            truncated=bool(truncated[i]),
            trace=tuple(trace) if i == 0 else None,
        )


def _metrics(delay, false_alarm, obs_cost, total, truncated) -> Metrics:
    done = ~truncated
    completed = int(done.sum())
    if not completed:
        raise RuntimeError(
            f"all {truncated.size} episodes hit the horizon cap; no completed runs"
        )
    delay, false_alarm = delay[done].astype(float), false_alarm[done].astype(float)
    obs_cost, total = obs_cost[done], total[done]
    return Metrics(
        replications=int(truncated.size),
        completed=completed,
        truncated=int(truncated.size) - completed,
        mean_delay=float(delay.mean()),
        delay_half_width=_half_width(delay),
        prob_false_alarm=float(false_alarm.mean()),
        false_alarm_half_width=_half_width(false_alarm),
        mean_obs_cost=float(obs_cost.mean()),
        mean_total_cost=float(total.mean()),
        total_cost_half_width=_half_width(total),
    )


def metrics_from_episodes(episodes) -> Metrics:
    """Aggregate episode results; truncated runs are counted, not averaged."""
    episodes = list(episodes)
    if not episodes:
        raise ValueError("no episodes given")
    cols = np.array(
        [(e.delay, e.false_alarm, e.obs_cost, e.total_cost, e.truncated) for e in episodes],
        dtype=float,
    ).T
    return _metrics(*cols[:4], cols[4].astype(bool))


def estimate_metrics(
    problem: Problem,
    policy: Policy,
    replications: int,
    base_seed: int = 0,
    *,
    horizon_cap: int | None = None,
) -> Metrics:
    """Mean delay, false-alarm rate, and total cost over R episodes.

    The same episodes as ``run_episodes`` with the same arguments,
    aggregated from the engine's arrays without per-episode objects.
    Truncated episodes are excluded from the averages and reported by
    count.

    Args:
        problem: Instance to simulate.
        policy: Stationary rule to evaluate.
        replications: Episode count R (>= 1).
        base_seed: Root of the ``SeedSequence`` whose children seed the
            blocks; distinct base seeds give independent streams.
        horizon_cap: Per-episode slot budget.
    """
    change, stop, sensed, _, truncated = _simulate(
        problem, policy, replications, base_seed, horizon_cap
    )
    return _metrics(*_outcomes(problem, change, stop, sensed), truncated)


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
    max_iters: int = DEFAULT_MAX_ITERS,
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
    grid = _resolve_grid(grid)
    operator = _resolve_operator(problem, grid, operator)
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
    q_grid_size: int = DEFAULT_Q_GRID_SIZE,
    operator: ExpectationOperator | None = None,
    solver_tolerance: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
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
        max_trials: Trial budget, the bracket probes included; the
            ``lambda_hi`` probe runs only while a trial is left.
        replications: Episodes per trial.
        base_seed: Shared across trials for common random numbers.
        grid: Belief grid for the per-trial solves.
        horizon_cap: Per-episode slot budget.
        q: Wake probability when strategy is open_loop.
        fixed_m: Awake count when strategy is fixed_m.
        q_grid_size: Search grid size for control_q trials.
        operator: Prebuilt expectation maps on ``grid``, shared by every
            trial (lambda_f does not enter them); built with the default
            method when None.
        solver_tolerance: Residual tolerance of each trial's solve
            (``value_iteration``'s ``tolerance``).
        max_iters: Policy-improvement round budget of each trial's solve.

    Raises:
        ValueError: If the target is outside (0, 1) or the bracket does
            not straddle it.
        ConvergenceError: If the trial budget runs out before tolerance
            (carrying the trial count and the last |P_FA - target|), or a
            trial's solve does not converge.
    """
    if not 0.0 < target_alpha < 1.0:
        raise ValueError(f"target_alpha must lie in (0, 1), got {target_alpha!r}")
    if not 0.0 < lambda_lo < lambda_hi:
        raise ValueError(f"need 0 < lambda_lo < lambda_hi, got {lambda_lo!r}, {lambda_hi!r}")
    grid = _resolve_grid(grid)
    operator = _resolve_operator(problem, grid, operator)
    trace: list = []

    def alpha_at(lam: float) -> float:
        trial = replace(problem, costs=replace(problem.costs, lambda_f=lam))
        J, _ = value_iteration(
            trial, strategy, grid, solver_tolerance, max_iters, operator=operator,
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
    if len(trace) < max_trials:
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
    raise ConvergenceError(
        f"calibration used {len(trace)} trials without reaching "
        f"|P_FA - {target_alpha}| <= {tolerance}",
        iterations=len(trace),
        last_delta=abs(trace[-1][1] - target_alpha),
    )
