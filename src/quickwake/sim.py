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
by ``base_seed`` and its index.  ``run_episodes`` returns the episodes
one object each and ``estimate_metrics`` aggregates the same episodes
straight from the engine's arrays.

The horizon cap is fixed at ``ceil(HORIZON_CHANGE_TIMES / p)`` slots,
100 mean change times.  A threshold rule stops almost surely, so the cap
only guards against a runaway episode, which it cuts and counts as
truncated; no argument sets it.

Each slot an active episode reads its policy's one action map at its
belief (``Policy._continue_indices``): an awake count is played as it
is, a wake probability q is drawn as a Binomial(n, q) count.  An
open-loop map holds one q everywhere, so its draws take that scalar for
every active episode at once, with no lookup.  ``calibrate_lambda_f``
runs no episodes: it searches on the solve's exact P_FA.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .dp import (
    BeliefGrid, ConvergenceError, ExpectationOperator, SolveReport, ValueFunction,
    _llr_coefficients, _logit_array, value_iteration,
)
from .model import Problem, SensorModel, _is_integer
from .policy import Policy

# Episodes advanced together on one generator.  Long enough that each
# slot's numpy calls amortize their fixed cost over many episodes; short
# enough that a block's (episodes, n) per-sensor readings stay near 1 MB
# at n = 10.
BLOCK_EPISODES = 1 << 14
# Mean change times 1/p an episode may run before it is cut; read at each
# block, so the cap is ceil(HORIZON_CHANGE_TIMES / p) slots.
HORIZON_CHANGE_TIMES = 100.0


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
    trace: list | None = None,
):
    """Run ``count`` episodes in lockstep on one generator, each cut at
    the horizon cap.

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
    if policy.n != problem.n:
        raise ValueError(f"policy is for n={policy.n}, problem has n={problem.n}")
    prior, model, n, gamma = problem.prior, problem.model, problem.n, policy.gamma
    cap = math.ceil(HORIZON_CHANGE_TIMES / prior.p)
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
        if k >= cap:
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
        if policy.kind == "open_loop":  # one q everywhere: no per-belief lookup
            m = rng.binomial(n, policy.actions[0], idx.size)
        elif policy.kind == "control_q":
            m = rng.binomial(n, policy.actions[policy._continue_indices(pi)])
        else:
            m = policy.actions[policy._continue_indices(pi)]
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
    trace: list | None = None,
):
    """Every block of a run, concatenated in episode order."""
    if not (_is_integer(replications) and replications >= 1):
        raise ValueError(f"replications must be >= 1 and an integer, got {replications!r}")
    if not (_is_integer(base_seed) and base_seed >= 0):
        raise ValueError(f"base_seed must be >= 0 and an integer, got {base_seed!r}")
    blocks = -(-replications // BLOCK_EPISODES)
    seeds = np.random.SeedSequence(base_seed).spawn(blocks)
    parts = [
        _run_block(
            problem, policy, np.random.default_rng(seed),
            min(BLOCK_EPISODES, replications - b * BLOCK_EPISODES),
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


def run_episodes(problem: Problem, policy: Policy, replications: int, base_seed: int = 0):
    """An iterator of one EpisodeResult per replication, in episode order.

    The whole run is simulated at the call, so bad arguments raise here,
    not at the first ``next``.  Episodes run in blocks of
    ``BLOCK_EPISODES``, block ``b`` on child ``b`` of
    ``SeedSequence(base_seed)`` (see the module docstring), so
    ``base_seed`` and an episode's index reproduce it.  An episode still
    running at the horizon cap, ``ceil(HORIZON_CHANGE_TIMES / p)`` slots,
    stops there with ``truncated`` set.  Episode 0 also carries its
    per-slot (slot, belief, awake_count) trace.
    """
    trace: list = []
    change, stop, sensed, final, truncated = _simulate(
        problem, policy, replications, base_seed, trace
    )
    delay, false_alarm, obs_cost, total = _outcomes(problem, change, stop, sensed)
    return (
        EpisodeResult(
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
        for i in range(replications)
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
    problem: Problem, policy: Policy, replications: int, base_seed: int = 0
) -> Metrics:
    """Mean delay, false-alarm rate, and total cost over R episodes.

    The same episodes as ``run_episodes`` with the same arguments,
    aggregated from the engine's arrays without per-episode objects.
    Episodes cut at the horizon cap are excluded from the averages and
    reported by count.

    Args:
        problem: Instance to simulate.
        policy: Stationary rule to evaluate.
        replications: Episode count R (>= 1).
        base_seed: Root of the ``SeedSequence`` whose children seed the
            blocks; distinct base seeds give independent streams.
    """
    change, stop, sensed, _, truncated = _simulate(problem, policy, replications, base_seed)
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
    grid: BeliefGrid | None = None,
    operator: ExpectationOperator,
) -> SweepResult:
    """Solve the fixed-q problem for each q on ``operator``'s grid and
    report J*(rho) per q.

    Each solve is ``value_iteration``'s, with its fixed residual check and
    round cap, and each row carries its solve's exact mean delay
    ``E[(tau - T)^+]`` at rho (``SolveReport.mean_delay``).
    Returns all rows plus the minimizing q (first minimum on value ties).
    ``q_values`` that are not a non-empty 1-D sequence in [0, 1], or an
    operator that does not match the problem or ``grid`` (only a check,
    as in ``value_iteration``), raise ``ValueError`` before any solve.
    """
    q_values = np.asarray(q_values, dtype=float)
    if q_values.ndim != 1 or q_values.size == 0:
        raise ValueError("q_values must be a non-empty 1-D sequence")
    if not np.all((q_values >= 0.0) & (q_values <= 1.0)):  # NaN fails too
        raise ValueError("q_values must lie in [0, 1]")
    rho = problem.prior.rho
    rows = []
    for q in q_values:
        J, report = value_iteration(problem, "open_loop", grid, q=float(q), operator=operator)
        rows.append(
            SweepRow(q=float(q), value_at_start=float(J(rho)), mean_delay=report.mean_delay)
        )
    values = np.array([r.value_at_start for r in rows])
    best = int(np.argmin(values))
    return SweepResult(rows=tuple(rows), argmin_q=rows[best].q, argmin_index=best)


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated ``lambda_f``, its grid P_FA ``alpha``, the trials run
    with their (lambda_f, grid P_FA) ``trace``, and ``value_function``,
    the solve at ``lambda_f``, whose ``last_sweep`` holds its policy."""

    lambda_f: float
    alpha: float
    trials: int
    trace: tuple
    value_function: ValueFunction


def calibrate_lambda_f(
    problem: Problem,
    solve_at: Callable[[Problem], tuple[ValueFunction, SolveReport]],
    target_alpha: float,
    tolerance: float = 0.005,
    *,
    lambda_lo: float = 0.1,
    lambda_hi: float = 1e4,
    max_trials: int = 40,
) -> CalibrationResult:
    """Search the false-alarm cost until the grid P_FA hits the target.

    Each trial solves at the candidate ``lambda_f`` through ``solve_at``
    and reads the solve's exact P_FA at rho (``SolveReport.p_false_alarm``);
    nothing is simulated.  The grid P_FA is non-increasing in lambda_f:
    the solves at l1 and l2 are each optimal for their own cost, and
    adding the two inequalities gives ``(l2 - l1) * (A2 - A1) <= 0``.
    After the two bracket probes the search is the Illinois regula falsi
    (Dowell & Jarratt 1971) on log P_FA against log lambda_f, where P_FA
    falls roughly as a power of lambda_f; a point that falls outside the
    bracket, or cannot be interpolated (a P_FA of 0), is replaced by the
    bracket's geometric midpoint, or by its arithmetic midpoint when the
    geometric one rounds onto an end.  The grid P_FA is a step function
    of lambda_f, constant while the policy is; if the target lies inside
    a jump, the bracket closes on it until its ends are adjacent floats,
    which is when neither midpoint lies strictly between them.

    Args:
        problem: Template instance; its lambda_f is overridden per trial.
        solve_at: Maps a trial's instance to its stationary solve,
            typically ``value_iteration`` on an operator shared by every
            trial (lambda_f does not enter it).
        target_alpha: Desired false-alarm probability in (0, 1).
        tolerance: Acceptable |P_FA - target|, > 0.
        lambda_lo: Lower bracket endpoint (high-alpha side).
        lambda_hi: Upper bracket endpoint (low-alpha side), finite.
        max_trials: Trial budget (>= 1), the bracket probes included;
            the ``lambda_hi`` probe runs only while a trial is left.

    Raises:
        ValueError: Before any trial, if the target, tolerance, budget or
            bracket is out of range; after the probes, if the bracket
            does not straddle the target.
        ConvergenceError: If the trial budget runs out before tolerance,
            or the bracket closes on a jump of the grid P_FA across the
            target (either message names the P_FA at the bracket's ends;
            the error carries the trial count and the last |P_FA -
            target|), or a trial's solve does not converge.
    """
    if not 0.0 < target_alpha < 1.0:
        raise ValueError(f"target_alpha must lie in (0, 1), got {target_alpha!r}")
    if not tolerance > 0.0:  # NaN fails too
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    if not (_is_integer(max_trials) and max_trials >= 1):
        raise ValueError(f"max_trials must be >= 1 and an integer, got {max_trials!r}")
    if not 0.0 < lambda_lo < lambda_hi < math.inf:
        raise ValueError(
            f"need 0 < lambda_lo < lambda_hi, both finite, got {lambda_lo!r}, {lambda_hi!r}"
        )
    trace: list = []

    def run(lam: float) -> CalibrationResult:
        trial = replace(problem, costs=replace(problem.costs, lambda_f=lam))
        J, report = solve_at(trial)
        trace.append((lam, report.p_false_alarm))
        return CalibrationResult(lam, report.p_false_alarm, len(trace), tuple(trace), J)

    def hit(result: CalibrationResult) -> bool:
        return abs(result.alpha - target_alpha) <= tolerance

    def log_ratio(result: CalibrationResult) -> float:
        return math.log(result.alpha / target_alpha) if result.alpha > 0.0 else -math.inf

    lo, hi = run(lambda_lo), None
    if hit(lo):
        return lo
    if max_trials > 1:
        hi = run(lambda_hi)
        if hit(hi):
            return hi
        if not (lo.alpha >= target_alpha >= hi.alpha):
            raise ValueError(
                f"bracket [{lambda_lo:g}, {lambda_hi:g}] gives P_FA "
                f"[{lo.alpha:.4f}, {hi.alpha:.4f}], which does not straddle {target_alpha}"
            )
        f_lo, f_hi = log_ratio(lo), log_ratio(hi)
        kept = None  # the end that the last trial left in place
        while len(trace) < max_trials:
            x_lo, x_hi = math.log(lo.lambda_f), math.log(hi.lambda_f)
            lam = math.exp((x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo))
            if not lo.lambda_f < lam < hi.lambda_f:  # NaN too
                lam = math.sqrt(lo.lambda_f) * math.sqrt(hi.lambda_f)
            if not lo.lambda_f < lam < hi.lambda_f:
                # The geometric midpoint can round onto an end while a float
                # still lies between them; the arithmetic one cannot.
                lam = (lo.lambda_f + hi.lambda_f) / 2.0
            if not lo.lambda_f < lam < hi.lambda_f:
                raise ConvergenceError(
                    f"the grid P_FA jumps across |P_FA - {target_alpha}| <= {tolerance} "
                    f"between adjacent lambda_f: {lo.alpha:.6g} at {lo.lambda_f!r}, "
                    f"{hi.alpha:.6g} at {hi.lambda_f!r}",
                    iterations=len(trace),
                    last_delta=abs(trace[-1][1] - target_alpha),
                )
            mid = run(lam)
            if hit(mid):
                return mid
            # Illinois: an end left in place twice running has its value halved.
            if mid.alpha > target_alpha:
                lo, f_lo = mid, log_ratio(mid)
                if kept == "hi":
                    f_hi /= 2.0
                kept = "hi"
            else:
                hi, f_hi = mid, log_ratio(mid)
                if kept == "lo":
                    f_lo /= 2.0
                kept = "lo"
    sides = ", ".join(f"{e.alpha:.6g} at lambda_f {e.lambda_f:g}" for e in (lo, hi) if e is not None)
    raise ConvergenceError(
        f"calibration used {len(trace)} trials without reaching "
        f"|P_FA - {target_alpha}| <= {tolerance} (P_FA {sides})",
        iterations=len(trace),
        last_delta=abs(trace[-1][1] - target_alpha),
    )
