"""Threshold and wake-schedule extraction from converged value functions.

A converged cost-to-go J induces a stationary rule: stop once the belief
reaches a threshold, and below it wake the count (or wake probability)
that minimizes the one-slot Bellman backup.  The stop set is a single
interval ending at 1, so the rule is fully described by the threshold
plus a per-belief action map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import (
    STRATEGIES,
    TIE_BREAK,
    BeliefGrid,
    BellmanMaps,
    ExpectationOperator,
    ValueFunction,
    _nearest_nodes,
    bellman_maps,
)
from .model import Problem, _is_integer


@dataclass(frozen=True, eq=False)
class Policy:
    """Stationary detection-and-scheduling rule on a belief grid.

    ``gamma`` is the stopping threshold.  ``actions`` holds the
    continue-region decision at each grid node, in the strategy's own
    action set: an awake count for control_m and fixed_m, a wake
    probability for control_q and open_loop.  Entries at and above the
    threshold are the argmin of the continuation cost there, kept for
    inspection but never executed.  An open_loop map holds its one wake
    probability at every node, which the simulator draws as a scalar.
    ``awake_rule_mismatches`` counts grid nodes below the threshold
    where the marginal-value threshold rule disagrees with control_m's
    enumeration argmin; the argmin is authoritative, the counter is
    diagnostic.  The simulator reads the map at a belief through
    ``_continue_indices``.  Compared and hashed by identity, as
    ``BeliefGrid`` is.
    """

    kind: str
    gamma: float
    grid: BeliefGrid
    n: int
    actions: np.ndarray
    awake_rule_mismatches: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ValueError(f"kind must be one of {STRATEGIES}, got {self.kind!r}")
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.gamma!r}")
        actions = np.asarray(self.actions, dtype=float)
        if actions.shape != (self.grid.size,):
            raise ValueError("actions must hold one entry per grid node")
        if self.kind in ("control_m", "fixed_m"):
            if not np.all((actions >= 0) & (actions <= self.n) & (actions == np.round(actions))):
                raise ValueError(f"awake counts must be integers in 0..{self.n}")
            actions = actions.astype(int)
        elif not np.all((actions >= 0.0) & (actions <= 1.0)):  # NaN fails too
            raise ValueError("wake probabilities must lie in [0, 1]")
        elif self.kind == "open_loop" and np.any(actions != actions[0]):
            raise ValueError("open_loop actions must hold one wake probability")
        object.__setattr__(self, "actions", actions)

    def _continue_indices(self, pi) -> np.ndarray:
        """Nearest grid node to each belief (``dp._nearest_nodes``, ties
        to the lower node, the rule of the solve's coarse start), clamped
        below the threshold.

        A belief just under gamma must never pick up a stop-node entry,
        so indices are capped at the last node strictly below gamma.
        """
        pts = self.grid.points
        end = int(np.searchsorted(pts, self.gamma, side="left")) - 1
        if end < 0:
            raise ValueError("policy stops everywhere; no continue-region action")
        return np.minimum(_nearest_nodes(pts, np.asarray(pi, dtype=float)), end)


def _threshold_from_continuation(
    grid: BeliefGrid, continue_values: np.ndarray, lambda_f: float
) -> float:
    """Smallest belief at which stopping is optimal.

    Grid-brackets the crossing of the stopping cost and the continuation
    value.  On the bracketing cell both are linear interpolants, so their
    gap ``lambda_f * (1 - pi) - C(pi)`` is affine there and the threshold
    is its root, read in closed form.  An upper node that stops only
    within ``TIE_BREAK`` (a positive gap) is itself the threshold.

    Raises:
        ValueError: If stopping is nowhere optimal ("degenerate
            instance") or the stop set is not an interval reaching 1.
    """
    pts = grid.points
    stop_cost = lambda_f * (1.0 - pts)
    stop = stop_cost <= continue_values + TIE_BREAK
    if not stop.any():
        raise ValueError(
            "degenerate instance: stopping is never optimal on the grid"
        )
    first = int(np.argmax(stop))
    if not stop[first:].all():
        raise ValueError(
            "stop region is not a single interval; threshold undefined"
        )
    if first == 0:
        return 0.0
    lo, hi = pts[first - 1], pts[first]
    gap = stop_cost - continue_values
    if gap[first] > 0.0:
        return float(hi)
    return float(lo + (hi - lo) * gap[first - 1] / (gap[first - 1] - gap[first]))


def _policy_from_sweep(
    maps: BellmanMaps, grid: BeliefGrid, problem: Problem, strategy: str
) -> Policy:
    """Threshold plus action map for ``strategy`` from ``maps``, a sweep
    of its converged J on ``grid`` (``J.last_sweep`` or ``bellman_maps``).
    The map is the sweep's argmin action at every node; for control_m,
    ``awake_rule_mismatches`` counts the nodes below the threshold where
    the marginal-value rule disagrees with it."""
    gamma = _threshold_from_continuation(grid, maps.continue_values, problem.costs.lambda_f)
    mismatches = 0
    if strategy == "control_m":
        # The rule: the largest m whose marginal value B[m-1] - B[m] covers lambda_s.
        covers = maps.expected_next[:-1] - maps.expected_next[1:] >= problem.costs.lambda_s
        rule = (np.arange(1, problem.n + 1)[:, None] * covers).max(axis=0)
        mismatches = int(np.sum((rule != maps.best_action) & (grid.points < gamma)))
    return Policy(strategy, gamma, grid, problem.n, maps.best_action, mismatches)


def extract_policy(
    J: ValueFunction,
    problem: Problem,
    strategy: str,
    *,
    operator: ExpectationOperator,
    q: float | None = None,
    fixed_m: int | None = None,
) -> Policy:
    """``_policy_from_sweep`` on one ``bellman_maps`` sweep of ``J`` on
    ``operator`` (required, built on ``J.grid`` for ``problem``), for a J
    without ``last_sweep`` (from ``solve_finite_horizon`` or by hand);
    for one with it, the sweep gives the same policy again."""
    maps = bellman_maps(J, problem, strategy, operator=operator, q=q, fixed_m=fixed_m)
    return _policy_from_sweep(maps, J.grid, problem, strategy)
