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
    DEFAULT_Q_GRID_SIZE,
    STRATEGIES,
    TIE_BREAK,
    BeliefGrid,
    ExpectationOperator,
    ValueFunction,
    bellman_maps,
)
from .model import Problem


@dataclass(frozen=True)
class Policy:
    """Stationary detection-and-scheduling rule on a belief grid.

    ``gamma`` is the stopping threshold; the action maps give the
    continue-region decision at each grid node (entries at and above the
    threshold are the argmin of the continuation cost there, kept for
    inspection but never executed).  ``awake_rule_mismatches`` counts
    grid nodes below the threshold where the marginal-value threshold
    rule disagrees with the enumeration argmin; the argmin is
    authoritative, the counter is diagnostic.  The simulator reads a
    map at a belief through ``_continue_indices``.
    """

    kind: str
    gamma: float
    grid: BeliefGrid
    n: int
    awake_map: np.ndarray | None = None
    wake_prob_map: np.ndarray | None = None
    fixed_q: float | None = None
    awake_rule_mismatches: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ValueError(f"kind must be one of {STRATEGIES}, got {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.gamma!r}")
        if self.kind in ("control_m", "fixed_m"):
            if self.awake_map is None or len(self.awake_map) != self.grid.size:
                raise ValueError("awake_map must cover every grid node")
            amap = np.asarray(self.awake_map, dtype=float)
            if not np.all((amap >= 0) & (amap <= self.n) & (amap == np.round(amap))):
                raise ValueError(f"awake_map entries must be integers in 0..{self.n}")
            object.__setattr__(self, "awake_map", amap.astype(int))
        if self.kind == "control_q":
            if self.wake_prob_map is None or len(self.wake_prob_map) != self.grid.size:
                raise ValueError("wake_prob_map must cover every grid node")
            qmap = np.asarray(self.wake_prob_map, dtype=float)
            if not np.all((qmap >= 0.0) & (qmap <= 1.0)):  # NaN fails too
                raise ValueError("wake_prob_map entries must lie in [0, 1]")
            object.__setattr__(self, "wake_prob_map", qmap)
        if self.kind == "open_loop":
            if self.fixed_q is None or not 0.0 <= self.fixed_q <= 1.0:
                raise ValueError(f"open_loop needs fixed_q in [0, 1], got {self.fixed_q!r}")

    def _continue_indices(self, pi) -> np.ndarray:
        """Nearest grid node to each belief, clamped below the threshold.

        A belief just under gamma must never pick up a stop-node entry,
        so indices are capped at the last node strictly below gamma.
        Ties between two nodes go to the lower one.
        """
        pts = self.grid.points
        end = int(np.searchsorted(pts, self.gamma, side="left")) - 1
        if end < 0:
            raise ValueError("policy stops everywhere; no continue-region action")
        pi = np.asarray(pi, dtype=float)
        upper = np.clip(np.searchsorted(pts, pi), 1, pts.size - 1)
        idx = np.where(pi - pts[upper - 1] <= pts[upper] - pi, upper - 1, upper)
        return np.minimum(idx, end)


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


def _differential_rule_map(B: np.ndarray, problem: Problem) -> np.ndarray:
    """Largest m whose marginal value ``B[m-1] - B[m]`` covers lambda_s."""
    d = B[:-1] - B[1:]
    hits = d >= problem.costs.lambda_s
    counts = np.arange(1, problem.n + 1)[:, None] * hits
    return counts.max(axis=0)


def extract_policy(
    J: ValueFunction,
    problem: Problem,
    strategy: str,
    *,
    operator: ExpectationOperator | None = None,
    q: float | None = None,
    fixed_m: int | None = None,
    q_grid_size: int = DEFAULT_Q_GRID_SIZE,
) -> Policy:
    """Threshold plus action maps for ``strategy`` from a converged ``J``.

    For control_m the awake map is the enumeration argmin; nodes below
    the threshold where the marginal-value rule disagrees are tallied in
    ``awake_rule_mismatches``.
    """
    maps = bellman_maps(
        J, problem, strategy, operator=operator, q=q, fixed_m=fixed_m, q_grid_size=q_grid_size,
    )
    gamma = _threshold_from_continuation(J.grid, maps.continue_values, problem.costs.lambda_f)
    if strategy == "control_m":
        awake = maps.best_action.astype(int)
        rule = _differential_rule_map(maps.expected_next, problem)
        below = J.grid.points < gamma
        extra = {"awake_map": awake, "awake_rule_mismatches": int(np.sum((rule != awake) & below))}
    elif strategy == "control_q":
        extra = {"wake_prob_map": maps.best_action.astype(float)}
    elif strategy == "open_loop":
        extra = {"fixed_q": float(q)}
    else:
        extra = {"awake_map": maps.best_action.astype(int)}
    return Policy(kind=strategy, gamma=gamma, grid=J.grid, n=problem.n, **extra)
