"""Bellman solvers on a discretized belief grid.

The scheduling problem reduces to a stopping problem whose state is the
belief ``pi`` that the change has occurred.  Stopping costs
``lambda_f * (1 - pi)``; continuing for one slot costs ``pi`` plus the
observation bill plus the expected cost-to-go at the updated belief.
Three continuation rules are covered:

* ``control_m``   - pick the awake count ``m`` each slot,
* ``control_q``   - pick a wake probability ``q`` each slot, each sensor
                    waking independently (the count is Binomial(n, q)),
* ``open_loop``   - a fixed wake probability, never revised,
* ``fixed_m``     - a constant awake count (the degenerate control_m).

Everything expensive lives in the map ``J -> E[J(next belief)]`` for each
awake count ``m``.  On a fixed grid with piecewise-linear interpolation
that map is linear in the grid values, so it is assembled once as one
stacked matrix over the observing counts ``m = 1..n`` and a sweep is one
mat-vec.  With every sensor asleep the next belief is the predicted one,
``t = pi + (1 - pi) * p``, so that map is a shift, J read at t, with two
weights per row: the operator keeps each row's node below t and the
weight on the node above, not a ``g x g`` block.  Its owner
builds it (``build_expectation_operator``) and passes it to every solve
as the required ``operator``, whose grid is the solve's grid.  The four
strategies differ only in their action set: a sensing cost per action
and a mixture over awake counts.  control_m plays one count.  control_q
mixes them with Binomial(n, q) weights, and a sweep takes the exact
minimum over q in [0, 1]: the continuation cost is a polynomial in q in
Bernstein form, so its candidates are 0, 1 and the roots of its
derivative, bracketed or from companion matrices (``_least_over_q``).
open_loop and fixed_m have one action, whose mixture is folded into a
single ``g x g`` map when a sweep or an evaluation first needs it.  The
sweep of the stop-everywhere cost ``lambda_f * (1 - pi)`` reads the
operator's cached image of ``1 - pi`` instead, so a single-action solve
that stops everywhere builds no fold.

The stationary problem is solved by policy iteration: a sweep picks the
stop set and actions, and one linear solve on the continue set C gives
that policy's exact cost.  The solve reads only the policy's continue
rows, ``|C| x g``, formed once per round for every strategy alike: each
row mixes the dense stack's blocks and the shift's two entries by its
action's weights over the awake counts.  Its cost is
``lambda_f * A + D + lambda_s * S``, where A, D and S are the policy's
false-alarm probability, expected delay and expected sensor-slots, each
the policy's value under one cost stream (Puterman 1994, ch. 6-7); they
share the continue-set matrix, so the same solve gives all four with
four right-hand sides.  A single action
is a threshold rule: it continues on a leading interval [0, k) of the
grid, and its rounds move k by a few nodes.  With K a coarse cell past
k, one factorization on [0, K - 2 * COARSE_STRIDE), whose extra
right-hand sides are the map's columns of the window's nodes, evaluates
every k in [K - 2 * COARSE_STRIDE, K]: eliminating the factored block
leaves at most 2 * COARSE_STRIDE coupled window nodes (its Schur
complement, the block form of the Sherman-Morrison-Woodbury update;
Hager 1989).  Finite horizons take plain sweeps.

Policy iteration reaches the same fixed point from any proper starting
policy, so every stationary solve first solves the strategy on a nested
coarse grid (every ``COARSE_STRIDE``-th node plus the last) and starts
the fine rounds from that policy, mapped by ``_nearest_nodes``.  The
coarse nodes are fine nodes, so a piecewise-linear J on them is
piecewise-linear on the fine grid: with ``R`` the interpolation from
coarse to fine values, the coarse rows of the stack times ``R`` are
exactly the operator built on the coarse grid, whatever built the stack.

For equal-variance Gaussian observations the ``m`` awake samples enter
the posterior only through their sum ``s``, whose marginal is the
two-component mixture ``t * N(m*mu1, m*sigma^2) + (1-t) * N(m*mu0,
m*sigma^2)`` with ``t`` the predicted belief.  The ``exact`` map is its
closed form, with no integration parameter at all: a piecewise-linear
value function integrates against each mixture component as Gaussian
masses between the preimages of the grid nodes.  Adjacent segments share
a boundary, so each boundary costs one small-tail CDF per regime, built
for a block of belief rows at a time.  A boundary's standardized
position rises along each row, so the node where a row's tails switch
sides is found once per awake count and regime, and each block then
takes the tails and a few cheap passes over them.  The clamped log-odds
(``_logit_array``) and the slot's log likelihood ratio as an affine map
of the sum (``_llr_coefficients``) are the same helpers the simulator's
posterior update uses.

``monte_carlo`` covers density pairs with no scalar sufficient statistic
(seeded, 10^5 draws, compressed to a histogram of the joint likelihood
ratio).  Its draws are made in blocks of ``MC_ROWS`` rows, m = 1..n, pre
before post, rows in order, by one pool thread up to ``MC_AHEAD`` blocks
ahead of the calling thread, which sums each block's ratios and bins
them.  One generator serves the same calls in the same order whatever
the timing, so the atoms are deterministic; for ``SensorModel`` the
blocks' standard normals are the stream of one draw per (m, regime).
Discrete observation alphabets enter through the same atom interface;
see the oracle module.
Both methods build a dense stack at any grid; only a caller's few atoms
on a fine grid (the oracle's binary alphabets) make a CSR one, which
serves sweeps only, ``solve_finite_horizon`` and ``bellman_maps`` for
control_m and control_q: stationary solves and single-action folds
reject it.  The dense atom build works like the closed form, per row
and grid segment: the atoms are sorted once per ``m``, the preimages of
the grid nodes cut them into segments, and each segment's mass and first
moment give the node shares.  Both dense builds take a block of rows at
a time, so their temporaries are one block of rows by the grid or atom
count.  The m-blocks are filled concurrently, one thread per CPU the
process may run on (at most ``n``); each row's arithmetic is the same on
any thread, so the stack does not depend on the worker count.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit, ndtr

from .model import Problem, SensorModel, _is_integer

DEFAULT_GRID_SIZE = 1001
# A stationary solve is refused if its Bellman residual exceeds
# TOLERANCE_SCALE * lambda_f, or if its policy still changes after
# MAX_ROUNDS rounds of one level (it repeats after a handful).
TOLERANCE_SCALE = 1e-6
MAX_ROUNDS = 10_000
MC_DRAWS = 100_000
MC_BINS = 4096
# Monte Carlo rows (draws of m readings) per sample call, and the calls
# the draw thread may run ahead of the binning (two beat one: 0.32 s
# against 0.35 s for the n = 10 atoms on two CPUs).
MC_ROWS = 4096
MC_AHEAD = 2
# Belief rows of one m-block built at once by the closed form and the
# dense atom build, shared out among the build's worker threads.
BLOCK_ROWS = 32
# A stationary solve starts from the policy on every COARSE_STRIDE-th
# node plus the last.
COARSE_STRIDE = 8
# control_q's root finder stops a node once its step in q falls to
# ROOT_TOLERANCE, and every node after ROOT_MAX_STEPS (bisection needs 50).
ROOT_TOLERANCE = 1e-15
ROOT_MAX_STEPS = 64

# Stopping wins ties within this margin, and argmin ties resolve toward
# the smaller m or q.
TIE_BREAK = 1e-12

STRATEGIES = ("control_m", "control_q", "open_loop", "fixed_m")


class ConvergenceError(RuntimeError):
    """Raised when a stationary solve hits its round cap or misses its
    residual check; carries the last sup-norm delta (change of J, or
    residual).  A lambda_f calibration raises it too, when it runs out
    of trials or finds the target inside a jump of the grid P_FA,
    carrying the last trial's |P_FA - target|."""

    def __init__(self, message: str, iterations: int, last_delta: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta


@dataclass(frozen=True, eq=False)
class BeliefGrid:
    """Strictly increasing belief nodes spanning [0, 1].

    Compared and hashed by identity: an elementwise ``==`` over the
    points has no single truth value.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if not (pts[0] == 0.0 and pts[-1] == 1.0):
            raise ValueError("grid must span [0, 1] exactly")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, size: int = DEFAULT_GRID_SIZE) -> "BeliefGrid":
        if not (_is_integer(size) and size >= 2):
            raise ValueError(f"grid size must be >= 2 and an integer, got {size!r}")
        return cls(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return self.points.size


@dataclass
class ValueFunction:
    """Cost-to-go sampled on a belief grid, interpolated linearly between.

    A stationary solve also fills its policy's cost terms at every node:
    the false-alarm probability ``p_false_alarm`` (A), the expected delay
    ``mean_delay`` (D, the mean of ``(tau - T)^+``) and the expected
    sensor-slots ``mean_sensor_slots`` (S), with ``values = lambda_f * A
    + D + lambda_s * S`` to round-off, and ``last_sweep``, the sweep of
    ``values`` that confirmed the policy, whose decisions it holds; they
    are None otherwise.
    """

    grid: BeliefGrid
    values: np.ndarray
    p_false_alarm: np.ndarray | None = None
    mean_delay: np.ndarray | None = None
    mean_sensor_slots: np.ndarray | None = None
    last_sweep: BellmanMaps | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.size}"
            )
        scale = 1.0 + float(np.max(np.abs(vals)))
        if abs(vals[-1]) > 1e-9 * scale:
            raise ValueError(
                f"value at belief 1 must be 0 (stopping there is free), got {vals[-1]!r}"
            )
        self.values = vals

    def __call__(self, pi):
        return np.interp(pi, self.grid.points, self.values)


@dataclass(frozen=True)
class SolveReport:
    """What the stationary solve did: rounds, error, wall time.

    ``iterations`` counts the policy-improvement rounds on the fine grid,
    the last of which finds the policy unchanged; ``coarse_iterations``
    counts the rounds of the coarse solve that gave their starting
    policy.  ``factorizations`` counts the LU factorizations of the fine
    rounds' evaluations: none for a policy that stops everywhere, and
    one for every round of a single action whose threshold stays in one
    window.
    ``bellman_residual`` is ``||TJ - J||_inf`` of the returned J, which
    must not exceed ``tolerance``, ``TOLERANCE_SCALE * lambda_f``.
    ``p_false_alarm``, ``mean_delay`` and ``mean_sensor_slots`` are the
    returned policy's cost terms at the prior's ``rho`` (see
    ``ValueFunction``).
    """

    strategy: str
    iterations: int
    wall_seconds: float
    grid_size: int
    tolerance: float
    bellman_residual: float
    p_false_alarm: float
    mean_delay: float
    mean_sensor_slots: float
    coarse_iterations: int = 0
    factorizations: int = 0


@dataclass(frozen=True)
class LikelihoodAtoms:
    """Discrete approximations of the joint log-likelihood-ratio law.

    For each awake count ``m`` the slot's joint likelihood ratio ``L`` has
    one law under the pre-change regime and another under post.  Each is
    represented by nodes and weights: ``sum(w0[m]) ~ 1`` and
    ``sum(w0[m][k] * h(llr0[m][k]))`` approximates the pre-change mean of
    ``h(L)``.  Index 0 is empty (no observation, pure prediction).  For
    m = 1..n each regime's nodes and weights are real 1-D arrays of one
    length, finite, with no negative weight.
    """

    n: int
    llr0: tuple
    w0: tuple
    llr1: tuple
    w1: tuple

    def __post_init__(self) -> None:
        for name in ("llr0", "w0", "llr1", "w1"):
            arrs = getattr(self, name)
            if len(arrs) != self.n + 1:
                raise ValueError(f"{name} must have n + 1 = {self.n + 1} entries")
        for names, llrs, wts in (("llr0/w0", self.llr0, self.w0), ("llr1/w1", self.llr1, self.w1)):
            for m in range(1, self.n + 1):
                llr, w = llrs[m], wts[m]
                if not (all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iuf"
                            for a in (llr, w)) and llr.size == w.size):
                    raise ValueError(f"{names}[{m}] must be real 1-D arrays of one length")
                if not (np.isfinite(llr).all() and np.isfinite(w).all() and (w >= 0).all()):
                    raise ValueError(f"{names}[{m}] must be finite, with no negative weight")


# Clamp bound applied to beliefs before log-odds arithmetic only. Stored
# beliefs are never clamped.
EPS = 1e-15


def _logit_array(x: np.ndarray) -> np.ndarray:
    """Log-odds of ``x``, clamped to +/- logit(1 - EPS) at the endpoints."""
    xc = np.clip(x, EPS, 1.0 - EPS)
    return np.log(xc) - np.log1p(-xc)


def _llr_coefficients(model: SensorModel, m):
    """Joint log likelihood ratio of an m-sensor slot as a*s + b, where s
    is the sum of the readings; an array of counts gives an array of b."""
    var = model.sigma0 * model.sigma0
    a = (model.mu1 - model.mu0) / var
    b = -m * (model.mu1**2 - model.mu0**2) / (2.0 * var)
    return a, b


def _binomial_table(n: int, q: np.ndarray) -> np.ndarray:
    """Binomial pmf over counts 0..n for each entry of ``q`` (last axis)."""
    m = np.arange(n + 1)
    comb = np.array([math.comb(n, k) for k in m], dtype=float)
    qq = q[..., None]
    with np.errstate(invalid="ignore"):
        table = comb * qq**m * (1.0 - qq) ** (n - m)
    return table


def monte_carlo_atoms(model, n: int) -> LikelihoodAtoms:
    """Sampled law of the joint log likelihood ratio, histogram-compressed.

    The fallback for density pairs with no scalar sufficient statistic:
    ``MC_DRAWS`` draws per awake count and regime, binned into
    ``MC_BINS`` cells, from a generator seeded with 0, so the atoms are
    deterministic.  ``model`` only needs ``sample(regime, size, rng)``
    and ``log_likelihood_ratio(x)``.

    The draws come in blocks of ``MC_ROWS`` rows of ``m`` readings, one
    ``sample`` call per block, in the order m = 1..n, pre before post,
    rows in order.  One pool thread makes every call, in that order, at
    most ``MC_AHEAD`` blocks ahead, while the calling thread sums each
    finished block's ratios into the totals of its (m, regime) and bins
    them once they are complete.  The generator serves the same calls in
    the same order however the two threads interleave, so the atoms do
    not depend on timing or on the build's worker count.  For
    ``SensorModel`` the blocks' ``standard_normal`` draws are the stream
    of one call per (m, regime), so the atoms equal that unblocked build.
    """
    rng = np.random.default_rng(0)
    blocks = [
        (m, regime, lo, min(MC_ROWS, MC_DRAWS - lo))
        for m in range(1, n + 1)
        for regime in ("pre", "post")
        for lo in range(0, MC_DRAWS, MC_ROWS)
    ]
    llrs = {"pre": [np.empty(0)], "post": [np.empty(0)]}
    wts = {"pre": [np.empty(0)], "post": [np.empty(0)]}
    totals = np.empty(MC_DRAWS)

    def draw(block) -> np.ndarray:
        m, regime, _, rows = block
        return np.asarray(model.sample(regime, rows * m, rng)).reshape(rows, m)

    def take(block, x: np.ndarray) -> None:
        _, regime, lo, rows = block
        np.sum(model.log_likelihood_ratio(x), axis=1, out=totals[lo:lo + rows])
        if lo + rows == MC_DRAWS:
            counts, edges = np.histogram(totals, bins=MC_BINS)
            centers = 0.5 * (edges[:-1] + edges[1:])
            keep = counts > 0
            llrs[regime].append(centers[keep])
            wts[regime].append(counts[keep] / float(MC_DRAWS))

    with ThreadPoolExecutor(1) as pool:
        ahead = [pool.submit(draw, b) for b in blocks[:MC_AHEAD]]
        for i, block in enumerate(blocks):
            x = ahead.pop(0).result()
            if i + MC_AHEAD < len(blocks):
                ahead.append(pool.submit(draw, blocks[i + MC_AHEAD]))
            take(block, x)
    return LikelihoodAtoms(
        n=n, llr0=tuple(llrs["pre"]), w0=tuple(wts["pre"]),
        llr1=tuple(llrs["post"]), w1=tuple(wts["post"]),
    )


def _brackets(pts: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The node of ``pts`` below each ``query`` point and the weight
    linear interpolation puts on the node above it (the lower one takes
    the rest); points past either end take the end cell's node."""
    idx = np.clip(np.searchsorted(pts, query, side="right") - 1, 0, pts.size - 2)
    frac = np.clip((query - pts[idx]) / (pts[idx + 1] - pts[idx]), 0.0, 1.0)
    return idx, frac


def _interp_matrix(
    grid: BeliefGrid, query: np.ndarray, weights: np.ndarray | None = None
) -> sparse.csr_matrix:
    """Sparse Q with ``(Q @ values)[i] = sum_k weights[i, k] * interp(values, query[i, k])``.

    A 1-D ``query`` is one point per row with unit weight.
    """
    query = query.reshape(query.shape[0], -1)
    if weights is None:
        weights = np.ones_like(query)
    idx, frac = _brackets(grid.points, query)
    rows = np.repeat(np.arange(query.shape[0]), 2 * query.shape[1])
    cols = np.stack([idx, idx + 1], axis=-1).ravel()
    data = np.stack([weights * (1.0 - frac), weights * frac], axis=-1).ravel()
    return sparse.csr_matrix((data, (rows, cols)), shape=(query.shape[0], grid.size))


def _nearest_nodes(points: np.ndarray, x):
    """Index of the node of ``points`` nearest to each ``x``; a point
    midway between two nodes takes the lower one."""
    upper = np.searchsorted(points, x).clip(1, points.size - 1)
    return upper - (x - points[upper - 1] <= points[upper] - x)


class ExpectationOperator:
    """Linear map ``values -> E[J(next belief)]`` for every awake count.

    With every sensor asleep the next belief is the predicted one, ``t =
    pi + (1 - pi) * p``, so that map is a shift: ``values`` read at t by
    interpolation.  ``shift`` holds it, made once from the grid and p:
    each grid row's node below its t and the weight on the node above
    (``_brackets``).  ``stack`` holds only the ``n`` observation blocks,
    shape ``(n * g, g)``: awake count ``m >= 1`` is rows ``(m - 1) * g``
    to ``m * g``, mapping grid values to the expected cost-to-go when
    ``m`` sensors observe the next slot, with the one-step change hazard
    folded in.  A stack of any other shape is refused.  ``apply_all`` and
    ``fold`` put the shift back as awake count 0, and a policy
    evaluation adds each continue row's sleep weight into that row's
    two ``sleep_entries``.
    The stack is dense, or CSR for a caller's few atoms on a fine grid
    (see ``operator_from_atoms``), which serves only control_m and
    control_q sweeps; the coarse level, and so every stationary solve,
    and single-action folds read ``_dense_stack``.  ``stop_image``,
    ``apply_all(1 - pi)``, is cached beside ``coarse``: each
    single-action solve on the operator sweeps its stop-everywhere cost
    from it (see ``_sweep``).
    Dense stacks are filled from segment sums, their m-blocks
    concurrently on the process's CPUs and each a few rows at a time,
    and no sleep block is written, so building one needs only one serial
    block's worth of temporaries (``BLOCK_ROWS`` rows) beyond the stack
    itself.  The stack does not depend on the worker count.
    ``model`` is the sensor model ``build_expectation_operator`` built the
    stack from, which solves check; None for a caller's atoms.
    """

    def __init__(self, grid: BeliefGrid, p: float, n: int, stack, model=None):
        g = grid.size
        if stack.shape != (n * g, g):
            raise ValueError(
                f"stack must hold the n = {n} observation blocks of {g} x {g}, shape "
                f"{(n * g, g)}; got {stack.shape}"
            )
        self.grid = grid
        self.p = p
        self.n = n
        self.stack = stack
        self.model = model
        self.shift = _brackets(grid.points, grid.points + (1.0 - grid.points) * p)

    def sleep(self, values: np.ndarray) -> np.ndarray:
        """E[J(next belief)] with every sensor asleep, ``values`` read at
        each grid row's predicted belief."""
        idx, frac = self.shift
        return (1.0 - frac) * values[idx] + frac * values[idx + 1]

    def sleep_entries(self, rows=slice(None)):
        """The sleep map's nonzero entries on the grid rows ``rows``, as
        ``(r, column, weight)`` with ``r`` the position in ``rows``: the
        node below each row's predicted belief, then the node above."""
        idx, frac = (a[rows] for a in self.shift)
        r = np.arange(idx.size)
        return (np.concatenate((r, r)), np.concatenate((idx, idx + 1)),
                np.concatenate((1.0 - frac, frac)))

    def apply_all(self, values: np.ndarray) -> np.ndarray:
        """E[J(next belief)] per awake count 0..n (rows) and grid belief
        (columns); row 0 is the shift, with no matrix."""
        out = np.empty((self.n + 1, self.grid.size))
        out[0] = self.sleep(values)
        out[1:] = (self.stack @ values).reshape(self.n, self.grid.size)
        return out

    def _dense_stack(self) -> np.ndarray:
        if not isinstance(self.stack, np.ndarray):
            raise ValueError("this needs a dense stack; a CSR one serves only control_m "
                             "and control_q sweeps (solve_finite_horizon, bellman_maps)")
        return self.stack

    def fold(self, weights: np.ndarray) -> np.ndarray:
        """The maps mixed by ``weights`` (one per awake count 0..n) into
        one ``g x g`` map: one BLAS contraction of ``weights[1:]`` with the
        dense stack viewed as rows of ``g * g``, then ``weights[0]`` times
        the shift added into each row's two sleep entries."""
        g = self.grid.size
        w = np.ravel(weights)
        F = (w[1:] @ self._dense_stack().reshape(self.n, g * g)).reshape(g, g)
        r, col, share = self.sleep_entries()
        F[r, col] += w[0] * share
        return F

    @functools.cached_property
    def stop_image(self) -> np.ndarray:
        """``apply_all(1 - pi)``, made once per operator."""
        return self.apply_all(1.0 - self.grid.points)

    @functools.cached_property
    def coarse(self) -> "ExpectationOperator":
        """The same map on every ``COARSE_STRIDE``-th node plus the last
        (see the module docstring), built once from a dense stack and
        filled in place, a block at a time, so the blocks are never held
        twice; the coarse operator makes its own shift from its own grid.
        A grid of two nodes is its own coarse grid."""
        stack = self._dense_stack()
        g = self.grid.size
        keep = np.unique(np.append(np.arange(0, g, COARSE_STRIDE), g - 1))
        grid = BeliefGrid(self.grid.points[keep])
        R = _interp_matrix(grid, self.grid.points)
        coarse = np.empty((self.n * keep.size, keep.size))
        for m, rows in enumerate(np.split(coarse, self.n)):
            rows[...] = stack[m * g + keep] @ R
        return ExpectationOperator(grid, self.p, self.n, coarse, self.model)


def _segment_shares(
    out: np.ndarray, mass: np.ndarray, first: np.ndarray, pts: np.ndarray, step: np.ndarray
) -> None:
    """Write node shares into ``out`` from segment sums, one row per belief.

    On segment ``j`` (between ``pts[j]`` and ``pts[j + 1]``) the
    interpolated value function is affine in the posterior, so a row needs
    only each segment's probability ``mass`` and ``first`` moment (mass
    times posterior): the upper node takes ``(first - pts[j] * mass) /
    step[j]`` and the lower node the rest.
    """
    upper = (first - pts[:-1] * mass) / step
    np.subtract(mass, upper, out=out[:, :-1])
    out[:, -1] = 0.0
    out[:, 1:] += upper


def _build_workers(n: int) -> int:
    """Threads that fill an ``n``-count stack: one per CPU this process
    may run on, and no more than there are m-blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n, cpus))


def _fill_blocks(make_fill, n: int) -> None:
    """Fill m-blocks 1..n of a stack concurrently, one awake count a task.

    ``make_fill(block_rows)`` returns a function of ``m`` that writes only
    block m, ``block_rows`` rows at a time, using scratch of its own.  The
    builds' kernels (``ndtr``, ``searchsorted``, ``reduceat``) release the
    GIL, so the calling thread and ``workers - 1`` pool threads take the
    counts in turn from one shared queue.  Blocks of ``BLOCK_ROWS //
    workers`` rows keep the workers' temporaries together at one serial
    block's.  Every worker's fill, and so its scratch, is made in the
    calling thread, whose heap already holds freed memory to reuse;
    scratch first allocated in a pool thread would add to the peak.  Row
    arithmetic does not depend on the block size, so the stack is the
    same for any worker count.  With one worker no task is submitted, so
    the pool starts no thread.
    """
    workers = _build_workers(n)
    fills = [make_fill(max(1, BLOCK_ROWS // workers)) for _ in range(workers)]
    counts = iter(range(1, n + 1))
    lock = threading.Lock()

    def work(fill) -> None:
        while True:
            with lock:
                m = next(counts, None)
            if m is None:
                return
            fill(m)

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        futures = [pool.submit(work, fill) for fill in fills[1:]]
        work(fills[0])
    for future in futures:
        future.result()


def operator_from_atoms(
    atoms: LikelihoodAtoms, grid: BeliefGrid, p: float
) -> ExpectationOperator:
    """Expectation maps from likelihood-ratio atoms: atom-weighted
    interpolation, dense by segment sums or CSR by pairs, one block per
    observing count m = 1..n (the sleep map is the operator's shift).

    Each atom puts two entries in a row, so once twice the largest
    per-regime count reaches the grid size the stack is dense
    (``_dense_atom_operator``).  Fewer atoms (the oracle's binary
    alphabets on a fine grid) keep a CSR stack for sweeps only, from one
    pair of ``g`` x atom-count interpolation matrices per count.  The
    Monte Carlo build never comes here: its atoms always go dense.
    """
    g = grid.size
    if 2 * max(w.size for w in (*atoms.llr0, *atoms.llr1)) >= g:
        return _dense_atom_operator(atoms, grid, p)
    t = grid.points + (1.0 - grid.points) * p
    l0 = _logit_array(t)
    blocks = []
    for m in range(1, atoms.n + 1):
        blocks.append(
            _interp_matrix(grid, expit(l0[:, None] + atoms.llr1[m]), t[:, None] * atoms.w1[m])
            + _interp_matrix(
                grid, expit(l0[:, None] + atoms.llr0[m]), (1.0 - t[:, None]) * atoms.w0[m]
            )
        )
    return ExpectationOperator(grid, p, atoms.n, sparse.vstack(blocks, format="csr"))


def _dense_atom_operator(
    atoms: LikelihoodAtoms, grid: BeliefGrid, p: float, model=None
) -> ExpectationOperator:
    """Dense expectation maps from any number of likelihood-ratio atoms,
    ``n * g`` rows of ``g``: the observing counts only, no sleep block.

    Rows are built a block at a time (see ``_fill_blocks``) from segment
    sums: both regimes' atoms are sorted together once per ``m``, one
    ``searchsorted`` per block finds where each row's preimages of the
    interior nodes cut them, and one ``np.add.reduceat`` sums each
    segment's mass and first moment, which ``_segment_shares`` turns into
    node shares as in the closed form.  The temporaries are one block of
    rows by the atom count.
    """
    pts = grid.points
    g = grid.size
    t = pts + (1.0 - pts) * p
    l0 = _logit_array(t)
    stack = np.empty((atoms.n * g, g))
    interior = _logit_array(pts[1:-1])
    step = np.diff(pts)
    scale0 = np.exp(-l0)
    width = max(atoms.llr1[m].size + atoms.llr0[m].size for m in range(1, atoms.n + 1)) + 1

    def make_fill(block_rows: int):
        # Mass in the real part and mass times posterior in the imaginary
        # part, so one reduceat sums both.  Each row has one spare slot at
        # its end (see ``fill``).
        z_buf = np.empty(block_rows * width, dtype=complex)
        return lambda m: fill(m, block_rows, z_buf)

    def fill(m: int, block_rows: int, z_buf: np.ndarray) -> None:
        # Both regimes in one ascending order.  A row weighs post-change
        # atoms by t and pre-change ones by 1 - t, i.e. pre + t * diff.
        llr = np.concatenate((atoms.llr1[m], atoms.llr0[m]))
        order = np.argsort(llr)
        post = order < atoms.llr1[m].size
        llr = llr[order]
        w = np.concatenate((atoms.w1[m], atoms.w0[m]))[order]
        pre = np.where(post, 0.0, w)
        diff = np.where(post, w, -w)
        with np.errstate(over="ignore"):
            scale = np.exp(-llr)
        count = llr.size
        block = stack[(m - 1) * g:m * g]
        z_rows = z_buf[:block_rows * (count + 1)].reshape(block_rows, count + 1)
        for lo in range(0, g, block_rows):
            r = slice(lo, min(lo + block_rows, g))
            rows = r.stop - lo
            # An atom lies on segment j >= 1 of a row when its llr reaches
            # logit(pts[j]) - l0, i.e. when its posterior reaches pts[j];
            # the last segment keeps posteriors of 1.  Each row's starts
            # close with the index of its spare slot and are offset into the
            # flat block.  The slot only keeps the last row's closing index
            # inside the array; its value is never set, and reaches only the
            # column that ``[:, :-1]`` drops or an empty segment, which
            # ``sums[empty] = 0.0`` zeroes.
            starts = np.empty((rows, g), dtype=np.intp)
            starts[:, 0] = 0
            starts[:, 1:-1] = np.searchsorted(llr, interior - l0[r, None])
            starts[:, -1] = count
            empty = starts[:, 1:] == starts[:, :-1]
            starts += (count + 1) * np.arange(rows)[:, None]
            # The posterior is 1 / (1 + e^{-l0} e^{-llr}); an overflow to
            # inf gives 0.
            z = z_rows[:rows]
            mass, first = z.real[:, :-1], z.imag[:, :-1]
            np.multiply(t[r, None], diff, out=mass)
            mass += pre
            with np.errstate(over="ignore"):
                np.multiply(scale0[r, None], scale, out=first)
            first += 1.0
            np.divide(mass, first, out=first)
            sums = np.add.reduceat(z.ravel(), starts.ravel()).reshape(rows, g)[:, :-1]
            # reduceat returns the start element for an empty segment.
            sums[empty] = 0.0
            _segment_shares(block[r], sums.real, sums.imag, pts, step)

    _fill_blocks(make_fill, atoms.n)
    return ExpectationOperator(grid, p, atoms.n, stack, model)


def _exact_operator(model: SensorModel, n: int, grid: BeliefGrid, p: float) -> ExpectationOperator:
    """Closed-form stack of the observing counts m = 1..n, ``n * g`` rows
    of ``g`` with no sleep block, a block of rows of an m-block at a time
    (see ``_fill_blocks``).

    A row splits the observation-sum axis at the preimages of the grid
    nodes; on each segment the interpolated value function is affine in
    the posterior and ``posterior * mixture density`` integrates to the
    post-regime mass, so a row needs only each regime's segment masses.
    Each is a difference of the small tails ``T = Phi(-|z|)`` at its two
    boundaries (``1 - T_lo - T_hi`` on the segment that straddles 0), so
    no two numbers near 1 are ever subtracted.  A boundary's z is a node
    term less a row term, ``U[j] - Q[i]``, rising along the row, so one
    ``searchsorted`` per count and regime finds every row's first node
    with z > 0; left of it the tails rise and right of it they fall, so
    a segment's mass is the absolute difference of its tails, and only
    the straddling segment is written apart.  Each tail is at most 1/2,
    so no mass is negative.
    """
    pts = grid.points
    g = grid.size
    t = pts + (1.0 - pts) * p
    l0 = _logit_array(t)
    interior = _logit_array(pts[1:-1])
    step = np.diff(pts)
    # Rows at or above 1 - EPS are absorbing; t increases with the row.
    live = int(np.searchsorted(t, 1.0 - EPS))
    stack = np.empty((n * g, g))

    def make_fill(block_rows: int):
        # One block's scratch: the tails, and each regime's segment masses.
        tails = np.empty((block_rows, g))
        masses = np.empty((2, block_rows, g - 1))
        return lambda m: fill(m, block_rows, tails, masses)

    def fill(m: int, block_rows: int, tails, masses) -> None:
        a, b = _llr_coefficients(model, m)
        # A signed sd makes a * sd > 0, so z = U - Q rises along every row
        # whatever a's sign.
        sd = math.copysign(math.sqrt(m) * model.sigma0, a)
        Q = l0[:live] / (a * sd)
        U = np.empty((2, g))
        U[:, 0], U[:, -1] = -np.inf, np.inf
        U[:, 1:-1] = interior / (a * sd)
        for u, mu in zip(U, (model.mu0, model.mu1)):
            u[1:-1] -= (b / a + m * mu) / sd
        # U - Q > 0 exactly when U > Q, so K splits the rows as z > 0
        # does; a z of 0 stays left, a tail of 1/2.
        K = [np.searchsorted(u, Q, side="right") for u in U]
        block = stack[(m - 1) * g:m * g]
        block[live:] = 0.0
        block[live:, -1] = 1.0
        for lo in range(0, live, block_rows):
            r = slice(lo, min(lo + block_rows, live))
            rows = np.arange(r.stop - lo)
            tail = tails[:rows.size]
            d0, d1 = masses[:, :rows.size]
            for seg, u, k in zip((d0, d1), U, K):
                np.subtract(u, Q[r, None], out=tail)
                np.copysign(tail, -1.0, out=tail)
                ndtr(tail, out=tail)
                np.subtract(tail[:, 1:], tail[:, :-1], out=seg)
                np.abs(seg, out=seg)
                right = k[r]
                seg[rows, right - 1] = (-tail[rows, right] - tail[rows, right - 1]) + 1.0
            # Weighted by the prior: d1 becomes the post-regime mass and d0
            # the total.
            tr = t[r, None]
            d1 *= tr
            d0 *= 1.0 - tr
            d0 += d1
            _segment_shares(block[r], d0, d1, pts, step)

    _fill_blocks(make_fill, n)
    return ExpectationOperator(grid, p, n, stack, model)


def expectation_method(problem: Problem) -> str:
    """The build ``build_expectation_operator`` picks by default:
    ``exact`` for an equal-variance Gaussian pair, ``monte_carlo`` for
    any other model."""
    model = problem.model
    if isinstance(model, SensorModel) and model.equal_variance:
        return "exact"
    return "monte_carlo"


def build_expectation_operator(
    problem: Problem, grid: BeliefGrid, method: str | None = None
) -> ExpectationOperator:
    """Assemble the stacked expectation map for ``problem``.

    ``method`` is ``exact`` or ``monte_carlo``, by default
    ``expectation_method(problem)``; the closed form needs an
    equal-variance Gaussian pair.  The stack is dense either way, at any
    grid, so every stationary solve can read it, even when the Monte Carlo
    atoms are too few to fill its rows.  The operator keeps
    ``problem.model``, which a solve then checks against its own.
    """
    default = expectation_method(problem)
    method = default if method is None else method
    if method == "exact":
        if default != "exact":
            raise ValueError("no scalar sufficient statistic: use the monte_carlo method")
        return _exact_operator(problem.model, problem.n, grid, problem.prior.p)
    if method == "monte_carlo":
        atoms = monte_carlo_atoms(problem.model, problem.n)
        return _dense_atom_operator(atoms, grid, problem.prior.p, problem.model)
    raise ValueError(f"unknown expectation method {method!r}")


def _bernstein(coef: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope at ``x[i]`` of the Bernstein polynomial with
    coefficients ``coef[i]`` (degree >= 1), by the last de Casteljau step."""
    basis = _binomial_table(coef.shape[1] - 2, x)
    lower = np.einsum("km,km->k", basis, coef[:, :-1])
    upper = np.einsum("km,km->k", basis, coef[:, 1:])
    return lower + x * (upper - lower), (coef.shape[1] - 1) * (upper - lower)


def _valley_roots(D: np.ndarray) -> np.ndarray:
    """Root in (0, 1) of each row's Bernstein polynomial, whose coefficients
    ``D`` go once from negative to nonnegative: safeguarded Newton (Press et
    al., Numerical Recipes 9.4, ``rtsafe``) from the control polygon's zero."""
    rows, deg = np.arange(D.shape[0]), D.shape[1] - 1
    k = np.count_nonzero(D < 0, axis=1) - 1
    x = (k + D[rows, k] / (D[rows, k] - D[rows, k + 1])) / deg
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    step, older = np.ones(rows.size), np.ones(rows.size)
    live = rows
    for _ in range(ROOT_MAX_STEPS):
        xl = x[live]
        f, slope = _bernstein(D[live], xl)
        lo[live] = l = np.where(f < 0, xl, lo[live])
        hi[live] = h = np.where(f > 0, xl, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xl - f / slope
        # Bisect when Newton leaves the bracket or would not halve the
        # step before last.
        slow = np.abs(2.0 * f) > np.abs(older[live] * slope)
        bisect = ~((l <= newton) & (newton <= h)) | slow
        x[live] = np.where(bisect, 0.5 * (l + h), newton)
        older[live], step[live] = step[live], np.abs(x[live] - xl)
        live = live[step[live] > ROOT_TOLERANCE]
        if not live.size:
            break
    return x


def _stationary_points(D: np.ndarray) -> np.ndarray:
    """Real parts in (0, 1) of the roots of each row's Bernstein polynomial
    (coefficients ``D``), ascending, NaN-padded: with ``s = q / (1 - q)`` it
    is ``(1 - q)^k sum_m C(k, m) D_m s^m``, so they come from companion
    matrices, each row rotated to lead with its last nonzero coefficient."""
    deg = D.shape[1] - 1
    c = D * np.array([math.comb(deg, m) for m in range(deg + 1)], dtype=float)
    shift = np.argmax(c[:, ::-1] != 0, axis=1)  # adds only roots at s = 0
    c = np.take_along_axis(c, (np.arange(deg + 1) - shift[:, None]) % (deg + 1), axis=1)
    companion = np.zeros((D.shape[0], deg, deg))
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    companion[:, :, -1] = -c[:, :-1] / c[:, -1:]
    s = np.linalg.eigvals(companion).real
    return np.sort(np.where(s > 0, s / (1.0 + np.abs(s)), np.nan), axis=1)


def _least_over_q(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum over q in [0, 1] of ``f(q) = sum_m Binom(n, q)_m F[m]``
    per column, and the least q attaining it.

    ``f'`` has Bernstein coefficients ``d = n * diff(F)`` and, by variation
    diminishing, at most as many roots in (0, 1) as ``d`` has sign changes;
    counting zeros as positive only adds changes.  The candidates are 0, 1,
    the root when ``d`` goes once from - to + (a minimum) and every root
    when it changes more often; once from + to - is a maximum.  Real parts
    of complex roots are kept: each candidate is feasible, the least wins.
    """
    n, g = F.shape[0] - 1, F.shape[1]
    d = n * np.diff(F, axis=0)
    up = d >= 0
    changes = np.count_nonzero(up[1:] != up[:-1], axis=0)
    best_q, best_f = np.zeros(g), F[0].copy()
    valley, wavy = np.flatnonzero((changes == 1) & up[-1]), np.flatnonzero(changes > 1)
    offers = [(valley, _valley_roots(d[:, valley].T))]
    if wavy.size:
        offers += [(wavy, q) for q in _stationary_points(d[:, wavy].T).T]
    for cols, q in offers:  # ascending in q, so a tie keeps the smaller
        f = _bernstein(F[:, cols].T, q)[0]
        take = f < best_f[cols]
        best_q[cols[take]], best_f[cols[take]] = q[take], f[take]
    take = F[-1] < best_f
    best_q[take], best_f[take] = 1.0, F[-1, take]
    return best_q, best_f


# ---------------------------------------------------------------------------
# Bellman sweeps and policy iteration


@dataclass(frozen=True)
class BellmanMaps:
    """One synchronous sweep: backed-up values plus per-point decisions.

    ``best_action`` holds the minimizing awake count or wake probability
    per grid node (a single action's own value at every node).
    ``expected_next`` is the stack product of the strategy's action set:
    ``E[J(next belief)]`` per awake count (``operator.apply_all(values)``)
    for control_m and control_q, and the folded map's one row for
    open_loop and fixed_m.
    """

    new_values: np.ndarray
    continue_values: np.ndarray
    best_action: np.ndarray
    expected_next: np.ndarray


@dataclass(frozen=True)
class _Window:
    """A single action's continue-set system for every continue set
    [0, k), lo <= k <= hi, from one factorization on [0, lo).

    With ``F`` the fold and ``M = I - F`` on [0, lo), ``X`` holds
    ``M^-1`` of the four cost streams' right-hand sides (columns J, A, D,
    S, with the stop values of the nodes from ``hi`` on moved onto them)
    and ``G`` ``M^-1`` of the fold's columns lo..hi-1.  Eliminating
    [0, lo) leaves the window's nodes coupled by ``Q``, their rows of
    ``F`` on the window plus ``F[W, :lo] @ G``, with right-hand sides
    ``y``; ``stop`` holds their four stop values.
    """

    lo: int
    hi: int
    X: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    y: np.ndarray
    stop: np.ndarray

    def terms(self, k: int) -> np.ndarray:
        """Rows J, A, D and S on [0, k) of continuing there: the nodes
        B = [lo, k) solve ``(I - Q_BB) x_B = y_B + Q_BR stop_R``, R = [k,
        hi) stopping, and [0, lo) follows as ``X + G_R stop_R + G_B
        x_B``."""
        B, R = slice(0, k - self.lo), slice(k - self.lo, None)
        Q, stop = self.Q, self.stop[R]
        x_B = np.linalg.solve(np.eye(k - self.lo) - Q[B, B], self.y[B] + Q[B, R] @ stop)
        x_A = self.X + self.G[:, R] @ stop + self.G[:, B] @ x_B
        return np.concatenate((x_A, x_B)).T


@dataclass(eq=False)
class _ActionSet:
    """A strategy as every sweep and evaluation of one solve level sees it.

    Row ``a`` of ``lambda_s * awake[:, None] + B``, with ``B`` the
    expected cost-to-go per action (``_sweep``), is the continuation cost
    of action ``actions[a]``, which keeps ``awake[a]`` sensors awake on
    average.  control_m's actions are the awake counts, whose rows are
    ``operator.apply_all(J)``; ``binomial`` marks control_q: its actions
    are wake probabilities, each mixing those rows with Binomial(n, q)
    weights, and a sweep takes the exact minimum over q.
    A single action keeps its mixture over the awake counts, ``weights``,
    and folds ``operator``'s maps into one ``g x g`` map, ``fold``, only
    when that is first read.  ``mixture`` gives every policy evaluation
    its nodes' weights over the awake counts.  ``window`` is the single
    action's last threshold window (``_evaluate_policy``), and
    ``factorizations`` counts the LU factorizations the set's
    evaluations have made.
    """

    operator: ExpectationOperator
    awake: np.ndarray
    actions: np.ndarray
    weights: np.ndarray | None = None
    binomial: bool = False
    window: _Window | None = None
    factorizations: int = 0

    @functools.cached_property
    def fold(self) -> np.ndarray:
        return self.operator.fold(self.weights)

    def mixture(self, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights over the awake counts 0..n (columns) and mean awake
        count of playing ``best`` at each node: a single action's own at
        every node, one-hot rows for control_m's awake counts and
        Binomial(n, q) rows for control_q's wake probabilities."""
        n = self.operator.n
        if self.weights is not None:
            return np.repeat(self.weights, best.size, axis=0), np.repeat(self.awake, best.size)
        if self.binomial:
            return _binomial_table(n, best), n * best
        return np.eye(n + 1)[best.astype(int)], best


def _sweep(
    values: np.ndarray, problem: Problem, pts: np.ndarray, acts: _ActionSet, stopped: bool = False
) -> BellmanMaps:
    """One Bellman sweep with its argmin actions; control_q's is the
    exact minimiser over q (``_least_over_q``).  ``stopped`` says that
    ``values`` is the stop-everywhere cost ``lambda_f * (1 - pi)``, which
    a single action sweeps from the operator's ``stop_image``, with no
    fold."""
    if acts.weights is None:
        B = acts.operator.apply_all(values)
    elif stopped:
        B = problem.costs.lambda_f * (acts.weights @ acts.operator.stop_image)
    else:
        B = (acts.fold @ values)[None]
    table = problem.costs.lambda_s * acts.awake[:, None] + B
    if acts.binomial:
        best, cont = _least_over_q(table)
    else:
        cont = table.min(axis=0)
        best = acts.actions[np.argmin(table, axis=0)]
    continue_values = pts + cont
    new_values = np.minimum(problem.costs.lambda_f * (1.0 - pts), continue_values)
    return BellmanMaps(new_values, continue_values, best, B)


def _check_action(problem: Problem, strategy: str, q: float | None, fixed_m: int | None) -> None:
    """Refuse an unknown strategy, a ``q`` that is not a real number in [0,
    1] (bools, numpy's too, are not), or a missing, out-of-range or
    non-integer ``fixed_m``, before the operator is read."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    real = isinstance(q, numbers.Real) and not isinstance(q, bool)
    if strategy == "open_loop" and not (real and 0.0 <= q <= 1.0):
        raise ValueError(f"open_loop needs a wake probability q in [0, 1], got {q!r}")
    if strategy == "fixed_m" and not (_is_integer(fixed_m) and 0 <= fixed_m <= problem.n):
        raise ValueError(f"fixed_m needs an awake count in 0..{problem.n}, got {fixed_m!r}")


def _action_set(
    problem: Problem,
    strategy: str,
    grid: BeliefGrid | None,
    operator: ExpectationOperator,
    q: float | None,
    fixed_m: int | None,
) -> _ActionSet:
    """The one action set every sweep of ``strategy`` reads, on
    ``operator`` once ``_check_action`` and ``_check_operator`` have
    passed the arguments.  control_q reads control_m's, mixed over a wake
    probability; either takes a dense or a CSR stack.  open_loop and
    fixed_m keep their mixture over the awake counts, which their set
    folds into one ``g x g`` map (``ExpectationOperator.fold``, which
    refuses a CSR stack) when a sweep or an evaluation first needs it."""
    _check_action(problem, strategy, q, fixed_m)
    _check_operator(problem, grid, operator)
    n = problem.n
    if strategy in ("control_m", "control_q"):
        counts = np.arange(n + 1)
        return _ActionSet(operator, counts, counts, binomial=strategy == "control_q")
    if strategy == "open_loop":
        weights, awake, action = _binomial_table(n, np.array([q], dtype=float)), n * q, q
    else:
        weights, awake, action = np.eye(n + 1)[[fixed_m]], fixed_m, fixed_m
    return _ActionSet(operator, np.array([awake]), np.array([action]), weights)


def _check_operator(
    problem: Problem, grid: BeliefGrid | None, operator: ExpectationOperator
) -> None:
    """Refuse an ``operator`` that is not an ``ExpectationOperator`` (a
    ``TypeError``), or one whose n, p or sensor model (if it records one)
    is not the problem's or, when ``grid`` is not None, whose grid lacks
    ``grid``'s points; refuse a ``grid`` that is not a ``BeliefGrid``."""
    if not isinstance(operator, ExpectationOperator):
        raise TypeError(
            "operator is required: pass the ExpectationOperator built for this problem "
            f"(build_expectation_operator), got {type(operator).__name__}"
        )
    if grid is not None and not isinstance(grid, BeliefGrid):
        raise ValueError(f"grid must be a BeliefGrid or None, got {type(grid).__name__}")
    if (operator.n != problem.n or operator.p != problem.prior.p
            or (grid is not None and not np.array_equal(operator.grid.points, grid.points))
            or (operator.model is not None and operator.model != problem.model)):
        raise ValueError("operator does not match the grid, n, p or sensor model")


def _solve_identity_minus(P: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``(I - P)^-1 rhs``, forming ``I - P`` in ``P``'s own memory.

    ``P`` is restored afterwards bit for bit: negation is exact and the
    diagonal is put back from a copy.
    """
    diag = P.diagonal().copy()
    step = P.shape[0] + 1
    np.negative(P, out=P)
    P.flat[::step] += 1.0
    try:
        return np.linalg.solve(P, rhs)
    finally:
        np.negative(P, out=P)
        P.flat[::step] = diag


def _cost_streams(problem: Problem, pts: np.ndarray, awake, stopped: np.ndarray) -> np.ndarray:
    """Right-hand sides J, A, D and S (columns) of continue nodes at
    beliefs ``pts`` keeping ``awake`` sensors awake.  ``stopped`` is
    their rows of the policy's transition matrix times J's stop values
    (0 on continue nodes).  A's stop value is J's over lambda_f, and so
    is that continuation: no second product with the continue rows (a
    matrix product would also touch about 1 MB more of the BLAS
    buffers)."""
    rhs = np.empty((pts.size, 4))
    rhs[:, 0] = stopped + (pts + problem.costs.lambda_s * awake)
    rhs[:, 1] = stopped / problem.costs.lambda_f
    rhs[:, 2] = pts
    rhs[:, 3] = awake
    return rhs


def _evaluate_policy(
    problem: Problem, pts: np.ndarray, acts: _ActionSet, stop: np.ndarray, best: np.ndarray
) -> np.ndarray:
    """Exact cost of stopping on ``stop`` and playing ``best`` elsewhere,
    and its three terms: rows J, A, D and S over the grid.

    Each row is the policy's value under one cost stream: J the Bayes
    cost; A, the false-alarm probability, stop cost ``1 - pi`` and no
    running cost; D, the expected delay, running cost ``pi``; S, the
    expected sensor-slots, running cost the awake count.  So ``J =
    lambda_f * A + D + lambda_s * S``, and the four are one solve of the
    continue-set matrix with four right-hand sides.
    Forms ``P_C``, the continue rows (``|C| x g``) of the policy's
    transition matrix, once, the same way for every strategy: row i
    mixes the dense stack's blocks and the operator's shift by its node's
    weights over the awake counts (``_ActionSet.mixture``).
    ``values`` is J's stopping cost on the stop set S and 0 on C, so
    ``P_C @ values`` is ``P_CS J_S`` and J's solve is ``(I - P_C[:, C])
    J_C = pi_C + c(a_C) + P_C @ values``; the other terms take their own
    running costs and stop values.  The mixture is one batched
    ``matmul`` of each row's observing weights with that row of every
    block, over the rows ``lo:hi``, the hull of C, read in place from the
    stack, with zero weights on its holes, of which C's rows are kept;
    each row's sleep weight is then added into its two shift entries.
    A single action whose C is a leading interval [0, k) is instead read
    from ``acts.window`` (``_threshold_window``), made again only when
    k leaves it.  Each factorization, of either kind, adds one to
    ``acts.factorizations``.
    ``numpy.linalg`` is used rather than ``scipy.linalg``: importing the
    latter costs more resident memory and import time than the transient
    copy numpy's solver makes, and a tier-1 test checks that importing
    the package leaves it unloaded.
    """
    g = pts.size
    values = np.where(stop, problem.costs.lambda_f * (1.0 - pts), 0.0)
    terms = np.zeros((4, g))
    terms[0], terms[1] = values, np.where(stop, 1.0 - pts, 0.0)
    C = np.flatnonzero(~stop)
    if C.size == 0:
        return terms
    lo, hi = C[0], C[-1] + 1
    interval = hi - lo == C.size
    if acts.weights is not None and lo == 0 and interval:
        window = acts.window
        if window is None or not window.lo <= hi <= window.hi:
            window = acts.window = _threshold_window(problem, pts, acts, hi)
        terms[:, :hi] = window.terms(hi)
        return terms
    weights, awake = acts.mixture(best[C])
    w = np.zeros((hi - lo, problem.n))
    w[C - lo] = weights[:, 1:]
    V = acts.operator.stack.reshape(-1, g, g)[:, lo:hi]
    P = np.matmul(w[:, None, :], V.transpose(1, 0, 2))[:, 0]
    r, col, share = acts.operator.sleep_entries(C)
    P[C[r] - lo, col] += weights[r, 0] * share
    if not interval:
        P = P[C - lo]
    stopped = P @ values
    rhs = _cost_streams(problem, pts[C], awake, stopped)
    terms[:, C] = _solve_identity_minus(P[:, lo:hi] if interval else P[:, C], rhs).T
    acts.factorizations += 1
    return terms


def _threshold_window(problem: Problem, pts: np.ndarray, acts: _ActionSet, k: int) -> _Window:
    """The window of a single action that continues on [0, k): the nodes
    [lo, hi), ``hi = min(g - 1, k + COARSE_STRIDE)`` and ``lo = hi - 2 *
    COARSE_STRIDE`` (at least 0), over one factorization of ``I - F`` on
    [0, lo), formed in the fold's own rows and restored.

    The coarse start lies within a coarse cell of the fine threshold, so
    the fine rounds' thresholds stay in the window.  Factoring below the
    window keeps the solver's scratch, ``lo * (lo + 4 + 2 *
    COARSE_STRIDE)`` numbers, under the fold's ``g^2``, so it reuses
    memory freed by earlier folds.  A factorization on [0, hi) needed
    more near belief 1, and fresh pages for it raised the peak resident
    memory of a ``sweep-q`` and ``calibrate`` run by about 6 MB.
    """
    g = pts.size
    hi = min(g - 1, k + COARSE_STRIDE)
    lo = max(0, hi - 2 * COARSE_STRIDE)
    stop_cost = problem.costs.lambda_f * (1.0 - pts)
    F = acts.fold
    stop = np.zeros((hi - lo, 4))
    stop[:, 0], stop[:, 1] = stop_cost[lo:hi], 1.0 - pts[lo:hi]
    rhs = _cost_streams(problem, pts[:hi], acts.awake[0], F[:hi, hi:] @ stop_cost[hi:])
    x = _solve_identity_minus(F[:lo, :lo], np.hstack((rhs[:lo], F[:lo, lo:hi])))
    acts.factorizations += 1
    X, G = x[:, :4], x[:, 4:]
    rows = F[lo:hi, :lo]
    return _Window(lo, hi, X, G, F[lo:hi, lo:hi] + rows @ G, rhs[lo:] + rows @ X, stop)


def _policy_rounds(
    problem: Problem, pts: np.ndarray, acts: _ActionSet, stop: np.ndarray, best: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float, BellmanMaps | None]:
    """The rounds of ``value_iteration`` from the policy that stops on
    ``stop`` and plays ``best`` elsewhere, which is evaluated first.
    Returns the last evaluation's rows J, A, D and S
    (``_evaluate_policy``), the last decisions ``(stop, best)``, the
    rounds run (the last of which changes nothing), the last round's
    change of J, and that last round's sweep of J (``BellmanMaps``), or
    None if ``MAX_ROUNDS`` rounds, read at call time, end in a change."""
    stop_cost = problem.costs.lambda_f * (1.0 - pts)
    # The current policy's backup of its own J is J, so a node switches
    # only when the sweep beats J by more than round-off; near-ties keep
    # their decision, which is what stops the rounds from cycling.
    margin = TIE_BREAK * problem.costs.lambda_f
    terms = _evaluate_policy(problem, pts, acts, stop, best)
    values = terms[0]
    delta = 0.0
    polish = acts.binomial
    for rounds in range(1, MAX_ROUNDS + 1):
        maps = _sweep(values, problem, pts, acts, stopped=stop.all())
        switch = maps.new_values < values - margin
        if switch.any():
            stop = np.where(switch, stop_cost <= maps.continue_values, stop)
            best = np.where(switch, maps.best_action, best)
            polish = acts.binomial
        elif polish:
            # A wake probability is continuous, so the margin leaves each
            # q up to it off the argmin.  One round that takes every
            # continue node's argmin is a Newton step from there, which
            # ends within round-off of the fixed point from any start.
            best = np.where(stop, best, maps.best_action)
            polish = False
        else:
            return terms, stop, best, rounds, 0.0, maps
        terms = _evaluate_policy(problem, pts, acts, stop, best)
        delta = float(np.max(np.abs(terms[0] - values)))
        values = terms[0]
    return terms, stop, best, MAX_ROUNDS, delta, None


def value_iteration(
    problem: Problem,
    strategy: str,
    grid: BeliefGrid | None = None,
    *,
    q: float | None = None,
    fixed_m: int | None = None,
    operator: ExpectationOperator,
) -> tuple[ValueFunction, SolveReport]:
    """Solve the stationary Bellman equation on a belief grid exactly.

    Policy iteration (Howard 1960; Puterman 1994, ch. 6-7): each round
    one Bellman sweep picks the stop set and the argmin actions for the
    current J, then J is replaced by the exact cost of that policy (one
    linear solve on the continue set).  It stops when the stop set and
    the continue-set actions repeat; iterates decrease monotonically to
    the fixed point.  A node keeps its decision unless switching lowers
    its backup by more than ``TIE_BREAK * lambda_f``.  control_q's wake
    probability is continuous, so once no node switches, one more round
    takes every continue node's argmin; the result is then the same from
    any start to round-off, not only to that margin.

    The fine rounds start, at any grid size, from the decisions of the
    nearest node (``_nearest_nodes``) of ``operator.coarse``, solved the
    same way from stopping everywhere in at most ``MAX_ROUNDS`` rounds
    and never raising.  Its nodes are fine nodes, so its stack is exactly
    the coarse grid's operator (see the module docstring); from any
    proper start the rounds reach the same fixed point.

    Args:
        problem: The instance to solve.
        strategy: One of control_m, control_q, open_loop, fixed_m.
        grid: Only a check: None, or a BeliefGrid with the operator's
            points.  The solve runs on ``operator.grid``.
        q: Wake probability (open_loop only).
        fixed_m: Constant awake count (fixed_m only).
        operator: Required.  The expectation maps, built for this
            problem's n, p and sensor model with a dense stack, and
            reused across solves; its coarse level and a single action's
            ``stop_image`` are built on first use and kept with it.

    Returns:
        The converged ValueFunction, which carries its policy's cost
        terms at every node and, as ``last_sweep``, the sweep that confirmed
        the policy, and a SolveReport, which gives the terms at rho.

    Raises:
        TypeError: If ``operator`` is not given or is not an
            ``ExpectationOperator`` (None included), before any sweep.
        ValueError: If the strategy, ``q`` or ``fixed_m`` is invalid,
            before the operator is read; if ``operator`` does not match
            the problem or ``grid`` (``_check_operator``); or if it holds
            a CSR stack, before any round, as that serves only the sweeps
            of ``solve_finite_horizon``.
        ConvergenceError: If the policy still changes after
            ``MAX_ROUNDS`` fine rounds (carrying the last change of J), or
            the result's Bellman residual ``||TJ - J||_inf`` exceeds
            ``TOLERANCE_SCALE * lambda_f`` (carrying the residual).  Both
            limits are module constants; a solve that ends normally is
            far inside them.
    """
    acts = _action_set(problem, strategy, grid, operator, q, fixed_m)
    start = time.perf_counter()
    grid, pts = acts.operator.grid, acts.operator.grid.points
    coarse = acts.operator.coarse  # raises on a CSR stack, before any round
    cpts = coarse.grid.points
    _, stop, best, coarse_rounds, _, _ = _policy_rounds(
        problem, cpts, _action_set(problem, strategy, coarse.grid, coarse, q, fixed_m),
        np.ones(cpts.size, dtype=bool), np.zeros(cpts.size),
    )
    near = _nearest_nodes(cpts, pts)
    terms, _, _, rounds, delta, maps = _policy_rounds(
        problem, pts, acts, stop[near], best[near]
    )
    if maps is None:
        raise ConvergenceError(
            f"value iteration hit its round cap of {rounds} with the policy still "
            f"changing (last sup-norm delta {delta:g})",
            iterations=rounds,
            last_delta=delta,
        )
    tolerance = TOLERANCE_SCALE * problem.costs.lambda_f
    residual = float(np.max(np.abs(maps.new_values - terms[0])))
    if residual > tolerance:
        raise ConvergenceError(
            f"value iteration did not reach tolerance {tolerance:g} after "
            f"{rounds} rounds (Bellman residual {residual:g})",
            iterations=rounds,
            last_delta=residual,
        )
    J = ValueFunction(grid, *terms, last_sweep=maps)
    rho = problem.prior.rho
    report = SolveReport(
        strategy=strategy,
        iterations=rounds,
        wall_seconds=time.perf_counter() - start,
        grid_size=grid.size,
        tolerance=tolerance,
        bellman_residual=residual,
        p_false_alarm=float(np.interp(rho, pts, J.p_false_alarm)),
        mean_delay=float(np.interp(rho, pts, J.mean_delay)),
        mean_sensor_slots=float(np.interp(rho, pts, J.mean_sensor_slots)),
        coarse_iterations=coarse_rounds,
        factorizations=acts.factorizations,
    )
    return J, report


def solve_finite_horizon(
    problem: Problem,
    sweeps: int,
    strategy: str = "control_m",
    grid: BeliefGrid | None = None,
    *,
    q: float | None = None,
    fixed_m: int | None = None,
    operator: ExpectationOperator,
) -> ValueFunction:
    """Exactly ``sweeps`` Bellman applications to the stopping cost, on
    ``operator.grid``.

    The result is the optimal cost when the scheduler must declare within
    ``sweeps`` slots.  Zero sweeps returns the stopping cost itself.
    ``operator`` and ``grid`` are checked as ``value_iteration`` checks
    them; a CSR stack serves control_m's and control_q's sweeps.
    """
    if not (_is_integer(sweeps) and sweeps >= 0):
        raise ValueError(f"sweeps must be >= 0 and an integer, got {sweeps!r}")
    acts = _action_set(problem, strategy, grid, operator, q, fixed_m)
    grid = acts.operator.grid
    values = problem.costs.lambda_f * (1.0 - grid.points)
    for _ in range(sweeps):
        values = _sweep(values, problem, grid.points, acts).new_values
    return ValueFunction(grid, values)


def bellman_maps(
    J: ValueFunction,
    problem: Problem,
    strategy: str,
    *,
    q: float | None = None,
    fixed_m: int | None = None,
    operator: ExpectationOperator,
) -> BellmanMaps:
    """One sweep of ``J`` on ``operator``, which must be built on
    ``J.grid`` for this problem, exposing the per-point decisions.

    ``extract_policy`` reads a policy from it.  It sweeps the solves'
    action set, so a single action builds its fold; a stationary solve
    already returns this sweep as ``J.last_sweep``.
    """
    acts = _action_set(problem, strategy, J.grid, operator, q, fixed_m)
    return _sweep(J.values, problem, J.grid.points, acts)
