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
stacked matrix over all ``m`` and a sweep is one mat-vec.  The four
strategies differ only in their action set: a sensing cost per action
and a mixture over awake counts (the identity for control_m, binomial
rows for control_q).  open_loop and fixed_m have one action, whose
mixture is folded into a single ``g x g`` map when the action set is
made, so every sweep of a strategy, one-off or repeated, reads the same
form.

The stationary problem is solved by policy iteration: a sweep picks the
stop set and actions, and one linear solve on the continue set C gives
that policy's exact cost.  The solve reads only the policy's continue
rows, ``|C| x g``, formed once per round; when C is an interval, as on
every instance solved so far, a dense stack gives them by slices of its
blocks.  Finite horizons take plain sweeps.

Policy iteration reaches the same fixed point from any proper starting
policy, so a stationary solve first solves the strategy on a nested
coarse grid (every ``COARSE_STRIDE``-th node plus the last) and starts
the fine rounds from that policy, mapped by nearest coarse node.  The
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
for a block of belief rows at a time.  The clamped log-odds
(``_logit_array``) and the slot's log likelihood ratio as an affine map
of the sum (``_llr_coefficients``) are the same helpers the simulator's
posterior update uses.

``monte_carlo`` covers density pairs with no scalar sufficient statistic
(seeded, 10^5 draws, compressed to a histogram of the joint likelihood
ratio).  Discrete observation alphabets enter through the same atom
interface; see the oracle module.  An atom-built stack is dense when the
atoms can fill its rows (twice the largest per-regime atom count reaches
the grid size, as the histogram's thousands of atoms do at the default
grid) and CSR otherwise (a binary alphabet's few atoms on a fine grid).
The dense build works like the closed form, per row and grid segment:
the atoms are sorted once per ``m``, the preimages of the grid nodes cut
them into segments, and each segment's mass and first moment give the
node shares.  Both builds take a block of rows at a time, so their
temporaries are one block of rows by the grid or atom count.  The
m-blocks are filled concurrently, one thread per CPU the process may run
on (at most ``n``); each row's arithmetic is the same on any thread, so
the stack does not depend on the worker count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import expit, ndtr

from .model import Problem, SensorModel

DEFAULT_GRID_SIZE = 1001
DEFAULT_Q_GRID_SIZE = 101
Q_REFINE_POINTS = 21
DEFAULT_MAX_ITERS = 10_000
TOLERANCE_SCALE = 1e-6
MC_DRAWS = 100_000
MC_BINS = 4096
# (belief row, atom) pairs interpolated at once by the CSR atom build,
# which holds a COO triple and its CSR copy for each pair.
ATOM_CHUNK_ENTRIES = 1 << 18
# Belief rows of one m-block built at once by the closed form and the
# dense atom build, shared out among the build's worker threads.
BLOCK_ROWS = 32
# A stationary solve starts from the policy on every COARSE_STRIDE-th
# node plus the last, unless that leaves fewer than COARSE_MIN_NODES.
COARSE_STRIDE = 8
COARSE_MIN_NODES = 16

# Stopping wins ties within this margin, and argmin ties resolve toward
# the smaller m or q.
TIE_BREAK = 1e-12

STRATEGIES = ("control_m", "control_q", "open_loop", "fixed_m")


class ConvergenceError(RuntimeError):
    """Raised when the solver exhausts max_iters or misses its residual
    tolerance; carries the last sup-norm delta (change of J, or residual;
    for a lambda_f calibration out of trials, the last |P_FA - target|)."""

    def __init__(self, message: str, iterations: int, last_delta: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta


@dataclass(frozen=True)
class BeliefGrid:
    """Strictly increasing belief nodes spanning [0, 1]."""

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
        if size < 2:
            raise ValueError(f"grid size must be >= 2, got {size}")
        return cls(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return self.points.size

    def nearest_index(self, pi: float) -> int:
        idx = int(np.searchsorted(self.points, pi))
        if idx == 0:
            return 0
        if idx >= self.size:
            return self.size - 1
        if pi - self.points[idx - 1] <= self.points[idx] - pi:
            return idx - 1
        return idx


@dataclass
class ValueFunction:
    """Cost-to-go sampled on a belief grid, interpolated linearly between."""

    grid: BeliefGrid
    values: np.ndarray

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
    policy (0 when the grid has no coarse level).  ``sup_norm_deltas``
    holds the sup-norm change of J in each fine round (0 in that last
    round).
    ``bellman_residual`` is ``||TJ - J||_inf`` of the returned J, the
    error that the ``tolerance`` check is applied to.
    """

    strategy: str
    iterations: int
    wall_seconds: float
    grid_size: int
    tolerance: float
    bellman_residual: float
    coarse_iterations: int = 0
    sup_norm_deltas: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class LikelihoodAtoms:
    """Discrete approximations of the joint log-likelihood-ratio law.

    For each awake count ``m`` the slot's joint likelihood ratio ``L`` has
    one law under the pre-change regime and another under post.  Each is
    represented by nodes and weights: ``sum(w0[m]) ~ 1`` and
    ``sum(w0[m][k] * h(llr0[m][k]))`` approximates the pre-change mean of
    ``h(L)``.  Index 0 is empty (no observation, pure prediction).
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


def binomial_weights(n: int, q: float) -> np.ndarray:
    """Probability of each awake count when ``n`` sensors wake i.i.d. w.p. ``q``."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    return _binomial_table(n, np.asarray([q], dtype=float))[0]


def _binomial_table(n: int, q: np.ndarray) -> np.ndarray:
    """Binomial pmf over counts 0..n for each entry of ``q`` (last axis)."""
    m = np.arange(n + 1)
    comb = np.array([math.comb(n, k) for k in m], dtype=float)
    qq = q[..., None]
    with np.errstate(invalid="ignore"):
        table = comb * qq**m * (1.0 - qq) ** (n - m)
    return table


def monte_carlo_atoms(
    model,
    n: int,
    draws: int = MC_DRAWS,
    bins: int = MC_BINS,
    seed: int = 0,
) -> LikelihoodAtoms:
    """Sampled law of the joint log likelihood ratio, histogram-compressed.

    The fallback for density pairs with no scalar sufficient statistic.
    ``model`` only needs ``sample(regime, size, rng)`` and
    ``log_likelihood_ratio(x)``.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    llr0, w0, llr1, w1 = [np.empty(0)], [np.empty(0)], [np.empty(0)], [np.empty(0)]
    for m in range(1, n + 1):
        for regime, llrs, wts in (("pre", llr0, w0), ("post", llr1, w1)):
            x = np.asarray(model.sample(regime, draws * m, rng)).reshape(draws, m)
            totals = np.sum(model.log_likelihood_ratio(x), axis=1)
            counts, edges = np.histogram(totals, bins=bins)
            centers = 0.5 * (edges[:-1] + edges[1:])
            keep = counts > 0
            llrs.append(centers[keep])
            wts.append(counts[keep] / float(draws))
    return LikelihoodAtoms(n=n, llr0=tuple(llr0), w0=tuple(w0), llr1=tuple(llr1), w1=tuple(w1))


def _interp_matrix(
    grid: BeliefGrid, query: np.ndarray, weights: np.ndarray | None = None
) -> sparse.csr_matrix:
    """Sparse Q with ``(Q @ values)[i] = sum_k weights[i, k] * interp(values, query[i, k])``.

    A 1-D ``query`` is one point per row with unit weight.
    """
    query = query.reshape(query.shape[0], -1)
    if weights is None:
        weights = np.ones_like(query)
    pts = grid.points
    idx = np.clip(np.searchsorted(pts, query, side="right") - 1, 0, pts.size - 2)
    frac = np.clip((query - pts[idx]) / (pts[idx + 1] - pts[idx]), 0.0, 1.0)
    rows = np.repeat(np.arange(query.shape[0]), 2 * query.shape[1])
    cols = np.stack([idx, idx + 1], axis=-1).ravel()
    data = np.stack([weights * (1.0 - frac), weights * frac], axis=-1).ravel()
    return sparse.csr_matrix((data, (rows, cols)), shape=(query.shape[0], grid.size))


class ExpectationOperator:
    """Linear map ``values -> E[J(next belief)]`` for every awake count.

    ``stack`` has shape ``((n + 1) * g, g)``: block ``m`` (rows ``m*g`` to
    ``(m+1)*g``) maps grid values to the expected cost-to-go when ``m``
    sensors observe the next slot, with the one-step change hazard folded
    in; block 0 is prediction plus interpolation.  The closed form stores
    it dense.  An atom-built map is dense when twice its largest
    per-regime atom count reaches the grid size, and CSR below that.
    Dense stacks are filled from segment sums, their m-blocks
    concurrently on the process's CPUs and each a few rows at a time, so
    building one needs only one serial block's worth of temporaries
    (``BLOCK_ROWS`` rows) beyond the stack itself.  The stack does not
    depend on the worker count.
    """

    def __init__(self, grid: BeliefGrid, p: float, n: int, stack):
        self.grid = grid
        self.p = p
        self.n = n
        self.stack = stack
        self.predicted = grid.points + (1.0 - grid.points) * p

    def apply_all(self, values: np.ndarray) -> np.ndarray:
        """E[J(next belief)] per awake count (rows) and grid belief (columns)."""
        return (self.stack @ values).reshape(self.n + 1, self.grid.size)

    @functools.cached_property
    def coarse(self) -> "ExpectationOperator | None":
        """The same map on every ``COARSE_STRIDE``-th node plus the last
        (see the module docstring), built once, a block at a time, in the
        stack's storage; None if that leaves under ``COARSE_MIN_NODES``."""
        g = self.grid.size
        keep = np.unique(np.append(np.arange(0, g, COARSE_STRIDE), g - 1))
        if keep.size < COARSE_MIN_NODES:
            return None
        grid = BeliefGrid(self.grid.points[keep])
        R = _interp_matrix(grid, self.grid.points)
        blocks = (self.stack[m * g + keep] @ R for m in range(self.n + 1))
        if sparse.issparse(self.stack):
            stack = sparse.vstack(list(blocks), format="csr")
        else:  # filled in place, so the blocks are never held twice
            stack = np.empty(((self.n + 1) * keep.size, keep.size))
            for rows, block in zip(np.split(stack, self.n + 1), blocks):
                rows[...] = block
        return ExpectationOperator(grid, self.p, self.n, stack)


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
    same for any worker count.  With one worker no thread is started.
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

    if workers == 1:
        work(fills[0])
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(work, fill) for fill in fills[1:]]
        work(fills[0])
    for future in futures:
        future.result()


def operator_from_atoms(
    atoms: LikelihoodAtoms, grid: BeliefGrid, p: float
) -> ExpectationOperator:
    """Expectation maps from likelihood-ratio atoms: atom-weighted
    interpolation, dense by segment sums or CSR by pairs.

    The storage is fixed by the atom counts before anything is allocated.
    Each atom puts two entries in a row, so once twice the largest
    per-regime count reaches the grid size the rows can fill and the
    stack is dense.  Its rows are built a block at a time (see
    ``_fill_blocks``) from segment sums: both regimes' atoms are sorted
    together once per ``m``, one ``searchsorted`` per block finds where
    each row's preimages of the interior nodes cut them, and one
    ``np.add.reduceat`` sums each segment's mass and first moment, which
    ``_segment_shares`` turns into node shares as in the closed form.  The
    temporaries are one block of rows by the atom count.  Fewer atoms (a binary alphabet
    on a fine grid) keep a CSR stack, which a dense one would fill mostly
    with zeros; it is built ``ATOM_CHUNK_ENTRIES`` (row, atom) pairs at a
    time.
    """
    pts = grid.points
    g = grid.size
    t = pts + (1.0 - pts) * p
    l0 = _logit_array(t)
    if 2 * max(w.size for w in (*atoms.llr0, *atoms.llr1)) < g:
        blocks = [_interp_matrix(grid, t)]
        for m in range(1, atoms.n + 1):
            width = max(atoms.llr0[m].size, atoms.llr1[m].size, 1)
            step = max(1, ATOM_CHUNK_ENTRIES // width)
            for lo in range(0, g, step):
                r = slice(lo, lo + step)
                blocks.append(
                    _interp_matrix(grid, expit(l0[r, None] + atoms.llr1[m]), t[r, None] * atoms.w1[m])
                    + _interp_matrix(
                        grid, expit(l0[r, None] + atoms.llr0[m]), (1.0 - t[r, None]) * atoms.w0[m]
                    )
                )
        return ExpectationOperator(grid, p, atoms.n, sparse.vstack(blocks, format="csr"))
    stack = np.empty(((atoms.n + 1) * g, g))
    stack[:g] = _interp_matrix(grid, t).toarray()
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
        block = stack[m * g:(m + 1) * g]
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
    return ExpectationOperator(grid, p, atoms.n, stack)


def _exact_operator(model: SensorModel, n: int, grid: BeliefGrid, p: float) -> ExpectationOperator:
    """Closed-form stack, a block of rows of an m-block at a time (see
    ``_fill_blocks``).

    A row splits the observation-sum axis at the preimages of the grid
    nodes; on each segment the interpolated value function is affine in
    the posterior and ``posterior * mixture density`` integrates to the
    post-regime mass, so a row needs only each regime's segment masses.
    Each is a difference of the small tails ``T = Phi(-|z|)`` at its two
    boundaries (``1 - T_lo - T_hi`` on the segment that straddles 0), so
    no two numbers near 1 are ever subtracted.
    """
    pts = grid.points
    g = grid.size
    t = pts + (1.0 - pts) * p
    l0 = _logit_array(t)
    interior = _logit_array(pts[1:-1])
    step = np.diff(pts)
    # Rows at or above 1 - EPS are absorbing; t increases with the row.
    live = int(np.searchsorted(t, 1.0 - EPS))
    stack = np.empty(((n + 1) * g, g))
    stack[:g] = _interp_matrix(grid, t).toarray()

    def make_fill(block_rows: int):
        # One block's scratch: the cuts, z and the tails; z > 0 and where
        # it flips between neighbours; each regime's segment masses.
        real = np.empty((3, block_rows, g))
        flags = np.empty((2, block_rows, g), dtype=bool)
        masses = np.empty((2, block_rows, g - 1))
        return lambda m: fill(m, block_rows, real, flags, masses)

    def fill(m: int, block_rows: int, real, flags, masses) -> None:
        a, b = _llr_coefficients(model, m)
        # Dividing by a signed sd orders every row's z upward whatever a's sign.
        sd = math.copysign(math.sqrt(m) * model.sigma0, a)
        real[0, :, 0], real[0, :, -1] = -np.inf * a, np.inf * a
        block = stack[m * g:(m + 1) * g]
        block[live:] = 0.0
        block[live:, -1] = 1.0
        for lo in range(0, live, block_rows):
            r = slice(lo, min(lo + block_rows, live))
            cut, z, tail = real[:, :r.stop - lo]
            pos, flip = flags[:, :r.stop - lo]
            d0, d1 = masses[:, :r.stop - lo]
            cut[:, 1:-1] = (interior - l0[r, None] - b) / a
            for seg, mu in ((d0, model.mu0), (d1, model.mu1)):
                np.subtract(cut, m * mu, out=z)
                z /= sd
                np.greater(z, 0, out=pos)
                np.negative(np.abs(z, out=tail), out=tail)
                ndtr(tail, out=tail)
                # Phi(z) is the tail for z <= 0 and 1 - tail above; the 1
                # enters only the segment that straddles 0.
                np.negative(tail, out=tail, where=pos)
                np.subtract(tail[:, 1:], tail[:, :-1], out=seg)
                seg += np.not_equal(pos[:, 1:], pos[:, :-1], out=flip[:, 1:])
                np.maximum(seg, 0.0, out=seg)
            # Weighted by the prior: d1 becomes the post-regime mass and d0
            # the total.
            tr = t[r, None]
            d1 *= tr
            d0 *= 1.0 - tr
            d0 += d1
            _segment_shares(block[r], d0, d1, pts, step)

    _fill_blocks(make_fill, n)
    return ExpectationOperator(grid, p, n, stack)


def build_expectation_operator(
    problem: Problem, grid: BeliefGrid, method: str | None = None
) -> ExpectationOperator:
    """Assemble the stacked expectation map for ``problem``.

    ``method`` is ``exact`` or ``monte_carlo``; by default the closed
    form is used when the model is an equal-variance Gaussian pair and
    the Monte Carlo fallback otherwise.
    """
    model = problem.model
    reducible = isinstance(model, SensorModel) and model.equal_variance
    if method is None:
        method = "exact" if reducible else "monte_carlo"
    if method == "exact":
        if not reducible:
            raise ValueError("no scalar sufficient statistic: use the monte_carlo method")
        return _exact_operator(model, problem.n, grid, problem.prior.p)
    if method == "monte_carlo":
        atoms = monte_carlo_atoms(model, problem.n)
        return operator_from_atoms(atoms, grid, problem.prior.p)
    raise ValueError(f"unknown expectation method {method!r}")


def _refine_q(
    lo: np.ndarray, hi: np.ndarray, n: int, lam_s: float, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense search between the bracketing coarse q values (vector form)."""
    steps = np.linspace(0.0, 1.0, Q_REFINE_POINTS)
    qs = lo[None, :] + steps[:, None] * (hi - lo)[None, :]
    table = _binomial_table(n, qs)
    cont = lam_s * n * qs + np.einsum("rgm,mg->rg", table, B)
    pick = np.argmin(cont, axis=0)
    cols = np.arange(qs.shape[1])
    return qs[pick, cols], cont[pick, cols]


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
class _ActionSet:
    """A strategy as every sweep of it sees it.

    Row ``a`` of ``cost[:, None] + weights @ (stack @ J).reshape(-1, g)``
    is the continuation cost of action ``actions[a]``.  ``weights`` None
    stands for the identity: action ``a`` plays block ``a`` of the stack
    (control_m's awake counts, or a single action's fold, a stack of one
    block).  Only control_q has ``weights``, its binomial rows, and its
    grid minimum is refined between its neighbours.  ``private`` marks a
    dense ``stack`` built for this action set alone (a single action's
    fold), so policy evaluation may take its continue rows as a view and
    work in them in place.
    """

    stack: object
    weights: np.ndarray | None
    cost: np.ndarray
    actions: np.ndarray
    private: bool = False


def _sweep(values: np.ndarray, problem: Problem, pts: np.ndarray, acts: _ActionSet) -> BellmanMaps:
    """One Bellman sweep with its argmin actions; control_q's are refined
    between the neighbours of its grid minimum."""
    B = (acts.stack @ values).reshape(-1, pts.size)
    table = acts.cost[:, None] + (B if acts.weights is None else acts.weights @ B)
    cont = table.min(axis=0)
    j = np.argmin(table, axis=0)
    best = acts.actions[j]
    if acts.weights is not None:
        q_grid = acts.actions
        lo = q_grid[np.maximum(j - 1, 0)]
        hi = q_grid[np.minimum(j + 1, q_grid.size - 1)]
        q_ref, cont_ref = _refine_q(lo, hi, problem.n, problem.costs.lambda_s, B)
        take_coarse = cont < cont_ref - TIE_BREAK
        cont = np.where(take_coarse, cont, cont_ref)
        best = np.where(take_coarse, best, q_ref)
    continue_values = pts + cont
    new_values = np.minimum(problem.costs.lambda_f * (1.0 - pts), continue_values)
    return BellmanMaps(new_values, continue_values, best, B)


def _action_set(
    problem: Problem,
    operator: ExpectationOperator,
    strategy: str,
    q: float | None,
    fixed_m: int | None,
    q_grid_size: int,
) -> _ActionSet:
    """The one action set every sweep of ``strategy`` reads.  control_q
    searches ``q_grid_size`` uniform wake probabilities on [0, 1].
    open_loop and fixed_m fold their mixture into one ``g x g`` map here:
    a dense stack in one BLAS contraction over its blocks, viewed as rows
    of ``g * g``, a CSR one through a block-mixing matrix."""
    n = problem.n
    lam_s = problem.costs.lambda_s
    stack = operator.stack
    if strategy == "control_m":
        counts = np.arange(n + 1)
        return _ActionSet(stack, None, lam_s * counts, counts)
    if strategy == "control_q":
        if q_grid_size < 1:
            raise ValueError(f"q_grid_size must be >= 1, got {q_grid_size!r}")
        q_grid = np.linspace(0.0, 1.0, q_grid_size)
        return _ActionSet(stack, _binomial_table(n, q_grid), lam_s * n * q_grid, q_grid)
    if strategy == "open_loop":
        if q is None or not 0.0 <= q <= 1.0:
            raise ValueError(f"open_loop needs a wake probability q in [0, 1], got {q!r}")
        weights, cost, action = binomial_weights(n, q)[None], lam_s * n * q, q
    elif strategy == "fixed_m":
        if fixed_m is None or not 0 <= fixed_m <= n:
            raise ValueError(f"fixed_m needs an awake count in 0..{n}, got {fixed_m!r}")
        weights, cost, action = np.eye(n + 1)[[fixed_m]], lam_s * fixed_m, fixed_m
    else:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    g = operator.grid.size
    if isinstance(stack, np.ndarray):
        fold = (weights @ stack.reshape(n + 1, g * g)).reshape(g, g)
    else:
        fold = sparse.kron(weights, sparse.identity(g), format="csr") @ stack
    private = isinstance(fold, np.ndarray)
    return _ActionSet(fold, None, np.array([cost]), np.array([action]), private=private)


def _resolve_operator(
    problem: Problem, grid: BeliefGrid, operator: ExpectationOperator | None, method=None
) -> ExpectationOperator:
    if operator is None:
        return build_expectation_operator(problem, grid, method)
    if operator.grid.size != grid.size or operator.n != problem.n:
        raise ValueError("operator does not match the grid or n")
    return operator


def _resolve_grid(grid) -> BeliefGrid:
    if grid is None:
        return BeliefGrid.uniform(DEFAULT_GRID_SIZE)
    if isinstance(grid, BeliefGrid):
        return grid
    if isinstance(grid, (int, np.integer)):
        return BeliefGrid.uniform(int(grid))
    return BeliefGrid(np.asarray(grid, dtype=float))


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


def _evaluate_policy(
    problem: Problem, pts: np.ndarray, acts: _ActionSet, stop: np.ndarray, best: np.ndarray
) -> np.ndarray:
    """Exact cost of stopping on ``stop`` and playing ``best`` elsewhere.

    Forms ``P_C``, the continue rows (``|C| x g``) of the policy's
    transition matrix, once: row i is block ``m_i`` of the stack for an
    awake count, the binomial mixture of the blocks for a wake
    probability, and the folded map's row for a single action.
    ``values`` is the stopping cost on the stop set S and 0 on C, so
    ``P_C @ values`` is ``P_CS J_S`` and the solve is ``(I - P_C[:, C])
    J_C = pi_C + c(a_C) + P_C @ values``.  When C is an interval ``[lo,
    hi)`` of a dense stack, a mixture is one ``einsum`` over rows
    ``lo:hi`` of every block.  Rows that each read one block
    (an awake count, or a fold) are gathered up to column ``hi`` only,
    the columns past it entering the right-hand side at once, so no wider
    copy is held while the solver copies ``P_C[:, C]``; a private fold's
    rows are a view, worked in place and restored.  A mixture on any
    other C, or on a CSR stack, takes a sparse mixing matrix that reads
    only C's rows of each block.
    ``numpy.linalg`` is used rather than ``scipy.linalg``: importing the
    latter costs more resident memory and import time than the transient
    copy numpy's solver makes.
    """
    g = pts.size
    values = np.where(stop, problem.costs.lambda_f * (1.0 - pts), 0.0)
    C = np.flatnonzero(~stop)
    if C.size == 0:
        return values
    lo, hi = C[0], C[-1] + 1
    interval = hi - lo == C.size
    if acts.weights is None:
        # Awake counts and a single action are sorted.  Columns from hi on
        # are all in S.  A fold is one block: its continue rows are lo:hi.
        j = np.searchsorted(acts.actions, best[C])
        rhs = pts[C] + acts.cost[j]
        rows = slice(lo, hi) if acts.private and interval else j * g + C
        P = acts.stack[rows, :hi]
        rhs += acts.stack[rows, hi:] @ values[hi:]
    else:
        w = _binomial_table(problem.n, best[C])
        rhs = pts[C] + problem.costs.lambda_s * problem.n * best[C]
        if interval and isinstance(acts.stack, np.ndarray):
            P = np.einsum("cm,mcd->cd", w, acts.stack.reshape(-1, g, g)[:, lo:hi])
        else:
            counts = w.shape[1]
            cols = (C[:, None] + g * np.arange(counts)).ravel()
            rows = np.arange(C.size).repeat(counts)
            mix = sparse.csr_matrix((w.ravel(), (rows, cols)), shape=(C.size, acts.stack.shape[0]))
            P = mix @ acts.stack
    if sparse.issparse(P):
        P = P.toarray()
    rhs += P @ values[:P.shape[1]]
    values[C] = _solve_identity_minus(P[:, lo:hi] if interval else P[:, C], rhs)
    return values


def _policy_rounds(
    problem: Problem, pts: np.ndarray, acts: _ActionSet, stop: np.ndarray, best: np.ndarray,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, float | None]:
    """The rounds of ``value_iteration`` from the policy that stops on
    ``stop`` and plays ``best`` elsewhere, which is evaluated first.
    Returns J, the last decisions ``(stop, best)``, the change of J per
    round (0 in a last round that changes nothing) and that round's
    Bellman residual, or None if ``max_iters`` rounds end in a change."""
    stop_cost = problem.costs.lambda_f * (1.0 - pts)
    # The current policy's backup of its own J is J, so a node switches
    # only when the sweep beats J by more than round-off; near-ties keep
    # their decision, which is what stops the rounds from cycling.
    margin = TIE_BREAK * problem.costs.lambda_f
    values = _evaluate_policy(problem, pts, acts, stop, best)
    deltas = []
    for _ in range(max_iters):
        maps = _sweep(values, problem, pts, acts)
        switch = maps.new_values < values - margin
        if not switch.any():
            deltas.append(0.0)
            return values, stop, best, deltas, float(np.max(np.abs(maps.new_values - values)))
        stop = np.where(switch, stop_cost <= maps.continue_values, stop)
        best = np.where(switch, maps.best_action, best)
        new_values = _evaluate_policy(problem, pts, acts, stop, best)
        deltas.append(float(np.max(np.abs(new_values - values))))
        values = new_values
    return values, stop, best, deltas, None


def value_iteration(
    problem: Problem,
    strategy: str,
    grid=None,
    tolerance: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    *,
    q: float | None = None,
    fixed_m: int | None = None,
    q_grid_size: int = DEFAULT_Q_GRID_SIZE,
    operator: ExpectationOperator | None = None,
    method: str | None = None,
) -> tuple[ValueFunction, SolveReport]:
    """Solve the stationary Bellman equation on a belief grid exactly.

    Policy iteration (Howard 1960; Puterman 1994, ch. 6-7): each round
    one Bellman sweep picks the stop set and the argmin actions for the
    current J, then J is replaced by the exact cost of that policy (one
    linear solve on the continue set).  It stops when the stop set and
    the continue-set actions repeat; iterates decrease monotonically to
    the fixed point.  A node keeps its decision unless switching lowers
    its backup by more than ``TIE_BREAK * lambda_f``.

    The fine rounds start from the decisions of the nearest node of
    ``operator.coarse``, solved the same way from stopping everywhere in
    at most ``max_iters`` rounds and never raising.  Its nodes are fine
    nodes, so its stack is exactly the coarse grid's operator (see the
    module docstring); from any proper start the rounds reach the same
    fixed point.

    Args:
        problem: The instance to solve.
        strategy: One of control_m, control_q, open_loop, fixed_m.
        grid: BeliefGrid, point count, or None for the 1001-point default.
        tolerance: Largest accepted Bellman residual ``||TJ - J||_inf`` of
            the result (default ``1e-6 * lambda_f``).
        max_iters: Policy-improvement round budget of each level.
        q: Wake probability (open_loop only).
        fixed_m: Constant awake count (fixed_m only).
        q_grid_size: Size of the uniform control_q search grid on [0, 1].
        operator: Prebuilt expectation maps to reuse across solves; its
            coarse level is built on first use and kept with it.
        method: Expectation construction when building the operator here.

    Returns:
        The converged ValueFunction and a SolveReport.

    Raises:
        ConvergenceError: If the policy still changes after max_iters
            fine rounds (carrying the last change of J), or the result's
            residual exceeds tolerance (carrying the residual).
    """
    grid = _resolve_grid(grid)
    operator = _resolve_operator(problem, grid, operator, method)
    if tolerance is None:
        tolerance = TOLERANCE_SCALE * problem.costs.lambda_f
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    acts = _action_set(problem, operator, strategy, q, fixed_m, q_grid_size)
    start = time.perf_counter()
    pts = grid.points
    stop = np.ones(grid.size, dtype=bool)
    best = np.zeros(grid.size)
    coarse_deltas = []
    coarse = operator.coarse
    if coarse is not None:
        cpts = coarse.grid.points
        coarse_acts = _action_set(problem, coarse, strategy, q, fixed_m, q_grid_size)
        _, stop, best, coarse_deltas, _ = _policy_rounds(
            problem, cpts, coarse_acts, np.ones(cpts.size, dtype=bool), np.zeros(cpts.size),
            max_iters,
        )
        # Nearest coarse node; a fine node midway takes the lower one.
        hi = np.searchsorted(cpts, pts).clip(1, cpts.size - 1)
        near = hi - (pts - cpts[hi - 1] <= cpts[hi] - pts)
        stop, best = stop[near], best[near]
    values, _, _, deltas, residual = _policy_rounds(problem, pts, acts, stop, best, max_iters)
    if residual is None or residual > tolerance:
        what = "last sup-norm delta" if residual is None else "Bellman residual"
        last = deltas[-1] if residual is None else residual
        raise ConvergenceError(
            f"value iteration did not reach tolerance {tolerance:g} after "
            f"{len(deltas)} rounds ({what} {last:g})",
            iterations=len(deltas),
            last_delta=last,
        )
    report = SolveReport(
        strategy=strategy,
        iterations=len(deltas),
        wall_seconds=time.perf_counter() - start,
        grid_size=grid.size,
        tolerance=tolerance,
        bellman_residual=residual,
        coarse_iterations=len(coarse_deltas),
        sup_norm_deltas=tuple(deltas),
    )
    return ValueFunction(grid, values), report


def solve_finite_horizon(
    problem: Problem,
    sweeps: int,
    strategy: str = "control_m",
    grid=None,
    *,
    q: float | None = None,
    fixed_m: int | None = None,
    q_grid_size: int = DEFAULT_Q_GRID_SIZE,
    operator: ExpectationOperator | None = None,
    method: str | None = None,
) -> ValueFunction:
    """Exactly ``sweeps`` Bellman applications to the stopping cost.

    The result is the optimal cost when the scheduler must declare within
    ``sweeps`` slots.  Zero sweeps returns the stopping cost itself.
    """
    if sweeps < 0:
        raise ValueError(f"sweeps must be >= 0, got {sweeps!r}")
    grid = _resolve_grid(grid)
    operator = _resolve_operator(problem, grid, operator, method)
    acts = _action_set(problem, operator, strategy, q, fixed_m, q_grid_size)
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
    q_grid_size: int = DEFAULT_Q_GRID_SIZE,
    operator: ExpectationOperator | None = None,
) -> BellmanMaps:
    """One sweep over the whole grid, exposing the per-point decisions.

    Policy extraction applies this to a converged value function to read
    off the continuation values and minimizing actions.  It sweeps the
    same action set as the solves, so a single action builds its fold.
    """
    operator = _resolve_operator(problem, J.grid, operator)
    acts = _action_set(problem, operator, strategy, q, fixed_m, q_grid_size)
    return _sweep(J.values, problem, J.grid.points, acts)
