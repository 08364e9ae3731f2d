import functools
import math
import os
import threading
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, sparse, stats
from scipy.special import expit, ndtr

from quickwake import (
    BeliefGrid,
    ChangePrior,
    ConvergenceError,
    Costs,
    DiscreteInstance,
    ExpectationOperator,
    Problem,
    SensorModel,
    LikelihoodAtoms,
    ValueFunction,
    bellman_maps,
    build_expectation_operator,
    extract_policy,
    likelihood_atoms,
    operator_from_atoms,
    solve_finite_horizon,
    sweep_open_loop_q,
    value_iteration,
)


from quickwake import dp
from quickwake.dp import (
    EPS,
    _action_set,
    _binomial_table,
    _evaluate_policy,
    _policy_rounds,
    _solve_identity_minus,
    monte_carlo_atoms,
)
from tests.conftest import make_benchmark_problem

from bayes_reference import logit, prior_mass, sigmoid


def gauss_legendre_atoms(model, n, num_nodes=129, span=8.0):
    """Reference atoms: Gauss-Legendre nodes for each regime's sum statistic.

    With equal variances the m-sensor slot acts through the sample sum,
    whose law in each regime is ``N(m * mu, m * sigma^2)``; each regime is
    integrated on its mean +/- ``span`` standard deviations.
    """
    x, w = np.polynomial.legendre.leggauss(num_nodes)
    var = model.sigma0**2
    a = (model.mu1 - model.mu0) / var
    llr0, w0, llr1, w1 = [np.empty(0)], [np.empty(0)], [np.empty(0)], [np.empty(0)]
    for m in range(1, n + 1):
        b = -m * (model.mu1**2 - model.mu0**2) / (2.0 * var)
        sd = math.sqrt(m * var)
        for mu, llrs, wts in ((model.mu0, llr0, w0), (model.mu1, llr1, w1)):
            s = m * mu + span * sd * x
            llrs.append(a * s + b)
            wts.append(w * span * sd * stats.norm.pdf(s, m * mu, sd))
    return LikelihoodAtoms(n=n, llr0=tuple(llr0), w0=tuple(w0), llr1=tuple(llr1), w1=tuple(w1))


def _stable_ndtr_diff(z_lo, z_hi):
    """Phi(z_hi) - Phi(z_lo) without cancellation in either tail."""
    with np.errstate(invalid="ignore"):
        use_upper = (z_lo + z_hi) > 0
    upper = ndtr(-z_lo) - ndtr(-z_hi)
    lower = ndtr(z_hi) - ndtr(z_lo)
    return np.clip(np.where(use_upper, upper, lower), 0.0, None)


def exact_row(model, pts, t, m):
    """Reference row of the closed-form map for awake count m, one at a time.

    Each segment between the preimages of adjacent grid nodes takes four
    normal CDFs per regime, independently of its neighbours.
    """
    row = np.zeros(pts.size)
    if t >= 1.0 - EPS:
        row[-1] = 1.0
        return row
    var = model.sigma0**2
    a = (model.mu1 - model.mu0) / var
    b = -m * (model.mu1**2 - model.mu0**2) / (2.0 * var)
    cuts = (np.array([logit(x) for x in pts[1:-1]]) - logit(t) - b) / a
    ends = [-np.inf, np.inf] if a > 0 else [np.inf, -np.inf]
    bounds = np.concatenate(([ends[0]], cuts, [ends[1]]))
    lo = np.minimum(bounds[:-1], bounds[1:])
    hi = np.maximum(bounds[:-1], bounds[1:])
    sd = math.sqrt(m * var)
    d_pre = _stable_ndtr_diff((lo - m * model.mu0) / sd, (hi - m * model.mu0) / sd)
    d_post = _stable_ndtr_diff((lo - m * model.mu1) / sd, (hi - m * model.mu1) / sd)
    mass = t * d_post + (1.0 - t) * d_pre
    upper = (t * d_post - pts[:-1] * mass) / np.diff(pts)
    row[:-1] += mass - upper
    row[1:] += upper
    return row


def _exact_case(name):
    """A problem and grid that reach one branch of the closed-form build."""
    if name == "reference":
        return make_benchmark_problem(), BeliefGrid.uniform(201)
    if name == "falling_mean":  # mu1 < mu0: the LLR slope a is negative
        prob = Problem(SensorModel(0.5, 2.0, -1.0, 2.0), ChangePrior(0.0, 0.05), Costs(0.5, 100.0), 4)
        return prob, BeliefGrid.uniform(301)
    if name == "nonuniform":
        inner = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 199))
        return make_benchmark_problem(), BeliefGrid(np.concatenate(([0.0], inner, [1.0])))
    if name == "one_sided":  # rows whose boundaries' z never change sign
        prob = Problem(SensorModel(0.0, 1.0, 3.0, 1.0), ChangePrior(0.0, 1e-9), Costs(0.5, 100.0), 2)
        return prob, BeliefGrid.uniform(51)
    # One sensor, p = 0.5: an absorbing row and a grid of 51, not a block multiple.
    prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.0), ChangePrior(0.0, 0.5), Costs(0.5, 100.0), 1)
    return prob, BeliefGrid.uniform(51)


def coo_atom_stack(atoms, grid, p):
    """Reference atom map: two COO entries per (row, atom), summed by scipy.

    Each observation block m = 1..n is the CSR sum of the post- and
    pre-change regimes' interpolation matrices, built over all rows at
    once.
    """
    pts = grid.points
    g = grid.size
    t = pts + (1.0 - pts) * p
    tc = np.clip(t, EPS, 1.0 - EPS)
    l0 = np.log(tc) - np.log1p(-tc)

    def interp(query, weights):
        idx = np.clip(np.searchsorted(pts, query, side="right") - 1, 0, g - 2)
        frac = np.clip((query - pts[idx]) / (pts[idx + 1] - pts[idx]), 0.0, 1.0)
        rows = np.repeat(np.arange(query.shape[0]), 2 * query.shape[1])
        cols = np.stack([idx, idx + 1], axis=-1).ravel()
        data = np.stack([weights * (1.0 - frac), weights * frac], axis=-1).ravel()
        return sparse.csr_matrix((data, (rows, cols)), shape=(query.shape[0], g))

    blocks = []
    for m in range(1, atoms.n + 1):
        blocks.append(
            interp(expit(l0[:, None] + atoms.llr1[m]), t[:, None] * atoms.w1[m])
            + interp(expit(l0[:, None] + atoms.llr0[m]), (1.0 - t[:, None]) * atoms.w0[m])
        )
    return sparse.vstack(blocks, format="csr")


def _atom_case(name):
    """Atoms, grid, p and the storage the build should pick for them."""
    if name == "monte_carlo":
        model = SensorModel(0.0, 1.0, 1.0, 1.2)
        return monte_carlo_atoms(model, 10), BeliefGrid.uniform(201), 0.01, np.ndarray
    if name == "nonuniform":
        inner = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 199))
        grid = BeliefGrid(np.concatenate(([0.0], inner, [1.0])))
        model = make_benchmark_problem().model
        return gauss_legendre_atoms(model, 10), grid, 0.01, np.ndarray
    if name == "oracle":
        inst = DiscreteInstance(
            horizon=2, n=2, g0=(0.7, 0.3), g1=(0.4, 0.6),
            rho=0.1, p=0.2, lambda_s=0.2, lambda_f=10.0,
        )
        return likelihood_atoms(inst), BeliefGrid.uniform(201), inst.p, sparse.csr_matrix
    if name == "segment_edges":
        # With p = 0 every row's prior is a node, so a ratio that is a
        # difference of node logits puts the posterior on a node: exactly
        # for 30 of a regime's 110 (row, atom) pairs, among them llr = 0
        # at t = 0.5, where l0 = 0.  Repeated ratios, shared by both
        # regimes and given out of order, leave empty segments between
        # equal ratios.  Ten atoms per regime on 11 nodes is dense.
        grid = BeliefGrid.uniform(11)
        nodes = np.log(grid.points[1:-1]) - np.log1p(-grid.points[1:-1])
        llr = np.concatenate((nodes[[1, 6, 6, 7]] - nodes[3], [0.0, 0.0, 0.0, -2.0, 1.5, 1.5]))
        assert expit(llr[4]) == grid.points[5]  # the row t = 0.5, where l0 = 0
        rng = np.random.default_rng(5)
        w0, w1 = rng.uniform(0.5, 1.5, (2, llr.size))
        perm0, perm1 = rng.permutation(llr.size), rng.permutation(llr.size)
        empty = np.empty(0)
        atoms = LikelihoodAtoms(
            n=1, llr0=(empty, llr[perm0]), w0=(empty, w0[perm0] / w0.sum()),
            llr1=(empty, llr[perm1]), w1=(empty, w1[perm1] / w1.sum()),
        )
        return atoms, grid, 0.0, np.ndarray
    # Ratios of e^{+-800} put posteriors exactly on 0 and 1: the right
    # end hits the idx clip, and p = 0.5 drives the last rows to t = 1.
    # Eight atoms per regime sit on the storage rule's edge: dense at
    # grid 16, CSR at 17.
    llr = np.linspace(-800.0, 800.0, 8)
    w = np.full(8, 1.0 / 8)
    atoms = LikelihoodAtoms(
        n=2, llr0=(np.empty(0), llr, llr[:4]), w0=(np.empty(0), w, 2 * w[:4]),
        llr1=(np.empty(0), llr[::-1], llr[4:]), w1=(np.empty(0), w, 2 * w[4:]),
    )
    size = 16 if name == "end_cells_dense" else 17
    storage = np.ndarray if name == "end_cells_dense" else sparse.csr_matrix
    return atoms, BeliefGrid.uniform(size), 0.5, storage


# Warnings are errors: the clipped logits and the end cells must build
# without a divide or an invalid value on either storage path.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case",
    ["monte_carlo", "nonuniform", "oracle", "end_cells_dense", "end_cells_sparse", "segment_edges"],
)
def test_atom_operator_matches_coo_reference(case):
    atoms, grid, p, storage = _atom_case(case)
    op = operator_from_atoms(atoms, grid, p)
    assert isinstance(op.stack, storage)
    built = op.stack.toarray() if sparse.issparse(op.stack) else op.stack
    assert np.abs(built - coo_atom_stack(atoms, grid, p).toarray()).max() < 1e-12
    assert np.abs(op.apply_all(np.ones(grid.size)) - 1.0).max() < 1e-12


def test_likelihood_atoms_check_their_arrays():
    """For m = 1..n each regime's nodes and weights are real 1-D arrays of
    one length, finite, with no negative weight; anything else is refused
    before a build could turn it into rows that do not sum to 1 or an
    IndexError.  The Monte Carlo and oracle atoms pass."""
    empty = np.empty(0)
    llr, w = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    shape = "real 1-D arrays of one length"
    bad = (
        (llr, np.array([1.0]), shape),
        (llr[:, None], w[:, None], shape),
        (list(llr), w, shape),
        (llr.astype(complex), w, shape),
        (llr, np.array([0.5, np.nan]), "finite"),
        (np.array([-np.inf, 1.0]), w, "finite"),
        (llr, np.array([1.5, -0.5]), "no negative weight"),
    )
    def atoms(llr0, w0, llr1, w1):
        return LikelihoodAtoms(
            n=1, llr0=(empty, llr0), w0=(empty, w0), llr1=(empty, llr1), w1=(empty, w1)
        )

    for x, y, fragment in bad:
        for laws in ((x, y, llr, w), (llr, w, x, y)):
            with pytest.raises(ValueError, match=fragment):
                atoms(*laws)
    atoms(llr, w, llr, w)
    for case in ("monte_carlo", "oracle"):
        assert isinstance(_atom_case(case)[0], LikelihoodAtoms)


def test_monte_carlo_operator_rows_match_direct_sum_at_grid_1001(grid1001):
    """Production-size dense atom build against a per-row interpolation sum."""
    atoms = monte_carlo_atoms(SensorModel(0.0, 1.0, 1.0, 1.2), 10)
    p = 0.01
    op = operator_from_atoms(atoms, grid1001, p)
    assert isinstance(op.stack, np.ndarray)
    assert np.abs(op.apply_all(np.ones(grid1001.size)) - 1.0).max() < 1e-12
    pts = grid1001.points
    g = grid1001.size
    for i in (0, 1, 500, 999, 1000):
        t = pts[i] + (1.0 - pts[i]) * p
        l0 = logit(t)
        for m in (1, 5, 10):
            direct = np.zeros(g)
            for weight, llrs, wts in (
                (t, atoms.llr1[m], atoms.w1[m]),
                (1.0 - t, atoms.llr0[m], atoms.w0[m]),
            ):
                post = expit(l0 + llrs)
                idx = np.clip(np.searchsorted(pts, post, side="right") - 1, 0, g - 2)
                frac = np.clip((post - pts[idx]) / (pts[idx + 1] - pts[idx]), 0.0, 1.0)
                np.add.at(direct, idx, weight * wts * (1.0 - frac))
                np.add.at(direct, idx + 1, weight * wts * frac)
            assert np.abs(op.stack[(m - 1) * g + i] - direct).max() < 1e-12


def test_binomial_weights_match_scipy():
    for n, q in [(10, 0.3), (4, 0.0), (7, 1.0), (3, 0.999)]:
        np.testing.assert_allclose(
            _binomial_table(n, np.array([q]))[0], stats.binom.pmf(np.arange(n + 1), n, q),
            atol=1e-14,
        )


def test_belief_grid_validation():
    with pytest.raises(ValueError, match="span"):
        BeliefGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        BeliefGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    for size in (1, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="grid size must be >= 2 and an integer"):
            BeliefGrid.uniform(size)
    grid = BeliefGrid.uniform(11)
    assert grid.size == 11


def test_value_function_requires_free_stop_at_one():
    grid = BeliefGrid.uniform(5)
    with pytest.raises(ValueError, match="belief 1"):
        ValueFunction(grid, np.array([4.0, 3.0, 2.0, 1.0, 0.5]))
    J = ValueFunction(grid, np.array([4.0, 3.0, 2.0, 1.0, 0.0]))
    assert J(0.125) == pytest.approx(3.5)


# --- expectation operator backends -----------------------------------------


def _predicted(op):
    """The belief one slot ahead of each grid node, before any reading."""
    return op.grid.points + (1.0 - op.grid.points) * op.p


def _sleep_map(op):
    """The dense g x g map with every sensor asleep: interpolation at the
    predicted belief."""
    return dp._interp_matrix(op.grid, _predicted(op)).toarray()


def _all_blocks(op):
    """Every awake count's g x g map, 0..n, as one dense array: the sleep
    map, then the stack's observation blocks."""
    g = op.grid.size
    stack = op.stack.toarray() if sparse.issparse(op.stack) else op.stack
    return np.concatenate((_sleep_map(op)[None], stack.reshape(op.n, g, g)))


def test_exact_operator_mass_and_martingale(problem, operator):
    """Row sums are 1 and E[next belief] is the predicted belief, per m."""
    ones = np.ones(operator.grid.size)
    mass = operator.apply_all(ones)
    assert np.abs(mass - 1.0).max() < 1e-12
    drift = operator.apply_all(operator.grid.points) - _predicted(operator)[None, :]
    assert np.abs(drift).max() < 1e-12


# Warnings are errors: a logit of t = 1 or an inf - inf at the segment
# ends must not leak out of the build.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case", ["reference", "falling_mean", "nonuniform", "absorbing", "one_sided"]
)
def test_exact_operator_matches_row_reference(case):
    prob, grid = _exact_case(case)
    op = build_expectation_operator(prob, grid, "exact")
    g = grid.size
    for m in range(1, prob.n + 1):
        ref = np.array([exact_row(prob.model, grid.points, t, m) for t in _predicted(op)])
        assert np.abs(op.stack[(m - 1) * g:m * g] - ref).max() < 1e-11
        if case == "one_sided":
            # Both edges occur at each count: a live row whose pre-change z
            # is > 0 at every interior boundary (its tails switch sides at
            # the first node), and one whose post-change z is <= 0 at every
            # one (at the last).
            model, t = prob.model, _predicted(op)
            a, b = dp._llr_coefficients(model, m)
            logits = np.array([[logit(x) for x in grid.points[1:-1]]])
            cut = (logits - np.array([[logit(x)] for x in t]) - b) / a
            sd = math.sqrt(m) * model.sigma0
            live = t < 1.0 - EPS
            assert np.any(((cut - m * model.mu0) / sd > 0).all(axis=1) & live)
            assert np.any(((cut - m * model.mu1) / sd <= 0).all(axis=1) & live)
    assert np.abs(op.apply_all(np.ones(g)) - 1.0).max() < 1e-12
    drift = op.apply_all(grid.points) - _predicted(op)[None, :]
    assert np.abs(drift).max() < 1e-12


def _build_case(name):
    """A stack built by one of the two pooled builds."""
    if name == "atoms":
        atoms, grid, p, _ = _atom_case("monte_carlo")
        return operator_from_atoms(atoms, grid, p).stack
    if name == "n3":
        prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.0), ChangePrior(0.0, 0.01), Costs(0.5, 100.0), 3)
        return build_expectation_operator(prob, BeliefGrid.uniform(201), "exact").stack
    prob, grid = _exact_case(name)
    return build_expectation_operator(prob, grid, "exact").stack


@pytest.mark.parametrize(
    "case", ["reference", "falling_mean", "absorbing", "n3", "atoms", "one_sided"]
)
def test_stack_does_not_depend_on_worker_count(case, monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert dp._build_workers(1) == 1 and dp._build_workers(1 << 20) == cpus
    stacks = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(dp, "_build_workers", lambda n, w=workers: min(n, w))
        stacks.append(_build_case(case))
    assert isinstance(stacks[0], np.ndarray)
    assert all(np.array_equal(stacks[0], other) for other in stacks[1:])


def test_one_worker_build_starts_no_thread(monkeypatch):
    """An n = 1 build has one worker, so its pool is given no task and
    starts no thread."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    prob, grid = _exact_case("absorbing")
    assert prob.n == 1 and dp._build_workers(prob.n) == 1
    assert isinstance(build_expectation_operator(prob, grid, "exact").stack, np.ndarray)
    assert started == []


# Beyond the stack, a build holds its workers' scratch (one serial block
# of rows by the grid or atom count) and a few arrays per count.  Measured
# with tracemalloc at grid 1001 on two workers: 1.5 MB for the exact build
# and 5.3 MB for the Monte Carlo atoms.  The bounds leave headroom and stay
# under the 8.0 MB of one g x g block, which any dense g x g temporary
# would add.
@pytest.mark.parametrize("build,bound_mb", [("exact", 3.0), ("atoms", 6.5)], ids=["exact", "atoms"])
def test_build_holds_less_than_a_block_beyond_the_stack(build, bound_mb, problem, grid1001, monkeypatch):
    monkeypatch.setattr(dp, "_build_workers", lambda n: min(n, 2))
    if build == "exact":
        make = functools.partial(build_expectation_operator, problem, grid1001, "exact")
    else:
        atoms = monte_carlo_atoms(SensorModel(0.0, 1.0, 1.0, 1.2), problem.n)
        make = functools.partial(operator_from_atoms, atoms, grid1001, problem.prior.p)
    tracemalloc.start()
    try:
        op = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(op.stack, np.ndarray)
    assert (peak - op.stack.nbytes) / 1e6 < bound_mb


def test_stack_holds_only_the_observation_blocks(operator, operator201, mc_case201):
    """Both dense builds store n blocks of g x g and no sleep block:
    80,160,080 B at grid 1001 with n = 10."""
    for op in (operator, operator201, mc_case201[1]):
        n, g = op.n, op.grid.size
        assert isinstance(op.stack, np.ndarray)
        assert op.stack.shape == (n * g, g)
        assert op.stack.nbytes == n * g * g * 8
    assert operator.stack.nbytes == 80_160_080


@pytest.mark.parametrize("case", ["exact", "monte_carlo", "csr"])
def test_shift_and_fold_match_a_sleep_block(case, operator201, mc_case201, oracle_case201):
    """The sleep action reads values at the predicted belief with no
    matrix: ``apply_all``'s row 0 is the interpolation matrix at the
    predicted belief times the values, and a fold of a dense stack is the
    contraction of every count's block, that matrix first."""
    op = {"exact": operator201, "monte_carlo": mc_case201[1], "csr": oracle_case201[2]}[case]
    rng = np.random.default_rng(4)
    values = rng.random(op.grid.size)
    sleep = dp._interp_matrix(op.grid, _predicted(op))
    assert np.abs(op.apply_all(values)[0] - sleep @ values).max() < 1e-15
    if case == "csr":
        return
    blocks = _all_blocks(op)
    n = op.n
    for weights in (np.eye(n + 1)[0], np.eye(n + 1)[1], _binomial_table(n, np.array([0.3])),
                    rng.dirichlet(np.ones(n + 1))):
        ref = np.tensordot(np.ravel(weights), blocks, axes=1)
        assert np.abs(op.fold(weights) - ref).max() < 1e-14


def test_operator_refuses_a_stack_of_another_shape(operator201, oracle_case201):
    """A stack with a sleep block, ((n + 1) * g, g), would be read one
    block off, so it is refused, dense or CSR."""
    for op in (operator201, oracle_case201[2]):
        sleep = dp._interp_matrix(op.grid, _predicted(op))
        if sparse.issparse(op.stack):
            stack = sparse.vstack((sleep, op.stack), format="csr")
        else:
            stack = np.vstack((sleep.toarray(), op.stack))
        assert stack.shape == ((op.n + 1) * op.grid.size, op.grid.size)
        with pytest.raises(ValueError, match="observation blocks"):
            ExpectationOperator(op.grid, op.p, op.n, stack)
        with pytest.raises(ValueError, match="observation blocks"):
            ExpectationOperator(op.grid, op.p, op.n + 1, op.stack)
        assert ExpectationOperator(op.grid, op.p, op.n, op.stack).stack is op.stack


def _one_draw_atoms(model, n):
    """Monte Carlo atoms from one ``sample`` call per (m, regime), the
    unblocked draw order the blocked build must reproduce."""
    rng = np.random.default_rng(0)
    atoms = {"pre": ([np.empty(0)], [np.empty(0)]), "post": ([np.empty(0)], [np.empty(0)])}
    for m in range(1, n + 1):
        for regime in ("pre", "post"):
            x = np.asarray(model.sample(regime, dp.MC_DRAWS * m, rng)).reshape(dp.MC_DRAWS, m)
            totals = np.sum(model.log_likelihood_ratio(x), axis=1)
            counts, edges = np.histogram(totals, bins=dp.MC_BINS)
            keep = counts > 0
            atoms[regime][0].append((0.5 * (edges[:-1] + edges[1:]))[keep])
            atoms[regime][1].append(counts[keep] / float(dp.MC_DRAWS))
    return atoms["pre"] + atoms["post"]


@pytest.mark.parametrize("draws", ["default", "whole_blocks"])
@pytest.mark.parametrize(
    "model", [SensorModel(0.0, 1.0, 1.0, 1.2), SensorModel(0.0, 1.0, -0.5, 0.7)]
)
def test_monte_carlo_atoms_match_one_draw_per_count_and_regime(model, draws, monkeypatch):
    """Blocked draws ahead on the pool thread give the atoms of one draw
    per (m, regime) bit for bit."""
    if draws == "default":
        assert dp.MC_DRAWS % dp.MC_ROWS != 0  # the last block is partial
    else:
        monkeypatch.setattr(dp, "MC_DRAWS", 3 * dp.MC_ROWS)
    n = 3
    expected = _one_draw_atoms(model, n)
    atoms = monte_carlo_atoms(model, n)
    got = (atoms.llr0, atoms.w0, atoms.llr1, atoms.w1)
    for arrays, reference in zip(got, expected):
        assert len(arrays) == n + 1
        assert all(np.array_equal(a, b) for a, b in zip(arrays, reference))


def _failing_model(method):
    """A ``sigma1=1.2`` model whose ``method`` raises on its 5th call,
    with the thread of every call of it."""
    base = SensorModel(0.0, 1.0, 1.0, 1.2)
    calls = []

    def failing(*args):
        calls.append(threading.current_thread())
        if len(calls) == 5:
            raise RuntimeError("block failed")
        return getattr(base, method)(*args)

    model = types.SimpleNamespace(
        sample=base.sample, log_likelihood_ratio=base.log_likelihood_ratio
    )
    setattr(model, method, failing)
    return model, calls


# The exact build's failing block runs on the caller or a pool thread; the
# Monte Carlo draws run on the pool thread and the binning on the caller.
@pytest.mark.parametrize("thread", ["caller", "pool", "monte_carlo_caller", "monte_carlo_pool"])
def test_build_error_reaches_the_caller_and_leaves_no_thread(thread, monkeypatch):
    raise_in_caller = thread.endswith("caller")
    monkeypatch.setattr(dp, "_build_workers", lambda n: min(n, 2))
    if thread.startswith("monte_carlo"):
        model, calls = _failing_model("log_likelihood_ratio" if raise_in_caller else "sample")
        build = functools.partial(monte_carlo_atoms, model, 2)
    else:
        prob, grid = _exact_case("falling_mean")
        real = dp._segment_shares

        def failing(out, *args):
            if (threading.current_thread() is threading.main_thread()) == raise_in_caller:
                raise RuntimeError("block failed")
            real(out, *args)

        monkeypatch.setattr(dp, "_segment_shares", failing)
        build = functools.partial(build_expectation_operator, prob, grid, "exact")
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        build()
    assert threading.active_count() == before
    if thread.startswith("monte_carlo"):
        assert (calls[4] is threading.main_thread()) == raise_in_caller


def test_quadrature_operator_identities(problem, grid201):
    atoms = gauss_legendre_atoms(problem.model, problem.n)
    op = operator_from_atoms(atoms, grid201, problem.prior.p)
    assert np.abs(op.apply_all(np.ones(grid201.size)) - 1.0).max() < 1e-12
    drift = op.apply_all(grid201.points) - _predicted(op)[None, :]
    assert np.abs(drift).max() < 1e-12


def test_monte_carlo_operator_close_to_exact(problem, grid201, operator201):
    # Histogram atoms from 1e5 draws: ~0.14 worst-case on a scale-100
    # function at this grid (measured), so 0.5 is a real failure bound.
    op_mc = build_expectation_operator(problem, grid201, "monte_carlo")
    smooth = problem.costs.lambda_f * (1.0 - grid201.points) ** 2
    diff = np.abs(op_mc.apply_all(smooth) - operator201.apply_all(smooth)).max()
    assert diff < 0.5
    # Mass is exact by construction; the martingale only holds to
    # sampling accuracy.
    assert np.abs(op_mc.apply_all(np.ones(grid201.size)) - 1.0).max() < 1e-12
    drift = op_mc.apply_all(grid201.points) - _predicted(op_mc)[None, :]
    assert np.abs(drift).max() < 5e-3


def test_quadrature_close_to_exact_on_smooth_values(problem, grid201, operator201):
    atoms = gauss_legendre_atoms(problem.model, problem.n)
    op_q = operator_from_atoms(atoms, grid201, problem.prior.p)
    smooth = problem.costs.lambda_f * (1.0 - grid201.points) ** 2
    diff = np.abs(op_q.apply_all(smooth) - operator201.apply_all(smooth)).max()
    assert diff < 5e-4


def test_exact_point_against_adaptive_quadrature(problem, grid1001, operator):
    """Dual route: closed-form rows vs scipy adaptive integration.

    The test function is piecewise linear with knots on the grid, so the
    grid representation is the function itself and the only difference
    between the two routes is the integration method.
    """
    model = problem.model
    p = problem.prior.p
    knots_x = np.array([0.0, 0.3, 0.7, 1.0])
    knots_y = np.array([80.0, 50.0, 10.0, 0.0])
    values = np.interp(grid1001.points, knots_x, knots_y)

    def j_of_belief(b):
        return np.interp(b, knots_x, knots_y)

    B = operator.apply_all(values)
    for i in (0, 50, 420, 900, 997):
        pi = float(grid1001.points[i])
        for m in (1, 2, 7, 10):
            t = pi + (1.0 - pi) * p
            a, b_coef = 1.0, -m * 0.5  # sum-statistic LLR is a*s + b
            l0 = logit(t)
            cuts = sorted((logit(k) - l0 - b_coef) / a for k in (0.3, 0.7))
            total = 0.0
            for weight, mu in ((t, model.mu1), ((1.0 - t), model.mu0)):
                lo = m * mu - 14.0 * math.sqrt(m)
                hi = m * mu + 14.0 * math.sqrt(m)
                pts = [c for c in cuts if lo < c < hi]

                def integrand(s):
                    post = sigmoid(l0 + a * s + b_coef)
                    dens = math.exp(-0.5 * (s - m * mu) ** 2 / m) / math.sqrt(
                        2.0 * math.pi * m
                    )
                    return j_of_belief(post) * dens

                val, _ = integrate.quad(
                    integrand, lo, hi, points=pts, epsabs=1e-11, limit=200
                )
                total += weight * val
            assert B[m, i] == pytest.approx(total, abs=1e-7)


def test_operator_from_atoms_matches_direct_atom_sum(problem, grid201):
    """Each row of the atom-built map is the atom-weighted interpolation."""
    atoms = gauss_legendre_atoms(problem.model, problem.n)
    op = operator_from_atoms(atoms, grid201, problem.prior.p)
    pts = grid201.points
    smooth = 100.0 * (1.0 - pts) ** 2
    B = op.apply_all(smooth)
    for i in (0, 37, 100, 180, 200):
        t = pts[i] + (1.0 - pts[i]) * problem.prior.p
        assert B[0, i] == pytest.approx(np.interp(t, pts, smooth), abs=1e-10)
        for m in (1, 4, 10):
            direct = 0.0
            for weight, llrs, wts in (
                (t, atoms.llr1[m], atoms.w1[m]),
                (1.0 - t, atoms.llr0[m], atoms.w0[m]),
            ):
                post = expit(logit(t) + llrs)
                direct += weight * float(np.dot(wts, np.interp(post, pts, smooth)))
            assert B[m, i] == pytest.approx(direct, abs=1e-10)


def test_unequal_variance_requires_monte_carlo():
    prob = Problem(
        model=SensorModel(0.0, 1.0, 0.5, 2.0),
        prior=ChangePrior(0.0, 0.05),
        costs=Costs(0.1, 50.0),
        n=3,
    )
    grid = BeliefGrid.uniform(101)
    with pytest.raises(ValueError, match="sufficient statistic"):
        build_expectation_operator(prob, grid, "exact")
    op = build_expectation_operator(prob, grid)  # defaults to monte_carlo
    np.testing.assert_array_equal(
        op.stack, build_expectation_operator(prob, grid, "monte_carlo").stack
    )
    assert np.abs(op.apply_all(np.ones(101)) - 1.0).max() < 1e-12


def test_build_rejects_unknown_method(problem, grid201):
    with pytest.raises(ValueError, match="unknown expectation method"):
        build_expectation_operator(problem, grid201, "simpson")


# --- Bellman sweeps ----------------------------------------------------------


def test_bellman_control_m_matches_vectorized_maps(problem, solved_control_m, operator):
    """The control_m sweep against a by-hand backup from the grid maps."""
    J, _ = solved_control_m
    maps = bellman_maps(J, problem, "control_m", operator=operator)
    B = operator.apply_all(J.values)
    lam_s, lam_f = problem.costs.lambda_s, problem.costs.lambda_f
    for i in (3, 144, 500, 900):
        pi = float(J.grid.points[i])
        cont = [lam_s * m + B[m, i] for m in range(problem.n + 1)]
        best = int(np.argmin(cont))
        backup = min(lam_f * (1.0 - pi), pi + cont[best])
        assert maps.new_values[i] == pytest.approx(backup, abs=1e-10)
        assert maps.best_action[i] == best


def _grid_search_over_q(F):
    """control_q's former search: 101 uniform q, then 21 points between
    the neighbours of the best one, which wins only by ``TIE_BREAK``."""
    n = F.shape[0] - 1
    grid = np.linspace(0.0, 1.0, 101)
    table = _binomial_table(n, grid) @ F
    j = np.argmin(table, axis=0)
    cont, best = table.min(axis=0), grid[j]
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, grid.size - 1)]
    qs = lo + np.linspace(0.0, 1.0, 21)[:, None] * (hi - lo)
    fine = np.einsum("rgm,mg->rg", _binomial_table(n, qs), F)
    pick = np.argmin(fine, axis=0)
    cols = np.arange(F.shape[1])
    coarse = cont < fine[pick, cols] - dp.TIE_BREAK
    return np.where(coarse, best, qs[pick, cols]), np.where(coarse, cont, fine[pick, cols])


def _bernstein_from_power(power):
    """Bernstein coefficients of the polynomial ``sum_j power[j] q^j``."""
    n = len(power) - 1
    return np.array([
        sum(math.comb(k, j) / math.comb(n, j) * power[j] for j in range(k + 1))
        for k in range(n + 1)
    ])


def _sign_changes(F):
    d = np.diff(F)
    d = d[d != 0]
    return int(np.count_nonzero(d[1:] * d[:-1] < 0))


def test_control_q_takes_the_least_value_over_q(problem, grid201, operator201):
    """At the grid-201 fixed point the sweep's continuation cost is at or
    below a 10^4-point search over q at every node, and within 1e-9 of
    that search refined by 1001 points between the neighbours of its
    best q.  The 10^4 points alone are up to 2e-8 above the minimum: f''
    reaches about 70, and their spacing costs up to f'' h^2 / 8."""
    J, _ = value_iteration(problem, "control_q", grid201, operator=operator201)
    maps = bellman_maps(J, problem, "control_q", operator=operator201)
    cont = maps.continue_values - grid201.points
    F = problem.costs.lambda_s * np.arange(problem.n + 1)[:, None] + maps.expected_next
    qs = np.linspace(0.0, 1.0, 10_000)
    table = _binomial_table(problem.n, qs) @ F
    dense = table.min(axis=0)
    assert np.all(cont <= dense + 1e-12)
    j = np.argmin(table, axis=0)
    lo, hi = qs[np.maximum(j - 1, 0)], qs[np.minimum(j + 1, qs.size - 1)]
    fine = lo + np.linspace(0.0, 1.0, 1001)[:, None] * (hi - lo)
    refined = np.einsum("rgm,mg->rg", _binomial_table(problem.n, fine), F).min(axis=0)
    assert np.all(cont <= refined + 1e-12)
    assert np.max(refined - cont) <= 1e-9
    chosen = np.einsum("gm,mg->g", _binomial_table(problem.n, maps.best_action), F)
    np.testing.assert_allclose(chosen, cont, rtol=0, atol=1e-12)


def test_control_q_companion_branch_finds_the_global_minimum(monkeypatch):
    """f' = 3 (q - 0.2)(q - 0.7) is +, -, + on (0, 1): a maximum at 0.2
    and the global minimum, -0.0245, at 0.7, below f(0) = 0.  Times
    (1 - q) it also has a zero last coefficient, which the companion
    matrices must rotate away."""
    calls = []
    roots = dp._stationary_points
    monkeypatch.setattr(
        dp, "_stationary_points", lambda D: calls.append(D.shape[0]) or roots(D)
    )
    cubic = _bernstein_from_power([0.0, 0.42, -1.35, 1.0])
    quartic = _bernstein_from_power([0.0, 0.42, -1.77, 2.35, -1.0 + 0.25])
    # The quartic's f' = 3 (q - 0.2)(q - 0.7)(1 - q) + q^3: roots 0.2,
    # 0.7 and 1 move only slightly; read its minimum from a dense search.
    assert _sign_changes(cubic) == 2 and _sign_changes(quartic) >= 2
    q, f = dp._least_over_q(cubic[:, None])
    assert calls == [1]
    assert q[0] == pytest.approx(0.7, abs=1e-12)
    assert f[0] == pytest.approx(-0.0245, abs=1e-14)
    q, f = dp._least_over_q(quartic[:, None])
    qs = np.linspace(0.0, 1.0, 10_001)
    dense = _binomial_table(4, qs) @ quartic
    assert calls == [1, 1]
    assert f[0] <= dense.min() + 1e-15
    assert q[0] == pytest.approx(qs[np.argmin(dense)], abs=1e-4)


def test_control_q_interior_maximum_leaves_the_endpoints():
    """d from + to -: f rises, then falls, so an endpoint wins, the one
    with the lower cost and on a tie the smaller q.  The rule "q = 0
    whenever d_0 >= 0" would pick 0 for the first column."""
    F = np.stack(
        [_bernstein_from_power([0.0, 1.0, -1.5]), _bernstein_from_power([0.0, 1.0, -1.0])], axis=1
    )
    assert [_sign_changes(F[:, i]) for i in (0, 1)] == [1, 1] and np.diff(F, axis=0)[0].min() > 0
    q, f = dp._least_over_q(F)
    assert q.tolist() == [1.0, 0.0]
    assert f.tolist() == [F[-1, 0], 0.0]


def test_control_q_never_above_the_grid_search(problem, grid201, operator201, monkeypatch):
    """control_q's J is at or below the fixed point of the former
    101-point search with its refinement, at every node, and strictly
    below somewhere."""
    exact, _ = value_iteration(problem, "control_q", grid201, operator=operator201)
    monkeypatch.setattr(dp, "_least_over_q", _grid_search_over_q)
    searched, _ = value_iteration(problem, "control_q", grid201, operator=operator201)
    assert np.all(exact.values <= searched.values + 1e-12)
    assert np.max(searched.values - exact.values) > 1e-7


def test_control_q_single_change_root_is_the_stationary_point():
    """d from - to + brackets one root, the minimum: the safeguarded
    Newton root against the companion roots of the same rows, some with
    a zero where the signs change."""
    rng = np.random.default_rng(5)
    D = np.sort(rng.normal(size=(60, 10)), axis=1)
    D = D[(D[:, 0] < 0) & (D[:, -1] > 0)]
    crossing = np.count_nonzero(D < 0, axis=1)
    D[::7][np.arange(len(D[::7])), crossing[::7]] = 0.0
    roots = dp._valley_roots(D)
    f, slope = dp._bernstein(D, roots)
    assert np.all((roots > 0) & (roots < 1))
    np.testing.assert_allclose(f, 0.0, atol=1e-13)
    assert np.all(slope > 0)
    companion = dp._stationary_points(D)
    assert np.nanmin(np.abs(companion - roots[:, None]), axis=1).max() < 1e-10


def test_bellman_open_loop_is_control_q_at_fixed_q(problem, solved_open_loop, operator):
    """open_loop's one-row sweep continues at control_q's cost of that q:
    ``lambda_s n q + Binom(n, q) @ E[J(next) | m awake]``."""
    J, _ = solved_open_loop
    folded = bellman_maps(J, problem, "open_loop", q=0.03, operator=operator)
    n, B = problem.n, operator.apply_all(J.values)
    cost = problem.costs.lambda_s * n * 0.03 + _binomial_table(n, np.array([0.03]))[0] @ B
    np.testing.assert_allclose(folded.continue_values, J.grid.points + cost, rtol=0, atol=1e-12)


# --- value iteration --------------------------------------------------------


def test_value_iteration_report(problem, solved_control_m):
    J, report = solved_control_m
    assert report.strategy == "control_m"
    assert report.tolerance == pytest.approx(1e-6 * problem.costs.lambda_f)
    assert report.bellman_residual <= 1e-10
    assert report.iterations < 50
    # J is bracketed by 0 and the stopping cost, and stopping at 1 is free.
    stopping = problem.costs.lambda_f * (1.0 - J.grid.points)
    assert np.all(J.values >= -1e-12)
    assert np.all(J.values <= stopping + 1e-9)
    assert J.values[-1] == 0.0


def test_value_iteration_raises_on_budget(problem, grid201, operator201, monkeypatch):
    # The round cap and the residual check are module constants, read at
    # each solve.
    with monkeypatch.context() as m:
        m.setattr(dp, "MAX_ROUNDS", 3)
        with pytest.raises(ConvergenceError, match="round cap of 3") as err:
            value_iteration(problem, "control_m", grid201, operator=operator201)
    assert err.value.iterations == 3
    assert err.value.last_delta > 0
    # The residual check bounds the result's Bellman residual (about 1e-14 here).
    monkeypatch.setattr(dp, "TOLERANCE_SCALE", 1e-300)
    with pytest.raises(ConvergenceError, match="Bellman residual") as err:
        value_iteration(problem, "control_m", grid201, operator=operator201)
    assert err.value.last_delta > 1e-300 * problem.costs.lambda_f


def test_open_loop_q0_matches_deterministic_stopping_oracle(problem, grid1001, operator):
    """With q=0 the belief path is deterministic, so the optimal rule is
    'stop at slot k*' and its cost has a closed form to scan directly."""
    lam_f = problem.costs.lambda_f
    p = problem.prior.p
    best = math.inf
    for k in range(3001):
        false_alarm = lam_f * (1.0 - p) ** k
        delay = sum((k - j) * prior_mass(problem.prior, j) for j in range(1, k + 1))
        best = min(best, false_alarm + delay)
    J, _ = value_iteration(problem, "open_loop", grid1001, q=0.0, operator=operator)
    assert float(J(0.0)) == pytest.approx(best, abs=5e-3)


def test_open_loop_q1_stops_immediately(problem, grid1001, operator):
    # Full wake costs lambda_s*n = 5 per slot; the DP prefers declaring
    # at once, so J is the stopping cost and iteration settles instantly.
    J, report = value_iteration(problem, "open_loop", grid1001, q=1.0, operator=operator)
    np.testing.assert_allclose(J.values, 100.0 * (1.0 - grid1001.points), atol=1e-9)
    assert report.iterations == 1


def test_fixed_all_awake_degenerates_to_stopping(problem, grid1001, operator):
    J, _ = value_iteration(problem, "fixed_m", grid1001, fixed_m=10, operator=operator)
    np.testing.assert_allclose(J.values, 100.0 * (1.0 - grid1001.points), atol=1e-9)


def test_strategy_argument_validation(problem, operator201, monkeypatch):
    """A wrong strategy, a missing, out-of-range or bool q, a missing,
    out-of-range or non-integer fixed_m, or a negative, bool or
    non-integer count of sweeps raises before any sweep, fold or coarse
    level of the operator it is given."""
    def untouched(*args, **kw):
        raise AssertionError("operator read before the argument checks")

    monkeypatch.setattr(dp, "_sweep", untouched)
    monkeypatch.setattr(ExpectationOperator, "fold", untouched)
    monkeypatch.setattr(ExpectationOperator, "coarse", property(untouched))
    op = operator201
    grid = op.grid
    J = ValueFunction(grid, problem.costs.lambda_f * (1.0 - grid.points))
    bad = (
        ("optimal", {}, "strategy must be one of"),
        ("open_loop", {}, "open_loop needs a wake probability"),
        ("fixed_m", {}, "fixed_m needs an awake count"),
        ("fixed_m", {"fixed_m": problem.n + 1}, "fixed_m needs an awake count"),
        ("fixed_m", {"fixed_m": 1.5}, "fixed_m needs an awake count"),
        ("fixed_m", {"fixed_m": True}, "fixed_m needs an awake count"),
        ("fixed_m", {"fixed_m": np.float64(2.0)}, "fixed_m needs an awake count"),
        ("open_loop", {"q": True}, "open_loop needs a wake probability"),
        ("open_loop", {"q": np.True_}, "open_loop needs a wake probability"),
    )
    for strategy, kw, fragment in bad:
        calls = (
            lambda: value_iteration(problem, strategy, grid, operator=op, **kw),
            lambda: solve_finite_horizon(problem, 2, strategy, grid, operator=op, **kw),
            lambda: bellman_maps(J, problem, strategy, operator=op, **kw),
            lambda: extract_policy(J, problem, strategy, operator=op, **kw),
        )
        for call in calls:
            with pytest.raises(ValueError, match=fragment):
                call()
    for sweeps in (-1, True, 2.5):
        with pytest.raises(ValueError, match="sweeps must be >= 0 and an integer"):
            solve_finite_horizon(problem, sweeps, "control_m", grid, operator=op)


def test_finite_horizon_monotone_in_budget(problem, grid201, operator201):
    stopping = problem.costs.lambda_f * (1.0 - grid201.points)
    J0 = solve_finite_horizon(problem, 0, "control_m", grid201, operator=operator201)
    np.testing.assert_allclose(J0.values, stopping, atol=1e-12)
    prev = J0.values
    for sweeps in (1, 2, 5):
        J = solve_finite_horizon(problem, sweeps, "control_m", grid201, operator=operator201)
        assert np.all(J.values <= prev + 1e-10)
        prev = J.values


def test_finite_horizon_approaches_fixed_point(problem, grid201, operator201):
    # Contraction modulus is about 1 - p per sweep, so the deadline has
    # to be a multiple of 1/p before the finite-horizon cost closes in.
    Jinf, _ = value_iteration(problem, "control_m", grid201, operator=operator201)
    Jk = solve_finite_horizon(problem, 1500, "control_m", grid201, operator=operator201)
    assert np.abs(Jk.values - Jinf.values).max() < 0.05
    # Sweeps lower the iterate toward the exact fixed point from above.
    assert np.all(Jk.values >= Jinf.values - 1e-10)


def test_solve_identity_minus_restores_the_block_it_works_in():
    """Policy evaluation solves in a view of a single action's fold; the
    fold must come back bit for bit for the next round's sweep."""
    rng = np.random.default_rng(3)
    F = rng.random((9, 9)) / 9.0
    before = F.copy()
    rhs = rng.random(5)
    x = _solve_identity_minus(F[2:7, 2:7], rhs)
    np.testing.assert_allclose((np.eye(5) - before[2:7, 2:7]) @ x, rhs, rtol=0, atol=1e-13)
    assert np.array_equal(F, before)


@pytest.mark.parametrize(
    "strategy,kw",
    [("control_m", {}), ("control_q", {}), ("open_loop", {"q": 0.03}), ("fixed_m", {"fixed_m": 1})],
)
def test_value_iteration_is_the_exact_fixed_point(problem, grid201, operator201, strategy, kw):
    """The stationary solve equals the 3000-sweep limit, not a tolerance
    short of it, and its reported residual is round-off."""
    J, report = value_iteration(problem, strategy, grid201, operator=operator201, **kw)
    ref = solve_finite_horizon(problem, 3000, strategy, grid201, operator=operator201, **kw)
    np.testing.assert_allclose(J.values, ref.values, rtol=0, atol=1e-9)
    assert report.bellman_residual <= 1e-10
    maps = bellman_maps(J, problem, strategy, operator=operator201, **kw)
    assert np.max(np.abs(maps.new_values - J.values)) == pytest.approx(
        report.bellman_residual, abs=1e-12
    )


STRATEGY_KW = {
    "control_m": {},
    "control_q": {},
    "open_loop": {"q": 0.03},
    "fixed_m": {"fixed_m": 1},
}


def _strategy_action_set(problem, operator, strategy, kw):
    """The action set that every sweep of ``strategy`` reads."""
    return _action_set(problem, strategy, operator.grid, operator, kw.get("q"), kw.get("fixed_m"))


def _random_policy(problem, strategy, g, rng):
    """Random continue-set actions with each node's mixture over awake
    counts and its mean awake count."""
    n = problem.n
    if strategy == "control_m":
        best = rng.integers(0, n + 1, g).astype(float)
        return best, np.eye(n + 1)[best.astype(int)], best
    if strategy == "control_q":
        best = rng.random(g)
        return best, _binomial_table(n, best), n * best
    if strategy == "open_loop":
        best = np.full(g, 0.03)
        return best, _binomial_table(n, best), n * best
    best = np.full(g, 1.0)
    return best, np.eye(n + 1)[np.ones(g, dtype=int)], best


@pytest.mark.parametrize("strategy", list(STRATEGY_KW))
def test_policy_evaluation_matches_dense_reference(problem, grid201, operator201, strategy):
    """Policy evaluation against a solve of the policy's full g x g
    transition matrix, on a continue set with and without a hole: the cost
    J and its terms, the false-alarm probability, the delay and the
    sensor-slots.  The matrix mixes the stack's observation blocks by one
    batched matmul, as the evaluation does, then adds the dense sleep map,
    so the bound measures the continue-set solve.  The mixture's summation
    order alone moves control_q's terms here by up to 2.3e-12, which is
    how far either order lies from an extended-precision solve."""
    kw = STRATEGY_KW[strategy]
    pts = grid201.points
    g, n, lam_f = grid201.size, problem.n, problem.costs.lambda_f
    rng = np.random.default_rng(11)
    best, weights, awake = _random_policy(problem, strategy, g, rng)
    observe = np.ascontiguousarray(weights[:, 1:])[:, None, :]
    P = np.matmul(observe, operator201.stack.reshape(n, g, g).transpose(1, 0, 2))[:, 0]
    P += weights[:, :1] * _sleep_map(operator201)
    interval = pts >= 0.8
    holed = interval.copy()
    holed[50:55] = True
    acts = _strategy_action_set(problem, operator201, strategy, kw)
    held = [operator201.stack] + ([acts.fold] if acts.weights is not None else [])
    before = [a.copy() for a in held]
    for stop in (interval, holed):
        A = np.eye(g) - np.where(stop[:, None], 0.0, P)
        cost = pts + problem.costs.lambda_s * awake
        zero = np.zeros(g)
        rhs = np.where(stop, [lam_f * (1.0 - pts), 1.0 - pts, zero, zero], [cost, zero, pts, awake])
        ref = np.linalg.solve(A, rhs.T).T
        terms = _evaluate_policy(problem, pts, acts, stop, best)
        np.testing.assert_allclose(terms, ref, rtol=0, atol=1e-12)
        # The stack is read in place and a fold is worked in place: both
        # must come back unchanged.
        assert all(np.array_equal(a, b) for a, b in zip(held, before))


@pytest.mark.parametrize(
    "single,kw,control,action", [("open_loop", {"q": 0.03}, "control_q", 0.03),
                                 ("fixed_m", {"fixed_m": 1}, "control_m", 1.0)],
)
def test_policy_evaluation_takes_one_path_for_every_strategy(
    problem, grid201, operator201, single, kw, control, action
):
    """Off a threshold window every strategy's continue rows are one
    mixture: a single action and the control strategy playing that action
    at every node give the same terms bit for bit, on a continue set with
    a hole."""
    pts = grid201.points
    stop = pts >= 0.8
    stop[50:55] = True
    best = np.full(grid201.size, action)
    terms = [
        _evaluate_policy(problem, pts, _strategy_action_set(problem, operator201, s, k), stop, best)
        for s, k in ((single, kw), (control, {}))
    ]
    assert np.array_equal(*terms)


@pytest.mark.parametrize("strategy", ["open_loop", "fixed_m"])
def test_single_action_fold_matches_block_mixing(problem, grid201, operator201, strategy):
    """A single action's set is its fold, one contraction of the dense
    stack, which agrees with mixing the blocks."""
    kw = STRATEGY_KW[strategy]
    g, n = grid201.size, problem.n
    if strategy == "open_loop":
        weights = _binomial_table(n, np.array([kw["q"]]))[0]
    else:
        weights = np.eye(n + 1)[kw["fixed_m"]]
    blocks = _all_blocks(operator201)
    ref = sum(w * block for w, block in zip(weights, blocks))
    acts = _strategy_action_set(problem, operator201, strategy, kw)
    assert not acts.binomial and acts.actions.size == 1
    assert isinstance(acts.fold, np.ndarray)
    assert np.abs(acts.fold - ref).max() < 1e-14


@pytest.mark.parametrize("strategy,kw", [("open_loop", {"q": 0.5}), ("fixed_m", {"fixed_m": 3})])
def test_single_action_that_stops_everywhere_makes_no_fold(
    problem, grid201, operator201, strategy, kw, monkeypatch
):
    """A single action that stops at once is swept from the operator's
    image of 1 - pi: no contraction of the stack, and the stopping cost
    returned exactly, in one fine round after one coarse round."""
    folds = []
    fold = ExpectationOperator.fold
    monkeypatch.setattr(
        ExpectationOperator, "fold", lambda op, w: folds.append(op) or fold(op, w)
    )
    J, report = value_iteration(problem, strategy, grid201, operator=operator201, **kw)
    assert folds == []
    stop = problem.costs.lambda_f * (1.0 - grid201.points)
    assert np.array_equal(J.values, stop)
    assert np.array_equal(J.p_false_alarm, 1.0 - grid201.points)
    assert not J.mean_delay.any() and not J.mean_sensor_slots.any()
    assert (report.iterations, report.coarse_iterations) == (1, 1)
    assert report.bellman_residual == 0.0 and report.factorizations == 0
    # Any other cost does fold.
    bellman_maps(J, problem, strategy, operator=operator201, **kw)
    assert len(folds) == 1


@pytest.mark.parametrize("strategy", ["open_loop", "fixed_m"])
def test_threshold_window_matches_the_direct_solve(problem, grid201, operator201, strategy):
    """One factorization evaluates every threshold k of its window
    [K - 2 * COARSE_STRIDE, K], K = k0 + COARSE_STRIDE, as the dense
    reference solve does; a threshold outside it factors again."""
    kw = STRATEGY_KW[strategy]
    pts = grid201.points
    g, lam_f, stride = grid201.size, problem.costs.lambda_f, dp.COARSE_STRIDE
    best, weights, awake = _random_policy(problem, strategy, g, np.random.default_rng(0))
    P = np.einsum("im,mij->ij", weights, _all_blocks(operator201))
    acts = _strategy_action_set(problem, operator201, strategy, kw)

    def reference(k):
        stop = np.arange(g) >= k
        A = np.eye(g) - np.where(stop[:, None], 0.0, P)
        zero = np.zeros(g)
        cost = pts + problem.costs.lambda_s * awake
        rhs = np.where(stop, [lam_f * (1.0 - pts), 1.0 - pts, zero, zero], [cost, zero, pts, awake])
        return np.linalg.solve(A, rhs.T).T

    k0 = 150
    for k in [k0, *range(k0 + stride, k0 - stride - 1, -1)]:
        terms = _evaluate_policy(problem, pts, acts, np.arange(g) >= k, best)
        np.testing.assert_allclose(terms, reference(k), rtol=0, atol=1e-12)
        assert (acts.window.lo, acts.window.hi) == (k0 - stride, k0 + stride)
        assert acts.factorizations == 1
    for k, factorizations in ((k0 - stride - 1, 2), (g - 3, 3)):
        terms = _evaluate_policy(problem, pts, acts, np.arange(g) >= k, best)
        np.testing.assert_allclose(terms, reference(k), rtol=0, atol=1e-12)
        assert acts.factorizations == factorizations
    # Next to belief 1 the window ends at the last interior node.
    assert (acts.window.lo, acts.window.hi) == (g - 1 - 2 * stride, g - 1)


def test_factorizations_on_the_reference_instance(solved_control_m, solved_open_loop):
    """control_m factors once per round; open_loop's rounds share one
    threshold window."""
    assert solved_control_m[1].factorizations == solved_control_m[1].iterations == 3
    assert solved_open_loop[1].factorizations == 1 < solved_open_loop[1].iterations


@pytest.mark.parametrize(
    "solved", ["solved_control_m", "solved_control_q", "solved_open_loop", "solved_fixed_1"]
)
def test_cost_terms_recompose_the_value(problem, request, solved):
    """J = lambda_f * P_FA + delay + lambda_s * sensor-slots at every node,
    and the report gives the terms at rho."""
    J, report = request.getfixturevalue(solved)
    lam_f, lam_s = problem.costs.lambda_f, problem.costs.lambda_s
    total = lam_f * J.p_false_alarm + J.mean_delay + lam_s * J.mean_sensor_slots
    assert np.all(np.abs(total - J.values) <= 1e-9 * np.abs(J.values))
    assert np.all((J.p_false_alarm >= -1e-12) & (J.p_false_alarm <= 1.0 + 1e-12))
    assert np.all(J.mean_delay >= -1e-12) and np.all(J.mean_sensor_slots >= -1e-12)
    rho, pts = problem.prior.rho, J.grid.points
    assert (report.p_false_alarm, report.mean_delay, report.mean_sensor_slots) == tuple(
        float(np.interp(rho, pts, row))
        for row in (J.p_false_alarm, J.mean_delay, J.mean_sensor_slots)
    )


@pytest.mark.parametrize("strategy", list(STRATEGY_KW))
def test_grid_false_alarm_rate_does_not_rise_with_lambda_f(problem, grid201, operator201, strategy):
    """Each solve is optimal for its own lambda_f, so adding the two
    optimality inequalities gives (l2 - l1) * (A2 - A1) <= 0."""
    alphas = [
        value_iteration(
            replace(problem, costs=replace(problem.costs, lambda_f=lam)), strategy, grid201,
            operator=operator201, **STRATEGY_KW[strategy],
        )[1].p_false_alarm
        for lam in np.geomspace(10.0, 1000.0, 20)
    ]
    assert np.all(np.diff(alphas) <= 0.0)
    assert alphas[0] > alphas[-1]


# --- storage: a CSR stack serves sweeps only ----------------------------------


@pytest.fixture(scope="module")
def oracle_case201():
    """The oracle's binary alphabet on grid 201, whose stack is CSR, with
    a problem of its n; the model is a placeholder, the atoms drive it."""
    atoms, grid, p, _ = _atom_case("oracle")
    op = operator_from_atoms(atoms, grid, p)
    assert sparse.issparse(op.stack)
    prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.0), ChangePrior(0.1, p), Costs(0.2, 10.0), atoms.n)
    return prob, grid, op


def test_value_iteration_rejects_a_csr_stack(oracle_case201):
    prob, grid, op = oracle_case201
    for strategy, kw in STRATEGY_KW.items():
        with pytest.raises(ValueError, match="solve_finite_horizon"):
            value_iteration(prob, strategy, grid, operator=op, **kw)
    assert "coarse" not in vars(op)
    with pytest.raises(ValueError, match="dense stack"):
        op.coarse


@pytest.mark.parametrize("strategy", ["open_loop", "fixed_m"])
def test_single_action_rejects_a_csr_stack(oracle_case201, strategy):
    prob, grid, op = oracle_case201
    J = ValueFunction(grid, prob.costs.lambda_f * (1.0 - grid.points))
    with pytest.raises(ValueError, match="dense stack"):
        bellman_maps(J, prob, strategy, operator=op, **STRATEGY_KW[strategy])


@pytest.mark.parametrize("strategy", ["control_m", "control_q"])
def test_csr_stack_serves_finite_horizon_sweeps(oracle_case201, strategy):
    """The sweeps read a CSR stack and its dense copy alike."""
    prob, grid, op = oracle_case201
    dense = ExpectationOperator(grid, op.p, op.n, op.stack.toarray())
    J = solve_finite_horizon(prob, 3, strategy, grid, operator=op)
    ref = solve_finite_horizon(prob, 3, strategy, grid, operator=dense)
    np.testing.assert_allclose(J.values, ref.values, rtol=0, atol=1e-12)
    assert np.all(J.values < prob.costs.lambda_f * (1.0 - grid.points) + 1e-12)
    assert np.any(J.values < prob.costs.lambda_f * (1.0 - grid.points) - 1e-6)


class _RoundedSensor(SensorModel):
    """An unequal-variance pair read to the nearest integer: its ratios
    take a few dozen values, so the histogram keeps a few dozen atoms."""

    def sample(self, regime, size, rng):
        return np.round(super().sample(regime, size, rng))


def test_monte_carlo_stack_is_dense_with_few_atoms(grid201):
    """Monte Carlo atoms too few to fill the rows still build a dense
    stack, which every strategy's stationary solve reads; for the same
    atoms ``operator_from_atoms`` keeps CSR, with the same entries."""
    prob = Problem(_RoundedSensor(0.0, 1.0, 1.0, 1.5), ChangePrior(0.0, 0.01), Costs(0.5, 100.0), 2)
    atoms = monte_carlo_atoms(prob.model, prob.n)
    assert 2 * max(w.size for w in (*atoms.llr0, *atoms.llr1)) < grid201.size
    op = build_expectation_operator(prob, grid201)
    assert isinstance(op.stack, np.ndarray)
    csr = operator_from_atoms(atoms, grid201, prob.prior.p)
    assert sparse.issparse(csr.stack)
    assert np.abs(op.stack - csr.stack.toarray()).max() < 1e-12
    for strategy, kw in STRATEGY_KW.items():
        J, report = value_iteration(prob, strategy, grid201, operator=op, **kw)
        assert report.coarse_iterations > 0
        assert J.values[0] < prob.costs.lambda_f


def test_operator_must_be_built_on_the_grid():
    """An operator built on another grid of the same size is rejected, not
    read as if its nodes were the grid's."""
    prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.0), ChangePrior(0.0, 0.01), Costs(0.5, 100.0), 3)
    op = build_expectation_operator(prob, BeliefGrid.uniform(101))
    graded = BeliefGrid(np.linspace(0.0, 1.0, 101) ** 2)
    J = ValueFunction(graded, prob.costs.lambda_f * (1.0 - graded.points))
    with pytest.raises(ValueError, match="does not match the grid"):
        value_iteration(prob, "control_m", graded, operator=op)
    with pytest.raises(ValueError, match="does not match the grid"):
        solve_finite_horizon(prob, 2, "control_m", graded, operator=op)
    with pytest.raises(ValueError, match="does not match the grid"):
        bellman_maps(J, prob, "control_m", operator=op)
    # The same points in a grid of their own are the same grid.
    same = BeliefGrid(np.linspace(0.0, 1.0, 101))
    value_iteration(prob, "control_m", same, operator=op)


def test_solves_run_on_the_operators_grid(problem, grid201, operator201):
    """An operator passed alone sets the solve's grid, which a grid
    argument only checks; a call without an operator is refused."""
    J, report = value_iteration(problem, "control_m", operator=operator201)
    assert J.grid is grid201 and report.grid_size == 201
    assert solve_finite_horizon(problem, 2, operator=operator201).grid is grid201
    J_q, _ = value_iteration(problem, "open_loop", grid201, q=0.03, operator=operator201)
    sweep = sweep_open_loop_q(problem, [0.03], operator=operator201)
    assert sweep.rows[0].value_at_start == J_q(problem.prior.rho)
    for grid in (201, np.int64(201), grid201.points):
        with pytest.raises(ValueError, match="grid must be a BeliefGrid or None"):
            value_iteration(problem, "control_m", grid, operator=operator201)
    calls = (
        lambda: value_iteration(problem, "control_m", grid201),
        lambda: solve_finite_horizon(problem, 2, "control_m", grid201),
        lambda: bellman_maps(J, problem, "control_m"),
        lambda: extract_policy(J, problem, "control_m"),
        lambda: sweep_open_loop_q(problem, [0.03]),
    )
    for call in calls:
        with pytest.raises(TypeError, match="operator"):
            call()


def test_entry_points_refuse_a_missing_operator(problem, grid201, monkeypatch):
    """``operator=None`` is refused with a TypeError that names the
    operator, by all five entry points, before any sweep."""
    sweeps = []
    monkeypatch.setattr(dp, "_sweep", lambda *args, **kw: sweeps.append(args))
    J = ValueFunction(grid201, problem.costs.lambda_f * (1.0 - grid201.points))
    calls = (
        lambda: value_iteration(problem, "control_m", grid201, operator=None),
        lambda: solve_finite_horizon(problem, 2, "control_q", grid201, operator=None),
        lambda: bellman_maps(J, problem, "open_loop", q=0.3, operator=None),
        lambda: extract_policy(J, problem, "fixed_m", fixed_m=1, operator=None),
        lambda: sweep_open_loop_q(problem, [0.03], operator=None),
    )
    for call in calls:
        with pytest.raises(TypeError, match="operator is required"):
            call()
    assert sweeps == []


def test_operator_must_be_built_for_the_change_hazard():
    """The stack folds in the change hazard p, so an operator built for
    another p is rejected, not read as if it were the problem's."""
    model, costs = SensorModel(0.0, 1.0, 1.0, 1.0), Costs(0.5, 100.0)
    prob = Problem(model, ChangePrior(0.0, 0.05), costs, 3)
    grid = BeliefGrid.uniform(101)
    other = build_expectation_operator(Problem(model, ChangePrior(0.0, 0.01), costs, 3), grid)
    J = ValueFunction(grid, prob.costs.lambda_f * (1.0 - grid.points))
    calls = (
        lambda: value_iteration(prob, "control_m", grid, operator=other),
        lambda: solve_finite_horizon(prob, 2, "control_m", grid, operator=other),
        lambda: extract_policy(J, prob, "control_m", operator=other),
        lambda: sweep_open_loop_q(prob, [0.5], operator=other),
    )
    for call in calls:
        with pytest.raises(ValueError, match="does not match the grid, n, p or sensor model"):
            call()


def test_operator_must_be_built_for_the_sensor_model():
    """The stack folds in the sensor model, so an operator built for
    another model is rejected, not read as if it were the problem's; its
    coarse level keeps the model too.  Atoms' operators record none."""
    prior, costs = ChangePrior(0.0, 0.01), Costs(0.5, 100.0)
    prob = Problem(SensorModel(0.0, 1.0, 2.0, 1.0), prior, costs, 3)
    base = Problem(SensorModel(0.0, 1.0, 1.0, 1.0), prior, costs, 3)
    grid = BeliefGrid.uniform(201)
    other = build_expectation_operator(base, grid)
    J = ValueFunction(grid, prob.costs.lambda_f * (1.0 - grid.points))
    calls = (
        lambda: value_iteration(prob, "control_m", grid, operator=other),
        lambda: solve_finite_horizon(prob, 2, "control_m", grid, operator=other),
        lambda: extract_policy(J, prob, "control_m", operator=other),
        lambda: sweep_open_loop_q(prob, [0.5], operator=other),
    )
    for call in calls:
        with pytest.raises(ValueError, match="does not match the grid, n, p or sensor model"):
            call()
    assert other.model == base.model and other.coarse.model == base.model
    # An equal model is the same model.
    value_iteration(Problem(SensorModel(0.0, 1.0, 1.0, 1.0), prior, costs, 3), "control_m",
                    grid, operator=other)


# --- the coarse start ---------------------------------------------------------


@pytest.mark.parametrize("size", [201, 203])
@pytest.mark.parametrize("case", ["exact", "monte_carlo"])
def test_coarse_stack_is_the_coarse_grid_operator(case, size):
    """The coarse rows of the fine stack times the coarse-to-fine
    interpolation equal a build on the coarse grid, for the closed form
    and for a dense atom stack; 203 nodes end off the stride."""
    if case == "exact":
        prob = make_benchmark_problem()
        build = lambda grid: build_expectation_operator(prob, grid, "exact")
    else:
        atoms, _, p, _ = _atom_case(case)
        build = lambda grid: operator_from_atoms(atoms, grid, p)
    op = build(BeliefGrid.uniform(size))
    coarse = op.coarse
    keep = np.unique(np.append(np.arange(0, size, 8), size - 1))
    np.testing.assert_array_equal(coarse.grid.points, op.grid.points[keep])
    direct = build(coarse.grid)
    assert isinstance(coarse.stack, np.ndarray) and isinstance(direct.stack, np.ndarray)
    assert np.abs(coarse.stack - direct.stack).max() < 1e-12
    assert op.coarse is coarse


@pytest.fixture(scope="module")
def mc_case201(grid201):
    """An unequal-variance problem on its grid-201 Monte Carlo operator."""
    prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.2), ChangePrior(0.0, 0.01), Costs(0.5, 100.0), 10)
    return prob, build_expectation_operator(prob, grid201)


def _check_coarse_start(prob, op, strategy):
    """Policy iteration from the coarse policy ends where it ends from
    stopping everywhere, in no more fine rounds."""
    kw = STRATEGY_KW[strategy]
    g, pts = op.grid.size, op.grid.points
    J, report = value_iteration(prob, strategy, op.grid, operator=op, **kw)
    assert report.coarse_iterations > 0
    acts = _strategy_action_set(prob, op, strategy, kw)
    (cold, *_), _, _, rounds, _, last_sweep = _policy_rounds(
        prob, pts, acts, np.ones(g, dtype=bool), np.zeros(g)
    )
    assert last_sweep is not None and report.iterations <= rounds
    np.testing.assert_allclose(J.values, cold, rtol=0, atol=1e-12)
    gamma, cold_gamma = (
        extract_policy(V, prob, strategy, operator=op, **kw).gamma
        for V in (J, ValueFunction(op.grid, cold))
    )
    assert gamma == pytest.approx(cold_gamma, abs=1e-10)


@pytest.mark.parametrize("storage", ["exact", "monte_carlo"])
@pytest.mark.parametrize("strategy", list(STRATEGY_KW))
def test_coarse_start_matches_cold_start(problem, operator201, mc_case201, strategy, storage):
    prob, op = (problem, operator201) if storage == "exact" else mc_case201
    _check_coarse_start(prob, op, strategy)


@pytest.mark.parametrize("size", [2, 9, 51, 101])
@pytest.mark.parametrize("strategy", list(STRATEGY_KW))
def test_coarse_start_matches_cold_start_on_small_grids(problem, strategy, size):
    """Every grid takes the coarse start, down to two nodes, whose coarse
    grid is the grid itself."""
    op = build_expectation_operator(problem, BeliefGrid.uniform(size))
    _check_coarse_start(problem, op, strategy)
    if size == 2:
        assert np.array_equal(op.coarse.stack, op.stack)


def test_coarse_start_rounds_at_grid_1001(solved_control_m, solved_control_q):
    for _, report in (solved_control_m, solved_control_q):
        assert report.coarse_iterations > 0
        assert report.iterations <= 4
