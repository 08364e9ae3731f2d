import math
import os
import threading

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
    binomial_weights,
    build_expectation_operator,
    extract_policy,
    likelihood_atoms,
    monte_carlo_atoms,
    operator_from_atoms,
    prior_mass,
    solve_finite_horizon,
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
)
from tests.conftest import make_benchmark_problem

from bayes_reference import logit, sigmoid


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
    # One sensor, p = 0.5: an absorbing row and a grid of 51, not a block multiple.
    prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.0), ChangePrior(0.0, 0.5), Costs(0.5, 100.0), 1)
    return prob, BeliefGrid.uniform(51)


def coo_atom_stack(atoms, grid, p):
    """Reference atom map: two COO entries per (row, atom), summed by scipy.

    Each m-block is the CSR sum of the post- and pre-change regimes'
    interpolation matrices, built over all rows at once.
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

    blocks = [interp(t[:, None], np.ones((g, 1)))]
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
            assert np.abs(op.stack[m * g + i] - direct).max() < 1e-12


def test_binomial_weights_match_scipy():
    for n, q in [(10, 0.3), (4, 0.0), (7, 1.0), (3, 0.999)]:
        np.testing.assert_allclose(
            binomial_weights(n, q), stats.binom.pmf(np.arange(n + 1), n, q), atol=1e-14
        )
    with pytest.raises(ValueError):
        binomial_weights(0, 0.5)
    with pytest.raises(ValueError):
        binomial_weights(5, 1.2)


def test_belief_grid_validation():
    with pytest.raises(ValueError, match="span"):
        BeliefGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        BeliefGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        BeliefGrid.uniform(1)
    grid = BeliefGrid.uniform(11)
    assert grid.size == 11
    assert grid.nearest_index(0.26) == 3
    assert grid.nearest_index(-0.5) == 0
    assert grid.nearest_index(2.0) == 10


def test_value_function_requires_free_stop_at_one():
    grid = BeliefGrid.uniform(5)
    with pytest.raises(ValueError, match="belief 1"):
        ValueFunction(grid, np.array([4.0, 3.0, 2.0, 1.0, 0.5]))
    J = ValueFunction(grid, np.array([4.0, 3.0, 2.0, 1.0, 0.0]))
    assert J(0.125) == pytest.approx(3.5)


# --- expectation operator backends -----------------------------------------


def test_exact_operator_mass_and_martingale(problem, operator):
    """Row sums are 1 and E[next belief] is the predicted belief, per m."""
    ones = np.ones(operator.grid.size)
    mass = operator.apply_all(ones)
    assert np.abs(mass - 1.0).max() < 1e-12
    drift = operator.apply_all(operator.grid.points) - operator.predicted[None, :]
    assert np.abs(drift).max() < 1e-12


# Warnings are errors: a logit of t = 1 or an inf - inf at the segment
# ends must not leak out of the build.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["reference", "falling_mean", "nonuniform", "absorbing"])
def test_exact_operator_matches_row_reference(case):
    prob, grid = _exact_case(case)
    op = build_expectation_operator(prob, grid, "exact")
    g = grid.size
    for m in range(1, prob.n + 1):
        ref = np.array([exact_row(prob.model, grid.points, t, m) for t in op.predicted])
        assert np.abs(op.stack[m * g:(m + 1) * g] - ref).max() < 1e-11
    assert np.abs(op.apply_all(np.ones(g)) - 1.0).max() < 1e-12
    drift = op.apply_all(grid.points) - op.predicted[None, :]
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


@pytest.mark.parametrize("case", ["reference", "falling_mean", "absorbing", "n3", "atoms"])
def test_stack_does_not_depend_on_worker_count(case, monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert dp._build_workers(1) == 1 and dp._build_workers(1 << 20) == cpus
    stacks = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(dp, "_build_workers", lambda n, w=workers: min(n, w))
        stacks.append(_build_case(case))
    assert isinstance(stacks[0], np.ndarray)
    assert all(np.array_equal(stacks[0], other) for other in stacks[1:])


@pytest.mark.parametrize("thread", ["caller", "pool"])
def test_build_error_reaches_the_caller_and_leaves_no_thread(thread, monkeypatch):
    prob, grid = _exact_case("falling_mean")
    real = dp._segment_shares
    raise_in_caller = thread == "caller"

    def failing(out, *args):
        if (threading.current_thread() is threading.main_thread()) == raise_in_caller:
            raise RuntimeError("block failed")
        real(out, *args)

    monkeypatch.setattr(dp, "_build_workers", lambda n: min(n, 2))
    monkeypatch.setattr(dp, "_segment_shares", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        build_expectation_operator(prob, grid, "exact")
    assert threading.active_count() == before


def test_quadrature_operator_identities(problem, grid201):
    atoms = gauss_legendre_atoms(problem.model, problem.n)
    op = operator_from_atoms(atoms, grid201, problem.prior.p)
    assert np.abs(op.apply_all(np.ones(grid201.size)) - 1.0).max() < 1e-12
    drift = op.apply_all(grid201.points) - op.predicted[None, :]
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
    drift = op_mc.apply_all(grid201.points) - op_mc.predicted[None, :]
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
        _dense(op.stack), _dense(build_expectation_operator(prob, grid, "monte_carlo").stack)
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


def test_bellman_control_q_refinement_never_hurts(problem, solved_control_q, operator):
    J, _ = solved_control_q
    rough = bellman_maps(J, problem, "control_q", q_grid_size=11, operator=operator)
    fine = bellman_maps(J, problem, "control_q", q_grid_size=101, operator=operator)
    assert np.all(fine.new_values <= rough.new_values + 1e-9)
    assert np.all((rough.best_action >= 0.0) & (rough.best_action <= 1.0))
    with pytest.raises(ValueError):
        bellman_maps(J, problem, "control_q", q_grid_size=0, operator=operator)


def test_q_grid_size_checked_on_every_entry_point(problem, grid201, operator201):
    """An empty control_q search grid leaves no action to take."""
    J = solve_finite_horizon(problem, 2, "control_m", grid201, operator=operator201)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="q_grid_size"):
            value_iteration(problem, "control_q", grid201, q_grid_size=bad, operator=operator201)
        with pytest.raises(ValueError, match="q_grid_size"):
            solve_finite_horizon(
                problem, 2, "control_q", grid201, q_grid_size=bad, operator=operator201
            )
        with pytest.raises(ValueError, match="q_grid_size"):
            bellman_maps(J, problem, "control_q", q_grid_size=bad, operator=operator201)
        with pytest.raises(ValueError, match="q_grid_size"):
            extract_policy(J, problem, "control_q", q_grid_size=bad, operator=operator201)


def test_bellman_open_loop_is_control_q_at_fixed_q(problem, solved_open_loop, operator):
    """open_loop's one-row sweep against a control_q action set of that one q."""
    J, _ = solved_open_loop
    folded = bellman_maps(J, problem, "open_loop", q=0.03, operator=operator)
    q = np.array([0.03])
    acts = dp._ActionSet(
        operator.stack, _binomial_table(problem.n, q),
        problem.costs.lambda_s * problem.n * q, q,
    )
    mixed = dp._sweep(J.values, problem, J.grid.points, acts)
    np.testing.assert_allclose(folded.new_values, mixed.new_values, atol=1e-12)
    np.testing.assert_allclose(folded.continue_values, mixed.continue_values, atol=1e-12)


# --- value iteration --------------------------------------------------------


def test_value_iteration_report(problem, solved_control_m):
    J, report = solved_control_m
    assert report.strategy == "control_m"
    assert report.tolerance == pytest.approx(1e-6 * problem.costs.lambda_f)
    assert report.bellman_residual <= 1e-10
    # One J change per round; the last round finds the policy unchanged.
    assert report.iterations == len(report.sup_norm_deltas)
    assert report.sup_norm_deltas[-1] == 0.0
    assert all(d > 0 for d in report.sup_norm_deltas[:-1])
    assert report.iterations < 50
    # J is bracketed by 0 and the stopping cost, and stopping at 1 is free.
    stopping = problem.costs.lambda_f * (1.0 - J.grid.points)
    assert np.all(J.values >= -1e-12)
    assert np.all(J.values <= stopping + 1e-9)
    assert J.values[-1] == 0.0


def test_value_iteration_raises_on_budget(problem, grid201, operator201):
    with pytest.raises(ConvergenceError) as err:
        value_iteration(problem, "control_m", grid201, max_iters=3, operator=operator201)
    assert err.value.iterations == 3
    assert err.value.last_delta > 0
    # The tolerance bounds the result's Bellman residual (about 1e-14 here).
    with pytest.raises(ConvergenceError, match="Bellman residual") as err:
        value_iteration(problem, "control_m", grid201, tolerance=1e-300, operator=operator201)
    assert err.value.last_delta > 1e-300


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


def test_strategy_argument_validation(problem, grid201, operator201):
    with pytest.raises(ValueError, match="strategy"):
        value_iteration(problem, "optimal", grid201, operator=operator201)
    with pytest.raises(ValueError, match="q"):
        value_iteration(problem, "open_loop", grid201, operator=operator201)
    with pytest.raises(ValueError, match="fixed_m"):
        value_iteration(problem, "fixed_m", grid201, operator=operator201)


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


@pytest.fixture(scope="module")
def csr_operator201(problem, grid201, operator201):
    """The grid-201 exact stack stored as CSR, to drive the sparse paths."""
    return ExpectationOperator(
        grid201, problem.prior.p, problem.n, sparse.csr_matrix(operator201.stack)
    )


def _strategy_action_set(problem, operator, strategy, kw):
    """The action set that every sweep of ``strategy`` reads."""
    return _action_set(
        problem, operator, strategy, kw.get("q"), kw.get("fixed_m"), dp.DEFAULT_Q_GRID_SIZE
    )


def _dense(stack):
    return stack.toarray() if sparse.issparse(stack) else stack


def _random_policy(problem, strategy, g, rng):
    """Random continue-set actions with each node's mixture over awake counts."""
    n, lam_s = problem.n, problem.costs.lambda_s
    if strategy == "control_m":
        best = rng.integers(0, n + 1, g).astype(float)
        return best, np.eye(n + 1)[best.astype(int)], lam_s * best
    if strategy == "control_q":
        best = rng.random(g)
        return best, _binomial_table(n, best), lam_s * n * best
    if strategy == "open_loop":
        best = np.full(g, 0.03)
        return best, _binomial_table(n, best), lam_s * n * best
    best = np.full(g, 1.0)
    return best, np.eye(n + 1)[np.ones(g, dtype=int)], lam_s * best


@pytest.mark.parametrize("strategy", list(STRATEGY_KW))
def test_policy_evaluation_matches_dense_reference(
    problem, grid201, operator201, csr_operator201, strategy
):
    """Policy evaluation against a solve of the policy's full g x g
    transition matrix, assembled row by row from the stack blocks, on
    dense and CSR stacks and on a continue set with and without a hole.
    The stationary solve must also agree between the two storages."""
    kw = STRATEGY_KW[strategy]
    pts = grid201.points
    g, n, lam_f = grid201.size, problem.n, problem.costs.lambda_f
    rng = np.random.default_rng(11)
    best, weights, cost = _random_policy(problem, strategy, g, rng)
    stack = operator201.stack
    P = np.zeros((g, g))
    for i in range(g):
        for m in range(n + 1):
            P[i] += weights[i, m] * stack[m * g + i]
    interval = pts >= 0.8
    holed = interval.copy()
    holed[50:55] = True
    for stop in (interval, holed):
        A = np.eye(g) - np.where(stop[:, None], 0.0, P)
        ref = np.linalg.solve(A, np.where(stop, lam_f * (1.0 - pts), pts + cost))
        for op in (operator201, csr_operator201):
            acts = _strategy_action_set(problem, op, strategy, kw)
            before = _dense(acts.stack).copy()
            J = _evaluate_policy(problem, pts, acts, stop, best)
            np.testing.assert_allclose(J, ref, rtol=0, atol=1e-12)
            # A private fold is worked in place and must come back unchanged.
            assert np.array_equal(_dense(acts.stack), before)
    J_dense, rep_dense = value_iteration(problem, strategy, grid201, operator=operator201, **kw)
    J_csr, rep_csr = value_iteration(problem, strategy, grid201, operator=csr_operator201, **kw)
    np.testing.assert_allclose(J_csr.values, J_dense.values, rtol=0, atol=1e-12)
    assert rep_csr.iterations == rep_dense.iterations


@pytest.mark.parametrize("strategy", ["open_loop", "fixed_m"])
def test_single_action_fold_matches_block_mixing(
    problem, grid201, operator201, csr_operator201, strategy
):
    """A single action's set is its fold: one contraction of a dense
    stack, a block-mixing product of a CSR one; both agree with mixing
    the dense blocks."""
    kw = STRATEGY_KW[strategy]
    g, n = grid201.size, problem.n
    if strategy == "open_loop":
        weights = binomial_weights(n, kw["q"])
    else:
        weights = np.eye(n + 1)[kw["fixed_m"]]
    blocks = operator201.stack.reshape(n + 1, g, g)
    ref = sum(w * block for w, block in zip(weights, blocks))
    folds = []
    for op in (operator201, csr_operator201):
        acts = _strategy_action_set(problem, op, strategy, kw)
        assert acts.weights is None and acts.actions.size == 1
        assert type(acts.stack) is type(op.stack)
        folds.append(_dense(acts.stack))
    for fold in folds:
        assert np.abs(fold - ref).max() < 1e-14
    assert np.abs(folds[0] - folds[1]).max() < 1e-14


# --- the coarse start ---------------------------------------------------------


@pytest.mark.parametrize("size", [201, 203])
@pytest.mark.parametrize("case", ["exact", "monte_carlo", "oracle"])
def test_coarse_stack_is_the_coarse_grid_operator(case, size):
    """The coarse rows of the fine stack times the coarse-to-fine
    interpolation equal a build on the coarse grid, for the closed form
    and for dense and CSR atom stacks; 203 nodes end off the stride."""
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
    assert type(coarse.stack) is type(op.stack) is type(direct.stack)
    assert np.abs(_dense(coarse.stack) - _dense(direct.stack)).max() < 1e-12
    assert op.coarse is coarse


@pytest.fixture(scope="module")
def mc_case201(grid201):
    """An unequal-variance problem on its grid-201 Monte Carlo operator."""
    prob = Problem(SensorModel(0.0, 1.0, 1.0, 1.2), ChangePrior(0.0, 0.01), Costs(0.5, 100.0), 10)
    return prob, build_expectation_operator(prob, grid201)


@pytest.mark.parametrize("storage", ["exact", "csr", "monte_carlo"])
@pytest.mark.parametrize("strategy", list(STRATEGY_KW))
def test_coarse_start_matches_cold_start(
    problem, grid201, operator201, csr_operator201, mc_case201, strategy, storage
):
    """Policy iteration from the coarse policy ends where it ends from
    stopping everywhere."""
    kw = STRATEGY_KW[strategy]
    cases = {"exact": (problem, operator201), "csr": (problem, csr_operator201)}
    prob, op = cases.get(storage, mc_case201)
    g, pts = grid201.size, grid201.points
    J, report = value_iteration(prob, strategy, grid201, operator=op, **kw)
    assert report.coarse_iterations > 0
    acts = _strategy_action_set(prob, op, strategy, kw)
    cold, _, _, deltas, residual = _policy_rounds(
        prob, pts, acts, np.ones(g, dtype=bool), np.zeros(g), dp.DEFAULT_MAX_ITERS
    )
    assert residual is not None and report.iterations <= len(deltas)
    np.testing.assert_allclose(J.values, cold, rtol=0, atol=1e-12)
    gamma, cold_gamma = (
        extract_policy(V, prob, strategy, operator=op, **kw).gamma
        for V in (J, ValueFunction(grid201, cold))
    )
    assert gamma == pytest.approx(cold_gamma, abs=1e-10)


def test_coarse_start_rounds_at_grid_1001(solved_control_m, solved_control_q):
    for _, report in (solved_control_m, solved_control_q):
        assert report.coarse_iterations > 0
        assert report.iterations <= 4


def test_small_grid_starts_cold(problem):
    """101 nodes leave 14 coarse ones, under the cutoff: no coarse level."""
    op = build_expectation_operator(problem, BeliefGrid.uniform(101))
    assert op.coarse is None
    _, report = value_iteration(problem, "control_m", 101, operator=op)
    assert report.coarse_iterations == 0
