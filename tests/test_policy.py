import numpy as np
import pytest

from quickwake import (
    BeliefGrid,
    Policy,
    bellman_maps,
    extract_policy,
    value_iteration,
)
from quickwake.dp import STRATEGIES, TIE_BREAK, _binomial_table, _nearest_nodes
from quickwake.policy import _threshold_from_continuation

from grid_reference import nearest_index


def test_control_m_threshold_brackets_grid_crossing(problem, solved_control_m, operator):
    J, _ = solved_control_m
    gamma = extract_policy(J, problem, "control_m", operator=operator).gamma
    assert 0.8 < gamma < 0.99
    pts = J.grid.points
    below = pts[pts < gamma][-1]
    at = pts[pts >= gamma][0]
    # The refined threshold must sit inside the grid cell that brackets
    # the stop/continue crossing.
    assert at - below == pytest.approx(1e-3, abs=1e-12)


def test_threshold_refinement_is_consistent(problem, solved_control_m, operator):
    """At the refined threshold, stopping and continuing cost the same."""
    J, _ = solved_control_m
    gamma = extract_policy(J, problem, "control_m", operator=operator).gamma
    maps = bellman_maps(J, problem, "control_m", operator=operator)
    stop_cost = problem.costs.lambda_f * (1.0 - gamma)
    continue_cost = np.interp(gamma, J.grid.points, maps.continue_values)
    assert continue_cost == pytest.approx(stop_cost, abs=1e-6 * problem.costs.lambda_f)


def _bisected_threshold(grid, continue_values, lambda_f, steps=60):
    """The threshold by bisection on the linear interpolants of the
    stopping cost and the continuation value, on the same bracketing cell
    as the closed form."""
    pts = grid.points
    stop = lambda_f * (1.0 - pts) <= continue_values + TIE_BREAK
    first = int(np.argmax(stop))
    if first == 0:
        return 0.0
    lo, hi = pts[first - 1], pts[first]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if lambda_f * (1.0 - mid) - np.interp(mid, pts, continue_values) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def test_threshold_from_continuation_edge_cases():
    grid = BeliefGrid.uniform(5)
    # Continuation always cheaper: no stop node anywhere.
    with pytest.raises(ValueError, match="degenerate instance"):
        _threshold_from_continuation(grid, np.full(5, -1.0), lambda_f=1.0)
    # Stop, continue, stop: not a single interval.
    broken = np.array([-1.0, 10.0, -1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="single interval"):
        _threshold_from_continuation(grid, broken, lambda_f=1.0)
    # Stopping optimal at node 0 already.
    assert _threshold_from_continuation(grid, np.full(5, 10.0), lambda_f=1.0) == 0.0
    # An upper node that stops only within the tie margin, or exactly at
    # the crossing, is itself the threshold, where a bisection ends too.
    for upper_gap in (0.5 * TIE_BREAK, 0.0):
        cont = 1.0 - grid.points - np.array([1.0, 1.0, upper_gap, -1.0, -1.0])
        assert _threshold_from_continuation(grid, cont, lambda_f=1.0) == 0.5
        assert _bisected_threshold(grid, cont, 1.0) == 0.5


@pytest.mark.parametrize(
    "strategy,kw",
    [("control_m", {}), ("control_q", {}), ("open_loop", {"q": 0.03}), ("fixed_m", {"fixed_m": 1})],
)
def test_closed_form_threshold_matches_bisection(problem, grid201, operator201, strategy, kw):
    """The root of the affine gap on the bracketing cell is where a long
    bisection of the interpolants ends."""
    J, _ = value_iteration(problem, strategy, grid201, operator=operator201, **kw)
    cont = bellman_maps(J, problem, strategy, operator=operator201, **kw).continue_values
    lam_f = problem.costs.lambda_f
    gamma = _threshold_from_continuation(grid201, cont, lam_f)
    assert 0.0 < gamma < 1.0
    assert abs(gamma - _bisected_threshold(grid201, cont, lam_f)) <= 1e-15
    assert extract_policy(J, problem, strategy, operator=operator201, **kw).gamma == gamma


def test_fixed_two_stops_everywhere(problem, grid1001, operator):
    # lambda_s * 2 equals lambda_f * p: sensing with two sensors burns
    # exactly the stopping cost's drift, so declaring at once is optimal.
    J, _ = value_iteration(problem, "fixed_m", grid1001, fixed_m=2, operator=operator)
    pol = extract_policy(J, problem, "fixed_m", fixed_m=2, operator=operator)
    assert pol.gamma == 0.0
    with pytest.raises(ValueError, match="stops everywhere"):
        pol._continue_indices(0.0)


def test_optimal_awake_count_agrees_with_policy_map(
    problem, solved_control_m, policy_control_m, operator
):
    """Below the threshold the policy wakes the count that minimizes
    ``lambda_s * m + B[m]`` at the nearest grid node."""
    J, _ = solved_control_m
    B = operator.apply_all(J.values)
    cost = problem.costs.lambda_s * np.arange(problem.n + 1)[:, None] + B
    for pi in (0.0, 0.2, 0.45, 0.6, 0.85):
        assert pi < policy_control_m.gamma
        i = nearest_index(J.grid.points, pi)
        count = policy_control_m.actions[policy_control_m._continue_indices(pi)]
        assert count == int(np.argmin(cost[:, i]))


def test_differential_cost_basics(problem, solved_control_m, operator):
    J, _ = solved_control_m
    B = operator.apply_all(J.values)
    d = B[:-1] - B[1:]  # d[m - 1] is the marginal value of the m-th sensor
    # Marginal value of another sensor is nonnegative under a concave J.
    assert d.min() >= -1e-9
    # At the absorbing belief the next observation is worthless.
    np.testing.assert_allclose(d[:, -1], 0.0, atol=1e-9)


def test_differential_rule_is_a_view_not_the_argmin(
    problem, solved_control_m, policy_control_m, operator
):
    """The marginal-value rule reproduces the argmin where d is monotone
    in m; the policy records any nodes where it does not."""
    J, _ = solved_control_m
    B = operator.apply_all(J.values)
    agreements = 0
    for pi in (0.05, 0.2, 0.5, 0.7):
        i = nearest_index(J.grid.points, pi)
        d = B[:-1, i] - B[1:, i]
        rule = max([m for m in range(1, problem.n + 1) if d[m - 1] >= problem.costs.lambda_s],
                   default=0)
        agreements += rule == policy_control_m.actions[policy_control_m._continue_indices(pi)]
    assert agreements >= 3  # d is non-monotone at some beliefs; see ledger
    # The mismatch tally, read off the sweep's own block product, equals
    # one recomputed from a fresh stack product.
    d = B[:-1] - B[1:]
    rule = (np.arange(1, problem.n + 1)[:, None] * (d >= problem.costs.lambda_s)).max(axis=0)
    below = J.grid.points < policy_control_m.gamma
    assert policy_control_m.awake_rule_mismatches == int(
        np.sum((rule != policy_control_m.actions) & below)
    )


def test_optimal_wake_prob_in_range(problem, solved_control_q, policy_control_q, operator):
    """The exact wake probability costs no more than any q of a 101-point grid."""
    J, _ = solved_control_q
    B = operator.apply_all(J.values)
    lam_s, n = problem.costs.lambda_s, problem.n
    for pi in (0.1, 0.4, 0.63):
        i = nearest_index(J.grid.points, pi)
        q = policy_control_q.actions[policy_control_q._continue_indices(pi)]
        assert 0.0 <= q <= 1.0
        chosen = lam_s * n * q + _binomial_table(n, np.array([q]))[0] @ B[:, i]
        coarse = min(
            lam_s * n * c + _binomial_table(n, np.array([c]))[0] @ B[:, i]
            for c in np.linspace(0, 1, 101)
        )
        assert chosen <= coarse + 1e-9


def test_policy_and_grid_compare_and_hash_by_identity(problem):
    """Array fields have no single truth value, so equality is identity."""
    grid, twin_grid = BeliefGrid.uniform(11), BeliefGrid.uniform(11)
    assert grid == grid and grid != twin_grid
    assert len({grid, twin_grid, grid}) == 2
    pol, twin = (
        Policy(kind="fixed_m", gamma=0.5, grid=grid, n=problem.n, actions=np.full(11, 2))
        for _ in range(2)
    )
    assert pol == pol and pol != twin
    assert len({pol, twin, pol}) == 2


def test_policy_validation():
    grid = BeliefGrid.uniform(11)
    ones = np.ones(11)
    with pytest.raises(ValueError, match="kind"):
        Policy(kind="bandit", gamma=0.5, grid=grid, n=3, actions=ones)
    for kind in STRATEGIES:
        with pytest.raises(ValueError, match="one entry per grid node"):
            Policy(kind=kind, gamma=0.5, grid=grid, n=3, actions=np.array([1, 1]))
    for kind in ("control_m", "fixed_m"):
        for bad in (7, -1, 1.7, np.nan):
            with pytest.raises(ValueError, match="integers in 0..3"):
                Policy(kind=kind, gamma=0.5, grid=grid, n=3, actions=np.full(11, bad))
    for kind in ("control_q", "open_loop"):
        for bad in (1.5, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="wake probabilities must lie in"):
                Policy(kind=kind, gamma=0.5, grid=grid, n=3, actions=np.full(11, bad))
    # The simulator draws an open-loop count from one scalar q.
    two_valued = np.where(grid.points < 0.5, 0.1, 0.2)
    with pytest.raises(ValueError, match="one wake probability"):
        Policy(kind="open_loop", gamma=0.5, grid=grid, n=3, actions=two_valued)
    assert Policy(kind="control_q", gamma=0.5, grid=grid, n=3, actions=two_valued).kind


def test_action_lookup_clamps_to_continue_region():
    # A belief just under the threshold must use the last continue node,
    # even when simple rounding would land on a stop node.
    grid = BeliefGrid.uniform(11)
    pol = Policy(
        kind="control_m", gamma=0.58, grid=grid, n=5,
        actions=np.array([1, 1, 2, 3, 3, 2, 0, 0, 0, 0, 0]),
    )
    assert pol._continue_indices(0.575) == 5  # nearest node 0.6 is a stop node
    assert pol.actions[pol._continue_indices(0.575)] == 2
    assert pol.actions[pol._continue_indices(0.31)] == 3


def test_array_lookup_matches_scalar_lookup(policy_control_m, policy_control_q):
    """The simulator's batched lookup and the scalar one pick the same node:
    the nearest one, clamped to the last node below gamma."""
    for pol in (policy_control_m, policy_control_q):
        pts = pol.grid.points
        end = int(np.sum(pts < pol.gamma)) - 1
        below = np.nextafter(pol.gamma, 0.0)
        probes = np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:]), [below, pol.gamma]])
        batched = pol._continue_indices(probes)
        scalar = [int(pol._continue_indices(float(pi))) for pi in probes]
        nearest = [min(nearest_index(pts, float(pi)), end) for pi in probes]
        assert batched.tolist() == scalar == nearest
        assert batched[-2] == end


def _brute_nearest(points, x, chunk=1024):
    """argmin |x - p| over every node, the lower node on a tie."""
    return np.concatenate([
        np.argmin(np.abs(x[lo:lo + chunk, None] - points), axis=1)
        for lo in range(0, x.size, chunk)
    ])


@pytest.mark.parametrize(
    "points", [np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 201) ** 2],
    ids=["uniform1001", "squared201"],
)
def test_nearest_nodes_match_brute_force(points):
    """The nearest-node rule of the coarse start and the policy lookup
    against a search of every node: at each node and midpoint, one float
    to either side of each, and at 10^5 uniform beliefs.  The lookup
    never returns a node at or above gamma."""
    grid = BeliefGrid(points)
    pts = grid.points
    exact = np.concatenate((pts, 0.5 * (pts[:-1] + pts[1:])))
    x = np.concatenate((
        exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
        np.random.default_rng(5).random(100_000),
    ))
    brute = _brute_nearest(pts, x)
    assert np.array_equal(_nearest_nodes(pts, x), brute)
    g = pts.size
    for gamma in (pts[1], 0.5 * (pts[g // 2] + pts[g // 2 + 1]), pts[g // 3],
                  np.nextafter(pts[g - 5], 0.0), 1.0):
        pol = Policy(kind="control_m", gamma=gamma, grid=grid, n=3, actions=np.zeros(g))
        idx = pol._continue_indices(x)
        assert np.all(pts[idx] < gamma)
        assert np.array_equal(idx, np.minimum(brute, np.count_nonzero(pts < gamma) - 1))


def test_extract_policy_open_loop_carries_q(problem, solved_open_loop, operator):
    J, _ = solved_open_loop
    pol = extract_policy(J, problem, "open_loop", q=0.03, operator=operator)
    assert pol.kind == "open_loop"
    assert pol.actions.tolist() == [0.03] * pol.grid.size


def test_extract_policy_control_q_map_peaks_inside(problem, solved_control_q, operator):
    J, _ = solved_control_q
    pol = extract_policy(J, problem, "control_q", operator=operator)
    below = pol.grid.points < pol.gamma
    qmap = pol.actions[below]
    # The wake probability is not flat: it rises from (near) zero to an
    # interior peak.
    assert qmap.min() < 0.01
    assert 0.2 < qmap.max() < 1.0
