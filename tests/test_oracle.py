import math

import numpy as np
import pytest

from quickwake import (
    DiscreteInstance,
    brute_force_value,
    likelihood_atoms,
)

INSTANCE = DiscreteInstance(
    horizon=3, n=2, g0=(0.7, 0.3), g1=(0.2, 0.8),
    rho=0.1, p=0.2, lambda_s=0.3, lambda_f=5.0,
)


def test_zero_horizon_is_stopping_cost():
    inst = DiscreteInstance(
        horizon=0, n=1, g0=(0.7, 0.3), g1=(0.2, 0.8),
        rho=0.0, p=0.5, lambda_s=0.1, lambda_f=5.0,
    )
    assert brute_force_value(inst, 0.3) == 5.0 * 0.7
    assert brute_force_value(inst, 1.0) == 0.0


def test_one_slot_value_matches_hand_expansion():
    """Horizon 1, one sensor: every branch written out explicitly."""
    inst = DiscreteInstance(
        horizon=1, n=1, g0=(0.7, 0.3), g1=(0.2, 0.8),
        rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
    )
    pi = 0.25
    pred = pi + (1 - pi) * 0.2
    stop_now = 5.0 * (1 - pi)
    sleep = pi + 5.0 * (1 - pred)  # next slot stopping is forced
    watch = pi + 0.3
    for x in (0, 1):
        mass = pred * inst.g1[x] + (1 - pred) * inst.g0[x]
        posterior = pred * inst.g1[x] / mass
        watch += mass * 5.0 * (1 - posterior)
    expected = min(stop_now, sleep, watch)
    assert brute_force_value(inst, pi) == pytest.approx(expected, abs=1e-14)


def test_value_nonincreasing_in_horizon():
    values = [
        brute_force_value(
            DiscreteInstance(
                horizon=k, n=2, g0=(0.7, 0.3), g1=(0.2, 0.8),
                rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
            ),
            0.2,
        )
        for k in range(5)
    ]
    assert values[0] == 4.0
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-14


def test_value_bounds_and_monotone_interpolation_points():
    for pi0 in np.linspace(0.0, 1.0, 9):
        v = brute_force_value(INSTANCE, float(pi0))
        assert 0.0 <= v <= INSTANCE.lambda_f * (1.0 - pi0) + 1e-14


def test_enumeration_bounds_enforced():
    with pytest.raises(ValueError, match="enumeration bound"):
        DiscreteInstance(
            horizon=5, n=1, g0=(0.7, 0.3), g1=(0.2, 0.8),
            rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
        )
    with pytest.raises(ValueError, match="enumeration bound"):
        DiscreteInstance(
            horizon=2, n=3, g0=(0.7, 0.3), g1=(0.2, 0.8),
            rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
        )
    # Any integer type is a count, a bool or a fraction is not.
    for horizon, n in ((True, 1), (2, True), (1.5, 1)):
        with pytest.raises(ValueError, match="enumeration bound"):
            DiscreteInstance(
                horizon=horizon, n=n, g0=(0.7, 0.3), g1=(0.2, 0.8),
                rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
            )
    wide = DiscreteInstance(
        horizon=np.int64(2), n=np.int64(1), g0=(0.7, 0.3), g1=(0.2, 0.8),
        rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
    )
    assert (type(wide.horizon), type(wide.n)) == (int, int)
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteInstance(
            horizon=2, n=1, g0=(0.7, 0.4), g1=(0.2, 0.8),
            rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
        )
    with pytest.raises(ValueError, match="identical"):
        DiscreteInstance(
            horizon=2, n=1, g0=(0.7, 0.3), g1=(0.7, 0.3),
            rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
        )


def test_instance_checks_its_pmfs_as_tuples_of_floats():
    """A list or an ndarray pmf is compared, checked and hashed as the
    tuple of floats it holds."""
    fields = dict(horizon=2, n=1, rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0)
    for g1 in ([0.7, 0.3], np.array([0.7, 0.3])):
        with pytest.raises(ValueError, match="identical"):
            DiscreteInstance(g0=(0.7, 0.3), g1=g1, **fields)
    inst = DiscreteInstance(g0=np.array([0.7, 0.3]), g1=[0.2, 0.8], **fields)
    assert (inst.g0, inst.g1) == ((0.7, 0.3), (0.2, 0.8))
    assert {type(v) for v in inst.g0 + inst.g1} == {float}
    assert hash(inst) == hash(DiscreteInstance(g0=(0.7, 0.3), g1=(0.2, 0.8), **fields))
    assert brute_force_value(inst, 0.1) == brute_force_value(
        DiscreteInstance(g0=(0.7, 0.3), g1=(0.2, 0.8), **fields), 0.1
    )


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("lambda_s", math.nan, "lambda_s must be finite"),
        ("lambda_s", math.inf, "lambda_s must be finite"),
        ("lambda_f", math.nan, "lambda_f must be finite"),
        ("lambda_f", math.inf, "lambda_f must be finite"),
        ("g0", (math.nan, 1.0), "g0 must be two masses in"),
        ("g1", (0.2, math.nan), "g1 must be two masses in"),
    ],
)
def test_instance_rejects_non_finite_costs_and_masses(field, value, fragment):
    fields = dict(
        horizon=2, n=1, g0=(0.7, 0.3), g1=(0.2, 0.8), rho=0.0, p=0.2, lambda_s=0.3, lambda_f=5.0,
    )
    with pytest.raises(ValueError, match=fragment):
        DiscreteInstance(**{**fields, field: value})


def test_likelihood_atoms_weights_and_ratios():
    atoms = likelihood_atoms(INSTANCE)
    assert atoms.n == 2
    for m in (1, 2):
        assert math.isclose(float(np.sum(atoms.w0[m])), 1.0, abs_tol=1e-14)
        assert math.isclose(float(np.sum(atoms.w1[m])), 1.0, abs_tol=1e-14)
        # Atom k is "k of m sensors reported 1".
        for k in range(m + 1):
            expected_llr = k * math.log(0.8 / 0.3) + (m - k) * math.log(0.2 / 0.7)
            assert atoms.llr0[m][k] == pytest.approx(expected_llr, abs=1e-12)
            assert atoms.llr1[m][k] == pytest.approx(expected_llr, abs=1e-12)
            comb = math.comb(m, k)
            assert atoms.w0[m][k] == pytest.approx(comb * 0.3**k * 0.7 ** (m - k))
            assert atoms.w1[m][k] == pytest.approx(comb * 0.8**k * 0.2 ** (m - k))


def test_atoms_drive_grid_solver_to_oracle_value():
    """End-to-end coupling on one instance; the acceptance suite widens
    this to randomized draws."""
    from quickwake import BeliefGrid, Problem, operator_from_atoms, solve_finite_horizon
    from quickwake.model import ChangePrior, Costs, SensorModel

    grid = BeliefGrid.uniform(2001)
    op = operator_from_atoms(likelihood_atoms(INSTANCE), grid, INSTANCE.p)
    problem = Problem(
        model=SensorModel(0.0, 1.0, 1.0, 1.0),  # densities unused: atoms supplied
        prior=ChangePrior(INSTANCE.rho, INSTANCE.p),
        costs=Costs(INSTANCE.lambda_s, INSTANCE.lambda_f),
        n=INSTANCE.n,
    )
    J = solve_finite_horizon(problem, INSTANCE.horizon, "control_m", grid, operator=op)
    got = float(J(0.35))
    want = brute_force_value(INSTANCE, 0.35)
    assert got == pytest.approx(want, abs=1e-12)


def test_grid_value_is_below_enumeration_at_every_node():
    """Criterion 8's 20 instances (the same draws) on a 201-node grid: the
    finite-horizon grid J lies at or below enumeration at every node.
    The value is concave in the belief and the operator integrates the
    chord interpolant exactly, so the grid value is a lower bound; an
    operator that stopped doing so could cross it at nodes that the
    criterion's one belief per instance does not see."""
    from quickwake import BeliefGrid, Problem, operator_from_atoms, solve_finite_horizon
    from quickwake.model import ChangePrior, Costs, SensorModel

    rng = np.random.default_rng(8)
    grid = BeliefGrid.uniform(201)
    for _ in range(20):
        a = float(rng.uniform(0.15, 0.85))
        shift = float(rng.uniform(0.1, 0.5)) * (1 if a < 0.5 else -1)
        b = min(max(a + shift, 0.05), 0.95)
        inst = DiscreteInstance(
            horizon=int(rng.integers(1, 4)),
            n=int(rng.integers(1, 3)),
            g0=(a, 1.0 - a),
            g1=(b, 1.0 - b),
            rho=float(rng.uniform(0.0, 0.3)),
            p=float(rng.uniform(0.05, 0.5)),
            lambda_s=float(rng.uniform(0.05, 0.5)),
            lambda_f=float(rng.uniform(2.0, 20.0)),
        )
        rng.uniform(0.0, 0.9)  # criterion 8's pi0, drawn to keep the stream
        op = operator_from_atoms(likelihood_atoms(inst), grid, inst.p)
        prob = Problem(
            model=SensorModel(0.0, 1.0, 1.0, 1.0),  # placeholder; atoms drive the DP
            prior=ChangePrior(inst.rho, inst.p),
            costs=Costs(inst.lambda_s, inst.lambda_f),
            n=inst.n,
        )
        J = solve_finite_horizon(prob, inst.horizon, "control_m", grid, operator=op)
        exact = np.array([brute_force_value(inst, float(pi)) for pi in grid.points])
        assert np.max(J.values - exact) <= 1e-12
