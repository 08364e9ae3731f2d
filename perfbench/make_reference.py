"""Regenerate perfbench/reference.json, the fixed points the gates compare to.

Run from the repository root:

    python3 perfbench/make_reference.py

Each entry records the exact call that produced it.  A fixed point is
``solve_finite_horizon`` run for REFERENCE_SWEEPS sweeps from the
stopping cost, then ``extract_policy`` on it for gamma.  The Bellman
residual ``||TJ - J||_inf`` of the stored J is recorded beside it, along
with the error the default ``value_iteration`` has against it.  Takes a
few minutes; the benchmark itself recomputes none of this.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from quickwake import (  # noqa: E402
    BeliefGrid,
    bellman_maps,
    build_expectation_operator,
    extract_policy,
    solve_finite_horizon,
    value_iteration,
)
from quickwake import sweep_open_loop_q  # noqa: E402  (not in quickwake.__all__)

from workloads import (  # noqa: E402
    GRID_SIZE,
    REFERENCE_PATH,
    SWEEP_Q_VALUES,
    UNEQUAL_SIGMA1,
    reference_problem,
)

REFERENCE_SWEEPS = 3000
# Gate tolerances.  The default value_iteration stops at a sup-norm step
# of 1e-6 * lambda_f; with a contraction near 0.99 per sweep its J(rho)
# is off by up to about 1e-2 (see "default_solver_error").  The
# tolerances allow about three times that, so any solver at least as
# accurate passes.
VALUE_TOLERANCE = 0.03
GAMMA_TOLERANCE = 1e-4


def fixed_point(problem, operator, strategy: str, call: str, **kw) -> dict:
    grid = operator.grid
    J = solve_finite_horizon(problem, REFERENCE_SWEEPS, strategy, grid, operator=operator, **kw)
    policy = extract_policy(J, problem, strategy, operator=operator, **kw)
    maps = bellman_maps(J, problem, strategy, operator=operator, **kw)
    J_default, _ = value_iteration(problem, strategy, grid, operator=operator, **kw)
    rho = problem.prior.rho
    return {
        "call": call,
        "value_at_start": float(J(rho)),
        "gamma": float(policy.gamma),
        "bellman_residual": float(np.max(np.abs(maps.new_values - J.values))),
        "default_solver_error": abs(float(J_default(rho)) - float(J(rho))),
        "value_tolerance": VALUE_TOLERANCE,
        "gamma_tolerance": GAMMA_TOLERANCE,
    }


def main() -> None:
    grid = BeliefGrid.uniform(GRID_SIZE)
    problem = reference_problem()
    exact = build_expectation_operator(problem, grid, "exact")
    op_call = (
        f"op = build_expectation_operator(reference_problem(), "
        f"BeliefGrid.uniform({GRID_SIZE}), '{{method}}')"
    )
    fp_call = (
        "J = solve_finite_horizon(problem, {sweeps}, '{strategy}', grid, operator=op{kw}); "
        "gamma = extract_policy(J, problem, '{strategy}', operator=op{kw}).gamma"
    )
    out = {}
    for strategy in ("control_m", "control_q"):
        out[strategy] = fixed_point(
            problem, exact, strategy,
            op_call.format(method="exact") + "; "
            + fp_call.format(sweeps=REFERENCE_SWEEPS, strategy=strategy, kw=""),
        )
        print(strategy, out[strategy], flush=True)
    # The stored argmin is that of the fixed points, not of the default
    # solver, so the sweep gate checks the CLI against the true minimiser.
    values = [
        float(solve_finite_horizon(problem, REFERENCE_SWEEPS, "open_loop", grid,
                                   operator=exact, q=q)(problem.prior.rho))
        for q in SWEEP_Q_VALUES
    ]
    best = int(np.argmin(values))
    default = sweep_open_loop_q(problem, SWEEP_Q_VALUES, grid=grid, operator=exact)
    out["sweep"] = {
        "call": (
            op_call.format(method="exact") + "; "
            f"[solve_finite_horizon(problem, {REFERENCE_SWEEPS}, 'open_loop', grid, "
            f"operator=op, q=q)(0.0) for q in SWEEP_Q_VALUES]; argmin over "
            f"{len(SWEEP_Q_VALUES)} q values 0, 0.025, ..., 1"
        ),
        "argmin_q": SWEEP_Q_VALUES[best],
        "value_at_start": values[best],
        "default_solver_argmin_q": default.argmin_q,
        "default_solver_error": abs(default.rows[best].value_at_start - values[best]),
        "value_tolerance": VALUE_TOLERANCE,
    }
    print("sweep", out["sweep"], flush=True)

    unequal = reference_problem(UNEQUAL_SIGMA1)
    mc = build_expectation_operator(unequal, grid, "monte_carlo")
    out["unequal_variance.control_m"] = fixed_point(
        unequal, mc, "control_m",
        f"op = build_expectation_operator(reference_problem(sigma1={UNEQUAL_SIGMA1}), "
        f"BeliefGrid.uniform({GRID_SIZE}), 'monte_carlo')  # mc_seed 0; "
        + fp_call.format(sweeps=REFERENCE_SWEEPS, strategy="control_m", kw=""),
    )
    print("unequal", out["unequal_variance.control_m"], flush=True)
    REFERENCE_PATH.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
