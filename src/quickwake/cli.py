"""Command-line surface: JSON config in, CSV/JSON artifacts out.

Subcommands:

* ``solve``     - stationary solve + policy extraction: J.csv, policy.csv,
                  report.json
* ``simulate``  - Monte Carlo evaluation of a solved policy:
                  episodes.csv, metrics.json (and episode 0's trace.csv with
                  --trace)
* ``sweep-q``   - fixed-q cost curve over a q grid: sweep.csv
* ``calibrate`` - bisect lambda_f to a target false-alarm rate:
                  calibration.json
* ``figures``   - the full benchmark set (differential costs, policies,
                  thresholds, sweep curves) in one invocation

Exit codes: 0 success, 1 invalid config or mismatched inputs, 2 solver
non-convergence.  All outputs are deterministic for a fixed (config,
seed) pair; floats are written with a fixed 12-significant-digit format.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dp import (
    DEFAULT_GRID_SIZE,
    DEFAULT_MAX_ITERS,
    DEFAULT_Q_GRID_SIZE,
    BeliefGrid,
    ConvergenceError,
    build_expectation_operator,
    value_iteration,
)
from .model import ChangePrior, Costs, Problem, SensorModel
from .policy import Policy, extract_policy
from .sim import (
    calibrate_lambda_f,
    metrics_from_episodes,
    run_episodes,
    sweep_open_loop_q,
)

SCHEMA_VERSION = 1

STRATEGY_NAMES = {
    "control-m": "control_m",
    "control-q": "control_q",
    "open-loop": "open_loop",
    "fixed-m": "fixed_m",
}

METHOD_NAMES = {
    "exact": "exact",
    "monte-carlo": "monte_carlo",
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _require_keys(block: dict, allowed: dict, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown field {path}{key}")


def _get(block: dict, key: str, kind, path: str, default=None, required: bool = False):
    if key not in block:
        if required:
            raise ConfigError(f"missing field {path}{key}")
        return default
    value = block[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise ConfigError(f"field {path}{key} must be a {kind.__name__}")


@dataclass
class RunConfig:
    problem: Problem
    strategy: str
    method: str
    grid_size: int
    tolerance: float | None
    max_iters: int
    q_grid_size: int
    replications: int
    base_seed: int
    horizon_cap: int | None
    sweep_q_values: np.ndarray | None
    open_loop_q: float | None
    fixed_m: int | None
    target_alpha: float
    calibrate_tolerance: float
    lambda_lo: float
    lambda_hi: float
    max_trials: int
    out_dir: Path
    problem_fields: dict


_TOP_FIELDS = {
    "schema": None, "problem": None, "strategy": None, "solver": None,
    "sim": None, "sweep": None, "calibrate": None, "open_loop_q": None,
    "fixed_m": None, "out_dir": None,
}
_PROBLEM_FIELDS = {
    "n": None, "rho": None, "p": None, "lambda_s": None, "lambda_f": None,
    "mu0": None, "sigma0": None, "mu1": None, "sigma1": None,
}
_SOLVER_FIELDS = {
    "grid_size": None, "tolerance": None, "max_iters": None,
    "q_grid_size": None, "method": None,
}
_SIM_FIELDS = {"replications": None, "base_seed": None, "horizon_cap": None}
_SWEEP_FIELDS = {"q_values": None}
_CALIBRATE_FIELDS = {
    "target_alpha": None, "tolerance": None, "lambda_lo": None,
    "lambda_hi": None, "max_trials": None,
}


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration document.

    Every field is checked before any compute starts; unknown fields are
    rejected by name so typos cannot silently fall back to defaults.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_FIELDS, "")
    schema = _get(raw, "schema", int, "", required=True)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"field schema must be {SCHEMA_VERSION}, got {schema}")

    prob_block = raw.get("problem")
    if not isinstance(prob_block, dict):
        raise ConfigError("missing field problem")
    _require_keys(prob_block, _PROBLEM_FIELDS, "problem.")
    fields = {
        "n": _get(prob_block, "n", int, "problem.", required=True),
        "rho": _get(prob_block, "rho", float, "problem.", required=True),
        "p": _get(prob_block, "p", float, "problem.", required=True),
        "lambda_s": _get(prob_block, "lambda_s", float, "problem.", required=True),
        "lambda_f": _get(prob_block, "lambda_f", float, "problem.", required=True),
        "mu0": _get(prob_block, "mu0", float, "problem.", required=True),
        "sigma0": _get(prob_block, "sigma0", float, "problem.", required=True),
        "mu1": _get(prob_block, "mu1", float, "problem.", required=True),
        "sigma1": _get(prob_block, "sigma1", float, "problem.", required=True),
    }
    try:
        problem = Problem(
            model=SensorModel(fields["mu0"], fields["sigma0"], fields["mu1"], fields["sigma1"]),
            prior=ChangePrior(rho=fields["rho"], p=fields["p"]),
            costs=Costs(lambda_s=fields["lambda_s"], lambda_f=fields["lambda_f"]),
            n=fields["n"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid problem block: {exc}") from exc

    strategy_raw = _get(raw, "strategy", str, "", required=True)
    if strategy_raw not in STRATEGY_NAMES:
        raise ConfigError(
            f"field strategy must be one of {sorted(STRATEGY_NAMES)}, got {strategy_raw!r}"
        )
    strategy = STRATEGY_NAMES[strategy_raw]

    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("field solver must be an object")
    _require_keys(solver, _SOLVER_FIELDS, "solver.")
    grid_size = _get(solver, "grid_size", int, "solver.", default=DEFAULT_GRID_SIZE)
    if grid_size < 2:
        raise ConfigError(f"field solver.grid_size must be >= 2, got {grid_size}")
    tolerance = _get(solver, "tolerance", float, "solver.", default=None)
    if tolerance is not None and tolerance <= 0:
        raise ConfigError(f"field solver.tolerance must be > 0, got {tolerance}")
    max_iters = _get(solver, "max_iters", int, "solver.", default=DEFAULT_MAX_ITERS)
    q_grid_size = _get(solver, "q_grid_size", int, "solver.", default=DEFAULT_Q_GRID_SIZE)
    if q_grid_size < 1:
        raise ConfigError(f"field solver.q_grid_size must be >= 1, got {q_grid_size}")
    method_raw = _get(solver, "method", str, "solver.", default="exact")
    if method_raw not in METHOD_NAMES:
        raise ConfigError(
            f"field solver.method must be one of {sorted(METHOD_NAMES)}, got {method_raw!r}"
        )

    sim_block = raw.get("sim", {})
    if not isinstance(sim_block, dict):
        raise ConfigError("field sim must be an object")
    _require_keys(sim_block, _SIM_FIELDS, "sim.")
    replications = _get(sim_block, "replications", int, "sim.", default=1000)
    if replications < 0:
        raise ConfigError(f"field sim.replications must be >= 0, got {replications}")
    base_seed = _get(sim_block, "base_seed", int, "sim.", default=0)
    horizon_cap = _get(sim_block, "horizon_cap", int, "sim.", default=None)
    if horizon_cap is not None and horizon_cap < 1:
        raise ConfigError(f"field sim.horizon_cap must be >= 1, got {horizon_cap}")

    sweep_block = raw.get("sweep", {})
    if not isinstance(sweep_block, dict):
        raise ConfigError("field sweep must be an object")
    _require_keys(sweep_block, _SWEEP_FIELDS, "sweep.")
    q_values = None
    if "q_values" in sweep_block:
        vals = _get(sweep_block, "q_values", list, "sweep.")
        try:
            q_values = np.asarray([float(v) for v in vals], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError("field sweep.q_values must be a list of numbers") from exc
        if q_values.size == 0 or np.any((q_values < 0) | (q_values > 1)):
            raise ConfigError("field sweep.q_values must be nonempty values in [0, 1]")

    cal = raw.get("calibrate", {})
    if not isinstance(cal, dict):
        raise ConfigError("field calibrate must be an object")
    _require_keys(cal, _CALIBRATE_FIELDS, "calibrate.")
    target_alpha = _get(cal, "target_alpha", float, "calibrate.", default=0.04)
    calibrate_tolerance = _get(cal, "tolerance", float, "calibrate.", default=0.005)
    lambda_lo = _get(cal, "lambda_lo", float, "calibrate.", default=0.1)
    lambda_hi = _get(cal, "lambda_hi", float, "calibrate.", default=1e4)
    max_trials = _get(cal, "max_trials", int, "calibrate.", default=40)

    open_loop_q = _get(raw, "open_loop_q", float, "", default=None)
    if open_loop_q is not None and not 0.0 <= open_loop_q <= 1.0:
        raise ConfigError(f"field open_loop_q must lie in [0, 1], got {open_loop_q}")
    fixed_m = _get(raw, "fixed_m", int, "", default=None)
    if fixed_m is not None and not 0 <= fixed_m <= problem.n:
        raise ConfigError(f"field fixed_m must lie in 0..{problem.n}, got {fixed_m}")
    if strategy == "open_loop" and open_loop_q is None:
        raise ConfigError("missing field open_loop_q (required for strategy open-loop)")
    if strategy == "fixed_m" and fixed_m is None:
        raise ConfigError("missing field fixed_m (required for strategy fixed-m)")

    out_dir = Path(_get(raw, "out_dir", str, "", default="."))
    return RunConfig(
        problem=problem,
        strategy=strategy,
        method=METHOD_NAMES[method_raw],
        grid_size=grid_size,
        tolerance=tolerance,
        max_iters=max_iters,
        q_grid_size=q_grid_size,
        replications=replications,
        base_seed=base_seed,
        horizon_cap=horizon_cap,
        sweep_q_values=q_values,
        open_loop_q=open_loop_q,
        fixed_m=fixed_m,
        target_alpha=target_alpha,
        calibrate_tolerance=calibrate_tolerance,
        lambda_lo=lambda_lo,
        lambda_hi=lambda_hi,
        max_trials=max_trials,
        out_dir=out_dir,
        problem_fields=fields,
    )


def _solve(cfg: RunConfig):
    grid = BeliefGrid.uniform(cfg.grid_size)
    start = time.perf_counter()
    operator = build_expectation_operator(cfg.problem, grid, cfg.method)
    build_seconds = time.perf_counter() - start
    J, report = value_iteration(
        cfg.problem, cfg.strategy, grid, cfg.tolerance, cfg.max_iters,
        q=cfg.open_loop_q, fixed_m=cfg.fixed_m, q_grid_size=cfg.q_grid_size,
        operator=operator,
    )
    policy = extract_policy(
        J, cfg.problem, cfg.strategy, operator=operator,
        q=cfg.open_loop_q, fixed_m=cfg.fixed_m, q_grid_size=cfg.q_grid_size,
    )
    return J, report, policy, build_seconds


def _action_rows(policy: Policy):
    """Per-node (action, m_or_q) pairs; m_or_q is empty on stop rows."""
    for i, pi in enumerate(policy.grid.points):
        if pi >= policy.gamma:
            yield i, pi, "stop", ""
        elif policy.kind in ("control_m", "fixed_m"):
            yield i, pi, "continue", str(int(policy.awake_map[i]))
        elif policy.kind == "control_q":
            yield i, pi, "continue", _fmt(policy.wake_prob_map[i])
        else:
            yield i, pi, "continue", _fmt(policy.fixed_q)


def _write_solve_outputs(
    cfg: RunConfig, J, report, policy: Policy, build_seconds: float, out: Path
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "J.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pi", "J", "action_kind", "m_or_q"])
        for i, pi, action, m_or_q in _action_rows(policy):
            w.writerow([_fmt(pi), _fmt(J.values[i]), action, m_or_q])
    with open(out / "policy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pi", "action", "m_or_q"])
        for _, pi, action, m_or_q in _action_rows(policy):
            w.writerow([_fmt(pi), action, m_or_q])
    doc = {
        "schema": SCHEMA_VERSION,
        "strategy": cfg.strategy,
        "gamma": policy.gamma,
        "value_at_start": float(J(cfg.problem.prior.rho)),
        "iterations": report.iterations,
        "final_sup_norm_delta": report.final_sup_norm_delta,
        "bellman_residual": report.bellman_residual,
        "wall_seconds": report.wall_seconds,
        "operator_build_seconds": build_seconds,
        "grid_size": report.grid_size,
        "tolerance": report.tolerance,
        "method": cfg.method,
        "problem_key": cfg.problem.key(),
        "problem": cfg.problem_fields,
    }
    if cfg.strategy == "open_loop":
        doc["open_loop_q"] = cfg.open_loop_q
    if cfg.strategy == "fixed_m":
        doc["fixed_m"] = cfg.fixed_m
    if cfg.strategy == "control_m":
        doc["awake_rule_mismatches"] = policy.awake_rule_mismatches
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")


def cmd_solve(cfg: RunConfig) -> int:
    J, report, policy, build_seconds = _solve(cfg)
    _write_solve_outputs(cfg, J, report, policy, build_seconds, cfg.out_dir)
    print(
        f"built operator in {build_seconds:.3g} s; solved {cfg.strategy} in "
        f"{report.iterations} rounds (residual {report.bellman_residual:.3g}); "
        f"gamma = {policy.gamma:.6f}, "
        f"J({cfg.problem.prior.rho:g}) = {J(cfg.problem.prior.rho):.6f}"
    )
    return 0


def load_policy(policy_path, problem: Problem) -> Policy:
    """Rebuild a Policy from policy.csv plus its sibling report.json.

    The report carries the refined threshold, the strategy kind, and the
    problem fingerprint; the CSV carries the action maps.

    Raises:
        ConfigError: On a missing report or a problem-fingerprint
            mismatch (the policy was solved for a different instance).
    """
    policy_path = Path(policy_path)
    report_path = policy_path.parent / "report.json"
    if not report_path.exists():
        raise ConfigError(f"missing {report_path} next to {policy_path.name}")
    report = json.loads(report_path.read_text())
    if report.get("problem_key") != problem.key():
        raise ConfigError(
            "policy was solved for a different problem (fingerprint mismatch); "
            "re-run solve with this config"
        )
    kind = report["strategy"]
    pis, actions, values = [], [], []
    with open(policy_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["pi", "action", "m_or_q"]:
            raise ConfigError(f"{policy_path.name} must have columns pi,action,m_or_q")
        for row in reader:
            pis.append(float(row["pi"]))
            actions.append(row["action"])
            values.append(row["m_or_q"])
    grid = BeliefGrid(np.asarray(pis))
    gamma = float(report["gamma"])
    awake_map = None
    wake_prob_map = None
    if kind in ("control_m", "fixed_m"):
        awake_map = np.array([int(v) if v else 0 for v in values])
    if kind == "control_q":
        wake_prob_map = np.array([float(v) if v else 0.0 for v in values])
    return Policy(
        kind=kind, gamma=gamma, grid=grid, n=problem.n,
        problem_key=report["problem_key"],
        awake_map=awake_map, wake_prob_map=wake_prob_map,
        fixed_q=report.get("open_loop_q"), fixed_m=report.get("fixed_m"),
    )


def cmd_simulate(cfg: RunConfig, policy_path, trace: bool) -> int:
    policy = load_policy(policy_path, cfg.problem)
    if cfg.replications < 1:
        raise ConfigError("field sim.replications must be >= 1 for simulate")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    episodes = list(
        run_episodes(
            cfg.problem, policy, cfg.replications, cfg.base_seed,
            horizon_cap=cfg.horizon_cap,
        )
    )
    metrics = metrics_from_episodes(episodes)
    with open(out / "episodes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "T", "tau", "delay", "false_alarm", "obs_cost"])
        for ep in episodes:
            w.writerow(
                [ep.episode, ep.change_time, ep.stop_time, ep.delay,
                 int(ep.false_alarm), _fmt(ep.obs_cost)]
            )
    doc = {
        "schema": SCHEMA_VERSION,
        "replications": metrics.replications,
        "completed": metrics.completed,
        "truncated": metrics.truncated,
        "mean_delay": metrics.mean_delay,
        "delay_half_width": metrics.delay_half_width,
        "prob_false_alarm": metrics.prob_false_alarm,
        "false_alarm_half_width": metrics.false_alarm_half_width,
        "mean_obs_cost": metrics.mean_obs_cost,
        "mean_total_cost": metrics.mean_total_cost,
        "total_cost_half_width": metrics.total_cost_half_width,
        "base_seed": cfg.base_seed,
        "problem_key": cfg.problem.key(),
    }
    (out / "metrics.json").write_text(json.dumps(doc, indent=2) + "\n")
    if trace:
        with open(out / "trace.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "pi", "m"])
            for k, pi, m in episodes[0].trace:
                w.writerow([k, _fmt(pi), m])
    print(
        f"simulated {metrics.completed}/{metrics.replications} episodes: "
        f"cost {metrics.mean_total_cost:.4f} +- {metrics.total_cost_half_width:.4f}, "
        f"P_FA {metrics.prob_false_alarm:.4f}, E_DD {metrics.mean_delay:.4f}"
    )
    return 0


def cmd_sweep_q(cfg: RunConfig) -> int:
    q_values = cfg.sweep_q_values
    if q_values is None:
        q_values = np.linspace(0.0, 1.0, 101)
    grid = BeliefGrid.uniform(cfg.grid_size)
    operator = build_expectation_operator(cfg.problem, grid, cfg.method)
    result = sweep_open_loop_q(
        cfg.problem, q_values, grid=grid, operator=operator,
        tolerance=cfg.tolerance, max_iters=cfg.max_iters,
        replications=cfg.replications, base_seed=cfg.base_seed,
        horizon_cap=cfg.horizon_cap,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "value_at_start", "mean_delay", "is_argmin"])
        for i, row in enumerate(result.rows):
            w.writerow(
                [_fmt(row.q), _fmt(row.value_at_start),
                 _fmt(row.mean_delay) if not math.isnan(row.mean_delay) else "nan",
                 int(i == result.argmin_index)]
            )
    best = result.rows[result.argmin_index]
    print(f"swept {len(result.rows)} q values: min J = {best.value_at_start:.4f} at q = {best.q:g}")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    grid = BeliefGrid.uniform(cfg.grid_size)
    operator = build_expectation_operator(cfg.problem, grid, cfg.method)
    result = calibrate_lambda_f(
        cfg.problem, cfg.strategy, cfg.target_alpha, cfg.calibrate_tolerance,
        lambda_lo=cfg.lambda_lo, lambda_hi=cfg.lambda_hi, max_trials=cfg.max_trials,
        replications=max(cfg.replications, 1), base_seed=cfg.base_seed,
        grid=grid, horizon_cap=cfg.horizon_cap,
        q=cfg.open_loop_q, fixed_m=cfg.fixed_m, q_grid_size=cfg.q_grid_size,
        operator=operator,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SCHEMA_VERSION,
        "strategy": cfg.strategy,
        "target_alpha": cfg.target_alpha,
        "tolerance": cfg.calibrate_tolerance,
        "lambda_f": result.lambda_f,
        "alpha": result.alpha,
        "trials": result.trials,
        "trace": [[lam, alpha] for lam, alpha in result.trace],
        "problem_key": cfg.problem.key(),
    }
    (cfg.out_dir / "calibration.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"calibrated lambda_f = {result.lambda_f:.4f} "
        f"(P_FA {result.alpha:.4f} vs target {cfg.target_alpha}) in {result.trials} trials"
    )
    return 0


def cmd_figures(cfg: RunConfig) -> int:
    """Solve the whole benchmark set and dump every curve as CSV."""
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = BeliefGrid.uniform(cfg.grid_size)
    operator = build_expectation_operator(cfg.problem, grid, cfg.method)
    problem = cfg.problem

    Jm, _ = value_iteration(
        problem, "control_m", grid, cfg.tolerance, cfg.max_iters, operator=operator
    )
    pol_m = extract_policy(Jm, problem, "control_m", operator=operator)
    with open(out / "differential_cost.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pi", "d1", "d2", "d3"])
        B = operator.apply_all(Jm.values)
        for i, pi in enumerate(grid.points):
            w.writerow([_fmt(pi)] + [_fmt(B[m - 1, i] - B[m, i]) for m in (1, 2, 3)])
    with open(out / "awake_policy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pi", "action", "m_or_q"])
        for _, pi, action, m_or_q in _action_rows(pol_m):
            w.writerow([_fmt(pi), action, m_or_q])

    Jq, _ = value_iteration(
        problem, "control_q", grid, cfg.tolerance, cfg.max_iters,
        q_grid_size=cfg.q_grid_size, operator=operator,
    )
    pol_q = extract_policy(
        Jq, problem, "control_q", operator=operator, q_grid_size=cfg.q_grid_size
    )
    with open(out / "value_control_q.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pi", "J"])
        for pi, v in zip(grid.points, Jq.values):
            w.writerow([_fmt(pi), _fmt(v)])
    with open(out / "wake_prob_policy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pi", "action", "m_or_q"])
        for _, pi, action, m_or_q in _action_rows(pol_q):
            w.writerow([_fmt(pi), action, m_or_q])

    with open(out / "fixed_awake_thresholds.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "gamma", "value_at_start"])
        for m in (1, 2, 3):
            Jf, _ = value_iteration(
                problem, "fixed_m", grid, cfg.tolerance, cfg.max_iters,
                fixed_m=m, operator=operator,
            )
            pf = extract_policy(Jf, problem, "fixed_m", operator=operator, fixed_m=m)
            w.writerow([m, _fmt(pf.gamma), _fmt(Jf(problem.prior.rho))])

    q_values = cfg.sweep_q_values
    if q_values is None:
        q_values = np.linspace(0.0, 1.0, 41)
    zero_s = replace(problem, costs=replace(problem.costs, lambda_s=0.0))
    curve = sweep_open_loop_q(
        problem, q_values, grid=grid, operator=operator,
        tolerance=cfg.tolerance, max_iters=cfg.max_iters,
    )
    curve0 = sweep_open_loop_q(
        zero_s, q_values, grid=grid, operator=operator,
        tolerance=cfg.tolerance, max_iters=cfg.max_iters,
    )
    with open(out / "open_loop_sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "value_sensing_cost", "value_free_sensing", "is_argmin"])
        for i, (a, b) in enumerate(zip(curve.rows, curve0.rows)):
            w.writerow(
                [_fmt(a.q), _fmt(a.value_at_start), _fmt(b.value_at_start),
                 int(i == curve.argmin_index)]
            )
    print(f"wrote benchmark figure data to {out} (control_m gamma = {pol_m.gamma:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quickwake",
        description="Quickest change detection with sensor sleep-wake scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override sim.base_seed")
        p.add_argument(
            "--strategy", default=None, choices=sorted(STRATEGY_NAMES),
            help="override the config strategy",
        )

    common(sub.add_parser("solve", help="stationary solve + policy extraction"))
    p_sim = sub.add_parser("simulate", help="Monte Carlo evaluation of a solved policy")
    common(p_sim)
    p_sim.add_argument("--policy", required=True, help="path to a policy.csv from solve")
    p_sim.add_argument("--trace", action="store_true", help="write the trace of episode 0")
    common(sub.add_parser("sweep-q", help="fixed-q cost curve"))
    p_cal = sub.add_parser("calibrate", help="bisect lambda_f to a target P_FA")
    common(p_cal)
    p_cal.add_argument("--target-alpha", type=float, default=None,
                       help="override calibrate.target_alpha")
    common(sub.add_parser("figures", help="run the full benchmark configuration set"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        if args.seed is not None:
            cfg.base_seed = args.seed
        if args.strategy is not None:
            cfg.strategy = STRATEGY_NAMES[args.strategy]
            if cfg.strategy == "open_loop" and cfg.open_loop_q is None:
                raise ConfigError("missing field open_loop_q (required for strategy open-loop)")
            if cfg.strategy == "fixed_m" and cfg.fixed_m is None:
                raise ConfigError("missing field fixed_m (required for strategy fixed-m)")
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.policy, args.trace)
        if args.command == "sweep-q":
            return cmd_sweep_q(cfg)
        if args.command == "calibrate":
            if args.target_alpha is not None:
                cfg.target_alpha = args.target_alpha
            return cmd_calibrate(cfg)
        if args.command == "figures":
            return cmd_figures(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
